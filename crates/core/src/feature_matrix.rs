//! The paper's Table I (framework features) and Table II (benchmark
//! features) as queryable data plus renderers.
//!
//! These tables are literature surveys, not measurements; encoding them
//! makes the comparison machine-checkable (e.g. "Deep500 is the only
//! benchmark covering performance, convergence and accuracy at once") and
//! lets `examples/feature_matrix.rs` regenerate them.

/// Tri-state feature support, as in the paper's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Offers the feature.
    Full,
    /// Offers it in a limited way.
    Partial,
    /// Does not offer it.
    None,
}

impl Support {
    /// The paper's glyphs: full `●`, partial `◐`, none `○`.
    fn glyph(&self) -> &'static str {
        match self {
            Support::Full => "●",
            Support::Partial => "◐",
            Support::None => "○",
        }
    }
}

use Support::{Full, None as No, Partial};

/// Table I column keys (framework capabilities).
pub const FRAMEWORK_FEATURES: [&str; 13] = [
    "Sta", "Cus", "Def", "Eag", "Com", "Tra", "Dat", "Opt", "CusOpt", "PS", "Dec", "Asy", "CusDist",
];

/// One Table I row.
///
/// Public for: Table I, returned by `framework_matrix`.
#[derive(Debug, Clone)]
pub struct FrameworkRow {
    pub name: &'static str,
    /// (L)ibrary, (F)ramework, (E)frontend, or (M)eta-framework.
    pub kind: char,
    pub features: [Support; 13],
}

/// Table I: DL frameworks and their features (subset of the paper's rows,
/// including every system its evaluation uses, plus Deep500 itself).
pub fn framework_matrix() -> Vec<FrameworkRow> {
    vec![
        FrameworkRow {
            name: "cuDNN",
            kind: 'L',
            features: [Full, No, No, No, No, No, No, No, No, No, No, No, No],
        },
        FrameworkRow {
            name: "MKL-DNN",
            kind: 'L',
            features: [Full, No, No, No, No, No, No, No, No, No, No, No, No],
        },
        FrameworkRow {
            name: "TensorFlow",
            kind: 'F',
            features: [
                Full, Full, Full, Full, Partial, Partial, Full, Partial, Partial, Full, Full,
                Partial, Full,
            ],
        },
        FrameworkRow {
            name: "Caffe2",
            kind: 'F',
            features: [
                Full, Partial, Full, No, Partial, Partial, Full, Partial, Full, Full, Partial,
                Full, Partial,
            ],
        },
        FrameworkRow {
            name: "PyTorch",
            kind: 'F',
            features: [
                Full, Full, No, Full, No, No, Partial, Full, Full, No, Full, Partial, Full,
            ],
        },
        FrameworkRow {
            name: "MXNet",
            kind: 'F',
            features: [
                Full, Partial, Full, Partial, No, No, Full, Partial, Full, Full, No, Full, No,
            ],
        },
        FrameworkRow {
            name: "CNTK",
            kind: 'F',
            features: [
                Full, Partial, Full, No, No, No, Full, Partial, Full, Full, Partial, Full, Partial,
            ],
        },
        FrameworkRow {
            name: "Keras",
            kind: 'E',
            features: [
                Full, No, Partial, Partial, Partial, No, Partial, Partial, Full, No, No, No, No,
            ],
        },
        FrameworkRow {
            name: "Horovod",
            kind: 'E',
            features: [No, No, No, No, No, No, No, No, No, No, Full, Partial, Full],
        },
        // Deep500 provides an isolated modular abstraction of every
        // feature, with reference implementations for most.
        FrameworkRow {
            name: "Deep500",
            kind: 'M',
            features: [Full; 13],
        },
    ]
}

/// Table II column keys (benchmark functionality).
pub const BENCHMARK_FEATURES: [&str; 11] = [
    "Perf", "Conv", "Acc", "Tput", "Brk", "Sca", "Com", "TTA", "FTA", "Ops", "Repro",
];

/// One Table II row.
///
/// Public for: Table II, returned by `benchmark_matrix`.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    pub name: &'static str,
    pub features: [Support; 11],
}

/// Table II: DL benchmarks and their functionality (condensed columns:
/// performance, convergence, accuracy, throughput, timing breakdown,
/// strong scaling, communication, time-to-accuracy, final test accuracy,
/// operator benchmarks, reproducible infrastructure).
pub fn benchmark_matrix() -> Vec<BenchmarkRow> {
    vec![
        BenchmarkRow {
            name: "DeepBench",
            features: [Full, No, Partial, No, No, No, No, No, No, Full, Partial],
        },
        BenchmarkRow {
            name: "TBD",
            features: [Full, No, Partial, Full, Full, No, No, No, No, No, No],
        },
        BenchmarkRow {
            name: "Fathom",
            features: [Full, No, Partial, Full, Partial, No, No, No, No, No, No],
        },
        BenchmarkRow {
            name: "DAWNBench",
            features: [Full, Partial, Full, No, No, Partial, No, Full, Full, No, No],
        },
        BenchmarkRow {
            name: "MLPerf",
            features: [
                Full, Partial, Full, Full, No, Partial, No, Full, Full, No, Partial,
            ],
        },
        BenchmarkRow {
            name: "Deep500",
            features: [Full; 11],
        },
    ]
}

/// Render any support matrix as an aligned text table.
pub fn render_matrix(title: &str, columns: &[&str], rows: &[(String, Vec<Support>)]) -> String {
    let mut headers = vec!["System"];
    headers.extend_from_slice(columns);
    let mut table = deep500_metrics::Table::new(title, &headers);
    for (name, feats) in rows {
        let mut cells = vec![name.clone()];
        cells.extend(feats.iter().map(|s| s.glyph().to_string()));
        table.row(&cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep500_is_the_only_full_coverage_benchmark() {
        let matrix: Vec<(&str, [Support; 11])> = benchmark_matrix()
            .into_iter()
            .map(|r| (r.name, r.features))
            .collect();
        let full: Vec<&str> = matrix
            .iter()
            .filter(|(_, f)| f.iter().all(|&s| s == Full))
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(full, ["Deep500"]);
    }

    #[test]
    fn matrices_are_well_formed() {
        for row in framework_matrix() {
            assert!(!row.name.is_empty());
            assert!("LFEM".contains(row.kind));
        }
        assert!(framework_matrix().len() >= 10);
        assert!(benchmark_matrix().len() >= 6);
    }

    #[test]
    fn render_produces_all_rows() {
        let rows: Vec<(String, Vec<Support>)> = benchmark_matrix()
            .into_iter()
            .map(|r| (r.name.to_string(), r.features.to_vec()))
            .collect();
        let s = render_matrix("Table II", &BENCHMARK_FEATURES, &rows);
        assert!(s.contains("Deep500"));
        assert!(s.contains("MLPerf"));
        assert!(s.contains('●') && s.contains('○'));
        // title + header + separator + one line per row
        assert_eq!(s.lines().count(), 3 + rows.len());
    }

    #[test]
    fn glyphs_are_distinct() {
        assert_ne!(Support::Full.glyph(), Support::None.glyph());
        assert_ne!(Support::Partial.glyph(), Support::None.glyph());
    }
}
