//! The one report writer behind every tracked `BENCH_<name>.json`.
//!
//! Every file holds exactly four top-level keys: `"benchmark"` (the
//! name), `"env"` (`cores`, `threads`, `scale`, `cpu`, `git_sha` — a
//! number without them is not comparable, and two files cannot be told
//! apart or matched to a host), `"rows"` (one [`Row`] per line, see
//! [`crate::rows`]) and `"gates"`: an array of `{"name", "ok", "detail"}`.
//! [`Report::finish`] evaluates the entry's gates on the rows it parses
//! back from the text it writes, so no gate can read anything the file
//! does not hold. A threshold lives in exactly one place — the entry's
//! gate function — and CI checks only the exit code.

use crate::rows::{verdict_of, Gate, Row, Verdict};
use deep500::metrics::Json;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What `git args` prints in `dir`, trimmed; `None` where it fails.
fn git(dir: &Path, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .args(args)
        .current_dir(dir)
        .output();
    let out = out.ok().filter(|out| out.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The root of the git checkout `dir` sits in, or `dir` itself outside
/// one.
pub fn root_of(dir: &Path) -> PathBuf {
    let top = git(dir, &["rev-parse", "--show-toplevel"]);
    top.map_or_else(|| dir.to_path_buf(), PathBuf::from)
}

/// `file` at the root of the checkout the binary runs in: where the
/// tracked reports live. Resolved from the current directory at run time,
/// so a binary copied with its `target/` writes into the tree it runs in,
/// not the one it was built from.
pub fn repo_path(file: &str) -> PathBuf {
    let here = std::env::current_dir().expect("a current directory");
    root_of(&here).join(file)
}

/// Where the reports of this run land: the repository root, where the
/// tracked `BENCH_<name>.json` live — except that a smoke run is a check,
/// not a measurement: it writes under `target/` and leaves the tracked
/// trajectory alone.
pub fn report_dir() -> PathBuf {
    report_dir_at(crate::scale())
}

/// [`report_dir`] for a run at `scale`.
pub(crate) fn report_dir_at(scale: crate::Scale) -> PathBuf {
    match scale {
        crate::Scale::Smoke => repo_path("target"),
        _ => repo_path(""),
    }
}

/// The SIMD features the kernels dispatch on, as detected on this host:
/// `avx2+fma+avx512f`, any subset, or `baseline`.
fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    let detected = [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let detected: [(&str, bool); 0] = [];
    let names: Vec<&str> = detected
        .iter()
        .filter_map(|&(name, on)| on.then_some(name))
        .collect();
    if names.is_empty() {
        return "baseline".to_string();
    }
    names.join("+")
}

/// The commit the numbers were measured on, `-dirty` when tracked files
/// other than the reports themselves differ from it; `unknown` outside a
/// git checkout.
fn git_sha() -> String {
    let root = repo_path("");
    let Some(sha) = git(&root, &["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".to_string();
    };
    let tracked = ["status", "--porcelain", "--untracked-files=no", "--", "."];
    let changed = git(&root, &[&tracked[..], &[":!BENCH_*.json"]].concat());
    match changed.as_deref() {
        Some("") => sha,
        _ => format!("{sha}-dirty"),
    }
}

/// One report: what [`Self::finish`] writes and [`Self::parse`] reads.
#[derive(Debug)]
pub struct Report {
    pub benchmark: String,
    pub env: Json,
    pub rows: Vec<Row>,
    pub gates: Vec<Verdict>,
}

impl Report {
    /// The rows of entry `name`, stamped with the environment the numbers
    /// were taken in; no gate has been evaluated yet.
    pub fn new(name: &str, rows: Vec<Row>) -> Report {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let env = Json::obj([
            ("cores", Json::from(cores)),
            ("threads", Json::from(rayon::current_num_threads())),
            ("scale", Json::from(crate::scale().label())),
            ("cpu", Json::from(cpu_features())),
            ("git_sha", Json::from(git_sha())),
        ]);
        Report {
            benchmark: name.to_string(),
            env,
            rows,
            gates: Vec::new(),
        }
    }

    /// The four top-level keys and their values.
    fn fields(&self) -> [(&'static str, Json); 4] {
        let gates = self.gates.iter().map(|g| {
            let (name, detail) = (g.name.as_str(), g.detail.as_str());
            Json::obj([
                ("name", name.into()),
                ("ok", g.ok.into()),
                ("detail", detail.into()),
            ])
        });
        [
            ("benchmark", Json::from(self.benchmark.as_str())),
            ("env", self.env.clone()),
            ("rows", Json::Arr(self.rows.iter().map(Row::json).collect())),
            ("gates", Json::Arr(gates.collect())),
        ]
    }

    /// The report as JSON text: one top-level key per line, rows and gates
    /// one per line, so a re-run diffs row by row.
    pub fn render(&self) -> String {
        let fields = self.fields().map(|(key, value)| {
            let value = match value.as_array() {
                Some(items) if !items.is_empty() => {
                    let items: Vec<String> = items
                        .iter()
                        .map(|i| format!("    {}", i.render()))
                        .collect();
                    format!("[\n{}\n  ]", items.join(",\n"))
                }
                _ => value.render(),
            };
            format!("  \"{key}\": {value}")
        });
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Parse a report, refusing any file that breaks the schema: a report
    /// is what it renders to — the four top-level keys, `env` an object,
    /// every row and gate typed (see [`Row`]) — and `(table, keys, metric)`
    /// is unique.
    pub fn parse(text: &str) -> Result<Report, String> {
        let json = Json::parse(text)?;
        let text = |j: &Json, key| {
            j.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let array = |key| json.get(key).and_then(Json::as_array).unwrap_or_default();
        let gates = array("gates").iter().map(|g| {
            let ok = g.get("ok") == Some(&Json::Bool(true));
            Verdict::new(&text(g, "name"), ok, text(g, "detail"))
        });
        let report = Report {
            benchmark: text(&json, "benchmark"),
            env: json
                .get("env")
                .filter(|e| e.as_object().is_some())
                .cloned()
                .unwrap_or(Json::Null),
            rows: array("rows")
                .iter()
                .map(Row::parse)
                .collect::<Result<_, _>>()?,
            gates: gates.collect(),
        };
        if Json::obj(report.fields()) != json {
            return Err("not a report: its top-level keys, env or gates are malformed".into());
        }
        let mut seen = HashSet::new();
        let id = |r: &Row| {
            format!(
                "{} {} {}",
                r.table,
                Json::Obj(r.keys.clone()).render(),
                r.metric
            )
        };
        if let Some(r) = report.rows.iter().find(|r| !seen.insert(id(r))) {
            return Err(format!("two rows of {}", id(r)));
        }
        Ok(report)
    }

    /// Evaluate `gates` on the rows parsed back from this report's text
    /// (`verdict_of`: a gate that reads a non-finite value is red), then
    /// print and write the file to `path` — the report is the entry's
    /// output, no entry formats a second, human-only copy of its rows —
    /// and turn the gates into an exit code.
    pub fn finish(mut self, gates: &[Gate], path: &Path) -> ExitCode {
        let written = Report::parse(&self.render())
            .unwrap_or_else(|e| panic!("{}: the report breaks its schema: {e}", self.benchmark));
        self.gates = gates
            .iter()
            .map(|&g| verdict_of(g, &written.rows))
            .collect();
        let text = self.render();
        print!("{text}");
        let dir = path.parent().expect("reports live in a directory");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(path, text))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        let failed: Vec<&Verdict> = self.gates.iter().filter(|g| !g.ok).collect();
        for gate in &failed {
            eprintln!("gate {}: FAIL — {}", gate.name, gate.detail);
        }
        println!(
            "wrote {} ({} gates, {} failed)",
            path.display(),
            self.gates.len(),
            failed.len()
        );
        if failed.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{no_slower, Better};

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("d5_report_{tag}_{}.json", std::process::id()))
    }

    fn rows() -> Vec<Row> {
        let cell = Row::of("cases").key("label", "a \"quoted\" name");
        vec![
            cell.value("ratio", "ratio", Better::None, 1.23456),
            cell.count("failed", Better::Lower, 0),
        ]
    }

    fn holds(rows: &[Row]) -> Verdict {
        Verdict::new("holds", rows.len() == 2, format!("{} rows", rows.len()))
    }

    fn ceiling(rows: &[Row]) -> Verdict {
        let ratio = rows[0].median;
        Verdict::new("ceiling", ratio <= 1.2, format!("{ratio} <= 1.2"))
    }

    #[test]
    fn rendered_report_reparses_with_env_fields_rows_and_gates() {
        let mut report = Report::new("unit", rows());
        report.gates.push(holds(&report.rows));
        let parsed = Report::parse(&report.render()).expect("report is valid");
        assert_eq!(parsed.benchmark, "unit");
        for key in ["cores", "threads"] {
            assert!(
                parsed.env.get(key).and_then(Json::as_f64).unwrap() >= 1.0,
                "{key}"
            );
        }
        for key in ["scale", "cpu", "git_sha"] {
            let value = parsed
                .env
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(!value.is_empty(), "{key}");
        }
        // Values are written at round-trip precision.
        assert_eq!(parsed.rows, report.rows);
        assert_eq!(parsed.gates, report.gates);
    }

    #[test]
    fn a_report_that_breaks_the_schema_is_refused() {
        let mut doubled = Report::new("unit", rows());
        doubled.rows.push(doubled.rows[1].clone());
        let e = Report::parse(&doubled.render()).unwrap_err();
        assert!(e.contains("two rows of cases"), "{e}");
        let extra =
            Report::new("unit", rows())
                .render()
                .replacen("{\n", "{\n  \"unit\": \"ms\",\n", 1);
        assert!(Report::parse(&extra)
            .unwrap_err()
            .contains("top-level keys"));
    }

    #[test]
    fn a_failed_gate_fails_finish_and_is_in_the_written_file() {
        let path = scratch("finish");
        let ok = Report::new("unit", rows()).finish(&[holds], &path);
        assert_eq!(ok, ExitCode::SUCCESS);
        let bad = Report::new("unit", rows()).finish(&[holds, ceiling], &path);
        assert_eq!(bad, ExitCode::FAILURE);
        let written = std::fs::read_to_string(&path).expect("finish wrote the file");
        std::fs::remove_file(&path).ok();
        let gates = Report::parse(&written).unwrap().gates;
        let oks: Vec<bool> = gates.iter().map(|g| g.ok).collect();
        assert_eq!(oks, [true, false]);
        assert_eq!(gates[1].detail, "1.23456 <= 1.2");
    }

    #[test]
    fn a_nan_parity_row_is_written_and_turns_its_gate_red() {
        use crate::entries::gemm::parity;
        let cell = Row::of("results")
            .key("m", 8usize)
            .key("n", 8usize)
            .key("k", 8usize);
        let tier = |t: &str, err: f64| {
            cell.clone()
                .key("tier", t)
                .value("rel_linf", "ratio", Better::Lower, err)
        };
        let path = scratch("nan");
        let rows = vec![tier("blocked", 1e-7), tier("packed", f64::NAN)];
        let code = Report::new("unit", rows.clone()).finish(&[parity, holds], &path);
        assert_eq!(code, ExitCode::FAILURE);
        let written = std::fs::read_to_string(&path).expect("finish wrote the file");
        std::fs::remove_file(&path).ok();
        assert!(written.contains("\"median\": \"NaN\""), "{written}");
        let report = Report::parse(&written).expect("a NaN row reads back");
        assert!(report.rows[1].median.is_nan() && report.rows[0] == rows[0]);
        let oks: Vec<(&str, bool)> = report
            .gates
            .iter()
            .map(|g| (g.name.as_str(), g.ok))
            .collect();
        // `holds` counts rows and reads no value, so it stays green.
        assert_eq!(oks, [("parity", false), ("holds", true)]);
        assert!(
            report.gates[0].detail.contains("reads non-finite"),
            "{}",
            report.gates[0].detail
        );
    }

    #[test]
    fn a_gate_that_a_nan_cannot_contradict_is_red_too() {
        // "packed is no slower": a NaN interval never sits above another,
        // so the gate alone would pass.
        fn no_slower_gate(rows: &[Row]) -> Verdict {
            let pair = ("packed".to_string(), rows[0].interval(), rows[1].interval());
            no_slower("no_slower", "packed is no slower than blocked", [pair])
        }
        let s = deep500::metrics::stats::Summary::of(&[1.0, 1.1, 1.2]);
        let mut slow = Row::of("t").key("tier", "packed").ms("pass", &s);
        let fast = Row::of("t").key("tier", "blocked").ms("pass", &s);
        slow.median = f64::INFINITY;
        slow.ci = Some((f64::NAN, f64::INFINITY));
        let rows = [slow, fast];
        assert!(no_slower_gate(&rows).ok);
        assert!(!verdict_of(no_slower_gate, &rows).ok);
        let line = Json::parse(&rows[0].json().render()).unwrap();
        let back = Row::parse(&line).expect("non-finite values read back");
        assert_eq!(
            (back.median, back.ci.map(|c| c.1)),
            (f64::INFINITY, Some(f64::INFINITY))
        );
    }

    #[test]
    fn the_root_is_the_checkout_or_the_directory_itself() {
        let outside = std::env::temp_dir().join(format!("d5_root_{}", std::process::id()));
        std::fs::create_dir_all(&outside).unwrap();
        assert_eq!(root_of(&outside), outside);
        std::fs::remove_dir_all(&outside).ok();
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = root_of(crate_dir);
        assert_eq!(Some(root.as_path()), crate_dir.ancestors().nth(2));
    }
}
