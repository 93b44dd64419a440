//! Fig. 12 — strong and weak scaling of distributed training (Level 3).
//!
//! Two parts, mirroring §V-E:
//!
//! 1. **Small-scale ground truth** (real threads, real messages, virtual
//!    clock): four ranks run every scheme on a real model; communication
//!    volumes are exact message counts: `fig12_ground_truth` rows keyed
//!    by `scheme` and `steps`. Rows only.
//! 2. **Schedule simulation at paper scale** (8–256 nodes, ResNet-50-like
//!    workload, Aries-like α-β network): strong scaling with a global
//!    minibatch of 1,024 and weak scaling at 128 images/node, with the
//!    per-node communication volume of every point (the figure caption's
//!    table). Deterministic, so the gates compare numbers, not intervals:
//!    `fig12_scaling` rows keyed by `mode`, `scheme` and `nodes` hold
//!    `sent_mb_per_step` and `images_per_s`, or, where the scheme fails
//!    at that scale, a `failed` row keyed by its `note` as well.
//!
//! Expected shapes (paper), each a gate over the simulated rows:
//! * CDSGD ≫ REF-dsgd (Python conversions) — `cdsgd_far_ahead_of_ref_dsgd`
//!   (ahead at every node count, ≥ 2× at the largest);
//! * decentralized beats centralized as nodes grow —
//!   `decentralized_beats_centralized_at_scale`;
//! * ASGD degrades with node count — `asgd_degrades_with_nodes`;
//! * DPSGD volume constant — `dpsgd_volume_constant`;
//! * SparCML volume < dense at small scale, densifying with nodes —
//!   `sparcml_densifies_with_nodes`;
//! * TF-PS crashes and Horovod diverges at 256 nodes —
//!   `tfps_crashes_and_horovod_diverges_at_256`.

use crate::rows::{select, unless, Better, Row, Verdict};
use crate::{scale, Scale};
use deep500::dist::runner::{DistributedRunner, Variant};
use deep500::dist::scaling::{strong_scaling, weak_scaling, ScalingPoint, Scheme, WorkloadModel};
use deep500::dist::NetworkModel;
use deep500::prelude::*;
use std::sync::Arc;

/// The allreduce/gossip schemes; the rest of the strong set exchange
/// through a parameter server.
const DECENTRALIZED: [&str; 6] = [
    "CDSGD",
    "Horovod",
    "REF-dsgd",
    "REF-dpsgd",
    "REF-mavg",
    "SparCML",
];

/// The `sent_mb_per_step` rows — one per point — of `scheme`'s `mode`
/// rows, ascending in nodes.
fn points<'a>(rows: &'a [Row], mode: &'a str, scheme: &'a str) -> impl Iterator<Item = &'a Row> {
    let sent = select(rows, "fig12_scaling", "sent_mb_per_step");
    sent.filter(move |r| r.is("mode", mode) && r.is("scheme", scheme))
}

/// The strong-scaling series of `metric` for a scheme that ran at every
/// node count.
fn strong(rows: &[Row], scheme: &str, metric: &str) -> Vec<f64> {
    let points = points(rows, "strong", scheme).map(|p| p.try_sibling(rows, metric));
    let values = points.map(|v| v.unwrap_or_else(|| panic!("{scheme} failed in strong scaling")));
    values.map(|r| r.median).collect()
}

pub fn cdsgd_far_ahead_of_ref_dsgd(rows: &[Row]) -> Verdict {
    let (fast, slow) = (
        strong(rows, "CDSGD", "images_per_s"),
        strong(rows, "REF-dsgd", "images_per_s"),
    );
    let ratios: Vec<f64> = fast.iter().zip(&slow).map(|(f, s)| f / s).collect();
    Verdict::new(
        "cdsgd_far_ahead_of_ref_dsgd",
        ratios.iter().all(|r| *r > 1.0) && ratios.last().is_some_and(|r| *r >= 2.0),
        format!("CDSGD/REF-dsgd strong-scaling throughput {ratios:.2?}: > 1 everywhere, >= 2 at the largest node count"),
    )
}

pub fn decentralized_beats_centralized_at_scale(rows: &[Row]) -> Verdict {
    let mut schemes: Vec<&str> = Vec::new();
    let strong_points =
        select(rows, "fig12_scaling", "sent_mb_per_step").filter(|r| r.is("mode", "strong"));
    for point in strong_points {
        if !schemes.contains(&point.text("scheme")) {
            schemes.push(point.text("scheme"));
        }
    }
    let (decentralized, centralized): (Vec<&str>, Vec<&str>) =
        schemes.iter().partition(|s| DECENTRALIZED.contains(s));
    let at = |schemes: &[&str], i: usize, pick: fn(f64, f64) -> f64, from: f64| {
        schemes
            .iter()
            .map(|s| strong(rows, s, "images_per_s")[i])
            .fold(from, pick)
    };
    let node_counts = points(rows, "strong", schemes[0]).count();
    let margins: Vec<f64> = (0..node_counts)
        .map(|i| {
            at(&decentralized, i, f64::min, f64::INFINITY) / at(&centralized, i, f64::max, 0.0)
        })
        .collect();
    let (first, last) = (margins[0], margins[node_counts - 1]);
    Verdict::new(
        "decentralized_beats_centralized_at_scale",
        last > 1.0 && last > first,
        format!("slowest decentralized / fastest centralized scheme {margins:.2?} by node count: > 1 at the largest and growing"),
    )
}

pub fn asgd_degrades_with_nodes(rows: &[Row]) -> Verdict {
    let throughput = strong(rows, "REF-asgd", "images_per_s");
    let volume = strong(rows, "REF-asgd", "sent_mb_per_step");
    let peak = throughput.iter().fold(0.0f64, |m, t| m.max(*t));
    Verdict::new(
        "asgd_degrades_with_nodes",
        throughput.last().is_some_and(|t| *t < peak) && volume.windows(2).all(|w| w[1] >= w[0]),
        format!("REF-asgd throughput {throughput:.0?} images/s ends below its peak; volume {volume:.0?} MB/step never falls"),
    )
}

pub fn dpsgd_volume_constant(rows: &[Row]) -> Verdict {
    let volume = strong(rows, "REF-dpsgd", "sent_mb_per_step");
    Verdict::new(
        "dpsgd_volume_constant",
        volume.windows(2).all(|w| w[0] == w[1]),
        format!("REF-dpsgd sends {volume:?} MB per node per step across node counts"),
    )
}

pub fn sparcml_densifies_with_nodes(rows: &[Row]) -> Verdict {
    let (sparse, dense) = (
        strong(rows, "SparCML", "sent_mb_per_step"),
        strong(rows, "CDSGD", "sent_mb_per_step"),
    );
    let share: Vec<f64> = sparse.iter().zip(&dense).map(|(s, d)| s / d).collect();
    Verdict::new(
        "sparcml_densifies_with_nodes",
        share[0] < 1.0 && share.windows(2).all(|w| w[1] >= w[0]) && share.last() > share.first(),
        format!("SparCML / dense allreduce volume {share:.2?} by node count: below 1 at the smallest, rising"),
    )
}

pub fn tfps_crashes_and_horovod_diverges_at_256(rows: &[Row]) -> Verdict {
    let mut against = Vec::new();
    for (scheme, symptom) in [("TF-PS", "crash"), ("Horovod", "exploding")] {
        for point in points(rows, "weak", scheme) {
            let nodes = point.int("nodes");
            let failure = select(rows, "fig12_scaling", "failed").find(|r| {
                r.is("mode", "weak") && r.is("scheme", scheme) && r.int("nodes") == nodes
            });
            let (failed, note) = (
                failure.is_some(),
                failure.map_or("none", |r| r.text("note")),
            );
            if failed != (nodes == 256) || (failed && !note.contains(symptom)) {
                against.push(format!(
                    "{scheme} at {nodes} nodes: failed = {failed}, note '{note}'"
                ));
            }
        }
    }
    unless(
        "tfps_crashes_and_horovod_diverges_at_256",
        "TF-PS (crash) and Horovod (exploding loss) fail at 256 nodes and only there",
        against,
    )
}

/// A simulated point's rows: its volume, and its throughput or, where the
/// scheme fails at that scale, a `failed` row keyed by the failure's note.
pub(crate) fn point_rows(row: Row, p: &ScalingPoint) -> [Row; 2] {
    let sent = p.sent_bytes_per_step as f64 / 1e6;
    let outcome = match (p.throughput, p.note) {
        (Some(t), _) => row.value("images_per_s", "1/s", Better::Higher, t),
        (None, note) => {
            row.clone()
                .key("note", note.unwrap_or("none"))
                .count("failed", Better::Lower, 1)
        }
    };
    [
        row.value("sent_mb_per_step", "MB", Better::Lower, sent),
        outcome,
    ]
}

fn scaling_rows(mode: &str, points: Vec<ScalingPoint>) -> impl Iterator<Item = Row> + '_ {
    points.into_iter().flat_map(move |p| {
        let row = Row::of("fig12_scaling").key("mode", mode);
        point_rows(
            row.key("scheme", p.scheme.label()).key("nodes", p.nodes),
            &p,
        )
    })
}

pub fn section() -> Vec<Row> {
    // ------------------------------------------- part 1: real threads
    let steps = if scale() == Scale::Full { 20 } else { 8 };
    let variants: [(&str, Variant); 8] = [
        ("CDSGD", Variant::Cdsgd),
        ("REF-dsgd", Variant::RefDsgd),
        ("Horovod", Variant::Horovod),
        ("REF-pssgd", Variant::Pssgd),
        ("REF-asgd", Variant::Asgd),
        ("REF-dpsgd", Variant::Dpsgd),
        ("REF-mavg", Variant::Mavg { period: 2 }),
        ("SparCML", Variant::SparCml { density: 0.1 }),
    ];
    let shape = Shape::new(&[32]);
    let dataset: Arc<dyn Dataset> =
        Arc::new(SyntheticDataset::new("fig12", shape, 4, 4096, 0.3, 12));
    let network = models::mlp(32, &[64], 4, 12).expect("mlp");
    let run = |variant: Variant| {
        DistributedRunner::new(&network, dataset.clone())
            .world(4)
            .batch(16)
            .steps(steps)
            .seed(3)
            .learning_rate(0.05)
            .variant(variant)
            .network(NetworkModel::aries())
            .run()
            .expect("4-rank run")
    };
    // The virtual clock includes each rank's measured compute: one
    // discarded run first, so the first scheme does not pay the cold start.
    run(Variant::Cdsgd);
    let mut rows = Vec::new();
    for (name, variant) in variants {
        let run = run(variant);
        let rank0 = &run.ranks[0];
        let row = Row::of("fig12_ground_truth").key("scheme", name);
        let row = row.key("steps", steps);
        let (loss, volume) = (
            f64::from(*rank0.losses.last().expect("losses")),
            &rank0.volume,
        );
        rows.extend([
            row.value("loss_end", "loss", Better::Lower, loss),
            row.bytes("bytes_sent", Better::Lower, volume.bytes_sent as usize),
            row.count(
                "messages_sent",
                Better::Lower,
                volume.messages_sent as usize,
            ),
            row.value("virtual_ms", "ms", Better::Lower, rank0.virtual_time * 1e3),
        ]);
    }

    // --------------------------------------- part 2: paper-scale schedules
    let (w, net) = (WorkloadModel::default(), NetworkModel::aries());
    let strong = strong_scaling(&Scheme::strong_set(), &[8, 16, 32, 64], 1024, &w, &net);
    let weak = weak_scaling(&Scheme::weak_set(), &[1, 4, 16, 64, 256], 128, &w, &net);
    rows.extend(scaling_rows("strong", strong));
    rows.extend(scaling_rows("weak", weak));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(nodes, throughput, sent MB)`.
    type Point = (usize, Option<f64>, f64);

    /// Rows of one mode: the points of each scheme.
    fn rows(mode: &str, table: &[(&str, &[Point])]) -> Vec<Row> {
        let mut out = Vec::new();
        for (scheme, points) in table {
            for &(nodes, throughput, sent) in *points {
                let row = Row::of("fig12_scaling")
                    .key("mode", mode)
                    .key("scheme", *scheme)
                    .key("nodes", nodes);
                out.push(row.value("sent_mb_per_step", "MB", Better::Lower, sent));
                let note = match *scheme {
                    "TF-PS" => "application crashed",
                    _ => "exploding loss",
                };
                out.push(match throughput {
                    Some(t) => row.value("images_per_s", "1/s", Better::Higher, t),
                    None => row.key("note", note).count("failed", Better::Lower, 1),
                });
            }
        }
        out
    }

    /// A strong-scaling table with the paper's shapes at 8 and 64 nodes.
    fn strong(edit: impl Fn(&str, usize) -> Option<(f64, f64)>) -> Vec<Row> {
        let base: [(&str, [(f64, f64); 2]); 5] = [
            ("CDSGD", [(1800.0, 179.2), (11486.0, 201.6)]),
            ("REF-dsgd", [(1449.0, 179.2), (4252.0, 201.6)]),
            ("REF-dpsgd", [(1447.0, 204.8), (4530.0, 204.8)]),
            ("REF-asgd", [(1440.0, 921.6), (1275.0, 6656.0)]),
            ("SparCML", [(1662.0, 143.4), (6204.0, 450.6)]),
        ];
        let mut out = Vec::new();
        for (scheme, points) in base {
            let points: Vec<Point> = [8usize, 64]
                .into_iter()
                .zip(points)
                .map(|(nodes, point)| {
                    let (t, sent) = edit(scheme, nodes).unwrap_or(point);
                    (nodes, Some(t), sent)
                })
                .collect();
            out.extend(rows("strong", &[(scheme, &points)]));
        }
        out
    }

    #[test]
    fn the_papers_strong_scaling_shapes_pass_and_each_contradiction_is_red() {
        let paper = strong(|_, _| None);
        for verdict in [
            cdsgd_far_ahead_of_ref_dsgd(&paper),
            decentralized_beats_centralized_at_scale(&paper),
            asgd_degrades_with_nodes(&paper),
            dpsgd_volume_constant(&paper),
            sparcml_densifies_with_nodes(&paper),
        ] {
            assert!(verdict.ok, "{}", verdict.detail);
        }
        let edited = |scheme: &'static str, at: usize, point: (f64, f64)| {
            strong(move |s, n| (s == scheme && n == at).then_some(point))
        };
        // REF-dsgd keeps up with CDSGD at 64 nodes.
        assert!(!cdsgd_far_ahead_of_ref_dsgd(&edited("REF-dsgd", 64, (9000.0, 201.6))).ok);
        // The parameter-server scheme out-scales the slowest allreduce one.
        let ps_wins = edited("REF-asgd", 64, (5000.0, 6656.0));
        assert!(!decentralized_beats_centralized_at_scale(&ps_wins).ok);
        // ASGD keeps scaling; its volume stops growing.
        assert!(!asgd_degrades_with_nodes(&edited("REF-asgd", 64, (2500.0, 6656.0))).ok);
        assert!(!asgd_degrades_with_nodes(&edited("REF-asgd", 64, (1275.0, 500.0))).ok);
        // DPSGD's volume depends on the node count.
        assert!(!dpsgd_volume_constant(&edited("REF-dpsgd", 64, (4530.0, 260.0))).ok);
        // SparCML is denser than the dense allreduce from the start, or thins out.
        assert!(!sparcml_densifies_with_nodes(&edited("SparCML", 8, (1662.0, 190.0))).ok);
        assert!(!sparcml_densifies_with_nodes(&edited("SparCML", 64, (6204.0, 100.0))).ok);
    }

    #[test]
    fn the_256_node_failures_must_be_the_papers_two() {
        let weak = |tfps_256: Option<f64>, horovod_64: Option<f64>| {
            rows(
                "weak",
                &[
                    ("TF-PS", &[(64, Some(4401.0), 204.8), (256, tfps_256, 0.0)]),
                    ("Horovod", &[(64, horovod_64, 201.6), (256, None, 0.0)]),
                ],
            )
        };
        assert!(tfps_crashes_and_horovod_diverges_at_256(&weak(None, Some(14340.0))).ok);
        // TF-PS survives 256 nodes; Horovod is already gone at 64.
        assert!(!tfps_crashes_and_horovod_diverges_at_256(&weak(Some(9000.0), Some(14340.0))).ok);
        assert!(!tfps_crashes_and_horovod_diverges_at_256(&weak(None, None)).ok);
    }
}
