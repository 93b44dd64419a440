//! Fig. 12 — strong and weak scaling of distributed training (Level 3).
//!
//! Two parts, mirroring §V-E:
//!
//! 1. **Small-scale ground truth** (real threads, real messages, virtual
//!    clock): four ranks run every scheme on a real model; communication
//!    volumes are exact message counts. Rows only.
//! 2. **Schedule simulation at paper scale** (8–256 nodes, ResNet-50-like
//!    workload, Aries-like α-β network): strong scaling with a global
//!    minibatch of 1,024 and weak scaling at 128 images/node, with the
//!    per-node communication volume of every point (the figure caption's
//!    table). Deterministic, so the gates compare numbers, not intervals.
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

use crate::rows::{claims, field, num, text, unless, Verdict};
use crate::{scale, Report, Scale};
use deep500::dist::runner::{DistributedRunner, Variant};
use deep500::dist::scaling::{strong_scaling, weak_scaling, ScalingPoint, Scheme, WorkloadModel};
use deep500::dist::NetworkModel;
use deep500::metrics::Json;
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

/// `column` of `scheme`'s `mode` rows, ascending in nodes; `None` where
/// the point failed.
fn series(rows: &[Json], mode: &str, scheme: &str, column: &str) -> Vec<Option<f64>> {
    let points = rows
        .iter()
        .filter(|r| text(r, "mode") == mode && text(r, "scheme") == scheme);
    points.map(|r| field(r, column).as_f64()).collect()
}

/// The strong-scaling series of a scheme that ran at every node count.
fn strong(rows: &[Json], scheme: &str, column: &str) -> Vec<f64> {
    let points = series(rows, "strong", scheme, column).into_iter();
    points
        .map(|v| v.unwrap_or_else(|| panic!("{scheme} failed in strong scaling")))
        .collect()
}

/// The distinct values of `column` over the `mode` rows, in row order.
fn distinct<'a>(rows: &'a [Json], mode: &str, column: &str) -> Vec<&'a Json> {
    let mut out: Vec<&Json> = Vec::new();
    for row in rows.iter().filter(|r| text(r, "mode") == mode) {
        if !out.contains(&field(row, column)) {
            out.push(field(row, column));
        }
    }
    out
}

pub fn cdsgd_far_ahead_of_ref_dsgd(rows: &[Json]) -> Verdict {
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

pub fn decentralized_beats_centralized_at_scale(rows: &[Json]) -> Verdict {
    let schemes = distinct(rows, "strong", "scheme")
        .into_iter()
        .filter_map(Json::as_str);
    let (decentralized, centralized): (Vec<&str>, Vec<&str>) =
        schemes.partition(|s| DECENTRALIZED.contains(s));
    let at = |schemes: &[&str], i: usize, pick: fn(f64, f64) -> f64, from: f64| {
        schemes
            .iter()
            .map(|s| strong(rows, s, "images_per_s")[i])
            .fold(from, pick)
    };
    let node_counts = distinct(rows, "strong", "nodes").len();
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

pub fn asgd_degrades_with_nodes(rows: &[Json]) -> Verdict {
    let throughput = strong(rows, "REF-asgd", "images_per_s");
    let volume = strong(rows, "REF-asgd", "sent_mb_per_step");
    let peak = throughput.iter().fold(0.0f64, |m, t| m.max(*t));
    Verdict::new(
        "asgd_degrades_with_nodes",
        throughput.last().is_some_and(|t| *t < peak) && volume.windows(2).all(|w| w[1] >= w[0]),
        format!("REF-asgd throughput {throughput:.0?} images/s ends below its peak; volume {volume:.0?} MB/step never falls"),
    )
}

pub fn dpsgd_volume_constant(rows: &[Json]) -> Verdict {
    let volume = strong(rows, "REF-dpsgd", "sent_mb_per_step");
    Verdict::new(
        "dpsgd_volume_constant",
        volume.windows(2).all(|w| w[0] == w[1]),
        format!("REF-dpsgd sends {volume:?} MB per node per step across node counts"),
    )
}

pub fn sparcml_densifies_with_nodes(rows: &[Json]) -> Verdict {
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

pub fn tfps_crashes_and_horovod_diverges_at_256(rows: &[Json]) -> Verdict {
    let mut against = Vec::new();
    for (scheme, symptom) in [("TF-PS", "crash"), ("Horovod", "exploding")] {
        let points = rows
            .iter()
            .filter(|r| text(r, "mode") == "weak" && text(r, "scheme") == scheme);
        for row in points {
            let (nodes, failed) = (
                num(row, "nodes"),
                field(row, "images_per_s").as_f64().is_none(),
            );
            let note = field(row, "note").as_str().unwrap_or("none");
            if failed != (nodes == 256.0) || (failed && !note.contains(symptom)) {
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

fn scaling_rows(mode: &str, points: Vec<ScalingPoint>) -> impl Iterator<Item = Json> + '_ {
    points.into_iter().map(move |p| {
        Json::obj([
            ("mode", Json::from(mode)),
            ("scheme", Json::from(p.scheme.label())),
            ("nodes", Json::from(p.nodes)),
            (
                "images_per_s",
                p.throughput.map_or(Json::Null, |t| Json::fixed(t, 1)),
            ),
            (
                "sent_mb_per_step",
                Json::fixed(p.sent_bytes_per_step as f64 / 1e6, 3),
            ),
            ("note", p.note.map_or(Json::Null, Json::from)),
        ])
    })
}

pub fn section(report: &mut Report) {
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
    let dataset: Arc<dyn Dataset> = Arc::new(SyntheticDataset::new(
        "fig12",
        Shape::new(&[32]),
        4,
        4096,
        0.3,
        12,
    ));
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
    let ground_truth: Vec<Json> = variants
        .into_iter()
        .map(|(name, variant)| {
            let run = run(variant);
            let rank0 = &run.ranks[0];
            Json::obj([
                ("scheme", Json::from(name)),
                ("steps", Json::from(steps)),
                (
                    "loss_end",
                    Json::fixed(f64::from(*rank0.losses.last().expect("losses")), 4),
                ),
                ("bytes_sent", Json::from(rank0.volume.bytes_sent)),
                ("messages_sent", Json::from(rank0.volume.messages_sent)),
                ("virtual_ms", Json::fixed(rank0.virtual_time * 1e3, 3)),
            ])
        })
        .collect();

    // --------------------------------------- part 2: paper-scale schedules
    let (w, net) = (WorkloadModel::default(), NetworkModel::aries());
    let strong = strong_scaling(&Scheme::strong_set(), &[8, 16, 32, 64], 1024, &w, &net);
    let weak = weak_scaling(&Scheme::weak_set(), &[1, 4, 16, 64, 256], 128, &w, &net);
    let rows: Vec<Json> = scaling_rows("strong", strong)
        .chain(scaling_rows("weak", weak))
        .collect();

    let verdicts = [
        cdsgd_far_ahead_of_ref_dsgd(&rows),
        decentralized_beats_centralized_at_scale(&rows),
        asgd_degrades_with_nodes(&rows),
        dpsgd_volume_constant(&rows),
        sparcml_densifies_with_nodes(&rows),
        tfps_crashes_and_horovod_diverges_at_256(&rows),
    ];
    claims(report, verdicts);
    report
        .rows("fig12_ground_truth", ground_truth)
        .rows("fig12_scaling", rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(nodes, throughput, sent MB)`.
    type Point = (usize, Option<f64>, f64);

    /// Rows of one mode: the points of each scheme.
    fn rows(mode: &str, table: &[(&str, &[Point])]) -> Vec<Json> {
        let mut out = Vec::new();
        for (scheme, points) in table {
            for &(nodes, throughput, sent) in *points {
                let note = match (throughput, *scheme) {
                    (None, "TF-PS") => Json::from("application crashed"),
                    (None, _) => Json::from("exploding loss"),
                    _ => Json::Null,
                };
                out.push(Json::obj([
                    ("mode", Json::from(mode)),
                    ("scheme", Json::from(*scheme)),
                    ("nodes", Json::from(nodes)),
                    ("images_per_s", throughput.map_or(Json::Null, Json::from)),
                    ("sent_mb_per_step", Json::from(sent)),
                    ("note", note),
                ]));
            }
        }
        out
    }

    /// A strong-scaling table with the paper's shapes at 8 and 64 nodes.
    fn strong(edit: impl Fn(&str, usize) -> Option<(f64, f64)>) -> Vec<Json> {
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
