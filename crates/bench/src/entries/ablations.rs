//! `ablations` — the design choices of this reproduction that no paper
//! figure and no other tracked report measures, and the Level-3
//! fault-injection sweep. (The conv-algorithm crossover and GEMM blocking
//! live in `BENCH_conv.json` / `BENCH_gemm.json`.)
//!
//! 1. **Allreduce schedule** — ring vs flat/PS under the α-β model across
//!    world sizes (why CDSGD rides on the ring): `ring_advantage_grows`.
//! 2. **Shuffle-buffer capacity** — pseudo-shuffle stochasticity vs buffer
//!    size, quantifying the paper's "reduces stochasticity" remark: how
//!    far (in dataset positions) an element travels from its file order.
//!    A true shuffle has expected displacement ~len/3:
//!    `displacement_grows_with_the_buffer`.
//! 3. **Fault tolerance** — 4 real ranks under seeded message-drop plans
//!    with a bounded retry budget (completion, injected/recovered counts,
//!    virtual recovery time), a mid-run crash, and the analytic 8–64 node
//!    sweep where expected retransmissions E = (1 − p^{k+1})/(1 − p) scale
//!    the communication term: `zero_drop_plans_inject_nothing`,
//!    `retries_absorb_moderate_drops`, `runs_finish_or_abort_together`,
//!    `crash_survivors_stay_consistent`,
//!    `drops_slow_every_scheme_and_only_the_ps_aborts`.
//!
//! Everything here is seeded or modeled, so the gates compare numbers.
//!
//! Run with: `cargo run --release -p deep500-bench -- ablations`

use crate::rows::{claims, field, num, text, unless, Verdict};
use crate::{scale, Report, Scale};
use deep500::data::sampler::{BufferShuffleSampler, DatasetSampler};
use deep500::dist::runner::{DistributedRunner, Variant};
use deep500::dist::scaling::{simulate_step, simulate_step_faulty, Scheme, WorkloadModel};
use deep500::dist::{FaultPlan, NetworkModel};
use deep500::metrics::Json;
use deep500::prelude::*;
use std::sync::Arc;

pub fn ring_advantage_grows(rows: &[Json]) -> Verdict {
    let advantage: Vec<f64> = rows
        .iter()
        .map(|r| num(r, "flat_s") / num(r, "ring_s"))
        .collect();
    Verdict::new(
        "ring_advantage_grows",
        advantage.windows(2).all(|w| w[1] > w[0]) && advantage.last().is_some_and(|a| *a > 1.0),
        format!("flat/ring communication time {advantage:.1?} by node count: rising, > 1 at the largest"),
    )
}

pub fn displacement_grows_with_the_buffer(rows: &[Json]) -> Verdict {
    let share: Vec<f64> = rows.iter().map(|r| num(r, "of_true_shuffle")).collect();
    let (first, last) = (share[0], *share.last().expect("rows"));
    Verdict::new(
        "displacement_grows_with_the_buffer",
        share.windows(2).all(|w| w[1] >= w[0]) && first == 0.0 && last >= 0.8,
        format!(
            "mean displacement as a share of a true shuffle's {share:.2?} by buffer size: never \
             falling, 0 with no buffer, >= 0.8 once the buffer spans the dataset"
        ),
    )
}

/// A rule over the drop-sweep runs: contradicted by each run `breaks` it.
fn every_run(name: &'static str, claim: &str, rows: &[Json], breaks: fn(&Json) -> bool) -> Verdict {
    let label = |r: &Json| {
        format!(
            "{} at {:.0}%",
            text(r, "scheme"),
            num(r, "drop_rate") * 100.0
        )
    };
    unless(
        name,
        claim,
        rows.iter().filter(|r| breaks(r)).map(label).collect(),
    )
}

fn incomplete(run: &Json) -> bool {
    num(run, "completed") != num(run, "ranks")
}

pub fn zero_drop_plans_inject_nothing(rows: &[Json]) -> Verdict {
    every_run(
        "zero_drop_plans_inject_nothing",
        "a 0% plan drops and retries nothing and every rank completes",
        rows,
        |r| {
            num(r, "drop_rate") == 0.0
                && (num(r, "drops") + num(r, "retries") > 0.0 || incomplete(r))
        },
    )
}

pub fn retries_absorb_moderate_drops(rows: &[Json]) -> Verdict {
    every_run(
        "retries_absorb_moderate_drops",
        "up to 10% drops every scheme completes on every rank with no step lost (3 retries)",
        rows,
        |r| num(r, "drop_rate") <= 0.10 && (incomplete(r) || num(r, "steps_lost") > 0.0),
    )
}

pub fn runs_finish_or_abort_together(rows: &[Json]) -> Verdict {
    every_run(
        "runs_finish_or_abort_together",
        "a run completes on all ranks or aborts on all (an exhausted retry budget strands nobody)",
        rows,
        |r| incomplete(r) && num(r, "completed") != 0.0,
    )
}

pub fn crash_survivors_stay_consistent(row: &Json) -> Verdict {
    let (ranks, done) = (num(row, "ranks"), num(row, "completed"));
    let consistent = field(row, "survivors_consistent").as_bool() == Some(true);
    Verdict::new(
        "crash_survivors_stay_consistent",
        done == ranks - 1.0 && consistent,
        format!(
            "{done} of {ranks} ranks finish after one crash; survivors consistent: {consistent}"
        ),
    )
}

pub fn drops_slow_every_scheme_and_only_the_ps_aborts(rows: &[Json]) -> Verdict {
    let mut against = Vec::new();
    for row in rows {
        let label = format!("{} at {} nodes", text(row, "scheme"), num(row, "nodes"));
        let points = field(row, "images_per_s")
            .as_array()
            .expect("throughput per drop rate");
        let alive: Vec<f64> = points.iter().map_while(Json::as_f64).collect();
        if alive.windows(2).any(|w| w[1] >= w[0]) {
            against.push(format!(
                "{label}: throughput does not fall with p: {alive:?}"
            ));
        }
        let aborted = alive.len() < points.len();
        if aborted != (text(row, "scheme") == "REF-pssgd" && num(row, "nodes") == 64.0) {
            against.push(format!("{label}: aborted = {aborted}"));
        }
    }
    unless(
        "drops_slow_every_scheme_and_only_the_ps_aborts",
        "throughput falls with the drop rate on every row, and only the synchronous PS at 64 \
         nodes exhausts its retry budget",
        against,
    )
}

fn allreduce_rows() -> Vec<Json> {
    let (w, net) = (WorkloadModel::default(), NetworkModel::aries());
    [4usize, 8, 16, 32, 64, 128]
        .iter()
        .map(|&nodes| {
            // Per-node batch of 1: subtract its compute, keep communication.
            let comm = |scheme| {
                simulate_step(scheme, nodes, 1, &w, &net).step_time_s - w.compute_s_per_image
            };
            Json::obj([
                ("nodes", Json::from(nodes)),
                ("ring_s", Json::fixed(comm(Scheme::Cdsgd), 6)),
                ("flat_s", Json::fixed(comm(Scheme::TfPs), 6)),
            ])
        })
        .collect()
}

fn shuffle_buffer_rows() -> Vec<Json> {
    let len = 512usize;
    let ds: Arc<dyn Dataset> = Arc::new(SyntheticDataset::mnist_like(len, 77));
    let originals: Vec<_> = (0..len).map(|i| ds.sample(i).expect("sample")).collect();
    [1usize, 16, 128, 512]
        .iter()
        .map(|&capacity| {
            // With batch = 1 the emission order is a permutation; recover it
            // by matching each emitted sample against the dataset.
            let mut sampler = BufferShuffleSampler::new(ds.clone(), 1, capacity, 5);
            let mut displacement = 0.0;
            let mut emitted = 0usize;
            while let Some(batch) = sampler.next_batch().expect("batch") {
                let source = originals
                    .iter()
                    .position(|o| o.data.data() == batch.x.data())
                    .expect("emitted sample exists");
                displacement += (emitted as f64 - source as f64).abs();
                emitted += 1;
            }
            let mean = displacement / len as f64;
            Json::obj([
                ("buffer", Json::from(capacity)),
                ("mean_displacement", Json::fixed(mean, 2)),
                ("of_true_shuffle", Json::fixed(mean / (len as f64 / 3.0), 4)),
            ])
        })
        .collect()
}

/// (drop-sweep rows, the crash-scenario row) from 4 real ranks.
fn fault_rows() -> (Vec<Json>, Json) {
    let steps = if scale() == Scale::Full { 24 } else { 12 };
    let dataset: Arc<dyn Dataset> = Arc::new(SyntheticDataset::new(
        "fault-bench",
        Shape::new(&[16]),
        4,
        2048,
        0.3,
        21,
    ));
    let network = models::mlp(16, &[16], 4, 21).expect("mlp");
    let run = |variant: Variant, plan: FaultPlan| {
        DistributedRunner::new(&network, dataset.clone())
            .world(4)
            .batch(16)
            .steps(steps)
            .seed(9)
            .learning_rate(0.05)
            .variant(variant)
            .network(NetworkModel::aries())
            .faults(plan.with_patience(0.25))
            .run()
            .expect("4-rank run")
    };
    let variants = [
        ("CDSGD", Variant::Cdsgd),
        ("Horovod", Variant::Horovod),
        ("SSP(1)", Variant::StaleSynchronous { max_staleness: 1 }),
        ("PSSGD", Variant::Pssgd),
    ];
    let mut rows = Vec::new();
    for (name, variant) in &variants {
        for rate in [0.0f64, 0.05, 0.10, 0.20] {
            let report = run(variant.clone(), FaultPlan::seeded(42).with_drops(rate, 3));
            let (f, completed) = (report.faults(), report.completed());
            let loss = completed.first().and_then(|r| r.losses.last());
            rows.push(Json::obj([
                ("scheme", Json::from(*name)),
                ("drop_rate", Json::from(rate)),
                ("ranks", Json::from(report.ranks.len())),
                ("completed", Json::from(completed.len())),
                ("drops", Json::from(f.drops_injected)),
                ("retries", Json::from(f.retries)),
                ("recoveries", Json::from(f.recoveries)),
                ("steps_lost", Json::from(f.steps_lost)),
                (
                    "recovery_virtual_ms",
                    Json::fixed(f.recovery_virtual_s * 1e3, 4),
                ),
                (
                    "loss_end",
                    loss.map_or(Json::Null, |l| Json::fixed(f64::from(*l), 4)),
                ),
            ]));
        }
    }
    // A crash scenario: rank 2 dies mid-run; survivors renormalize.
    let crash_at = steps as u64 / 2;
    let plan = FaultPlan::seeded(42)
        .with_drops(0.05, 3)
        .with_crash(2, crash_at);
    let report = run(Variant::Cdsgd, plan);
    let crash = Json::obj([
        ("scheme", Json::from("CDSGD")),
        ("crashed_rank", Json::from(2usize)),
        ("at_step", Json::from(crash_at)),
        ("ranks", Json::from(report.ranks.len())),
        ("completed", Json::from(report.completed().len())),
        (
            "survivors_consistent",
            Json::from(report.consistency(1e-5).is_consistent()),
        ),
        ("recoveries", Json::from(report.faults().recoveries)),
    ]);
    (rows, crash)
}

fn analytic_fault_rows() -> Vec<Json> {
    let (w, net) = (WorkloadModel::default(), NetworkModel::aries());
    let drop_rates = [0.0, 0.05, 0.2];
    let mut rows = Vec::new();
    for scheme in [Scheme::Cdsgd, Scheme::RefDpsgd, Scheme::RefPssgd] {
        for nodes in [8usize, 64] {
            let points =
                drop_rates.map(|p| simulate_step_faulty(scheme, nodes, 128, &w, &net, p, 3));
            let throughput = points
                .iter()
                .map(|pt| pt.throughput.map_or(Json::Null, |t| Json::fixed(t, 1)));
            let last = &points[drop_rates.len() - 1];
            rows.push(Json::obj([
                ("scheme", Json::from(scheme.label())),
                ("nodes", Json::from(nodes)),
                (
                    "drop_rates",
                    Json::from(drop_rates.map(Json::from).to_vec()),
                ),
                ("images_per_s", Json::from(throughput.collect::<Vec<_>>())),
                (
                    "sent_mb_at_worst",
                    Json::fixed(last.sent_bytes_per_step as f64 / 1e6, 3),
                ),
                ("note", last.note.map_or(Json::Null, Json::from)),
            ]));
        }
    }
    rows
}

pub fn run(report: &mut Report) {
    let allreduce = allreduce_rows();
    let shuffle = shuffle_buffer_rows();
    let (faults, crash) = fault_rows();
    let analytic = analytic_fault_rows();
    let verdicts = [
        ring_advantage_grows(&allreduce),
        displacement_grows_with_the_buffer(&shuffle),
        zero_drop_plans_inject_nothing(&faults),
        retries_absorb_moderate_drops(&faults),
        runs_finish_or_abort_together(&faults),
        crash_survivors_stay_consistent(&crash),
        drops_slow_every_scheme_and_only_the_ps_aborts(&analytic),
    ];
    claims(report, verdicts);
    report
        .rows("allreduce", allreduce)
        .rows("shuffle_buffer", shuffle)
        .rows("fault_tolerance", faults)
        .field("fault_crash", crash)
        .rows("fault_analytic", analytic);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_design_ablations_read_monotone_series() {
        let allreduce = |flat: [f64; 3]| -> Vec<Json> {
            let row = |(nodes, flat): (usize, f64)| {
                Json::obj([
                    ("nodes", Json::from(nodes)),
                    ("ring_s", Json::from(0.02)),
                    ("flat_s", Json::from(flat)),
                ])
            };
            [4usize, 16, 64].into_iter().zip(flat).map(row).collect()
        };
        assert!(ring_advantage_grows(&allreduce([0.08, 0.33, 1.31])).ok);
        assert!(!ring_advantage_grows(&allreduce([0.08, 0.33, 0.30])).ok);
        assert!(!ring_advantage_grows(&allreduce([0.001, 0.002, 0.003])).ok);

        let shuffle = |share: [f64; 3]| -> Vec<Json> {
            let row = |(buffer, share): (usize, f64)| {
                Json::obj([
                    ("buffer", Json::from(buffer)),
                    ("of_true_shuffle", Json::from(share)),
                ])
            };
            [1usize, 128, 512].into_iter().zip(share).map(row).collect()
        };
        assert!(displacement_grows_with_the_buffer(&shuffle([0.0, 0.49, 0.98])).ok);
        assert!(!displacement_grows_with_the_buffer(&shuffle([0.0, 0.49, 0.40])).ok);
        assert!(!displacement_grows_with_the_buffer(&shuffle([0.2, 0.49, 0.98])).ok);
    }

    fn fault(scheme: &str, drop_rate: f64, completed: usize, drops: usize, lost: usize) -> Json {
        Json::obj([
            ("scheme", Json::from(scheme)),
            ("drop_rate", Json::from(drop_rate)),
            ("ranks", Json::from(4usize)),
            ("completed", Json::from(completed)),
            ("drops", Json::from(drops)),
            ("retries", Json::from(drops)),
            ("steps_lost", Json::from(lost)),
        ])
    }

    #[test]
    fn the_fault_sweep_gates_read_completion_and_counters() {
        let sound = [
            fault("CDSGD", 0.0, 4, 0, 0),
            fault("CDSGD", 0.10, 4, 133, 0),
            fault("CDSGD", 0.20, 0, 158, 0),
        ];
        assert!(zero_drop_plans_inject_nothing(&sound).ok);
        assert!(retries_absorb_moderate_drops(&sound).ok);
        assert!(runs_finish_or_abort_together(&sound).ok);

        assert!(!zero_drop_plans_inject_nothing(&[fault("CDSGD", 0.0, 4, 3, 0)]).ok);
        assert!(!retries_absorb_moderate_drops(&[fault("PSSGD", 0.05, 4, 20, 1)]).ok);
        assert!(!retries_absorb_moderate_drops(&[fault("PSSGD", 0.05, 0, 20, 0)]).ok);
        let v = runs_finish_or_abort_together(&[fault("Horovod", 0.20, 3, 76, 0)]);
        assert!(!v.ok && v.detail.contains("Horovod at 20%"), "{}", v.detail);

        let crash = |completed: usize, consistent: bool| {
            Json::obj([
                ("ranks", Json::from(4usize)),
                ("completed", Json::from(completed)),
                ("survivors_consistent", Json::from(consistent)),
            ])
        };
        assert!(crash_survivors_stay_consistent(&crash(3, true)).ok);
        assert!(!crash_survivors_stay_consistent(&crash(3, false)).ok);
        assert!(!crash_survivors_stay_consistent(&crash(2, true)).ok);
    }

    #[test]
    fn the_analytic_sweep_gate_wants_falling_throughput_and_one_abort() {
        let row = |scheme: &str, nodes: usize, throughput: [Option<f64>; 3]| {
            let points = throughput.map(|t| t.map_or(Json::Null, Json::from));
            Json::obj([
                ("scheme", Json::from(scheme)),
                ("nodes", Json::from(nodes)),
                ("images_per_s", Json::from(points.to_vec())),
            ])
        };
        let ring = row("CDSGD", 64, [Some(14353.0), Some(14326.0), Some(14227.0)]);
        let ps = row("REF-pssgd", 64, [Some(4100.0), Some(3949.0), None]);
        assert!(drops_slow_every_scheme_and_only_the_ps_aborts(&[ring.clone(), ps.clone()]).ok);
        // Drops that cost nothing, a ring that aborts, a PS that does not.
        let free = row("CDSGD", 8, [Some(1802.0), Some(1802.0), Some(1788.0)]);
        assert!(!drops_slow_every_scheme_and_only_the_ps_aborts(&[free]).ok);
        let ring_aborts = row("CDSGD", 64, [Some(14353.0), Some(14326.0), None]);
        assert!(!drops_slow_every_scheme_and_only_the_ps_aborts(&[ring_aborts]).ok);
        let ps_survives = row("REF-pssgd", 64, [Some(4100.0), Some(3949.0), Some(3000.0)]);
        assert!(!drops_slow_every_scheme_and_only_the_ps_aborts(&[ps_survives]).ok);
    }
}
