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
//! Everything here is seeded or modeled, so the gates compare numbers and
//! every row is one observation (`n = 1`). Tables: `allreduce` (keyed by
//! `nodes`), `shuffle_buffer` (`samples`, `buffer`), `fault_tolerance`
//! (`scheme`, `ranks`, `drop_pct`), `fault_crash` and `fault_analytic`
//! (`scheme`, `nodes`, `drop_pct`; a point whose run aborts holds a
//! `failed` row keyed by its `note` instead of a throughput).
//!
//! Run with: `cargo run --release -p deep500-bench -- ablations`

use crate::paper::fig12_scaling::point_rows;
use crate::rows::{find, select, unless, Better, Row, Verdict};
use crate::{scale, Scale};
use deep500::data::sampler::{BufferShuffleSampler, DatasetSampler};
use deep500::dist::runner::{DistributedRunner, Variant};
use deep500::dist::scaling::{simulate_step, simulate_step_faulty, Scheme, WorkloadModel};
use deep500::dist::{FaultPlan, NetworkModel};
use deep500::prelude::*;
use std::sync::Arc;

pub fn ring_advantage_grows(rows: &[Row]) -> Verdict {
    let flat = select(rows, "allreduce", "flat_s");
    let advantage: Vec<f64> = flat
        .map(|r| r.median / r.median_of(rows, "ring_s"))
        .collect();
    Verdict::new(
        "ring_advantage_grows",
        advantage.windows(2).all(|w| w[1] > w[0]) && advantage.last().is_some_and(|a| *a > 1.0),
        format!("flat/ring communication time {advantage:.1?} by node count: rising, > 1 at the largest"),
    )
}

pub fn displacement_grows_with_the_buffer(rows: &[Row]) -> Verdict {
    // A true shuffle's expected displacement is a third of the dataset.
    let shuffled = select(rows, "shuffle_buffer", "mean_displacement");
    let share: Vec<f64> = shuffled
        .map(|r| r.median / (r.int("samples") as f64 / 3.0))
        .collect();
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

/// A rule over the drop-sweep runs, each given by its `completed` row:
/// contradicted by each run it `breaks`.
fn every_run(name: &str, claim: &str, rows: &[Row], breaks: fn(&[Row], &Row) -> bool) -> Verdict {
    let broken = select(rows, "fault_tolerance", "completed").filter(|r| breaks(rows, r));
    let label = |r: &Row| format!("{} at {}%", r.text("scheme"), r.int("drop_pct"));
    unless(name, claim, broken.map(label).collect())
}

fn incomplete(run: &Row) -> bool {
    run.median != run.int("ranks") as f64
}

pub fn zero_drop_plans_inject_nothing(rows: &[Row]) -> Verdict {
    every_run(
        "zero_drop_plans_inject_nothing",
        "a 0% plan drops and retries nothing and every rank completes",
        rows,
        |rows, r| {
            let injected = r.median_of(rows, "drops") + r.median_of(rows, "retries");
            r.int("drop_pct") == 0 && (injected > 0.0 || incomplete(r))
        },
    )
}

pub fn retries_absorb_moderate_drops(rows: &[Row]) -> Verdict {
    every_run(
        "retries_absorb_moderate_drops",
        "up to 10% drops every scheme completes on every rank with no step lost (3 retries)",
        rows,
        |rows, r| {
            r.int("drop_pct") <= 10 && (incomplete(r) || r.median_of(rows, "steps_lost") > 0.0)
        },
    )
}

pub fn runs_finish_or_abort_together(rows: &[Row]) -> Verdict {
    every_run(
        "runs_finish_or_abort_together",
        "a run completes on all ranks or aborts on all (an exhausted retry budget strands nobody)",
        rows,
        |_, r| incomplete(r) && r.median != 0.0,
    )
}

pub fn crash_survivors_stay_consistent(rows: &[Row]) -> Verdict {
    let run = find(rows, "fault_crash", "completed", ("scheme", "CDSGD"));
    let (ranks, done) = (run.int("ranks") as f64, run.median);
    let consistent = run.median_of(rows, "inconsistent_survivors") == 0.0;
    Verdict::new(
        "crash_survivors_stay_consistent",
        done == ranks - 1.0 && consistent,
        format!(
            "{done} of {ranks} ranks finish after one crash; survivors consistent: {consistent}"
        ),
    )
}

pub fn drops_slow_every_scheme_and_only_the_ps_aborts(rows: &[Row]) -> Verdict {
    let mut against = Vec::new();
    let points = || select(rows, "fault_analytic", "sent_mb_per_step");
    for point in points().filter(|r| r.int("drop_pct") == 0) {
        let (scheme, nodes) = (point.text("scheme"), point.int("nodes"));
        let sweep = points().filter(|r| r.is("scheme", scheme) && r.int("nodes") == nodes);
        let throughput: Vec<Option<f64>> = sweep
            .map(|r| r.try_sibling(rows, "images_per_s").map(|t| t.median))
            .collect();
        let alive: Vec<f64> = throughput.iter().map_while(|t| *t).collect();
        if alive.windows(2).any(|w| w[1] >= w[0]) {
            against.push(format!(
                "{scheme} at {nodes} nodes: throughput does not fall with p: {alive:?}"
            ));
        }
        let aborted = alive.len() < throughput.len();
        if aborted != (scheme == "REF-pssgd" && nodes == 64) {
            against.push(format!("{scheme} at {nodes} nodes: aborted = {aborted}"));
        }
    }
    unless(
        "drops_slow_every_scheme_and_only_the_ps_aborts",
        "throughput falls with the drop rate on every row, and only the synchronous PS at 64 \
         nodes exhausts its retry budget",
        against,
    )
}

fn allreduce_rows() -> Vec<Row> {
    let (w, net) = (WorkloadModel::default(), NetworkModel::aries());
    let mut rows = Vec::new();
    for nodes in [4usize, 8, 16, 32, 64, 128] {
        // Per-node batch of 1: subtract its compute, keep communication.
        let comm =
            |scheme| simulate_step(scheme, nodes, 1, &w, &net).step_time_s - w.compute_s_per_image;
        let row = Row::of("allreduce").key("nodes", nodes);
        rows.push(row.value("ring_s", "s", Better::Lower, comm(Scheme::Cdsgd)));
        rows.push(row.value("flat_s", "s", Better::Lower, comm(Scheme::TfPs)));
    }
    rows
}

fn shuffle_buffer_rows() -> Vec<Row> {
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
            let row = Row::of("shuffle_buffer").key("samples", len);
            let mean = displacement / len as f64;
            let row = row.key("buffer", capacity);
            row.value("mean_displacement", "positions", Better::None, mean)
        })
        .collect()
}

/// The drop-sweep rows and the crash-scenario rows, from 4 real ranks.
fn fault_rows() -> Vec<Row> {
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
        for drop_pct in [0usize, 5, 10, 20] {
            let rate = drop_pct as f64 / 100.0;
            let report = run(variant.clone(), FaultPlan::seeded(42).with_drops(rate, 3));
            let (f, completed) = (report.faults(), report.completed());
            let row = Row::of("fault_tolerance")
                .key("scheme", *name)
                .key("ranks", report.ranks.len())
                .key("drop_pct", drop_pct);
            let recovery_ms = f.recovery_virtual_s * 1e3;
            rows.extend([
                row.count("completed", Better::Higher, completed.len()),
                row.count("drops", Better::None, f.drops_injected as usize),
                row.count("retries", Better::None, f.retries as usize),
                row.count("recoveries", Better::None, f.recoveries as usize),
                row.count("steps_lost", Better::Lower, f.steps_lost as usize),
                row.value("recovery_virtual_ms", "ms", Better::Lower, recovery_ms),
            ]);
            if let Some(loss) = completed.first().and_then(|r| r.losses.last()) {
                rows.push(row.value("loss_end", "loss", Better::Lower, f64::from(*loss)));
            }
        }
    }
    // A crash scenario: rank 2 dies mid-run; survivors renormalize.
    let crash_at = steps as u64 / 2;
    let plan = FaultPlan::seeded(42).with_drops(0.05, 3);
    let report = run(Variant::Cdsgd, plan.with_crash(2, crash_at));
    let row = Row::of("fault_crash").key("scheme", "CDSGD");
    let row = row
        .key("ranks", report.ranks.len())
        .key("crashed_rank", 2usize);
    let row = row.key("at_step", crash_at as usize);
    let inconsistent = usize::from(!report.consistency(1e-5).is_consistent());
    let recoveries = report.faults().recoveries as usize;
    rows.extend([
        row.count("completed", Better::Higher, report.completed().len()),
        row.count("inconsistent_survivors", Better::Lower, inconsistent),
        row.count("recoveries", Better::None, recoveries),
    ]);
    rows
}

fn analytic_fault_rows() -> Vec<Row> {
    let (w, net) = (WorkloadModel::default(), NetworkModel::aries());
    let mut rows = Vec::new();
    for scheme in [Scheme::Cdsgd, Scheme::RefDpsgd, Scheme::RefPssgd] {
        for nodes in [8usize, 64] {
            for drop_pct in [0usize, 5, 20] {
                let p = drop_pct as f64 / 100.0;
                let point = simulate_step_faulty(scheme, nodes, 128, &w, &net, p, 3);
                let row = Row::of("fault_analytic").key("scheme", scheme.label());
                let row = row.key("nodes", nodes).key("drop_pct", drop_pct);
                rows.extend(point_rows(row, &point));
            }
        }
    }
    rows
}

pub fn measure() -> Vec<Row> {
    let mut rows = allreduce_rows();
    rows.extend(shuffle_buffer_rows());
    rows.extend(fault_rows());
    rows.extend(analytic_fault_rows());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_design_ablations_read_monotone_series() {
        let allreduce = |flat: [f64; 3]| -> Vec<Row> {
            let mut rows = Vec::new();
            for (nodes, flat) in [4usize, 16, 64].into_iter().zip(flat) {
                let row = Row::of("allreduce").key("nodes", nodes);
                rows.push(row.value("ring_s", "s", Better::Lower, 0.02));
                rows.push(row.value("flat_s", "s", Better::Lower, flat));
            }
            rows
        };
        assert!(ring_advantage_grows(&allreduce([0.08, 0.33, 1.31])).ok);
        assert!(!ring_advantage_grows(&allreduce([0.08, 0.33, 0.30])).ok);
        assert!(!ring_advantage_grows(&allreduce([0.001, 0.002, 0.003])).ok);

        let shuffle = |share: [f64; 3]| -> Vec<Row> {
            let row = |(buffer, share): (usize, f64)| {
                let row = Row::of("shuffle_buffer")
                    .key("samples", 512usize)
                    .key("buffer", buffer);
                row.value(
                    "mean_displacement",
                    "positions",
                    Better::None,
                    share * 512.0 / 3.0,
                )
            };
            [1usize, 128, 512].into_iter().zip(share).map(row).collect()
        };
        assert!(displacement_grows_with_the_buffer(&shuffle([0.0, 0.49, 0.98])).ok);
        assert!(!displacement_grows_with_the_buffer(&shuffle([0.0, 0.49, 0.40])).ok);
        assert!(!displacement_grows_with_the_buffer(&shuffle([0.2, 0.49, 0.98])).ok);
    }

    fn fault(
        scheme: &str,
        drop_pct: usize,
        completed: usize,
        drops: usize,
        lost: usize,
    ) -> Vec<Row> {
        let row = Row::of("fault_tolerance")
            .key("scheme", scheme)
            .key("ranks", 4usize)
            .key("drop_pct", drop_pct);
        vec![
            row.count("completed", Better::Higher, completed),
            row.count("drops", Better::None, drops),
            row.count("retries", Better::None, drops),
            row.count("steps_lost", Better::Lower, lost),
        ]
    }

    #[test]
    fn the_fault_sweep_gates_read_completion_and_counters() {
        let sound = [
            fault("CDSGD", 0, 4, 0, 0),
            fault("CDSGD", 10, 4, 133, 0),
            fault("CDSGD", 20, 0, 158, 0),
        ]
        .concat();
        assert!(zero_drop_plans_inject_nothing(&sound).ok);
        assert!(retries_absorb_moderate_drops(&sound).ok);
        assert!(runs_finish_or_abort_together(&sound).ok);

        assert!(!zero_drop_plans_inject_nothing(&fault("CDSGD", 0, 4, 3, 0)).ok);
        assert!(!retries_absorb_moderate_drops(&fault("PSSGD", 5, 4, 20, 1)).ok);
        assert!(!retries_absorb_moderate_drops(&fault("PSSGD", 5, 0, 20, 0)).ok);
        let v = runs_finish_or_abort_together(&fault("Horovod", 20, 3, 76, 0));
        assert!(!v.ok && v.detail.contains("Horovod at 20%"), "{}", v.detail);

        let crash = |completed: usize, inconsistent: usize| {
            let row = Row::of("fault_crash")
                .key("scheme", "CDSGD")
                .key("ranks", 4usize);
            [
                row.count("completed", Better::Higher, completed),
                row.count("inconsistent_survivors", Better::Lower, inconsistent),
            ]
        };
        assert!(crash_survivors_stay_consistent(&crash(3, 0)).ok);
        assert!(!crash_survivors_stay_consistent(&crash(3, 1)).ok);
        assert!(!crash_survivors_stay_consistent(&crash(2, 0)).ok);
    }

    #[test]
    fn the_analytic_sweep_gate_wants_falling_throughput_and_one_abort() {
        let sweep = |scheme: &str, nodes: usize, throughput: [Option<f64>; 3]| {
            let mut rows = Vec::new();
            for (drop_pct, t) in [0usize, 5, 20].into_iter().zip(throughput) {
                let row = Row::of("fault_analytic")
                    .key("scheme", scheme)
                    .key("nodes", nodes)
                    .key("drop_pct", drop_pct);
                rows.push(row.value("sent_mb_per_step", "MB", Better::Lower, 200.0));
                rows.push(match t {
                    Some(t) => row.value("images_per_s", "1/s", Better::Higher, t),
                    None => {
                        row.key("note", "retry budget exhausted")
                            .count("failed", Better::Lower, 1)
                    }
                });
            }
            rows
        };
        let ring = sweep("CDSGD", 64, [Some(14353.0), Some(14326.0), Some(14227.0)]);
        let ps = sweep("REF-pssgd", 64, [Some(4100.0), Some(3949.0), None]);
        assert!(drops_slow_every_scheme_and_only_the_ps_aborts(&[ring, ps].concat()).ok);
        // Drops that cost nothing, a ring that aborts, a PS that does not.
        let free = sweep("CDSGD", 8, [Some(1802.0), Some(1802.0), Some(1788.0)]);
        assert!(!drops_slow_every_scheme_and_only_the_ps_aborts(&free).ok);
        let ring_aborts = sweep("CDSGD", 64, [Some(14353.0), Some(14326.0), None]);
        assert!(!drops_slow_every_scheme_and_only_the_ps_aborts(&ring_aborts).ok);
        let ps_survives = sweep("REF-pssgd", 64, [Some(4100.0), Some(3949.0), Some(3000.0)]);
        assert!(!drops_slow_every_scheme_and_only_the_ps_aborts(&ps_survives).ok);
    }
}
