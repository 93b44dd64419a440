//! `profile` — the unified tracing/profiling harness.
//!
//! Runs two traced workloads into one shared
//! [`TraceRecorder`](deep500::metrics::TraceRecorder):
//!
//! 1. a 2-epoch wavefront-executor training run (operator, sampling,
//!    iteration, and epoch spans from the existing `Event` hooks), and
//! 2. a small data-parallel distributed run with every rank's communicator
//!    wrapped in a `TracingCommunicator` (per-peer communication spans).
//!
//! Emits, at the repo root:
//!
//! * `trace.json` — Chrome trace-event JSON; open in `chrome://tracing` or
//!   Perfetto. Self-validated with `validate_chrome_trace` before writing.
//! * `BENCH_profile.json` — machine-readable per-operator attribution
//!   (wall time, GFLOP/s, bytes moved), phase totals, dataset latency, and
//!   communication volume; gates: the trace validates, whole-run
//!   attribution coverage ≥ 0.90, operators and training phases present.
//!
//! A third, untraced run fills the `data_pipeline` table: what a batch
//! costs to assemble against how long a training step waits for it, and
//! the gate `sampling_wait_hidden` on the two. A fourth fills
//! `dist_rendezvous`, one row per executor a rank can train on: what two
//! ranks on the thread transport pay to meet (a ping-pong, one ring
//! allreduce) and what that does to a CDSGD step;
//! `sync_costs_less_than_a_step` gates the round trip against the step, and
//! `planned_dp2_step_beats_reference` the two executors' two-rank steps.
//! A fifth fills `pass_breakdown`: where one pass of the plan interpreter
//! spends its time, per operator type, read from the executor's own
//! `op_totals()`; its only gate, `pass_breakdown_within_the_pass`, is a
//! sanity check that the operators' shares sum to at most the pass.
//!
//! Run with: `cargo run --release -p deep500-bench -- profile`

use crate::rows::{claims, find, num, text, unless, Timing, Verdict};
use crate::{repo_path, scale, time_rounds, Report, Scale, Subject};
use deep500::data::dataset::assemble_minibatch;
use deep500::dist::collectives::allreduce_ring;
use deep500::dist::comm::ThreadCommunicator;
use deep500::dist::optimizers::{dsgd::ConsistentDecentralized, DistributedOptimizer};
use deep500::dist::{Communicator, DistributedRunner, NetworkModel, ThreadTransport, Variant};
use deep500::graph::NodeId;
use deep500::metrics::stats::Summary;
use deep500::metrics::{validate_chrome_trace, Json, Phase, TraceRecorder};
use deep500::prelude::*;
use std::sync::Arc;

/// The samplers assemble one batch ahead, so the `Phase::Sampling` window
/// of a step is the time it waited for its batch, not what the batch cost:
/// on every row the wait's whole CI sits below half the assembly's.
pub fn sampling_wait_hidden(rows: &[Json]) -> Verdict {
    let exposed = rows.iter().filter_map(|row| {
        let (wait, assemble) = (
            Timing::read(row, "wait_ms"),
            Timing::read(row, "assemble_ms"),
        );
        (wait.hi >= 0.5 * assemble.lo).then(|| {
            format!(
                "wait [{:.3}, {:.3}] ms vs assembly [{:.3}, {:.3}] ms",
                wait.lo, wait.hi, assemble.lo, assemble.hi
            )
        })
    });
    unless(
        "sampling_wait_hidden",
        "a step's wait for its batch (CI upper bound) is under half of the batch's assembly \
         (CI lower bound)",
        exposed.collect(),
    )
}

/// LeNet on MNIST-like data, batch 32, `ShuffleSampler`: the cost of
/// assembling a batch directly, and the per-step sampling wait and wall
/// time of a `TrainingRunner` run over the same dataset.
fn data_pipeline_row() -> Json {
    let (batch, seed) = (32, 7);
    let dataset: Arc<dyn Dataset> = Arc::new(SyntheticDataset::mnist_like(2048, seed));
    let mut sampler = ShuffleSampler::new(dataset.clone(), batch, seed);
    let steps = sampler.batches_per_epoch();

    let mut chunks = sampler.order().chunks(batch).cycle();
    let mut direct = [Subject::wall(|| {
        assemble_minibatch(&*dataset, chunks.next().expect("a cycle never ends"))
    })];
    let [assemble] = time_rounds(4, steps, &mut direct)[0];
    drop(direct);

    let net = models::lenet(1, 28, 10, seed).expect("build lenet");
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Wavefront)
        .build()
        .expect("build wavefront engine");
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: 2,
        ..Default::default()
    });
    let log = runner
        .run(
            &mut GradientDescent::new(0.05),
            &mut *engine.lock(),
            &mut sampler,
            None,
        )
        .expect("training run");
    let stamps: Vec<f64> = log.step_losses.iter().map(|&(at, _)| at).collect();
    let step_s: Vec<f64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
    Json::obj([
        ("model", Json::from("lenet 1x28x28")),
        ("sampler", Json::from("ShuffleSampler")),
        ("batch", Json::from(batch)),
        ("steps", Json::from(log.sampling_times.len())),
        ("assemble_ms", Timing::of(&assemble).json()),
        (
            "wait_ms",
            Timing::of(&Summary::of(&log.sampling_times)).json(),
        ),
        ("step_ms", Timing::of(&Summary::of(&step_s)).json()),
    ])
}

/// Two ranks that synchronise every step spend less on meeting each other
/// than on the step itself: every receive of the two-rank step priced at a
/// whole round trip (CI upper bound) comes to less than one solo step (CI
/// lower bound). The step times themselves are rows, not gated: how far
/// `dp2_step_ms` sits above `solo_step_ms` moves with where the host puts
/// the two threads (EXPERIMENTS E30); what a rendezvous costs does not.
pub fn sync_costs_less_than_a_step(rows: &[Json]) -> Verdict {
    let costly = rows.iter().filter_map(|row| {
        let (roundtrip, solo) = (
            Timing::read(row, "roundtrip_ms"),
            Timing::read(row, "solo_step_ms"),
        );
        let recvs = num(row, "recvs_per_step");
        (recvs * roundtrip.hi >= solo.lo).then(|| {
            format!(
                "{}: {recvs} receives at [{:.4}, {:.4}] ms a round trip vs a solo step of \
                 [{:.3}, {:.3}] ms",
                text(row, "executor"),
                roundtrip.lo,
                roundtrip.hi,
                solo.lo,
                solo.hi
            )
        })
    });
    unless(
        "sync_costs_less_than_a_step",
        "the receives of a two-rank CDSGD step, each priced at a round trip (CI upper bound), \
         cost less than a solo step (CI lower bound), on every executor",
        costly.collect(),
    )
}

/// The runner's ranks train on the plan interpreter because it is faster
/// where they spend their time: a two-rank CDSGD step on it (CI upper
/// bound) is shorter than on the reference oracle (CI lower bound).
pub fn planned_dp2_step_beats_reference(rows: &[Json]) -> Verdict {
    let step = |executor| Timing::read(find(rows, "executor", executor), "dp2_step_ms");
    let (planned, reference) = (step("planned"), step("reference"));
    Verdict::new(
        "planned_dp2_step_beats_reference",
        reference.above(&planned),
        format!(
            "a two-rank CDSGD step on the planned executor (CI upper bound) is shorter than on \
             the reference executor (CI lower bound): planned [{:.3}, {:.3}] vs reference \
             [{:.3}, {:.3}] ms",
            planned.lo, planned.hi, reference.lo, reference.hi
        ),
    )
}

/// What one rank does per call, built from its communicator; returns the
/// messages the rank has received so far.
type RankBody = Box<dyn FnMut() -> u64 + Send>;

/// Per-rank batch of the `dist_rendezvous` steps (spine `dist-mlp-dp2`'s).
const RENDEZVOUS_BATCH: usize = 16;

/// The time of one call of `body` on rank 0 of a fresh two-rank thread
/// transport, and the receives it made per call, while rank 1 runs its own
/// body as many times on a thread of its own (the ranks meet inside the
/// bodies). One subject per `time_rounds`: a peer that parked while another
/// subject ran would be woken, and placed anew by the kernel, at every
/// switch.
fn in_lockstep(
    calls: usize,
    body: impl Fn(ThreadCommunicator) -> RankBody + Send,
) -> (Json, usize) {
    let warmup = calls / 8;
    let mut comms = ThreadTransport::create(2, NetworkModel::instant());
    let (rank1, rank0) = (comms.pop().expect("rank 1"), comms.pop().expect("rank 0"));
    let (mut subject, mut received) = (body(rank0), 0);
    let call = std::thread::scope(|ranks| {
        ranks.spawn(move || {
            // A thread starts on its parent's core and is placed anew only
            // when it wakes: sleep once, so that a kernel that does not
            // balance load does not leave both ranks on one core.
            std::thread::sleep(std::time::Duration::from_millis(1));
            let mut peer = body(rank1);
            (0..warmup + calls).for_each(|_| _ = peer());
        });
        time_rounds(warmup, calls, &mut [Subject::wall(|| received = subject())])[0][0]
    });
    (
        Timing::of(&call).json(),
        received as usize / (warmup + calls),
    )
}

/// A 1-float message to the other rank and back.
fn ping_pong(mut comm: ThreadCommunicator) -> RankBody {
    let rank = comm.rank();
    Box::new(move || {
        if rank == 0 {
            comm.send(1, &[1.0]).expect("ping");
        }
        comm.recv(1 - rank).expect("the other rank answers");
        if rank == 1 {
            comm.send(0, &[1.0]).expect("pong");
        }
        comm.stats().messages_received
    })
}

/// One ring allreduce of 32 768 floats (the spine MLP's largest gradient
/// is 64 × 256 = 16 384).
fn ring_allreduce(mut comm: ThreadCommunicator) -> RankBody {
    let mut buf = vec![1.0f32; 32_768];
    Box::new(move || {
        allreduce_ring(&mut comm, &mut buf).expect("allreduce");
        comm.stats().messages_received
    })
}

/// One CDSGD step of `mlp(64, [256, 128], 8)` at batch 16 on `kind` (spine
/// `dist-mlp-dp2`'s shape), on one fixed batch per rank so that the step is
/// backprop + exchange + update and nothing else.
fn cdsgd_step(kind: ExecutorKind, comm: ThreadCommunicator) -> RankBody {
    let (features, batch, rank) = (64, RENDEZVOUS_BATCH, comm.rank());
    let net = models::mlp(features, &[256, 128], 8, 42).expect("build mlp");
    let mut exec = Engine::builder(net)
        .executor(kind)
        .build()
        .and_then(Engine::into_inner)
        .expect("build the rank's executor");
    let shape = deep500::tensor::Shape::new(&[features]);
    let dataset = SyntheticDataset::new("rendezvous", shape, 8, 64, 0.2, 9);
    let indices: Vec<usize> = (rank * batch..(rank + 1) * batch).collect();
    let mb = assemble_minibatch(&dataset, &indices).expect("assemble the rank's batch");
    let sgd = Box::new(GradientDescent::new(0.01));
    let mut opt = ConsistentDecentralized::optimized(sgd, Box::new(comm));
    Box::new(move || {
        opt.train_step(exec.as_mut(), &mb).expect("train step");
        opt.comm_stats().messages_received
    })
}

/// The same step with nobody to meet: each rank trains on a one-rank
/// transport of its own. Measured two at a time like the real pair, so that
/// the two step times of the row differ by the exchange and not by what a
/// busy neighbouring core costs (two vCPUs may be one physical core).
fn solo_step(kind: ExecutorKind) -> RankBody {
    let alone = ThreadTransport::create(1, NetworkModel::instant()).remove(0);
    cdsgd_step(kind, alone)
}

fn dist_rendezvous_row(kind: ExecutorKind) -> Json {
    let steps = if scale() == Scale::Smoke { 400 } else { 2000 };
    let roundtrip = in_lockstep(16 * steps, ping_pong);
    let allreduce = in_lockstep(steps, ring_allreduce);
    let solo = in_lockstep(steps, |_| solo_step(kind));
    let dp2 = in_lockstep(steps, |comm| cdsgd_step(kind, comm));
    Json::obj([
        ("executor", Json::from(format!("{kind:?}").to_lowercase())),
        ("model", Json::from("mlp 64-256-128-8")),
        ("scheme", Json::from("CDSGD, thread transport")),
        ("batch", Json::from(RENDEZVOUS_BATCH)),
        ("world", Json::from(2usize)),
        ("recvs_per_step", Json::from(dp2.1)),
        ("roundtrip_ms", roundtrip.0),
        ("allreduce_ms", allreduce.0),
        ("solo_step_ms", solo.0),
        ("dp2_step_ms", dp2.0),
    ])
}

/// Operator types `pass_breakdown` gives a row of their own; every other
/// type is summed under `other`.
const BREAKDOWN_OPS: [&str; 6] = ["Conv2d", "BatchNorm", "MaxPool2d", "Relu", "Add", "Linear"];

/// Each workload's operators take at most its pass: the shares of its
/// operator rows (all but `residual`) sum to ≤ 1. A sum above one would
/// mean the executor's totals count time twice or outside the pass.
pub fn pass_breakdown_within_the_pass(rows: &[Json]) -> Verdict {
    let mut workloads: Vec<&str> = rows.iter().map(|r| text(r, "workload")).collect();
    workloads.dedup();
    let over = workloads.into_iter().filter_map(|workload| {
        let ops = rows
            .iter()
            .filter(|r| text(r, "workload") == workload && text(r, "op") != "residual");
        let sum: f64 = ops.map(|r| num(r, "share")).sum();
        (sum > 1.0).then(|| format!("{workload}: operator shares sum to {sum:.4}"))
    });
    unless(
        "pass_breakdown_within_the_pass",
        "on every workload the operator rows' shares of the pass sum to at most 1",
        over.collect(),
    )
}

/// Per-type seconds (forward + backward) the executor behind `engine` has
/// accounted so far, in `BREAKDOWN_OPS` order with `other` last, and the
/// calls behind them.
fn op_seconds_by_type(engine: &Engine) -> [(f64, usize); BREAKDOWN_OPS.len() + 1] {
    let ex = engine.lock();
    let mut by_type = [(0.0, 0); BREAKDOWN_OPS.len() + 1];
    for (id, t) in ex.op_totals() {
        let op_type = ex.network().node(NodeId(id)).map(|n| n.op_type.as_str());
        let slot = BREAKDOWN_OPS
            .iter()
            .position(|&op| Some(op) == op_type)
            .unwrap_or(BREAKDOWN_OPS.len());
        by_type[slot].0 += t.forward_s + t.backward_s;
        by_type[slot].1 += t.forward_calls + t.backward_calls;
    }
    by_type
}

/// Where `passes` calls of `pass` on `engine` (a plan interpreter) spend
/// their time: one row per operator type with its µs and calls per pass and
/// its share of the pass, and a `residual` row for the pass time no
/// operator accounts for. Warmed first, so that plan, packed filters and
/// buffer pool are built.
fn pass_breakdown(
    workload: &str,
    engine: &Engine,
    passes: usize,
    mut pass: impl FnMut(),
) -> Vec<Json> {
    (0..passes / 4 + 1).for_each(|_| pass());
    let before = op_seconds_by_type(engine);
    let start = std::time::Instant::now();
    (0..passes).for_each(|_| pass());
    let pass_us = start.elapsed().as_secs_f64() * 1e6 / passes as f64;
    let after = op_seconds_by_type(engine);
    let per_pass = after.iter().zip(before).map(|(a, b)| {
        let us = (a.0 - b.0) * 1e6 / passes as f64;
        (us, (a.1 - b.1) as f64 / passes as f64)
    });
    let mut ops: Vec<(&str, f64, f64)> = BREAKDOWN_OPS
        .into_iter()
        .chain(["other"])
        .zip(per_pass)
        .map(|(op, (us, calls))| (op, us, calls))
        .collect();
    let residual = pass_us - ops.iter().map(|&(_, us, _)| us).sum::<f64>();
    ops.push(("residual", residual, 0.0));
    ops.into_iter()
        .map(|(op, us, calls)| {
            Json::obj([
                ("workload", Json::from(workload)),
                ("op", Json::from(op)),
                ("calls_per_pass", Json::fixed(calls, 2)),
                ("us_per_pass", Json::fixed(us, 2)),
                ("share", Json::fixed(us / pass_us, 4)),
                ("pass_us", Json::fixed(pass_us, 2)),
            ])
        })
        .collect()
}

/// `pass_breakdown` rows of `resnet_like(3, 32, 16, 2, 10)` inference at 1
/// and 4 rows (spine `serve-conv-open`'s model and common batch sizes) and
/// of one Adam training step of `lenet(3, 16, 10)` at 32 rows (spine
/// `train-cnn`'s), each on a Planned engine of its own.
fn pass_breakdown_rows() -> Vec<Json> {
    let passes = if scale() == Scale::Smoke { 100 } else { 1000 };
    let planned = |net| {
        Engine::builder(net)
            .executor(ExecutorKind::Planned)
            .build()
            .expect("build planned engine")
    };
    let mut rows = Vec::new();
    for batch in [1, 4] {
        let engine = planned(models::resnet_like(3, 32, 16, 2, 10, 23).expect("build resnet"));
        let x: Vec<f32> = (0..batch * 3 * 32 * 32)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let feeds = [
            (
                "x",
                Tensor::from_vec([batch, 3, 32, 32], x).expect("x shape"),
            ),
            (
                "labels",
                Tensor::from_vec([batch], vec![1.0; batch]).expect("labels shape"),
            ),
        ];
        let session = engine.session();
        let workload = format!("resnet_like 3x32x32 c16 b2 forward, {batch} row(s)");
        rows.extend(pass_breakdown(&workload, &engine, passes, || {
            session.infer(&feeds).expect("resnet pass");
        }));
    }
    let engine = planned(models::lenet(3, 16, 10, 24).expect("build lenet"));
    let shape = deep500::tensor::Shape::new(&[3, 16, 16]);
    let dataset = SyntheticDataset::new("pass-breakdown", shape, 10, 64, 0.3, 9);
    let indices: Vec<usize> = (0..32).collect();
    let batch = assemble_minibatch(&dataset, &indices).expect("assemble the batch");
    let mut adam = Adam::new(1e-3);
    rows.extend(pass_breakdown(
        "lenet 3x16x16 Adam train step, 32 rows",
        &engine,
        passes / 4,
        || {
            train_step(&mut adam, &mut *engine.lock(), &batch).expect("train step");
        },
    ));
    rows
}

pub fn run(report: &mut Report) {
    let recorder = TraceRecorder::new();

    // ---- 1. Traced 2-epoch wavefront training ----------------------------
    // Sized so operator work dominates per-node dispatch overhead: the
    // whole-run coverage gate below leaves <10% of epoch wall time
    // unattributed, which a toy model cannot meet in release builds.
    let features = 64;
    let net = models::mlp(features, &[256, 128], 8, 42).expect("build mlp");
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Wavefront)
        .trace(&recorder)
        .build()
        .expect("build wavefront engine");
    let mut ex = engine.lock();

    let train_ds = SyntheticDataset::new(
        "profile-train",
        deep500::tensor::Shape::new(&[features]),
        8,
        256,
        0.2,
        7,
    );
    let mut sampler = ShuffleSampler::new(Arc::new(train_ds), 32, 7);
    let mut opt = GradientDescent::new(0.05);
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: 2,
        ..Default::default()
    });
    runner.events.push(Box::new(recorder.sink("runner")));
    let log = runner
        .run(&mut opt, &mut *ex, &mut sampler, None)
        .expect("training run");
    ex.annotate_trace(&recorder);

    // ---- Whole-run attribution coverage ----------------------------------
    // Snapshotted here, before the distributed run adds its own spans.
    // Numerator: per-operator attribution plus every owned non-operator
    // phase of the training loop (sampling, batch assembly, loss-gradient
    // seeding, optimizer updates, pool/plan bookkeeping). Denominator: the
    // whole run — total `Epoch` wall time. What is left is genuinely
    // unowned glue (wavefront dispatch, runner loop overhead).
    let attribution = ex.op_attribution();
    let attributed: f64 = attribution.iter().map(|r| r.total_s()).sum();
    let owned_phases = [
        Phase::Sampling,
        Phase::BatchAssembly,
        Phase::LossSeed,
        Phase::OptimizerUpdate,
        Phase::Bookkeeping,
    ];
    let owned: f64 = owned_phases
        .iter()
        .map(|p| recorder.phase_total_s(*p))
        .sum();
    let run_total = recorder.phase_total_s(Phase::Epoch);
    let coverage = if run_total > 0.0 {
        (attributed + owned) / run_total
    } else {
        0.0
    };

    // ---- 2. Traced distributed run ---------------------------------------
    let dist_net = models::mlp(features, &[32], 4, 43).expect("build dist mlp");
    let dist_ds: Arc<dyn Dataset> = Arc::new(SyntheticDataset::new(
        "profile-dist",
        deep500::tensor::Shape::new(&[features]),
        4,
        128,
        0.2,
        8,
    ));
    let report_dist = DistributedRunner::new(&dist_net, dist_ds)
        .world(2)
        .batch(8)
        .steps(8)
        .variant(Variant::Cdsgd)
        .trace(&recorder)
        .run()
        .expect("distributed run");
    assert!(
        report_dist.all_completed(),
        "distributed ranks must complete"
    );
    let volume = report_dist.volume();

    // ---- Chrome trace: validate, then write ------------------------------
    let json = recorder.chrome_trace_json();
    let validated = validate_chrome_trace(&json);
    let trace_path = repo_path("trace.json");
    std::fs::write(&trace_path, &json).expect("write trace.json");
    println!("profile: wrote {}", trace_path.display());
    report.gate(
        "chrome_trace_validates",
        validated.is_ok(),
        match &validated {
            Ok(stats) => format!("{} spans, {} metadata events", stats.spans, stats.metadata),
            Err(e) => e.clone(),
        },
    );

    // ---- Human-readable attribution --------------------------------------
    println!("\n{}", recorder.attribution_table().render());
    let latency = log.dataset_latency().expect("batches were fetched");

    // ---- BENCH_profile.json ----------------------------------------------
    let op_rows: Vec<Json> = attribution
        .iter()
        .map(|r| {
            Json::obj([
                ("op", Json::from(r.name.as_str())),
                ("forward_calls", Json::from(r.forward_calls)),
                ("backward_calls", Json::from(r.backward_calls)),
                ("forward_ms", Json::fixed(r.forward_s * 1e3, 6)),
                ("backward_ms", Json::fixed(r.backward_s * 1e3, 6)),
                ("gflops_per_s", Json::fixed(r.gflops_per_s(), 3)),
                ("flops_per_call", Json::from(r.flops_per_call)),
                ("bytes_per_call", Json::from(r.bytes_per_call)),
            ])
        })
        .collect();
    // Every phase the metrics layer defines, not a hand-picked subset:
    // a new Phase variant shows up here for free.
    let phase_totals = Json::obj(Phase::all().iter().map(|p| {
        // `+ 0.0` normalizes the -0.0 an empty phase can produce.
        let ms = recorder.phase_total_s(*p) * 1e3 + 0.0;
        (p.label(), Json::fixed(ms, 6))
    }));
    let missing: Vec<&str> = std::iter::once(Phase::Epoch)
        .chain(owned_phases)
        .filter(|p| recorder.phase_total_s(*p) <= 0.0)
        .map(|p| p.label())
        .collect();
    report
        .field("trace_file", "trace.json")
        .field("trace_spans", validated.map_or(0, |stats| stats.spans))
        .field("attribution_coverage", Json::fixed(coverage, 4))
        .field("phase_totals_ms", phase_totals)
        .rows("operators", op_rows)
        .field(
            "dataset_latency_ms",
            Json::obj([
                ("median", Json::fixed(latency.median * 1e3, 6)),
                ("mean", Json::fixed(latency.mean * 1e3, 6)),
                ("max", Json::fixed(latency.max * 1e3, 6)),
                ("n", Json::from(latency.n)),
            ]),
        )
        .field(
            "communication",
            Json::obj([
                ("bytes_sent", Json::from(volume.bytes_sent)),
                ("bytes_received", Json::from(volume.bytes_received)),
                ("messages_sent", Json::from(volume.messages_sent)),
                ("messages_received", Json::from(volume.messages_received)),
            ]),
        )
        .gate(
            "attribution_coverage",
            coverage >= 0.90,
            format!("{coverage:.4} >= 0.90 of whole-run (Epoch) wall time"),
        )
        .gate(
            "operators_attributed",
            !attribution.is_empty(),
            format!("{} operators", attribution.len()),
        )
        .gate(
            "training_phases_traced",
            missing.is_empty(),
            format!("Epoch and every owned phase > 0; missing: {missing:?}"),
        );

    // ---- 3. Data pipeline: a batch's cost vs a step's wait for it --------
    let rows = vec![data_pipeline_row()];
    claims(report, [sampling_wait_hidden(&rows)]);
    report.rows("data_pipeline", rows);

    // ---- 4. Rank rendezvous: what meeting costs vs what a step costs -----
    let rows = vec![
        dist_rendezvous_row(ExecutorKind::Reference),
        dist_rendezvous_row(ExecutorKind::Planned),
    ];
    claims(
        report,
        [
            sync_costs_less_than_a_step(&rows),
            planned_dp2_step_beats_reference(&rows),
        ],
    );
    report.rows("dist_rendezvous", rows);

    // ---- 5. Pass breakdown: where a pass's time goes, per operator type --
    let rows = pass_breakdown_rows();
    claims(report, [pass_breakdown_within_the_pass(&rows)]);
    report.rows("pass_breakdown", rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{interval, Span};

    fn rows(assemble: Span, wait: Span) -> [Json; 1] {
        [Json::obj([
            ("assemble_ms", interval(assemble)),
            ("wait_ms", interval(wait)),
        ])]
    }

    #[test]
    fn pass_breakdown_shares_above_one_fail() {
        let row = |workload: &str, op: &str, share: f64| {
            Json::obj([
                ("workload", Json::from(workload)),
                ("op", Json::from(op)),
                ("share", Json::fixed(share, 4)),
            ])
        };
        let rows = |conv: f64| {
            [
                row("a", "Conv2d", 0.6),
                row("a", "BatchNorm", 0.3),
                row("a", "residual", 0.1),
                row("b", "Conv2d", conv),
                row("b", "other", 0.2),
                row("b", "residual", 0.9),
            ]
        };
        assert!(pass_breakdown_within_the_pass(&rows(0.7)).ok);
        let v = pass_breakdown_within_the_pass(&rows(0.9));
        assert!(
            !v.ok && v.detail.contains("b: operator shares sum to 1.1000"),
            "{}",
            v.detail
        );
    }

    #[test]
    fn a_hidden_wait_passes_and_an_exposed_one_fails() {
        assert!(sampling_wait_hidden(&rows((0.42, 0.46), (0.010, 0.018))).ok);
        // The whole assembly shows up in the step: what inline sampling reads.
        let v = sampling_wait_hidden(&rows((0.42, 0.46), (0.43, 0.47)));
        assert!(!v.ok && v.detail.contains("0.430"), "{}", v.detail);
        // Under half at the medians, but the intervals do not show it.
        assert!(!sampling_wait_hidden(&rows((0.30, 0.50), (0.10, 0.16))).ok);
    }

    /// A `dist_rendezvous` row of `executor` with the given CIs.
    fn rendezvous(executor: &str, roundtrip: Span, solo: Span, dp2: Span) -> Json {
        Json::obj([
            ("executor", Json::from(executor)),
            ("recvs_per_step", Json::from(12usize)),
            ("roundtrip_ms", interval(roundtrip)),
            ("solo_step_ms", interval(solo)),
            ("dp2_step_ms", interval(dp2)),
        ])
    }

    #[test]
    fn cheap_rendezvous_passes_and_a_sync_dearer_than_the_step_fails() {
        // Polled on the oracle, and on the plan interpreter as given.
        let rows = |roundtrip: Span, solo: Span| {
            [
                rendezvous("reference", (0.0009, 0.0019), (0.230, 0.240), (0.40, 0.42)),
                rendezvous("planned", roundtrip, solo, (0.30, 0.31)),
            ]
        };
        // Polled: 12 × 1.9 µs against a 0.18 ms step.
        assert!(sync_costs_less_than_a_step(&rows((0.0009, 0.0019), (0.182, 0.237))).ok);
        // Every receive parks: 12 × 38 µs > 198 µs, on the second row only.
        let v = sync_costs_less_than_a_step(&rows((0.0345, 0.0383), (0.198, 0.262)));
        let priced = "planned: 12 receives at [0.0345, 0.0383]";
        assert!(!v.ok && v.detail.contains(priced), "{}", v.detail);
        // Under one step at the medians, but the intervals do not show it.
        assert!(!sync_costs_less_than_a_step(&rows((0.010, 0.020), (0.22, 0.28))).ok);
    }

    #[test]
    fn a_planned_step_below_the_oracles_passes_and_an_overlapping_one_fails() {
        let rows = |planned: Span, reference: Span| {
            let (roundtrip, solo) = ((0.0009, 0.0019), (0.18, 0.24));
            [
                rendezvous("reference", roundtrip, solo, reference),
                rendezvous("planned", roundtrip, solo, planned),
            ]
        };
        // What the runner's default is for: 0.30 ms against 0.40.
        let v = planned_dp2_step_beats_reference(&rows((0.295, 0.305), (0.395, 0.410)));
        assert!(v.ok, "{}", v.detail);
        // Faster at the medians, but the intervals touch.
        let v = planned_dp2_step_beats_reference(&rows((0.30, 0.40), (0.40, 0.42)));
        let touching = "planned [0.300, 0.400] vs reference [0.400, 0.420]";
        assert!(!v.ok && v.detail.contains(touching), "{}", v.detail);
        // The plan interpreter slower than the oracle.
        assert!(!planned_dp2_step_beats_reference(&rows((0.45, 0.47), (0.40, 0.42))).ok);
    }
}
