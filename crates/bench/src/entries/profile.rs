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
//! Emits, beside the run's other reports (the repo root; `target/` under
//! `D5_BENCH_SCALE=smoke`):
//!
//! * `trace.json` — Chrome trace-event JSON; open in `chrome://tracing` or
//!   Perfetto. Self-validated with `validate_chrome_trace` before writing.
//! * `BENCH_profile.json` — the trace's own rows (`trace`, keyed by
//!   `file`: spans, metadata events, validation errors), machine-readable
//!   per-operator attribution (`operators`, keyed by `op`: calls, wall
//!   time, FLOPs and bytes per call), `phase_totals` keyed by `phase`,
//!   `dataset_latency`, and `communication` volume keyed by `direction`;
//!   gates: the trace validates, whole-run attribution coverage ≥ 0.90,
//!   operators and training phases present.
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
//! `op_totals()` (`us_per_pass`, `calls_per_pass`, keyed by `workload`
//! and `op`), next to the pass itself (`pass_us`, keyed by `workload`);
//! its only gate, `pass_breakdown_within_the_pass`, is a sanity check that
//! the operators' shares sum to at most the pass.
//!
//! Run with: `cargo run --release -p deep500-bench -- profile`

use crate::report::report_dir_at;
use crate::rows::{find, select, unless, Better, Row, Verdict};
use crate::{engine, scale, time_rounds, Scale, Subject};
use deep500::data::dataset::assemble_minibatch;
use deep500::dist::collectives::allreduce_ring;
use deep500::dist::comm::ThreadCommunicator;
use deep500::dist::optimizers::{dsgd::ConsistentDecentralized, DistributedOptimizer};
use deep500::dist::{Communicator, DistributedRunner, NetworkModel, ThreadTransport, Variant};
use deep500::graph::NodeId;
use deep500::metrics::stats::Summary;
use deep500::metrics::{op_table, validate_chrome_trace, Phase, TraceRecorder};
use deep500::prelude::*;
use std::sync::Arc;

/// The samplers assemble one batch ahead, so the `Phase::Sampling` window
/// of a step is the time it waited for its batch, not what the batch cost:
/// on every row the wait's whole CI sits below half the assembly's.
pub fn sampling_wait_hidden(rows: &[Row]) -> Verdict {
    let exposed = select(rows, "data_pipeline", "wait_ms").filter_map(|row| {
        let (wait, assemble) = (row.interval(), row.sibling(rows, "assemble_ms").interval());
        let detail = format!("wait {wait} ms vs assembly {assemble} ms");
        (wait.hi >= 0.5 * assemble.lo).then_some(detail)
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
fn data_pipeline_rows() -> Vec<Row> {
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
    let engine = engine(net, ExecutorKind::Wavefront);
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
    let row = Row::of("data_pipeline")
        .key("model", "lenet 1x28x28")
        .key("sampler", "ShuffleSampler")
        .key("batch", batch);
    vec![
        row.count("steps", Better::None, log.sampling_times.len()),
        row.ms("assemble_ms", &assemble),
        row.ms("wait_ms", &Summary::of(&log.sampling_times)),
        row.ms("step_ms", &Summary::of(&step_s)),
    ]
}

/// Two ranks that synchronise every step spend less on meeting each other
/// than on the step itself: every receive of the two-rank step priced at a
/// whole round trip (CI upper bound) comes to less than one solo step (CI
/// lower bound). The step times themselves are rows, not gated: how far
/// `dp2_step_ms` sits above `solo_step_ms` moves with where the host puts
/// the two threads (EXPERIMENTS E30); what a rendezvous costs does not.
pub fn sync_costs_less_than_a_step(rows: &[Row]) -> Verdict {
    let costly = select(rows, "dist_rendezvous", "roundtrip_ms").filter_map(|row| {
        let roundtrip = row.interval();
        let solo = row.sibling(rows, "solo_step_ms").interval();
        let recvs = row.sibling(rows, "recvs_per_step").median;
        let executor = row.text("executor");
        let detail = format!(
            "{executor}: {recvs} receives at {roundtrip:.4} ms a round trip vs a solo step of \
             {solo} ms"
        );
        (recvs * roundtrip.hi >= solo.lo).then_some(detail)
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
pub fn planned_dp2_step_beats_reference(rows: &[Row]) -> Verdict {
    let step = |executor| {
        find(
            rows,
            "dist_rendezvous",
            "dp2_step_ms",
            ("executor", executor),
        )
    };
    let (planned, reference) = (step("planned").interval(), step("reference").interval());
    Verdict::new(
        "planned_dp2_step_beats_reference",
        reference.above(&planned),
        format!(
            "a two-rank CDSGD step on the planned executor (CI upper bound) is shorter than on \
             the reference executor (CI lower bound): planned {planned} vs reference \
             {reference} ms"
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
) -> (Summary, usize) {
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
    (call, received as usize / (warmup + calls))
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
    let mut exec = engine(net, kind).into_inner().expect("the sole handle");
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

fn dist_rendezvous_rows(kind: ExecutorKind) -> Vec<Row> {
    let steps = if scale() == Scale::Smoke { 400 } else { 2000 };
    let roundtrip = in_lockstep(16 * steps, ping_pong);
    let allreduce = in_lockstep(steps, ring_allreduce);
    let solo = in_lockstep(steps, |_| solo_step(kind));
    let dp2 = in_lockstep(steps, |comm| cdsgd_step(kind, comm));
    let row = Row::of("dist_rendezvous")
        .key("executor", format!("{kind:?}").to_lowercase())
        .key("model", "mlp 64-256-128-8")
        .key("scheme", "CDSGD, thread transport")
        .key("batch", RENDEZVOUS_BATCH)
        .key("world", 2usize);
    vec![
        row.count("recvs_per_step", Better::None, dp2.1),
        row.ms("roundtrip_ms", &roundtrip.0),
        row.ms("allreduce_ms", &allreduce.0),
        row.ms("solo_step_ms", &solo.0),
        row.ms("dp2_step_ms", &dp2.0),
    ]
}

/// Operator types `pass_breakdown` gives a row of their own; every other
/// type is summed under `other`.
const BREAKDOWN_OPS: [&str; 6] = ["Conv2d", "BatchNorm", "MaxPool2d", "Relu", "Add", "Linear"];

/// Each workload's operators take at most its pass: the shares of its
/// operator rows sum to ≤ 1. A sum above one would mean the executor's
/// totals count time twice or outside the pass.
pub fn pass_breakdown_within_the_pass(rows: &[Row]) -> Verdict {
    let over = select(rows, "pass_breakdown", "pass_us").filter_map(|pass| {
        let workload = pass.text("workload");
        let ops =
            select(rows, "pass_breakdown", "us_per_pass").filter(|r| r.is("workload", workload));
        let sum = ops.map(|r| r.median).sum::<f64>() / pass.median;
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
/// their time: one row per operator type with its µs and calls per pass,
/// and the pass itself. Warmed first, so that plan, packed filters and
/// buffer pool are built.
fn pass_breakdown(
    workload: &str,
    engine: &Engine,
    passes: usize,
    mut pass: impl FnMut(),
) -> Vec<Row> {
    (0..passes / 4 + 1).for_each(|_| pass());
    let before = op_seconds_by_type(engine);
    let start = std::time::Instant::now();
    (0..passes).for_each(|_| pass());
    let pass_us = start.elapsed().as_secs_f64() * 1e6 / passes as f64;
    let after = op_seconds_by_type(engine);
    let workload = Row::of("pass_breakdown").key("workload", workload);
    let mut rows = vec![workload.value("pass_us", "us", Better::Lower, pass_us)];
    let ops = BREAKDOWN_OPS.into_iter().chain(["other"]);
    for (op, (a, b)) in ops.zip(after.iter().zip(before)) {
        let row = workload.clone().key("op", op);
        let us = (a.0 - b.0) * 1e6 / passes as f64;
        let calls = (a.1 - b.1) as f64 / passes as f64;
        rows.push(row.value("us_per_pass", "us", Better::Lower, us));
        rows.push(row.value("calls_per_pass", "count", Better::None, calls));
    }
    rows
}

/// `pass_breakdown` rows of `resnet_like(3, 32, 16, 2, 10)` inference at 1
/// and 4 rows (spine `serve-conv-open`'s model and common batch sizes) and
/// of one Adam training step of `lenet(3, 16, 10)` at 32 rows (spine
/// `train-cnn`'s), each on a Planned engine of its own.
fn pass_breakdown_rows() -> Vec<Row> {
    let passes = if scale() == Scale::Smoke { 100 } else { 1000 };
    let planned = |net| engine(net, ExecutorKind::Planned);
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
    let workload = "lenet 3x16x16 Adam train step, 32 rows";
    rows.extend(pass_breakdown(workload, &engine, passes / 4, || {
        train_step(&mut adam, &mut *engine.lock(), &batch).expect("train step");
    }));
    rows
}

pub fn measure() -> Vec<Row> {
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

    let shape = deep500::tensor::Shape::new(&[features]);
    let train_ds = SyntheticDataset::new("profile-train", shape.clone(), 8, 256, 0.2, 7);
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
    let owned: f64 = OWNED_PHASES
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
    let dist_ds = SyntheticDataset::new("profile-dist", shape, 4, 128, 0.2, 8);
    let dist_ds: Arc<dyn Dataset> = Arc::new(dist_ds);
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
    let trace = recorder.chrome_trace_json();
    let validated = validate_chrome_trace(&trace);
    let trace_path = trace_path(scale());
    std::fs::write(&trace_path, &trace).expect("write trace.json");
    println!("profile: wrote {}", trace_path.display());
    if let Err(e) = &validated {
        eprintln!("profile: trace.json does not validate: {e}");
    }
    let (spans, metadata) = validated.as_ref().map_or((0, 0), |v| (v.spans, v.metadata));
    let errors = usize::from(validated.is_err());
    let file = Row::of("trace").key("file", "trace.json");
    let mut rows = vec![
        file.count("spans", Better::None, spans),
        file.count("metadata_events", Better::None, metadata),
        file.count("validation_errors", Better::Lower, errors),
        Row::of("attribution").value("coverage", "ratio", Better::Higher, coverage),
    ];

    // ---- Human-readable attribution --------------------------------------
    println!("\n{}", op_table(&attribution).render());

    // ---- BENCH_profile.json ----------------------------------------------
    for r in &attribution {
        let op = Row::of("operators").key("op", r.name.as_str());
        rows.extend([
            op.count("forward_calls", Better::None, r.forward_calls),
            op.count("backward_calls", Better::None, r.backward_calls),
            op.value("forward_ms", "ms", Better::Lower, r.forward_s * 1e3),
            op.value("backward_ms", "ms", Better::Lower, r.backward_s * 1e3),
            op.value("flops_per_call", "flop", Better::None, r.flops_per_call),
            op.bytes("bytes_per_call", Better::None, r.bytes_per_call as usize),
        ]);
    }
    // Every phase the metrics layer defines, not a hand-picked subset:
    // a new Phase variant shows up here for free.
    for p in Phase::all() {
        // `+ 0.0` normalizes the -0.0 an empty phase can produce.
        let ms = recorder.phase_total_s(*p) * 1e3 + 0.0;
        let phase = Row::of("phase_totals").key("phase", p.label());
        rows.push(phase.value("total_ms", "ms", Better::Lower, ms));
    }
    let latency = log.dataset_latency().expect("batches were fetched");
    rows.push(Row::of("dataset_latency").ms("fetch_ms", &latency));
    let volume = [
        ("sent", volume.bytes_sent, volume.messages_sent),
        ("received", volume.bytes_received, volume.messages_received),
    ];
    for (direction, bytes, messages) in volume {
        let row = Row::of("communication").key("direction", direction);
        rows.push(row.bytes("bytes", Better::None, bytes as usize));
        rows.push(row.count("messages", Better::None, messages as usize));
    }

    // ---- 3. Data pipeline: a batch's cost vs a step's wait for it --------
    rows.extend(data_pipeline_rows());

    // ---- 4. Rank rendezvous: what meeting costs vs what a step costs -----
    rows.extend(dist_rendezvous_rows(ExecutorKind::Reference));
    rows.extend(dist_rendezvous_rows(ExecutorKind::Planned));

    // ---- 5. Pass breakdown: where a pass's time goes, per operator type --
    rows.extend(pass_breakdown_rows());
    rows
}

/// The non-operator phases of the training loop that count as attributed
/// time: sampling, batch assembly, loss-gradient seeding, optimizer
/// updates, pool/plan bookkeeping.
const OWNED_PHASES: [Phase; 5] = [
    Phase::Sampling,
    Phase::BatchAssembly,
    Phase::LossSeed,
    Phase::OptimizerUpdate,
    Phase::Bookkeeping,
];

pub fn chrome_trace_validates(rows: &[Row]) -> Verdict {
    let trace = find(rows, "trace", "spans", ("file", "trace.json"));
    let errors = trace.median_of(rows, "validation_errors");
    let metadata = trace.median_of(rows, "metadata_events");
    let detail = if errors == 0.0 {
        format!("{} spans, {metadata} metadata events", trace.median)
    } else {
        "trace.json does not validate (the run's log says why)".to_string()
    };
    Verdict::new("chrome_trace_validates", errors == 0.0, detail)
}

pub fn attribution_coverage(rows: &[Row]) -> Verdict {
    let mut coverage = select(rows, "attribution", "coverage").map(|r| r.median);
    let coverage = coverage.next().unwrap_or(0.0);
    Verdict::new(
        "attribution_coverage",
        coverage >= 0.90,
        format!("{coverage:.4} >= 0.90 of whole-run (Epoch) wall time"),
    )
}

pub fn operators_attributed(rows: &[Row]) -> Verdict {
    let operators = select(rows, "operators", "forward_calls").count();
    Verdict::new(
        "operators_attributed",
        operators > 0,
        format!("{operators} operators"),
    )
}

pub fn training_phases_traced(rows: &[Row]) -> Verdict {
    let phases = std::iter::once(Phase::Epoch).chain(OWNED_PHASES);
    let missing: Vec<&str> = phases
        .map(|p| p.label())
        .filter(|&p| {
            let total = select(rows, "phase_totals", "total_ms").find(|r| r.is("phase", p));
            total.is_none_or(|r| r.median <= 0.0)
        })
        .collect();
    Verdict::new(
        "training_phases_traced",
        missing.is_empty(),
        format!("Epoch and every owned phase > 0; missing: {missing:?}"),
    )
}

/// Where a run at `scale` writes its Chrome trace: beside its reports, so
/// a smoke run's trace lands under `target/` with its smoke reports and
/// leaves the last default-scale run's alone.
fn trace_path(scale: Scale) -> std::path::PathBuf {
    report_dir_at(scale).join("trace.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_trace_goes_where_the_reports_go() {
        let root = crate::repo_path("");
        assert_eq!(
            trace_path(Scale::Smoke),
            root.join("target").join("trace.json")
        );
        assert_eq!(trace_path(Scale::Default), root.join("trace.json"));
        assert_eq!(trace_path(Scale::Full), root.join("trace.json"));
    }

    /// A timing row of `row`'s table and keys whose CI is `(lo, hi)`.
    fn ms(row: &Row, metric: &str, (lo, hi): (f64, f64)) -> Row {
        row.measured(
            metric,
            "ms",
            Better::Lower,
            (lo + hi) / 2.0,
            Some((lo, hi)),
            7,
        )
    }

    fn pipeline(assemble: (f64, f64), wait: (f64, f64)) -> Vec<Row> {
        let row = Row::of("data_pipeline").key("model", "lenet");
        vec![ms(&row, "assemble_ms", assemble), ms(&row, "wait_ms", wait)]
    }

    #[test]
    fn pass_breakdown_shares_above_one_fail() {
        let rows = |conv: f64| {
            let mut rows = Vec::new();
            for (workload, ops) in [
                ("a", [("Conv2d", 0.6), ("BatchNorm", 0.3)]),
                ("b", [("Conv2d", conv), ("other", 0.2)]),
            ] {
                let w = Row::of("pass_breakdown").key("workload", workload);
                rows.push(w.value("pass_us", "us", Better::Lower, 100.0));
                for (op, share) in ops {
                    let op = w.clone().key("op", op);
                    rows.push(op.value("us_per_pass", "us", Better::Lower, share * 100.0));
                }
            }
            rows
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
        assert!(sampling_wait_hidden(&pipeline((0.42, 0.46), (0.010, 0.018))).ok);
        // The whole assembly shows up in the step: what inline sampling reads.
        let v = sampling_wait_hidden(&pipeline((0.42, 0.46), (0.43, 0.47)));
        assert!(!v.ok && v.detail.contains("0.430"), "{}", v.detail);
        // Under half at the medians, but the intervals do not show it.
        assert!(!sampling_wait_hidden(&pipeline((0.30, 0.50), (0.10, 0.16))).ok);
    }

    /// The `dist_rendezvous` rows of `executor` with the given CIs.
    fn rendezvous(
        executor: &str,
        roundtrip: (f64, f64),
        solo: (f64, f64),
        dp2: (f64, f64),
    ) -> Vec<Row> {
        let row = Row::of("dist_rendezvous").key("executor", executor);
        vec![
            row.count("recvs_per_step", Better::None, 12),
            ms(&row, "roundtrip_ms", roundtrip),
            ms(&row, "solo_step_ms", solo),
            ms(&row, "dp2_step_ms", dp2),
        ]
    }

    #[test]
    fn cheap_rendezvous_passes_and_a_sync_dearer_than_the_step_fails() {
        // Polled on the oracle, and on the plan interpreter as given.
        let rows = |roundtrip, solo| {
            let mut rows = rendezvous("reference", (0.0009, 0.0019), (0.230, 0.240), (0.40, 0.42));
            rows.extend(rendezvous("planned", roundtrip, solo, (0.30, 0.31)));
            rows
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
        let rows = |planned, reference| {
            let (roundtrip, solo) = ((0.0009, 0.0019), (0.18, 0.24));
            let mut rows = rendezvous("reference", roundtrip, solo, reference);
            rows.extend(rendezvous("planned", roundtrip, solo, planned));
            rows
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

    #[test]
    fn an_invalid_trace_or_a_missing_phase_is_red() {
        let trace = |errors| {
            let file = Row::of("trace").key("file", "trace.json");
            vec![
                file.count("spans", Better::None, 612),
                file.count("metadata_events", Better::None, 5),
                file.count("validation_errors", Better::Lower, errors),
            ]
        };
        let v = chrome_trace_validates(&trace(0));
        assert!(
            v.ok && v.detail == "612 spans, 5 metadata events",
            "{}",
            v.detail
        );
        assert!(!chrome_trace_validates(&trace(1)).ok);
        let phases = |sampling: f64| {
            let total = |phase: Phase, ms| {
                Row::of("phase_totals").key("phase", phase.label()).value(
                    "total_ms",
                    "ms",
                    Better::Lower,
                    ms,
                )
            };
            let mut rows: Vec<Row> = OWNED_PHASES.iter().map(|&p| total(p, 1.0)).collect();
            rows.push(total(Phase::Epoch, 9.0));
            rows[0] = total(Phase::Sampling, sampling);
            rows
        };
        assert!(training_phases_traced(&phases(0.4)).ok);
        let v = training_phases_traced(&phases(0.0));
        assert!(!v.ok && v.detail.contains("Sampling"), "{}", v.detail);
    }
}
