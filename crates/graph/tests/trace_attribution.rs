//! Tracing/attribution integration tests over both executors.
//!
//! Two properties guard the span-timing fixes:
//!
//! 1. **Span forwarding** — hooks that accumulate time must receive the
//!    duration *measured by the worker* that ran the operator, not re-time
//!    the report on the coordinator thread. Exercised by asserting that a
//!    [`WallclockTime`] attached to the wavefront executor records samples
//!    that sum *exactly* to the executor's own per-op totals (the same f64
//!    flows through both paths); under the old `Event::span` default —
//!    forwarding to `begin`+`end` on the reporting thread — the samples
//!    were the near-zero forwarding gap and the equality fails.
//!
//! 2. **Attribution accounting** — per-operator attributed wall time must
//!    explain the `Backprop` phase total to within 5% on a compute-bound
//!    network (the scheduling overhead bound of the issue's acceptance
//!    criteria).

use deep500_graph::{models, Engine, ExecutorKind, GraphExecutor, Network};
use deep500_metrics::event::SharedEvent;
use deep500_metrics::time::WallclockTime;
use deep500_metrics::{Json, Phase, TraceRecorder};
use deep500_ops::registry::{create_op, Attributes};
use deep500_tensor::{Shape, Tensor, Xoshiro256StarStar};

/// x[B,I] → Linear → Linear → MseLoss, a pure chain: every wavefront level
/// holds one op, so per-op times are disjoint and must sum to the pass.
fn chain_net(batch: usize, inner: usize, seed: u64) -> Network {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut net = Network::new("chain");
    net.add_input("x");
    net.add_input("target");
    net.add_parameter(
        "W1",
        Tensor::rand_uniform([inner, inner], -0.1, 0.1, &mut rng),
    );
    net.add_parameter("b1", Tensor::zeros([inner]));
    net.add_parameter("W2", Tensor::rand_uniform([4, inner], -0.1, 0.1, &mut rng));
    net.add_parameter("b2", Tensor::zeros([4]));
    net.add_node(
        "fc1",
        "Linear",
        Attributes::new(),
        &["x", "W1", "b1"],
        &["h"],
    )
    .unwrap();
    net.add_node(
        "fc2",
        "Linear",
        Attributes::new(),
        &["h", "W2", "b2"],
        &["pred"],
    )
    .unwrap();
    net.add_node(
        "mse",
        "MseLoss",
        Attributes::new(),
        &["pred", "target"],
        &["loss"],
    )
    .unwrap();
    net.add_output("loss");
    let _ = batch; // shapes are carried by the fed tensors
    net
}

fn feeds(batch: usize, inner: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let x = Tensor::rand_uniform([batch, inner], -1.0, 1.0, &mut rng);
    let target = Tensor::rand_uniform([batch, 4], -1.0, 1.0, &mut rng);
    (x, target)
}

/// The worker-measured op duration reaches time-accumulating hooks intact.
/// The identical f64 feeds both the executor's per-operator rows and the
/// `Event::span` call, so the sums must match bit-for-bit; the old default
/// span-forwarding re-measured on the coordinator and breaks this.
#[test]
fn wavefront_span_reaches_hooks_with_worker_measured_time() {
    let engine = Engine::builder(chain_net(32, 128, 1))
        .executor(ExecutorKind::Wavefront)
        .build()
        .unwrap();
    let mut ex = engine.lock();
    let clock = SharedEvent::new(WallclockTime::new(Phase::OperatorForward));
    ex.events_mut().push(Box::new(clock.clone()));
    let (x, target) = feeds(32, 128, 2);
    ex.inference(&[("x", x), ("target", target)]).unwrap();

    let hook_total: f64 = clock.with(|c| c.samples().iter().sum());
    let op_total: f64 = ex.op_totals().values().map(|t| t.forward_s).sum();
    assert!(op_total > 0.0, "ops took measurable time");
    // Identical f64s flow through both paths; only the summation order
    // differs (HashMap vs sample order), so allow rounding at the last ulp.
    // The old span forwarding re-timed the report on the coordinator and
    // recorded the ~microsecond forwarding gap — off by orders of magnitude.
    assert!(
        (hook_total - op_total).abs() <= 1e-12 * op_total,
        "span must deliver the worker-measured seconds verbatim: \
         hook saw {hook_total}s, executor totals say {op_total}s"
    );
    clock.with(|c| {
        assert_eq!(c.samples().len(), 3, "one sample per op");
        assert_eq!(c.open_begins(), 0, "span leaves no dangling begins");
        assert_eq!(c.unmatched_ends(), 0);
    });
}

/// Both executors feed the same hooks the same way: a `WallclockTime` on
/// `OperatorForward` sees one strictly-positive sample per op either way.
#[test]
fn both_executors_feed_time_hooks_per_op() {
    for wavefront in [false, true] {
        let net = chain_net(16, 64, 3);
        let kind = if wavefront {
            ExecutorKind::Wavefront
        } else {
            ExecutorKind::Reference
        };
        let engine = Engine::builder(net).executor(kind).build().unwrap();
        let mut ex = engine.lock();
        let clock = SharedEvent::new(WallclockTime::new(Phase::OperatorForward));
        ex.events_mut().push(Box::new(clock.clone()));
        let (x, target) = feeds(16, 64, 4);
        ex.inference(&[("x", x), ("target", target)]).unwrap();
        clock.with(|c| {
            assert_eq!(c.samples().len(), 3, "wavefront={wavefront}");
            assert!(
                c.samples().iter().all(|&s| s > 0.0),
                "wavefront={wavefront}: zero-duration sample means a hook \
                 was fed the forwarding gap, not the op time: {:?}",
                c.samples()
            );
        });
    }
}

/// Per-op attributed wall time explains the `Backprop` phase total to
/// within 5% on a compute-bound chain (issue acceptance criterion).
#[test]
fn wavefront_attribution_sums_to_backprop_phase() {
    // A chain, so op times are disjoint (no parallel overlap
    // double-counting against the wall). LeNet-scale on purpose: a pass is
    // ~0.4 ms in release, so the bound catches ~20 us of per-pass glue
    // (release sits at 2-5% since the backward sweep runs on the plan's
    // dense ids; it was 5-10% on name-keyed maps — EXPERIMENTS E25).
    let (batch, inner) = (64, 256);
    let recorder = TraceRecorder::new();
    let engine = Engine::builder(chain_net(batch, inner, 5))
        .executor(ExecutorKind::Wavefront)
        .trace(&recorder)
        .build()
        .unwrap();
    let mut ex = engine.lock();

    let run_pass = |ex: &mut dyn GraphExecutor, seed: u64| {
        let (x, target) = feeds(batch, inner, seed);
        ex.inference_and_backprop(&[("x", x), ("target", target)], "loss")
            .unwrap();
    };
    // Pass 1 builds and gates the plan inside its `Backprop` window; the
    // bound below is about steady-state passes, so measure deltas after it.
    run_pass(&mut *ex, 5);
    let total_s =
        |ex: &dyn GraphExecutor| -> f64 { ex.op_attribution().iter().map(|r| r.total_s()).sum() };
    let (attributed_0, backprop_0) = (total_s(&*ex), recorder.phase_total_s(Phase::Backprop));

    // 16 passes (was 3): a longer window narrows the run-to-run variance
    // of the ratio, not the ratio — chain and bound are unchanged.
    let passes = 16;
    for pass in 0..passes {
        run_pass(&mut *ex, 6 + pass as u64);
    }

    let attribution = ex.op_attribution();
    assert_eq!(attribution.len(), 3);
    for row in &attribution {
        assert_eq!(row.forward_calls, passes + 1, "op {}", row.name);
        assert_eq!(row.backward_calls, passes + 1, "op {}", row.name);
    }
    let attributed = total_s(&*ex) - attributed_0;
    let backprop_total = recorder.phase_total_s(Phase::Backprop) - backprop_0;
    assert!(backprop_total > 0.0);
    assert!(
        attributed <= backprop_total * 1.0001,
        "attributed {attributed}s cannot exceed the pass wall time {backprop_total}s"
    );
    let unexplained = (backprop_total - attributed) / backprop_total;
    println!(
        "steady-state Backprop: {:.1}% unexplained",
        unexplained * 100.0
    );
    assert!(
        unexplained < 0.05,
        "attribution must explain >=95% of the steady-state Backprop phase: \
         attributed {attributed}s of {backprop_total}s ({:.1}% unexplained)",
        unexplained * 100.0
    );

    // The exported Chrome trace holds the same spans and validates.
    ex.annotate_trace(&recorder);
    let json = recorder.chrome_trace_json();
    let stats = deep500_metrics::validate_chrome_trace(&json).expect("trace validates");
    assert!(stats.spans >= attribution.len() * passes * 2);
    assert!(json.contains("\"name\":\"fc1\""));
    assert!(json.contains("Backprop"));
}

/// A node served at several batch sizes — every dynamic-batching serve
/// worker's case — is rated by the FLOPs and bytes of the calls it actually
/// ran: three passes at batch 1 and one at batch 4 must not be rated as
/// four passes at batch 4.
#[test]
fn mixed_batch_rows_total_the_flops_and_bytes_of_every_call() {
    let (features, batches) = (16, [1, 1, 1, 4]);
    let engine = Engine::builder(models::mlp(features, &[32], 4, 7).unwrap())
        .executor(ExecutorKind::Planned)
        .build()
        .unwrap();
    let session = engine.session();
    for &batch in &batches {
        let x = Tensor::ones([batch, features]);
        let labels = Tensor::zeros([batch]);
        session.infer(&[("x", x), ("labels", labels)]).unwrap();
    }

    let ex = engine.lock();
    let rows = ex.op_totals();
    let mut linears = 0;
    for (id, node) in ex.network().nodes() {
        if node.op_type != "Linear" {
            continue;
        }
        linears += 1;
        let op = create_op(&node.op_type, &node.attrs).unwrap();
        let w = ex.network().fetch_tensor(&node.inputs[1]).unwrap();
        let b = ex.network().fetch_tensor(&node.inputs[2]).unwrap();
        let (mut flops, mut bytes) = (0.0, 0);
        for &batch in &batches {
            let x = Shape::new(&[batch, w.shape().dims()[1]]);
            let shapes = [&x, w.shape(), b.shape()];
            flops += op.flops(&shapes);
            bytes += op.bytes_moved(&shapes);
        }
        let row = &rows[&id.0];
        assert_eq!(row.forward_calls, batches.len(), "{}", row.name);
        let expect = flops / row.forward_s / 1e9;
        let got = row.gflops_per_s();
        assert!(
            (got - expect).abs() <= 1e-9 * expect,
            "{}: {got} GFLOP/s, the calls it ran say {expect}",
            row.name
        );
        assert_eq!(row.total_bytes(), bytes, "{}", row.name);
    }
    assert_eq!(linears, 2, "mlp with one hidden layer has two Linear nodes");
}

/// The Chrome export names and annotates every operator span from the
/// executor's own row: its name, its per-call FLOPs, and its dispatch
/// note, which carries a convolution's tier.
#[test]
fn chrome_operator_spans_read_the_executor_rows() {
    let recorder = TraceRecorder::new();
    let engine = Engine::builder(models::lenet(1, 28, 10, 5).unwrap())
        .executor(ExecutorKind::Planned)
        .trace(&recorder)
        .build()
        .unwrap();
    let feeds = [
        ("x", Tensor::ones([1, 1, 28, 28])),
        ("labels", Tensor::from_slice(&[0.0])),
    ];
    engine.session().infer(&feeds).unwrap();
    engine.annotate_trace();

    let rows = engine.lock().op_totals();
    let trace = Json::parse(&recorder.chrome_trace_json()).unwrap();
    let events = trace.get("traceEvents").unwrap().as_array().unwrap();
    let forward = events
        .iter()
        .filter(|e| e.get("cat").and_then(Json::as_str) == Some("OperatorForward"));
    let (mut spans, mut tiers) = (0, 0);
    for event in forward {
        let args = event.get("args").unwrap();
        let id = args.get("id").and_then(Json::as_f64).unwrap() as usize;
        let row = &rows[&id];
        assert_eq!(event.get("name").and_then(Json::as_str), Some(&*row.name));
        let flops = args.get("flops").and_then(Json::as_f64).unwrap_or(0.0);
        assert_eq!(flops, row.flops_per_call, "{}", row.name);
        let detail = args.get("detail").and_then(Json::as_str).unwrap_or("");
        assert_eq!(detail, row.note, "{}", row.name);
        tiers += usize::from(detail.starts_with("tier="));
        spans += 1;
    }
    assert_eq!(spans, rows.len(), "one forward span per node");
    assert_eq!(tiers, 2, "both LeNet convs carry their tier");
}
