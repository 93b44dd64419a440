//! End-to-end serving contract tests: batched replies are bit-identical
//! to unbatched single-request execution, bounded queues reject with
//! typed errors, interface violations are caught at admission, and
//! non-batchable models cannot be put behind a dynamic policy.

use deep500_graph::models::{self, feed_refs as as_refs};
use deep500_graph::{Engine, ExecutorKind};
use deep500_metrics::event::Phase;
use deep500_metrics::trace::TraceRecorder;
use deep500_serve::{BatchPolicy, ModelConfig, ServeError, Server};
use deep500_tensor::Tensor;
use std::time::Duration;

const FEATURES: usize = 8;
const CLASSES: usize = 4;
const SEED: u64 = 11;

fn mlp() -> deep500_graph::Network {
    models::mlp(FEATURES, &[16, 12], CLASSES, SEED).unwrap()
}

/// Deterministic per-request feeds, distinct across request indices.
fn request_feeds(i: usize) -> Vec<(String, Tensor)> {
    let x: Vec<f32> = (0..FEATURES)
        .map(|j| ((i * FEATURES + j) as f32 * 0.37).sin())
        .collect();
    vec![
        ("x".to_string(), Tensor::from_vec([1, FEATURES], x).unwrap()),
        (
            "labels".to_string(),
            Tensor::from_slice(&[(i % CLASSES) as f32]),
        ),
    ]
}

fn dynamic_mlp(executor: ExecutorKind, max_batch: usize) -> ModelConfig {
    ModelConfig::new(mlp())
        .executor(executor)
        .batched_input("x", &[FEATURES])
        .batched_input("labels", &[])
        .policy(BatchPolicy::Dynamic {
            max_batch,
            max_delay: Duration::from_millis(200),
        })
}

#[test]
fn batched_replies_are_bit_identical_to_single_request_execution() {
    for executor in [ExecutorKind::Reference, ExecutorKind::Planned] {
        let server = Server::builder()
            .model("mlp", dynamic_mlp(executor, 4))
            .build()
            .unwrap();
        // Submit a burst of four; the worker coalesces them (all four if
        // it wins the race, fewer otherwise — correctness must not depend
        // on the assembled batch size).
        let tickets: Vec<_> = (0..4)
            .map(|i| server.submit("mlp", &as_refs(&request_feeds(i))).unwrap())
            .collect();
        let replies: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

        // Ground truth: each request alone on a fresh engine of the same
        // seeded network.
        for (i, reply) in replies.iter().enumerate() {
            let engine = Engine::builder(mlp()).executor(executor).build().unwrap();
            let alone = engine.session().infer(&as_refs(&request_feeds(i))).unwrap();
            assert_eq!(
                reply.outputs["logits"].data(),
                alone["logits"].data(),
                "{executor:?}: request {i} logits diverged from solo execution"
            );
            assert!(
                !reply.outputs.contains_key("loss"),
                "batch-aggregate outputs must not be attributed to a request"
            );
        }
        server.shutdown();
    }
}

#[test]
fn closed_loop_request_fires_before_the_coalescing_deadline() {
    // A lone closed-loop client blocks on its ticket, so nothing else can
    // join the batch; the shard must fire at once instead of waiting for
    // company. With the deliberately huge 5 s `max_delay`, any wait scaled
    // from it (a sixteenth is 312 ms) is unmissable.
    let server = Server::builder()
        .model(
            "mlp",
            ModelConfig::new(mlp())
                .executor(ExecutorKind::Reference)
                .batched_input("x", &[FEATURES])
                .batched_input("labels", &[])
                .policy(BatchPolicy::Dynamic {
                    max_batch: 8,
                    max_delay: Duration::from_secs(5),
                }),
        )
        .build()
        .unwrap();
    for i in 0..3 {
        let start = std::time::Instant::now();
        let reply = server.infer("mlp", &as_refs(&request_feeds(i))).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "request {i} waited for company that could not come: {elapsed:?}"
        );
        assert_eq!(reply.timing.batch_rows, 1);
    }
    // Each of the three batches fired with the queue empty — and the
    // counters say so.
    let stats = server.stats("mlp").unwrap();
    assert_eq!((stats.batches, stats.fired_quiet), (3, 3));
    server.shutdown();
}

#[test]
fn dynamic_policy_coalesces_a_burst_into_fewer_passes() {
    let server = Server::builder()
        .model("mlp", dynamic_mlp(ExecutorKind::Reference, 8))
        .build()
        .unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|i| server.submit("mlp", &as_refs(&request_feeds(i))).unwrap())
        .collect();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let stats = server.stats("mlp").unwrap();
    assert_eq!(stats.served, 8);
    assert!(
        stats.batches < 8,
        "requests queued behind the first one's pass must coalesce at \
         least one pair out of a same-thread burst of 8 (got {} batches)",
        stats.batches
    );
    let max_rows = replies.iter().map(|r| r.timing.batch_rows).max().unwrap();
    assert!(
        max_rows > 1,
        "some reply should have ridden in a real batch"
    );
    server.shutdown();
}

#[test]
fn bounded_queue_rejects_with_typed_error_and_shutdown_fails_the_rest() {
    // Zero workers: admission-only, so overflow is deterministic.
    let server = Server::builder()
        .model(
            "mlp",
            dynamic_mlp(ExecutorKind::Reference, 4)
                .workers(0)
                .queue_capacity(2),
        )
        .build()
        .unwrap();
    let t0 = server.submit("mlp", &as_refs(&request_feeds(0))).unwrap();
    let t1 = server.submit("mlp", &as_refs(&request_feeds(1))).unwrap();
    let err = server
        .submit("mlp", &as_refs(&request_feeds(2)))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::QueueFull {
            model: "mlp".into(),
            capacity: 2
        }
    );
    let stats = server.stats("mlp").unwrap();
    assert_eq!((stats.rejected, stats.queued), (1, 2));
    server.shutdown();
    // The queued-but-never-served requests fail typed, not hang.
    assert_eq!(t0.wait().unwrap_err(), ServeError::Shutdown);
    assert_eq!(t1.wait().unwrap_err(), ServeError::Shutdown);
}

#[test]
fn unknown_model_and_interface_violations_are_rejected_at_admission() {
    let server = Server::builder()
        .model("mlp", dynamic_mlp(ExecutorKind::Reference, 4))
        .build()
        .unwrap();
    assert!(matches!(
        server.submit("nope", &as_refs(&request_feeds(0))),
        Err(ServeError::UnknownModel(_))
    ));
    // Missing input.
    let missing = vec![("x".to_string(), Tensor::ones([1, FEATURES]))];
    assert!(matches!(
        server.submit("mlp", &as_refs(&missing)),
        Err(ServeError::BadRequest(_))
    ));
    // Wrong trailing shape.
    let bad = vec![
        ("x".to_string(), Tensor::ones([1, FEATURES + 1])),
        ("labels".to_string(), Tensor::from_slice(&[0.0])),
    ];
    assert!(matches!(
        server.submit("mlp", &as_refs(&bad)),
        Err(ServeError::BadRequest(_))
    ));
    server.shutdown();
}

#[test]
fn non_batchable_interface_cannot_go_behind_a_dynamic_policy() {
    // Declaring x fixed leaves nothing to carry the batch dim, so the
    // contract is not batchable; Dynamic must be refused at build...
    let config = ModelConfig::new(mlp())
        .fixed_input("x", &[2, FEATURES])
        .fixed_input("labels", &[2])
        .policy(BatchPolicy::Dynamic {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
        });
    let err = Server::builder().model("mlp", config).build().unwrap_err();
    assert!(matches!(err, ServeError::BadRequest(_)));

    // ...while Single serves the very same interface fine, aggregates
    // included.
    let config = ModelConfig::new(mlp())
        .fixed_input("x", &[2, FEATURES])
        .fixed_input("labels", &[2]);
    let server = Server::builder().model("mlp", config).build().unwrap();
    let feeds = vec![
        ("x".to_string(), Tensor::ones([2, FEATURES])),
        ("labels".to_string(), Tensor::from_slice(&[0.0, 1.0])),
    ];
    let reply = server.infer("mlp", &as_refs(&feeds)).unwrap();
    assert!(reply.outputs.contains_key("loss"));
    server.shutdown();
}

#[test]
fn concurrent_clients_against_a_multi_worker_shard_all_get_their_rows() {
    let server = Server::builder()
        .model(
            "mlp",
            dynamic_mlp(ExecutorKind::Wavefront, 4)
                .workers(2)
                .queue_capacity(64),
        )
        .build()
        .unwrap();
    let n = 24;
    std::thread::scope(|scope| {
        for i in 0..n {
            let server = &server;
            scope.spawn(move || {
                let reply = server.infer("mlp", &as_refs(&request_feeds(i))).unwrap();
                let engine = Engine::builder(mlp()).build().unwrap();
                let alone = engine.session().infer(&as_refs(&request_feeds(i))).unwrap();
                assert_eq!(
                    reply.outputs["logits"].data(),
                    alone["logits"].data(),
                    "request {i} got someone else's rows"
                );
            });
        }
    });
    let stats = server.stats("mlp").unwrap();
    assert_eq!((stats.served, stats.queued), (n, 0));
    // Every batch handed to a worker was closed for exactly one reason.
    assert_eq!(stats.fired_full + stats.fired_quiet, stats.batches);
    server.shutdown();
}

#[test]
fn request_spans_flow_into_the_trace_recorder() {
    let rec = TraceRecorder::new();
    let server = Server::builder()
        .model("mlp", dynamic_mlp(ExecutorKind::Reference, 4))
        .trace(&rec)
        .build()
        .unwrap();
    for i in 0..3 {
        server.infer("mlp", &as_refs(&request_feeds(i))).unwrap();
    }
    server.shutdown();
    for phase in [Phase::Request, Phase::Queue, Phase::Batch] {
        assert!(
            rec.phase_total_s(phase) >= 0.0,
            "{phase:?} track missing from the trace"
        );
    }
    let tracks = rec.tracks();
    assert!(
        tracks
            .iter()
            .any(|(name, spans)| name.starts_with("serve/mlp/")
                && spans.iter().any(|s| s.phase == Phase::Request)),
        "per-worker serve track with Request spans expected, got {:?}",
        tracks.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    );
    deep500_metrics::trace::validate_chrome_trace(&rec.chrome_trace_json())
        .expect("serve spans export as a valid chrome trace");
}

/// A conv model (direct-tier LeNet) served behind dynamic batching replies
/// bit-identically to a solo engine compiled down the whole fast path —
/// memoized packed filters, fused bias+ReLU epilogues. Exercises the contract end to end: batch
/// assembly, the direct conv tier's per-image independence, and every
/// compile rewrite must preserve the exact float sequence.
#[test]
fn conv_model_replies_are_bit_identical_to_a_compiled_solo_engine() {
    use deep500_graph::compile::CompileOptions;
    use deep500_tensor::Shape;

    const HW: usize = 12;
    let lenet = || models::lenet(1, HW, CLASSES, SEED).unwrap();
    let conv_feeds = |i: usize| -> Vec<(String, Tensor)> {
        let x: Vec<f32> = (0..HW * HW)
            .map(|j| ((i * HW * HW + j) as f32 * 0.11).cos())
            .collect();
        vec![
            (
                "x".to_string(),
                Tensor::from_vec([1, 1, HW, HW], x).unwrap(),
            ),
            (
                "labels".to_string(),
                Tensor::from_slice(&[(i % CLASSES) as f32]),
            ),
        ]
    };

    let server = Server::builder()
        .model(
            "lenet",
            ModelConfig::new(lenet())
                .executor(ExecutorKind::Reference)
                .batched_input("x", &[1, HW, HW])
                .batched_input("labels", &[])
                .policy(BatchPolicy::Dynamic {
                    max_batch: 4,
                    max_delay: Duration::from_millis(200),
                }),
        )
        .build()
        .unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|i| server.submit("lenet", &as_refs(&conv_feeds(i))).unwrap())
        .collect();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

    let engine = Engine::builder(lenet())
        .compile(CompileOptions::default())
        .input_shape("x", Shape::new(&[1, 1, HW, HW]))
        .input_shape("labels", Shape::new(&[1]))
        .build()
        .unwrap();
    let report = engine.compile_report().expect("compiled");
    assert!(
        report.filters_packed > 0,
        "solo engine must ride the packed direct tier: {report:?}"
    );
    for (i, reply) in replies.iter().enumerate() {
        let alone = engine.session().infer(&as_refs(&conv_feeds(i))).unwrap();
        let got: Vec<u32> = reply.outputs["logits"]
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let want: Vec<u32> = alone["logits"].data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "request {i}: served conv logits diverged");
    }
    server.shutdown();
}

const HW: usize = 40;
const HEAVY_ROWS: usize = 64;

/// `rows` deterministic `[rows, 3, HW, HW]` images and their labels.
fn resnet_feeds(rows: usize) -> Vec<(String, Tensor)> {
    let x: Vec<f32> = (0..rows * 3 * HW * HW)
        .map(|j| (j as f32 * 0.013).sin())
        .collect();
    let labels: Vec<f32> = (0..rows).map(|i| (i % CLASSES) as f32).collect();
    vec![
        (
            "x".to_string(),
            Tensor::from_vec([rows, 3, HW, HW], x).unwrap(),
        ),
        (
            "labels".to_string(),
            Tensor::from_vec([rows], labels).unwrap(),
        ),
    ]
}

/// A `resnet_like(3, 40, 16, 2, 4)` shard on `workers` workers that
/// coalesce up to 64 rows. Its 64-row pass takes 63-84 ms on a two-vCPU
/// x86-64 host in release, also pinned to one core (≈ 1.8 s in debug).
fn resnet_server(workers: usize, max_delay: Duration) -> Server {
    let resnet = models::resnet_like(3, HW, 16, 2, CLASSES, SEED).unwrap();
    Server::builder()
        .model(
            "resnet",
            ModelConfig::new(resnet)
                .executor(ExecutorKind::Planned)
                .batched_input("x", &[3, HW, HW])
                .batched_input("labels", &[])
                .workers(workers)
                .policy(BatchPolicy::Dynamic {
                    max_batch: 64,
                    max_delay,
                }),
        )
        .build()
        .unwrap()
}

/// Submit the 64-row pass and return once a worker has taken it.
fn occupy_a_worker(server: &Server) -> deep500_serve::Ticket {
    let heavy = server
        .submit("resnet", &as_refs(&resnet_feeds(HEAVY_ROWS)))
        .unwrap();
    while server.stats("resnet").unwrap().batches < 1 {
        std::thread::yield_now();
    }
    heavy
}

/// Rows running on one worker cannot join another worker's batch, so they
/// must not hold it back: with one worker busy on a long pass, a lone
/// request on the free worker runs at once.
#[test]
fn a_free_worker_fires_while_the_other_runs() {
    let max_delay = Duration::from_millis(20);
    let server = resnet_server(2, max_delay);
    let heavy = occupy_a_worker(&server);
    let light = server.infer("resnet", &as_refs(&resnet_feeds(1))).unwrap();
    assert_eq!(
        server.stats("resnet").unwrap().served,
        1,
        "the heavy pass ended before the lone request was answered"
    );
    heavy.wait().unwrap();
    assert_eq!(light.timing.batch_rows, 1);
    assert!(
        light.timing.queued_s < max_delay.as_secs_f64(),
        "the lone request waited {:.1} ms for rows that were already running",
        light.timing.queued_s * 1e3
    );
    assert_eq!(server.stats("resnet").unwrap().batches, 2);
    server.shutdown();
}

/// Requests that queue while the only worker is busy coalesce: the worker
/// comes back, takes all four in one pass, and runs it at once.
#[test]
fn a_burst_behind_a_busy_worker_rides_one_batch() {
    let server = resnet_server(1, Duration::from_secs(5));
    let heavy = occupy_a_worker(&server);
    let tickets: Vec<_> = (0..4)
        .map(|_| server.submit("resnet", &as_refs(&resnet_feeds(1))).unwrap())
        .collect();
    let heavy = heavy.wait().unwrap();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    for reply in &replies {
        assert_eq!(reply.timing.batch_rows, 4, "{:?}", reply.timing);
        assert_eq!(reply.timing.batch_id, replies[0].timing.batch_id);
        // The burst was admitted after the heavy pass began, so it queued
        // for less than that pass plus its hand-off; a wait for company
        // (a sixteenth of the 5 s `max_delay` is 312 ms) would show.
        assert!(
            reply.timing.queued_s < heavy.timing.run_s + 0.1,
            "the burst queued {:.1} ms behind a {:.1} ms pass",
            reply.timing.queued_s * 1e3,
            heavy.timing.run_s * 1e3
        );
    }
    server.shutdown();
}
