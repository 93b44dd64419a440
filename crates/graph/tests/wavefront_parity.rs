//! Wavefront executor parity: results must be *bit-identical* to the
//! reference executor on the model zoo, for outputs and parameter
//! gradients, at every concurrency width. This is the contract that makes
//! the wavefront executor a drop-in replacement: reordering execution
//! across a level must never reorder any floating-point accumulation.

use deep500_graph::models::{feed_refs, zoo};
use deep500_graph::validate::{test_executor, test_executor_backprop};
use deep500_graph::{grad_name, Engine, ExecutorKind, MemoryAccountant};
use deep500_tensor::{Error, Tensor};

#[test]
fn wavefront_inference_is_bit_identical_across_widths() {
    for case in zoo() {
        let (name, net, feeds) = (case.name, &case.net, case.feeds(1));
        for threads in [0usize, 1, 2] {
            let wf = Engine::builder(net.clone_structure())
                .executor(ExecutorKind::Wavefront)
                .threads(threads)
                .build()
                .unwrap();
            let rf = Engine::builder(net.clone_structure()).build().unwrap();
            let (mut wf, mut rf) = (wf.lock(), rf.lock());
            let feeds = feed_refs(&feeds);
            let report = test_executor(&mut *wf, &mut *rf, &feeds, 2).unwrap();
            assert!(
                report.passes(0.0),
                "{name} (threads={threads}): outputs differ: {:?}",
                report.output_norms
            );
        }
    }
}

#[test]
fn wavefront_backprop_is_bit_identical_across_widths() {
    for case in zoo() {
        let (name, net, feeds) = (case.name, &case.net, case.feeds(1));
        for threads in [0usize, 1, 2] {
            let wf = Engine::builder(net.clone_structure())
                .executor(ExecutorKind::Wavefront)
                .threads(threads)
                .build()
                .unwrap();
            let rf = Engine::builder(net.clone_structure()).build().unwrap();
            let (mut wf, mut rf) = (wf.lock(), rf.lock());
            let feeds = feed_refs(&feeds);
            let report = test_executor_backprop(&mut *wf, &mut *rf, &feeds, "loss", 2).unwrap();
            assert!(
                !report.gradient_norms.is_empty(),
                "{name}: no parameter gradients compared"
            );
            assert!(
                report.passes(0.0),
                "{name} (threads={threads}): outputs or gradients differ:\n\
                 outputs {:?}\ngrads {:?}",
                report.output_norms,
                report.gradient_norms
            );
        }
    }
}

/// Belt and braces: compare raw IEEE-754 bit patterns of every parameter
/// gradient, not just an ℓ∞ of 0 (which `-0.0 == 0.0` would satisfy).
#[test]
fn wavefront_gradients_match_reference_bitwise() {
    let case = zoo().remove(0);
    let wf = Engine::builder(case.net.clone_structure())
        .executor(ExecutorKind::Wavefront)
        .build()
        .unwrap();
    let rf = Engine::builder(case.net.clone_structure()).build().unwrap();
    let (mut wf, mut rf) = (wf.lock(), rf.lock());
    let feeds = case.feeds(1);
    let feeds = feed_refs(&feeds);
    wf.inference_and_backprop(&feeds, "loss").unwrap();
    rf.inference_and_backprop(&feeds, "loss").unwrap();
    let params = rf.network().get_params().to_vec();
    assert!(!params.is_empty());
    for p in params {
        let g = grad_name(&p);
        let wg = wf.network().fetch_tensor(&g).unwrap();
        let rg = rf.network().fetch_tensor(&g).unwrap();
        let wbits: Vec<u32> = wg.data().iter().map(|v| v.to_bits()).collect();
        let rbits: Vec<u32> = rg.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wbits, rbits, "gradient '{g}' differs bitwise");
    }
}

#[test]
fn wavefront_is_deterministic_across_repeated_passes() {
    let case = zoo().remove(2);
    let engine = Engine::builder(case.net.clone_structure())
        .executor(ExecutorKind::Wavefront)
        .build()
        .unwrap();
    let mut wf = engine.lock();
    let feeds = case.feeds(1);
    let feeds = feed_refs(&feeds);
    let first = wf.inference_and_backprop(&feeds, "loss").unwrap();
    for _ in 0..3 {
        // Later passes run on recycled pool buffers; results must not move.
        let again = wf.inference_and_backprop(&feeds, "loss").unwrap();
        assert_eq!(
            first["loss"].data()[0].to_bits(),
            again["loss"].data()[0].to_bits()
        );
    }
}

#[test]
fn accountant_tracks_peak_under_concurrency() {
    let acc = MemoryAccountant::new(usize::MAX);
    let workers = 8usize;
    let per_thread = 1_000usize;
    let barrier = std::sync::Barrier::new(workers);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                acc.allocate(per_thread).unwrap();
                // Everyone holds its allocation at once: the true peak is
                // exactly workers * per_thread.
                barrier.wait();
                acc.release(per_thread);
            });
        }
    });
    assert_eq!(acc.peak(), workers * per_thread);
    assert_eq!(acc.current(), 0);
}

#[test]
fn accountant_enforces_capacity_under_concurrency() {
    // Capacity admits exactly half the racing allocations; the CAS loop
    // must never let the sum of successful claims exceed capacity.
    let workers = 8usize;
    let acc = MemoryAccountant::new(4 * 100);
    let successes = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                if acc.allocate(100).is_ok() {
                    successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(successes.load(std::sync::atomic::Ordering::Relaxed), 4);
    assert_eq!(acc.current(), 400);
    assert!(matches!(acc.allocate(1), Err(Error::OutOfMemory { .. })));
}

#[test]
fn wavefront_respects_memory_limit() {
    let net = deep500_graph::models::mlp(64, &[64], 8, 1).unwrap();
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Wavefront)
        .memory_limit(1024)
        .build()
        .unwrap();
    let mut ex = engine.lock();
    let err = ex
        .inference(&[
            ("x", Tensor::ones([4, 64])),
            ("labels", Tensor::from_slice(&[0.0, 1.0, 2.0, 3.0])),
        ])
        .unwrap_err();
    assert!(matches!(err, Error::OutOfMemory { .. }));
}
