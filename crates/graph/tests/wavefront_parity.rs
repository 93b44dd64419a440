//! Wavefront executor parity: results must be *bit-identical* to the
//! reference executor on the model zoo, for outputs and parameter
//! gradients, at every concurrency width. This is the contract that makes
//! the wavefront executor a drop-in replacement: reordering execution
//! across a level must never reorder any floating-point accumulation.

use deep500_graph::models::{feed_refs, zoo};
use deep500_graph::validate::{test_executor, test_executor_backprop};
use deep500_graph::{grad_name, Engine, ExecutorKind, MemoryAccountant, Network};
use deep500_ops::registry::Attributes;
use deep500_tensor::{Error, Tensor, Xoshiro256StarStar};

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

/// Raw IEEE-754 bit patterns, not just an ℓ∞ of 0 (which `-0.0 == 0.0`
/// would satisfy): outputs and every parameter gradient bit-for-bit, at
/// every width, on a cold pass and on a pass over recycled buffers.
fn assert_bitwise_parity(net: &Network, feeds: &[(&str, Tensor)]) {
    let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
    for threads in [0usize, 1, 2] {
        let wf = Engine::builder(net.clone_structure())
            .executor(ExecutorKind::Wavefront)
            .threads(threads)
            .build()
            .unwrap();
        let rf = Engine::builder(net.clone_structure()).build().unwrap();
        let (mut wf, mut rf) = (wf.lock(), rf.lock());
        for pass in 0..2 {
            let got = wf.inference_and_backprop(feeds, "loss").unwrap();
            let expect = rf.inference_and_backprop(feeds, "loss").unwrap();
            let at = format!("'{}' threads={threads} pass={pass}", net.name);
            for (name, t) in &expect {
                assert_eq!(bits(&got[name]), bits(t), "{at}: output '{name}'");
            }
            for p in rf.network().get_params() {
                let g = grad_name(p);
                let (wg, rg) = (wf.network().fetch_tensor(&g), rf.network().fetch_tensor(&g));
                assert_eq!(bits(wg.unwrap()), bits(rg.unwrap()), "{at}: '{g}'");
            }
        }
    }
}

#[test]
fn wavefront_gradients_match_reference_bitwise() {
    let case = zoo().remove(0);
    assert!(!case.net.get_params().is_empty());
    assert_bitwise_parity(&case.net, &feed_refs(&case.feeds(1)));
}

// Fan-in the zoo does not have: the interpreter accumulates gradient
// contributions on arrival, so its arrival order must be the reference's.

fn seeded(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
}

/// One node reads the same tensor twice: `h` collects two contributions
/// from each of `Mul(h, h)` and `Add(h, h)`, which share a level.
#[test]
fn same_tensor_consumed_twice_accumulates_in_reference_order() {
    let mut net = Network::new("twice");
    net.add_input("x");
    net.add_input("target");
    net.add_parameter("W1", seeded(&[8, 8], 1));
    net.add_parameter("b1", seeded(&[8], 2));
    net.add_parameter("W2", seeded(&[3, 8], 3));
    net.add_parameter("b2", seeded(&[3], 4));
    let a = Attributes::new;
    net.add_node("fc1", "Linear", a(), &["x", "W1", "b1"], &["h"])
        .unwrap();
    net.add_node("sq", "Mul", a(), &["h", "h"], &["hh"])
        .unwrap();
    net.add_node("dbl", "Add", a(), &["h", "h"], &["h2"])
        .unwrap();
    net.add_node("sum", "Add", a(), &["hh", "h2"], &["s"])
        .unwrap();
    net.add_node("fc2", "Linear", a(), &["s", "W2", "b2"], &["pred"])
        .unwrap();
    net.add_node("mse", "MseLoss", a(), &["pred", "target"], &["loss"])
        .unwrap();
    net.add_output("loss");
    let feeds = [("x", seeded(&[5, 8], 5)), ("target", seeded(&[5, 3], 6))];
    assert_bitwise_parity(&net, &feeds);
}

/// Tied weights: `W`/`b` are read by two nodes of one level and by a third
/// three levels later — the producer-less accumulation path, where nothing
/// ever "finalizes" the gradient before it is published.
#[test]
fn tied_parameter_gradients_accumulate_in_reference_order() {
    let mut net = Network::new("tied");
    for input in ["x", "z", "target"] {
        net.add_input(input);
    }
    net.add_parameter("W", seeded(&[8, 8], 7));
    net.add_parameter("b", seeded(&[8], 8));
    let a = Attributes::new;
    net.add_node("fa", "Linear", a(), &["x", "W", "b"], &["a"])
        .unwrap();
    net.add_node("fc", "Linear", a(), &["z", "W", "b"], &["c"])
        .unwrap();
    net.add_node("sum", "Add", a(), &["a", "c"], &["s"])
        .unwrap();
    net.add_node("act", "Relu", a(), &["s"], &["r"]).unwrap();
    net.add_node("fd", "Linear", a(), &["r", "W", "b"], &["d"])
        .unwrap();
    net.add_node("mse", "MseLoss", a(), &["d", "target"], &["loss"])
        .unwrap();
    net.add_output("loss");
    let feeds = [
        ("x", seeded(&[4, 8], 9)),
        ("z", seeded(&[4, 8], 10)),
        ("target", seeded(&[4, 8], 11)),
    ];
    assert_bitwise_parity(&net, &feeds);
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
