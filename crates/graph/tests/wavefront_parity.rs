//! Wavefront executor parity: results must be *bit-identical* to the
//! reference executor on the model zoo, for outputs and parameter
//! gradients, whether a level runs inline or forked and at every pool
//! width (CI runs this file again under `RAYON_NUM_THREADS=1`). This is
//! the contract that makes the wavefront executor a drop-in replacement:
//! reordering execution across a level must never reorder any
//! floating-point accumulation.

use deep500_graph::models::{feed_refs, zoo};
use deep500_graph::validate::{test_executor, test_executor_backprop};
use deep500_graph::{grad_name, Engine, ExecutorKind, MemoryAccountant, Network};
use deep500_ops::par::FORK_CUT;
use deep500_ops::registry::{register_op, Attributes};
use deep500_ops::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor, Xoshiro256StarStar};
use std::sync::{Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

#[test]
fn wavefront_inference_is_bit_identical_across_widths() {
    for case in zoo() {
        let (name, net, feeds) = (case.name, &case.net, case.feeds(1));
        let wf = Engine::builder(net.clone_structure())
            .executor(ExecutorKind::Wavefront)
            .build()
            .unwrap();
        let rf = Engine::builder(net.clone_structure()).build().unwrap();
        let (mut wf, mut rf) = (wf.lock(), rf.lock());
        let feeds = feed_refs(&feeds);
        let report = test_executor(&mut *wf, &mut *rf, &feeds, 2).unwrap();
        assert!(
            report.passes(0.0),
            "{name}: outputs differ: {:?}",
            report.output_norms
        );
    }
}

#[test]
fn wavefront_backprop_is_bit_identical_across_widths() {
    for case in zoo() {
        let (name, net, feeds) = (case.name, &case.net, case.feeds(1));
        let wf = Engine::builder(net.clone_structure())
            .executor(ExecutorKind::Wavefront)
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
            "{name}: outputs or gradients differ:\noutputs {:?}\ngrads {:?}",
            report.output_norms,
            report.gradient_norms
        );
    }
}

/// Raw IEEE-754 bit patterns, not just an ℓ∞ of 0 (which `-0.0 == 0.0`
/// would satisfy): outputs and every parameter gradient bit-for-bit, on a
/// cold pass and on a pass over recycled buffers.
fn assert_bitwise_parity(net: &Network, feeds: &[(&str, Tensor)]) {
    let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
    let wf = Engine::builder(net.clone_structure())
        .executor(ExecutorKind::Wavefront)
        .build()
        .unwrap();
    let rf = Engine::builder(net.clone_structure()).build().unwrap();
    let (mut wf, mut rf) = (wf.lock(), rf.lock());
    for pass in 0..2 {
        let got = wf.inference_and_backprop(feeds, "loss").unwrap();
        let expect = rf.inference_and_backprop(feeds, "loss").unwrap();
        let at = format!("'{}' pass={pass}", net.name);
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

/// `branches` nodes of `op_type` over the shared tensor `root` — one level
/// — concatenated into an MSE loss. `inputs(i)` names branch `i`'s inputs
/// after `root`; `attrs(i)` are its attributes.
fn fan_out(
    name: &str,
    root: &str,
    branches: usize,
    op_type: &str,
    inputs: impl Fn(usize) -> Vec<String>,
    attrs: impl Fn(usize) -> Attributes,
) -> Network {
    let mut net = Network::new(name);
    net.add_input("x");
    net.add_input("target");
    let outs: Vec<String> = (0..branches).map(|i| format!("h{i}")).collect();
    for (i, out) in outs.iter().enumerate() {
        let mut ins = vec![root.to_string()];
        ins.extend(inputs(i));
        let ins: Vec<&str> = ins.iter().map(String::as_str).collect();
        net.add_node(format!("n{i}"), op_type, attrs(i), &ins, &[out])
            .unwrap();
    }
    let outs: Vec<&str> = outs.iter().map(String::as_str).collect();
    let cat = Attributes::new().with_int("num_inputs", branches as i64);
    net.add_node("merge", "Concat", cat, &outs, &["y"]).unwrap();
    net.add_node(
        "mse",
        "MseLoss",
        Attributes::new(),
        &["y", "target"],
        &["loss"],
    )
    .unwrap();
    net.add_output("loss");
    net
}

/// A level that really forks: eight `Linear` 256→256 at batch 16 are
/// 1 M multiply-adds each, four times the cut, and all eight add their
/// `dX` into the gradient of the stem's output they share.
#[test]
fn forked_levels_match_reference_bitwise() {
    let (branches, features, batch) = (8, 256, 16);
    assert!(batch * features * features >= FORK_CUT);
    let mut net = fan_out(
        "forked",
        "stem",
        branches,
        "Linear",
        |i| vec![format!("w{i}"), format!("b{i}")],
        |_| Attributes::new(),
    );
    for i in 0..branches as u64 {
        net.add_parameter(format!("w{i}"), seeded(&[features, features], 20 + i));
        net.add_parameter(format!("b{i}"), seeded(&[features], 40 + i));
    }
    net.add_parameter("ws", seeded(&[features, features], 18));
    net.add_parameter("bs", seeded(&[features], 19));
    net.add_node(
        "fc",
        "Linear",
        Attributes::new(),
        &["x", "ws", "bs"],
        &["stem"],
    )
    .unwrap();
    let feeds = [
        ("x", seeded(&[batch, features], 60)),
        ("target", seeded(&[branches * batch, features], 61)),
    ];
    assert_bitwise_parity(&net, &feeds);
}

/// Every thread a `ThreadProbe` of each tag ran on, forward and backward.
static PROBED: Mutex<Vec<(String, ThreadId)>> = Mutex::new(Vec::new());
/// Rendezvous of the `meet` probes: how many are inside a call right now,
/// and whether two ever were at once.
static MEETING: (Mutex<(usize, bool)>, Condvar) = (Mutex::new((0, false)), Condvar::new());

/// The identity, declaring `macs` multiply-adds. With `meet`, a call does
/// not return until a second one is in flight beside it — which only a
/// forked level can provide (ten seconds is the failure path, not a wait
/// anything relies on).
struct ThreadProbe {
    tag: String,
    macs: usize,
    meet: bool,
}

impl ThreadProbe {
    fn visit(&self) {
        let here = (self.tag.clone(), thread::current().id());
        PROBED.lock().unwrap().push(here);
        if self.meet {
            let (state, arrived) = &MEETING;
            let mut inside = state.lock().unwrap();
            inside.0 += 1;
            if inside.0 >= 2 {
                inside.1 = true;
                arrived.notify_all();
            }
            let patience = Duration::from_secs(10);
            let (mut inside, _) = arrived
                .wait_timeout_while(inside, patience, |s| !s.1)
                .unwrap();
            inside.0 -= 1;
        }
    }
}

impl Operator for ThreadProbe {
    fn name(&self) -> &str {
        "ThreadProbe"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        self.visit();
        Ok(vec![inputs[0].clone()])
    }
    fn backward(&self, grads: &[&Tensor], _: &[&Tensor], _: &[&Tensor]) -> Result<Vec<Tensor>> {
        self.visit();
        Ok(vec![grads[0].clone()])
    }
    fn flops(&self, _: &[&Shape]) -> f64 {
        2.0 * self.macs as f64
    }
}

/// The level rule, on both sides: eight steps below the cut, or one far
/// above it beside seven below, run on the calling thread, forward and
/// backward; two at the cut are handed to the pool.
#[test]
fn a_level_forks_only_when_two_of_its_steps_clear_the_cut() {
    register_op("ThreadProbe", |attrs: &Attributes| {
        Ok(Box::new(ThreadProbe {
            tag: attrs.str_or("tag", "").to_string(),
            macs: attrs.int_or("macs", 0) as usize,
            meet: attrs.int_or("meet", 0) == 1,
        }) as Box<dyn Operator>)
    });
    let feeds = [("x", seeded(&[4], 70)), ("target", seeded(&[32], 71))];
    let run = |tag: &str, macs: &dyn Fn(usize) -> usize, meet: bool| {
        let net = fan_out(
            tag,
            "x",
            8,
            "ThreadProbe",
            |_| vec![],
            |i| {
                Attributes::new()
                    .with_str("tag", tag)
                    .with_int("macs", macs(i) as i64)
                    .with_int("meet", i64::from(meet && macs(i) >= FORK_CUT))
            },
        );
        let engine = Engine::builder(net)
            .executor(ExecutorKind::Wavefront)
            .build()
            .unwrap();
        engine
            .lock()
            .inference_and_backprop(&feeds, "loss")
            .unwrap();
        let probed = PROBED.lock().unwrap();
        let threads: Vec<ThreadId> = probed
            .iter()
            .filter(|(t, _)| t == tag)
            .map(|(_, id)| *id)
            .collect();
        assert_eq!(threads.len(), 16, "{tag}: eight forward, eight backward");
        threads
    };
    let here = thread::current().id();
    let small = run("small", &|_| FORK_CUT - 1, false);
    assert!(small.iter().all(|&id| id == here), "below the cut: inline");
    let one_big = run(
        "one_big",
        &|i| if i == 3 { 100 * FORK_CUT } else { 1 },
        false,
    );
    assert!(one_big.iter().all(|&id| id == here), "one big step: inline");
    // Forward: the two meeting probes return only once they overlap.
    run("two_big", &|i| if i < 2 { FORK_CUT } else { 1 }, true);
    assert!(MEETING.0.lock().unwrap().1, "two steps at the cut: forked");
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

/// `h = Linear(x, W, b)` read by four nodes — `A = Scale(h)`,
/// `B = Add(a, h)`, `C = Scale(h)`, `D = Add(c, h)` — inserted in
/// `order`, then `F = Add(b, d)` into an MSE loss. `dh` sums four
/// contributions, and `f32` addition is not associative, so both loops
/// must add them in one order whatever order the nodes were inserted in.
fn four_consumers(order: [&str; 4], seed: u64) -> (Network, [(&'static str, Tensor); 2]) {
    let mut net = Network::new(format!("four_consumers_{}", order.concat()));
    net.add_input("x");
    net.add_input("target");
    net.add_parameter("W", seeded(&[8, 8], seed));
    net.add_parameter("b", seeded(&[8], seed + 1));
    let a = Attributes::new;
    net.add_node("fc", "Linear", a(), &["x", "W", "b"], &["h"])
        .unwrap();
    for node in order {
        let (op_type, attrs, inputs, out): (_, _, &[&str], _) = match node {
            "A" => ("Scale", a().with_float("alpha", 0.37), &["h"], "a"),
            "B" => ("Add", a(), &["a", "h"], "b_out"),
            "C" => ("Scale", a().with_float("alpha", 3.1), &["h"], "c"),
            "D" => ("Add", a(), &["c", "h"], "d"),
            _ => unreachable!("nodes are A, B, C and D"),
        };
        net.add_node(node, op_type, attrs, inputs, &[out]).unwrap();
    }
    net.add_node("F", "Add", a(), &["b_out", "d"], &["f"])
        .unwrap();
    net.add_node("mse", "MseLoss", a(), &["f", "target"], &["loss"])
        .unwrap();
    net.add_output("loss");
    let feeds = [
        ("x", seeded(&[4, 8], seed + 2)),
        ("target", seeded(&[4, 8], seed + 3)),
    ];
    (net, feeds)
}

/// Inserted depth-first, the graph's insertion order is not its level
/// order ({A, C} before {B, D}); the reference loop must still add `dh`'s
/// contributions in the order the plan interpreter does.
#[test]
fn depth_first_four_consumers_match_reference_bitwise() {
    for seed in 0..50 {
        let (net, feeds) = four_consumers(["A", "B", "C", "D"], 100 + 4 * seed);
        assert_bitwise_parity(&net, &feeds);
    }
}

/// The control: inserted breadth-first, insertion order is level order.
#[test]
fn breadth_first_four_consumers_match_reference_bitwise() {
    for seed in 0..50 {
        let (net, feeds) = four_consumers(["A", "C", "B", "D"], 100 + 4 * seed);
        assert_bitwise_parity(&net, &feeds);
    }
}
