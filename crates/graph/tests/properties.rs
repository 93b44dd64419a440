//! Property-based tests for Level 1: d5nx round-trips over randomly
//! generated networks, topological-order validity, shape-inference
//! agreement with execution, transformation semantics, and bitwise parity
//! of the two execution loops over random DAGs.

use deep500_graph::format;
use deep500_graph::network::Network;
use deep500_graph::transforms::microbatch::plan_microbatches;
use deep500_graph::{grad_name, Engine, ExecutorKind};
use deep500_ops::registry::Attributes;
use deep500_tensor::{Shape, Tensor, Xoshiro256StarStar};
use deep500_verify::shape_pass;
use proptest::prelude::*;

/// Generate a random feed-forward chain of unary ops over a vector input.
fn random_chain(ops: &[u8], features: usize, seed: u64) -> Network {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut net = Network::new(format!("chain{seed}"));
    net.add_input("x");
    let mut cur = "x".to_string();
    for (i, &op) in ops.iter().enumerate() {
        let out = format!("t{i}");
        match op % 5 {
            0 => {
                net.add_node(format!("n{i}"), "Relu", Attributes::new(), &[&cur], &[&out])
                    .unwrap();
            }
            1 => {
                net.add_node(format!("n{i}"), "Tanh", Attributes::new(), &[&cur], &[&out])
                    .unwrap();
            }
            2 => {
                net.add_node(
                    format!("n{i}"),
                    "Scale",
                    Attributes::new()
                        .with_float("alpha", (op as f64) / 31.0 + 0.1)
                        .with_float("beta", -0.25),
                    &[&cur],
                    &[&out],
                )
                .unwrap();
            }
            3 => {
                net.add_node(
                    format!("n{i}"),
                    "Sigmoid",
                    Attributes::new(),
                    &[&cur],
                    &[&out],
                )
                .unwrap();
            }
            _ => {
                // Dense layer keeps feature count.
                let w = Tensor::rand_uniform([features, features], -0.5, 0.5, &mut rng);
                let b = Tensor::rand_uniform([features], -0.1, 0.1, &mut rng);
                net.add_parameter(format!("w{i}"), w);
                net.add_parameter(format!("b{i}"), b);
                net.add_node(
                    format!("n{i}"),
                    "Linear",
                    Attributes::new(),
                    &[&cur, &format!("w{i}"), &format!("b{i}")],
                    &[&out],
                )
                .unwrap();
            }
        }
        cur = out;
    }
    net.add_output(cur);
    net
}

/// One node of [`random_dag`] before insertion: name, operator type,
/// attributes, inputs, output.
type Drawn = (String, &'static str, Attributes, Vec<String>, String);

/// A random DAG of `nodes` `Scale`/`Add`/`Mul`/`Relu` nodes behind a
/// `Linear` stem, its unread tensors summed into an MSE loss. Each input is
/// the stem's output half the time and an earlier node's otherwise, so the
/// stem collects many gradient contributions. The nodes are inserted in a
/// random order (a network accepts a consumer before its producer), so
/// insertion order is neither level order nor depth-first order.
fn random_dag(nodes: usize, features: usize, seed: u64) -> Network {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let a = Attributes::new;
    let stem_inputs = vec!["x".into(), "W".into(), "b".into()];
    let mut drawn: Vec<Drawn> = vec![("stem".into(), "Linear", a(), stem_inputs, "t0".into())];
    let pick = |rng: &mut Xoshiro256StarStar, i: usize| match rng.next_below(2) {
        0 => "t0".to_string(),
        _ => format!("t{}", rng.next_below(i)),
    };
    for i in 1..=nodes {
        let (op_type, attrs, arity) = match rng.next_below(4) {
            0 => (
                "Scale",
                a().with_float("alpha", 0.25 + 2.0 * rng.next_f64()),
                1,
            ),
            1 => ("Add", a(), 2),
            2 => ("Mul", a(), 2),
            _ => ("Relu", a(), 1),
        };
        let inputs = (0..arity).map(|_| pick(&mut rng, i)).collect();
        drawn.push((format!("n{i}"), op_type, attrs, inputs, format!("t{i}")));
    }
    let read: std::collections::HashSet<String> =
        drawn.iter().flat_map(|d| d.3.iter().cloned()).collect();
    let mut sinks: Vec<String> = (0..=nodes)
        .map(|i| format!("t{i}"))
        .filter(|t| !read.contains(t))
        .collect();
    let mut k = 0;
    while sinks.len() > 1 {
        let (l, r) = (sinks.remove(0), sinks.remove(0));
        drawn.push((format!("sum{k}"), "Add", a(), vec![l, r], format!("s{k}")));
        sinks.push(format!("s{k}"));
        k += 1;
    }
    let loss_inputs = vec![sinks.remove(0), "target".into()];
    drawn.push(("mse".into(), "MseLoss", a(), loss_inputs, "loss".into()));
    rng.shuffle(&mut drawn);

    let mut net = Network::new(format!("dag{seed}"));
    net.add_input("x");
    net.add_input("target");
    let w = Tensor::rand_uniform([features, features], -0.5, 0.5, &mut rng);
    net.add_parameter("W", w);
    net.add_parameter("b", Tensor::rand_uniform([features], -0.1, 0.1, &mut rng));
    for (name, op_type, attrs, inputs, output) in drawn {
        let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        net.add_node(name, op_type, attrs, &inputs, &[&output])
            .unwrap();
    }
    net.add_output("loss");
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reference loop and the plan interpreter give the same loss and
    /// parameter gradients, bit for bit, on random DAGs inserted in random
    /// order: both walk one level order, so every gradient's contributions
    /// are added in one order.
    #[test]
    fn random_dags_match_reference_bitwise(
        nodes in 4usize..13,
        features in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let net = random_dag(nodes, features, seed);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 7);
        let feeds = [
            ("x", Tensor::rand_uniform([3, features], -1.0, 1.0, &mut rng)),
            ("target", Tensor::rand_uniform([3, features], -1.0, 1.0, &mut rng)),
        ];
        let bits = |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
        let planned = Engine::builder(net.clone_structure())
            .executor(ExecutorKind::Planned)
            .build()
            .unwrap();
        let reference = Engine::builder(net).build().unwrap();
        let (mut p, mut r) = (planned.lock(), reference.lock());
        let got = p.inference_and_backprop(&feeds, "loss").unwrap();
        let expect = r.inference_and_backprop(&feeds, "loss").unwrap();
        prop_assert_eq!(bits(&got["loss"]), bits(&expect["loss"]));
        for param in ["W", "b"] {
            let g = grad_name(param);
            let (pg, rg) = (p.network().fetch_tensor(&g), r.network().fetch_tensor(&g));
            prop_assert_eq!(bits(pg.unwrap()), bits(rg.unwrap()), "{} seed {}", g, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// d5nx round-trip preserves structure and execution semantics for
    /// arbitrary generated networks.
    #[test]
    fn d5nx_roundtrip_random_networks(
        ops in prop::collection::vec(any::<u8>(), 1..8),
        features in 1usize..6,
        seed in 0u64..500,
    ) {
        let net = random_chain(&ops, features, seed);
        let bytes = format::encode(&net);
        let back = format::decode(&bytes).unwrap();
        prop_assert_eq!(back.num_nodes(), net.num_nodes());
        prop_assert_eq!(back.get_params(), net.get_params());
        // Re-encoding is byte-identical (deterministic format).
        prop_assert_eq!(format::encode(&back), bytes);
        // Same outputs.
        let x = Tensor::rand_uniform(
            [2, features],
            -1.0,
            1.0,
            &mut Xoshiro256StarStar::seed_from_u64(seed ^ 9),
        );
        let (g1, g2) = (
            Engine::builder(net).build().unwrap(),
            Engine::builder(back).build().unwrap(),
        );
        let (mut e1, mut e2) = (g1.lock(), g2.lock());
        let o1 = e1.inference(&[("x", x.clone())]).unwrap();
        let o2 = e2.inference(&[("x", x)]).unwrap();
        for (k, v) in &o1 {
            prop_assert_eq!(v, &o2[k]);
        }
    }

    /// Topological order lists every node exactly once, producers first.
    #[test]
    fn topo_order_is_valid(
        ops in prop::collection::vec(any::<u8>(), 1..10),
        seed in 0u64..100,
    ) {
        let net = random_chain(&ops, 3, seed);
        let order = net.topological_order().unwrap();
        prop_assert_eq!(order.len(), net.num_nodes());
        let mut produced: std::collections::HashSet<String> =
            net.graph_inputs().iter().cloned().collect();
        for p in net.get_params() {
            produced.insert(p.clone());
        }
        for id in order {
            let node = net.node(id).unwrap();
            for i in &node.inputs {
                prop_assert!(produced.contains(i), "input '{}' not yet produced", i);
            }
            for o in &node.outputs {
                produced.insert(o.clone());
            }
        }
    }

    /// Static shape inference matches the shapes actually produced.
    #[test]
    fn shape_inference_matches_execution(
        ops in prop::collection::vec(any::<u8>(), 1..6),
        features in 1usize..5,
        batch in 1usize..4,
        seed in 0u64..100,
    ) {
        let net = random_chain(&ops, features, seed);
        let shapes = shape_pass::infer(
            &net.to_ir(),
            &[("x", Shape::new(&[batch, features]))],
            &[],
            &mut Vec::new(),
        );
        let out_name = net.graph_outputs()[0].clone();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        let x = Tensor::zeros([batch, features]);
        let out = ex.inference(&[("x", x)]).unwrap();
        prop_assert_eq!(out[&out_name].shape(), &shapes[&out_name]);
    }

    /// The micro-batch planner always covers the batch, never exceeds the
    /// memory cap, and puts the remainder (if any) first.
    #[test]
    fn microbatch_plan_invariants(
        batch in 1usize..500,
        per_sample in 1usize..1000,
        cap_factor in 1usize..64,
    ) {
        let capacity = per_sample * cap_factor;
        let plan = plan_microbatches(batch, per_sample, capacity).unwrap();
        prop_assert_eq!(plan.batch(), batch);
        for &s in &plan.sizes {
            prop_assert!(s * per_sample <= capacity, "piece {} exceeds cap", s);
            prop_assert!(s > 0);
        }
        // Uniform tail after an optional remainder head.
        if plan.sizes.len() > 1 {
            let tail = plan.sizes[1];
            prop_assert!(plan.sizes[1..].iter().all(|&s| s == tail));
            prop_assert!(plan.sizes[0] <= tail);
        }
        prop_assert_eq!(plan.algorithms.len(), plan.sizes.len());
    }

    /// Gradients exist for every parameter after backprop through any
    /// generated chain ending in a loss.
    #[test]
    fn backprop_reaches_all_parameters(
        ops in prop::collection::vec(any::<u8>(), 1..6),
        seed in 0u64..100,
    ) {
        let mut net = random_chain(&ops, 4, seed);
        let out = net.graph_outputs()[0].clone();
        net.add_input("target");
        net.add_node("loss_n", "MseLoss", Attributes::new(), &[&out, "target"], &["loss"])
            .unwrap();
        net.add_output("loss");
        let nparams = net.get_params().len();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        let x = Tensor::ones([2, 4]);
        let t = Tensor::zeros([2, 4]);
        ex.inference_and_backprop(&[("x", x), ("target", t)], "loss").unwrap();
        let with_grads = ex
            .network()
            .get_params()
            .iter()
            .filter(|p| ex.network().fetch_tensor(&deep500_graph::grad_name(p)).is_ok())
            .count();
        prop_assert_eq!(with_grads, nparams);
    }
}
