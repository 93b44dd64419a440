//! Graph transformations: micro-batching (Fig. 7) and elementwise fusion.
//!
//! Shows the Level-1 workflow: build a network, inspect it, apply a
//! framework-independent transformation, and verify semantics are
//! preserved while memory behaviour changes.
//!
//! Run with: `cargo run --release --example network_transform`

use deep500::graph::transforms::fusion::fuse_elementwise;
use deep500::graph::transforms::microbatch::microbatch_convolutions;
use deep500::prelude::*;

fn main() {
    // --- Micro-batch transformation -------------------------------------
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    let mut net = Network::new("conv-workload");
    net.add_input("x");
    net.add_parameter("w", Tensor::rand_uniform([8, 3, 3, 3], -0.3, 0.3, &mut rng));
    net.add_parameter("b", Tensor::zeros([8]));
    net.add_node(
        "bigconv",
        "Conv2d",
        Attributes::new()
            .with_int("stride", 1)
            .with_int("pad", 1)
            .with_str("algorithm", "im2col"),
        &["x", "w", "b"],
        &["y"],
    )
    .unwrap();
    net.add_output("y");

    let batch = 96usize;
    let input_shape = Shape::new(&[batch, 3, 24, 24]);
    let x = Tensor::rand_uniform(input_shape.clone(), -1.0, 1.0, &mut rng);

    // Original output + peak memory.
    let ex_engine = Engine::builder(net.clone_structure()).build().unwrap();
    let mut ex = ex_engine.lock();
    let original = ex.inference(&[("x", x.clone())]).unwrap()["y"].clone();
    let peak_before = ex.peak_memory();

    // Transform under a workspace cap and re-run.
    let cap = 2_000_000; // 2 MB of conv workspace
    let reports = microbatch_convolutions(&mut net, &[("x", input_shape)], cap).unwrap();
    for r in &reports {
        println!(
            "micro-batched '{}': sizes {:?}, algorithms {:?}",
            r.node_name, r.plan.sizes, r.plan.algorithms
        );
        println!(
            "  conv workspace: {} -> {}",
            deep500::metrics::report::fmt_bytes(r.workspace_before as u64),
            deep500::metrics::report::fmt_bytes(r.workspace_after as u64)
        );
    }
    let ex_engine = Engine::builder(net).build().unwrap();
    let mut ex = ex_engine.lock();
    let transformed = ex.inference(&[("x", x)]).unwrap()["y"].clone();
    println!(
        "semantics preserved: {} | peak memory {} -> {}",
        original.approx_eq(&transformed, 1e-4),
        deep500::metrics::report::fmt_bytes(peak_before as u64),
        deep500::metrics::report::fmt_bytes(ex.peak_memory() as u64)
    );
    assert!(original.approx_eq(&transformed, 1e-4));

    // --- Elementwise fusion ---------------------------------------------
    let mut net = Network::new("elementwise-chain");
    net.add_input("x");
    net.add_node(
        "s1",
        "Scale",
        Attributes::new()
            .with_float("alpha", 2.0)
            .with_float("beta", -0.5),
        &["x"],
        &["t1"],
    )
    .unwrap();
    net.add_node("a1", "Tanh", Attributes::new(), &["t1"], &["t2"])
        .unwrap();
    net.add_node(
        "s2",
        "Scale",
        Attributes::new().with_float("alpha", 0.5),
        &["t2"],
        &["t3"],
    )
    .unwrap();
    net.add_node("a2", "Relu", Attributes::new(), &["t3"], &["y"])
        .unwrap();
    net.add_output("y");
    let nodes_before = net.num_nodes();
    let x = Tensor::rand_uniform([4096], -2.0, 2.0, &mut rng);
    let ex_engine = Engine::builder(net.clone_structure()).build().unwrap();
    let mut ex = ex_engine.lock();
    let before = ex.inference(&[("x", x.clone())]).unwrap()["y"].clone();

    let fused = fuse_elementwise(&mut net).unwrap();
    let ex_engine = Engine::builder(net).build().unwrap();
    let mut ex = ex_engine.lock();
    let after = ex.inference(&[("x", x)]).unwrap()["y"].clone();
    println!(
        "\nfused {fused} chain(s): {nodes_before} nodes -> {} node(s); outputs match: {}",
        1,
        before.approx_eq(&after, 1e-6)
    );
    assert!(before.approx_eq(&after, 1e-6));
    println!(
        "this is the Caffe2-style operator-fusion optimization of the\n\
         paper's Use Case 1 (one dispatch instead of four)."
    );
}
