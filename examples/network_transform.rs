//! Graph transformations: micro-batching (Fig. 7) and GEMM-epilogue fusion.
//!
//! Shows the Level-1 workflow: build a network, inspect it, apply a
//! framework-independent transformation, and verify semantics are
//! preserved while memory behaviour changes.
//!
//! Run with: `cargo run --release --example network_transform`

use deep500::graph::compile::fuse_gemm_epilogues;
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

    // --- GEMM-epilogue fusion -----------------------------------------
    let mut net = Network::new("linear-relu");
    net.add_input("x");
    net.add_parameter("w", Tensor::rand_uniform([64, 128], -0.1, 0.1, &mut rng));
    net.add_parameter("b", Tensor::zeros([64]));
    net.add_node("fc", "Linear", Attributes::new(), &["x", "w", "b"], &["t"])
        .unwrap();
    net.add_node("act", "Relu", Attributes::new(), &["t"], &["y"])
        .unwrap();
    net.add_output("y");
    let nodes_before = net.num_nodes();
    let x = Tensor::rand_uniform([32, 128], -2.0, 2.0, &mut rng);
    let ex_engine = Engine::builder(net.clone_structure()).build().unwrap();
    let mut ex = ex_engine.lock();
    let before = ex.inference(&[("x", x.clone())]).unwrap()["y"].clone();

    let fused = fuse_gemm_epilogues(&mut net).unwrap();
    let ex_engine = Engine::builder(net).build().unwrap();
    let mut ex = ex_engine.lock();
    let after = ex.inference(&[("x", x)]).unwrap()["y"].clone();
    let identical = before.data() == after.data();
    println!(
        "\nfused {fused} Relu(s) into the GEMM epilogue: {nodes_before} nodes -> {} node(s); \
         outputs bit-identical: {identical}",
        ex.network().num_nodes()
    );
    assert!(identical);
    println!(
        "the activation is applied while the output tile is still in\n\
         registers, so the pre-activation tensor is never written."
    );
}
