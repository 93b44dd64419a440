//! Graph transforms under the transform-safety harness (verify §4).
//!
//! GEMM-epilogue fusion and convolution micro-batching are the two rewrites
//! the repo ships. Each must re-verify after rewriting: the interface
//! (inputs/outputs) unchanged, parameters present with their shapes, and
//! every tensor that survives the rewrite inferring the *same* shape as
//! before. The harness is also checked in the negative: a deliberately
//! broken "transform" must be flagged, not silently accepted.

use deep500::graph::compile::fuse_gemm_epilogues;
use deep500::graph::network::Network;
use deep500::graph::transforms::microbatch::microbatch_convolutions;
use deep500::graph::Engine;
use deep500::ops::registry::Attributes;
use deep500::tensor::{Shape, Tensor};
use deep500::verify::transform_safety;

/// `Linear → Relu` over a `[2, 4]` input (the fusion target).
fn linear_relu_net() -> Network {
    let mut net = Network::new("linear_relu");
    net.add_input("x");
    let w = (0..12).map(|i| (i as f32 * 0.7).sin()).collect();
    net.add_parameter("w", Tensor::from_vec([3, 4], w).unwrap());
    net.add_parameter("b", Tensor::from_slice(&[0.1, -0.2, 0.3]));
    net.add_node("fc", "Linear", Attributes::new(), &["x", "w", "b"], &["t"])
        .unwrap();
    net.add_node("r", "Relu", Attributes::new(), &["t"], &["y"])
        .unwrap();
    net.add_output("y");
    net
}

fn x() -> Tensor {
    Tensor::from_vec([2, 4], (0..8).map(|i| (i as f32 * 0.9).cos()).collect()).unwrap()
}

/// A conv net big enough that a small workspace cap forces micro-batching.
fn conv_net() -> Network {
    let mut net = Network::new("conv");
    net.add_input("x");
    net.add_parameter("w", Tensor::ones([4, 2, 3, 3]));
    net.add_parameter("b", Tensor::zeros([4]));
    net.add_node(
        "conv",
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
    net
}

#[test]
fn fusion_passes_the_transform_safety_harness() {
    let mut net = linear_relu_net();
    let before = net.to_ir();
    let fused = fuse_gemm_epilogues(&mut net).unwrap();
    assert_eq!(fused, 1, "the Relu must fold into the Linear");
    assert_eq!(net.num_nodes(), 1);
    let inputs = [("x", Shape::new(&[2, 4]))];
    let diff = transform_safety::diff(&before, &net.to_ir(), &inputs);
    assert!(
        diff.passes(),
        "fusion drifted:\n{}",
        diff.report.render(true)
    );
    // The pre-activation was folded into the fused node; the interface
    // tensor `y` must survive with its shape intact.
    assert_eq!(diff.removed, ["t".to_string()]);
    assert!(diff.drifted.is_empty());
    assert!(diff.report.shapes.contains_key("y"));
}

#[test]
fn fusion_result_still_executes_identically() {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let r_engine = Engine::builder(linear_relu_net()).build().unwrap();
    let mut r = r_engine.lock();
    let expect = r.inference(&[("x", x())]).unwrap()["y"].clone();
    let mut net = linear_relu_net();
    fuse_gemm_epilogues(&mut net).unwrap();
    // The constructor re-runs the structural gate over the fused graph.
    let ex_engine = Engine::builder(net).build().unwrap();
    let mut ex = ex_engine.lock();
    let got = ex.inference(&[("x", x())]).unwrap()["y"].clone();
    // The epilogue applies the Relu to the values the node would see.
    assert_eq!(bits(&got), bits(&expect));
}

#[test]
fn microbatch_passes_the_harness_it_runs_internally() {
    let x_shape = Shape::new(&[12, 2, 8, 8]);
    let mut net = conv_net();
    let before = net.to_ir();
    // microbatch_convolutions runs transform_safety::diff internally and
    // errors on any drift — Ok here already means the harness passed.
    let reports = microbatch_convolutions(&mut net, &[("x", x_shape.clone())], 40_000).unwrap();
    assert_eq!(reports.len(), 1);
    assert!(reports[0].plan.sizes.len() > 1, "must actually split");
    // Re-run the harness externally and inspect the diff shape.
    let diff = transform_safety::diff(&before, &net.to_ir(), &[("x", x_shape)]);
    assert!(diff.passes(), "{}", diff.report.render(true));
    // Split/Conv*/Concat adds micro-batch edges but must not drop or
    // reshape anything that survived.
    assert!(diff.drifted.is_empty());
    assert!(!diff.added.is_empty(), "split introduces mb tensors");
    assert!(diff.report.shapes.contains_key("y"));
}

#[test]
fn microbatch_noop_when_workspace_fits() {
    let x_shape = Shape::new(&[2, 2, 8, 8]);
    let mut net = conv_net();
    let before = net.to_ir();
    let reports = microbatch_convolutions(&mut net, &[("x", x_shape.clone())], usize::MAX).unwrap();
    assert!(reports.is_empty());
    let diff = transform_safety::diff(&before, &net.to_ir(), &[("x", x_shape)]);
    assert!(diff.passes());
    assert!(diff.removed.is_empty() && diff.added.is_empty());
}

#[test]
fn harness_flags_a_broken_rewrite() {
    let mut net = linear_relu_net();
    let before = net.to_ir();
    // A "transform" that rips out the Relu leaves the output `y`
    // undefined and `t` dead — the harness must refuse it.
    let relu_id = net
        .nodes()
        .find(|(_, n)| n.name == "r")
        .map(|(id, _)| id)
        .unwrap();
    net.remove_node(relu_id).unwrap();
    let diff = transform_safety::diff(&before, &net.to_ir(), &[("x", Shape::new(&[2, 4]))]);
    assert!(!diff.passes(), "broken rewrite slipped through");
    assert!(diff.report.deny_count() > 0);
}
