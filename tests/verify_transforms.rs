//! Graph transforms under the transform-safety harness (verify §4).
//!
//! Elementwise fusion and convolution micro-batching are the two rewrites
//! the repo ships. Each must re-verify after rewriting: the interface
//! (inputs/outputs) unchanged, parameters present with their shapes, and
//! every tensor that survives the rewrite inferring the *same* shape as
//! before. The harness is also checked in the negative: a deliberately
//! broken "transform" must be flagged, not silently accepted.

use deep500::graph::network::Network;
use deep500::graph::transforms::{fusion::fuse_elementwise, microbatch::microbatch_convolutions};
use deep500::graph::Engine;
use deep500::ops::registry::Attributes;
use deep500::tensor::{Shape, Tensor};
use deep500::verify::transform_safety;

/// Scale → Relu → Scale chain over a vector input (the fusion target).
fn chain_net() -> Network {
    let mut net = Network::new("chain");
    net.add_input("x");
    net.add_node(
        "s1",
        "Scale",
        Attributes::new()
            .with_float("alpha", 2.0)
            .with_float("beta", 1.0),
        &["x"],
        &["t1"],
    )
    .unwrap();
    net.add_node("r", "Relu", Attributes::new(), &["t1"], &["t2"])
        .unwrap();
    net.add_node(
        "s2",
        "Scale",
        Attributes::new().with_float("alpha", 0.5),
        &["t2"],
        &["y"],
    )
    .unwrap();
    net.add_output("y");
    net
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
    let mut net = chain_net();
    let before = net.to_ir();
    let fused = fuse_elementwise(&mut net).unwrap();
    assert_eq!(fused, 1, "the whole chain must fuse");
    let inputs = [("x", Shape::new(&[3]))];
    let diff = transform_safety::diff(&before, &net.to_ir(), &inputs);
    assert!(
        diff.passes(),
        "fusion drifted:\n{}",
        diff.report.render(true)
    );
    // The intermediates were folded into the fused node; the interface
    // tensor `y` must survive with its shape intact.
    assert!(diff.removed.contains(&"t1".to_string()));
    assert!(diff.removed.contains(&"t2".to_string()));
    assert!(diff.drifted.is_empty());
    assert!(diff.report.shapes.contains_key("y"));
}

#[test]
fn fusion_result_still_executes_identically() {
    let x = Tensor::from_slice(&[-3.0, 0.0, 2.0]);
    let r_engine = Engine::builder(chain_net()).build().unwrap();
    let mut r = r_engine.lock();
    let expect = r.inference(&[("x", x.clone())]).unwrap()["y"].clone();
    let mut net = chain_net();
    fuse_elementwise(&mut net).unwrap();
    // The constructor re-runs the structural gate over the fused graph.
    let ex_engine = Engine::builder(net).build().unwrap();
    let mut ex = ex_engine.lock();
    let got = ex.inference(&[("x", x)]).unwrap()["y"].clone();
    assert!(expect.approx_eq(&got, 1e-6));
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
    let mut net = chain_net();
    let before = net.to_ir();
    // A "transform" that rips out the middle node leaves `t2` undefined
    // and `t1` dead — the harness must refuse it.
    let relu_id = net
        .nodes()
        .find(|(_, n)| n.name == "r")
        .map(|(id, _)| id)
        .unwrap();
    net.remove_node(relu_id).unwrap();
    let diff = transform_safety::diff(&before, &net.to_ir(), &[("x", Shape::new(&[3]))]);
    assert!(!diff.passes(), "broken rewrite slipped through");
    assert!(diff.report.deny_count() > 0);
}
