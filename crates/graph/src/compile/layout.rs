//! Convolution layout selection: pin each conv's execution tier ahead of
//! time.
//!
//! At execution time a `Conv2d` with `algorithm = "auto"` resolves its
//! tier on every forward call. This pass makes that decision once, at
//! compile time, from statically inferred shapes: every `auto` conv's
//! `algorithm` attribute is rewritten to the tier
//! [`Conv2dOp::resolved_algo_for`] picks for its inferred shapes, so
//! reports, traces, and the d5nx serialization name the tier that actually
//! runs. An explicit tier is never changed.
//!
//! Filter packing is not a graph rewrite: a direct-tier conv packs its
//! filter into the MR-blocked layout on first use and keeps the image
//! until the weight's content-version stamp changes (one `u64` compare per
//! call). The pass only counts the convs whose filter is a parameter
//! ([`LayoutReport::packed`]).
//!
//! The pass is gated like every other compile pass: the transform-safety
//! diff re-infers all shapes and rejects any drift on surviving tensors.

use crate::network::Network;
use deep500_ops::conv::{Conv2dOp, ConvAlgorithm};
use deep500_tensor::{Result, Shape};

/// What [`select_conv_layouts`] found and rewrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutReport {
    /// Convs whose `algorithm` attribute was pinned to a different tier.
    pub retagged: usize,
    /// Direct-tier convs whose filter is a parameter, which the operator's
    /// memo packs on first use. Not a rewrite.
    pub packed: usize,
}

impl LayoutReport {
    /// Total rewrites applied.
    pub fn rewrites(&self) -> usize {
        self.retagged
    }
}

/// Pin every convolution's tier from statically inferred shapes (see the
/// module docs). Idempotent: already-pinned convs are left alone, so a
/// second run reports zero rewrites.
pub fn select_conv_layouts(
    net: &mut Network,
    input_shapes: &[(&str, Shape)],
) -> Result<LayoutReport> {
    // Static shapes for every edge.
    let known = super::known_shapes(net, input_shapes);
    let shapes = deep500_verify::shape_pass::infer(&net.to_ir(), &known, &[], &mut Vec::new());

    // Plan phase: immutable scan, no graph mutation yet.
    let mut report = LayoutReport::default();
    let mut retags = Vec::new();
    for (id, node) in net.nodes() {
        if node.op_type != "Conv2d" {
            continue;
        }
        let declared = ConvAlgorithm::parse(node.attrs.str_or("algorithm", "im2col"));
        let (Some(xs), Some(ws)) = (
            node.inputs.first().and_then(|n| shapes.get(n)),
            node.inputs.get(1).and_then(|n| shapes.get(n)),
        ) else {
            continue; // uninferable inputs: the verifier gate reports why
        };
        let op = Conv2dOp::new(
            node.attrs.int_or("stride", 1) as usize,
            node.attrs.int_or("pad", 0) as usize,
            declared,
        );
        let Ok(resolved) = op.resolved_algo_for(xs, ws) else {
            continue; // invalid conv shapes: ShapeMismatch lint covers it
        };
        if resolved == ConvAlgorithm::Direct && net.is_parameter(&node.inputs[1]) {
            report.packed += 1;
        }
        if declared != resolved {
            retags.push((id, resolved));
        }
    }

    // Apply phase.
    report.retagged = retags.len();
    for (id, resolved) in retags {
        let node = net.remove_node(id)?;
        net.add_node(
            node.name,
            node.op_type,
            node.attrs.with_str("algorithm", resolved.attr_name()),
            &node.inputs.iter().map(String::as_str).collect::<Vec<_>>(),
            &node.outputs.iter().map(String::as_str).collect::<Vec<_>>(),
        )?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};
    use crate::executor::{GraphExecutor, ReferenceExecutor};
    use crate::models;
    use deep500_tensor::Tensor;

    fn lenet_shapes() -> [(&'static str, Shape); 2] {
        [
            ("x", Shape::new(&[1, 1, 28, 28])),
            ("labels", Shape::new(&[1])),
        ]
    }

    #[test]
    fn pins_auto_convs_and_packs_filters_when_frozen() {
        // Frozen parameters change nothing here: the tier is pinned, the
        // filter edge stays the natural parameter, and the memo packs it.
        let mut net = models::lenet(1, 28, 10, 3).unwrap();
        let report = compile(&mut net, &lenet_shapes(), &CompileOptions::inference()).unwrap();
        assert_eq!(report.conv_retagged, 2);
        assert_eq!(
            report.filters_packed, 2,
            "both LeNet convs ride the direct tier"
        );
        assert_eq!(report.folded, 0, "nothing constant to fold in LeNet");
        for (_, node) in net.nodes() {
            if node.op_type == "Conv2d" {
                assert_eq!(node.attrs.str_or("algorithm", ""), "direct");
                assert!(net.is_parameter(&node.inputs[1]));
            }
        }
        // Idempotent: nothing left to rewrite.
        let again = select_conv_layouts(&mut net, &lenet_shapes()).unwrap();
        assert_eq!(again.rewrites(), 0);
        assert_eq!(again.packed, 2);
    }

    #[test]
    fn training_mode_pins_tiers_without_packing() {
        let mut net = models::lenet(1, 28, 10, 3).unwrap();
        let nodes = net.num_nodes();
        let report = select_conv_layouts(&mut net, &lenet_shapes()).unwrap();
        assert_eq!(report.retagged, 2);
        assert_eq!(net.num_nodes(), nodes, "the pass adds no node");
        for (_, node) in net.nodes() {
            if node.op_type == "Conv2d" {
                assert_eq!(node.attrs.str_or("algorithm", ""), "direct");
            }
        }
    }

    #[test]
    fn packed_network_is_bit_identical_and_still_verifies() {
        let net = models::lenet(1, 28, 10, 7).unwrap();
        let x: Vec<f32> = (0..28 * 28).map(|i| (i as f32 * 0.05).sin()).collect();
        let feeds = [
            ("x", Tensor::from_vec([1, 1, 28, 28], x).unwrap()),
            ("labels", Tensor::from_slice(&[4.0])),
        ];
        let mut reference =
            ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let expect = reference.inference(&feeds).unwrap();

        // `compile` ends on the full shape-aware verifier gate.
        let mut compiled = net.clone_structure();
        compile(&mut compiled, &lenet_shapes(), &CompileOptions::inference()).unwrap();
        let mut ex = ReferenceExecutor::construct(compiled, usize::MAX).unwrap();
        let got = ex.inference(&feeds).unwrap();
        for (name, t) in &expect {
            let gb: Vec<u32> = got[name].data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, eb, "output '{name}' drifted under compilation");
        }
    }

    #[test]
    fn explicit_tiers_are_respected() {
        // Explicit tiers are never retagged — not im2col on shapes `Auto`
        // would give to direct, and not direct below the `Auto` floor.
        let mut net = crate::builder::NetworkBuilder::image_input("e", 2, 12, 12, 1)
            .conv_with_algo(8, 5, 1, 0, "im2col")
            .conv_with_algo(4, 5, 1, 0, "im2col")
            .conv_with_algo(4, 3, 1, 0, "direct")
            .build()
            .unwrap();
        let shapes = [("x", Shape::new(&[1, 2, 12, 12]))];
        let report = select_conv_layouts(&mut net, &shapes).unwrap();
        assert_eq!(report.retagged, 0);
        assert_eq!(report.packed, 1, "only the direct conv packs its filter");
        let algos: Vec<&str> = net
            .nodes()
            .filter(|(_, n)| n.op_type == "Conv2d")
            .map(|(_, n)| n.attrs.str_or("algorithm", ""))
            .collect();
        assert_eq!(algos, ["im2col", "im2col", "direct"]);
    }
}
