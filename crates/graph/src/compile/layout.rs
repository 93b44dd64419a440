//! Convolution layout selection: pin each conv's execution tier ahead of
//! time and move direct-tier filter packing out of the hot path.
//!
//! At execution time a `Conv2d` with `algorithm = "auto"` re-runs the
//! shape heuristic on every forward call and, on the direct tier, packs
//! its filter into the MR-blocked layout on first use (memoized per op
//! instance, re-validated by content fingerprint on every call). This pass
//! does both decisions once, at compile time, from statically inferred
//! shapes:
//!
//! 1. **Tier pinning** — every `auto` conv's `algorithm` attribute is
//!    rewritten to the tier [`Conv2dOp::resolved_algo_for`] picks for its
//!    inferred shapes, so reports, traces, and the d5nx serialization name
//!    the tier that actually runs. An explicit tier is never changed.
//! 2. **Ahead-of-time filter packing** — when parameters are frozen
//!    (inference), each direct-tier conv reading a parameter filter gets a
//!    [`PackConv2dFilter`](deep500_ops::conv::direct::PackConv2dFilterOp)
//!    node inserted on its weight edge and is retagged with
//!    `weights_packed = 1` + the natural `w_dims`. The constant-folding
//!    pass that runs next materializes the packed image into the value
//!    store, eliding the pack node entirely — execution then skips both
//!    the packing and the per-call fingerprint of the weight buffer.
//!    Convs sharing one filter share one pack node.
//!
//! The pass is gated like every other compile pass: the transform-safety
//! diff re-infers all shapes (rejecting any drift on surviving tensors)
//! and the verifier's V016 `LayoutMismatch` lint proves each retagged
//! conv's filter edge really is the packed image its `w_dims` promises.

use crate::network::{Network, NodeId};
use deep500_ops::conv::{Conv2dOp, ConvAlgorithm};
use deep500_tensor::{Result, Shape};
use std::collections::HashMap;

/// What [`select_conv_layouts`] rewrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutReport {
    /// Convs whose `algorithm` attribute was pinned to a different tier.
    pub retagged: usize,
    /// Direct-tier convs switched to an ahead-of-time packed filter.
    pub packed: usize,
}

impl LayoutReport {
    /// Total rewrites applied.
    pub fn rewrites(&self) -> usize {
        self.retagged + self.packed
    }
}

/// One planned conv rewrite, collected before any mutation.
struct Rewrite {
    id: NodeId,
    resolved: ConvAlgorithm,
    /// `Some((weight name, packed edge name, natural dims))` when the
    /// filter moves to the blocked layout.
    pack: Option<(String, String, [i64; 4])>,
}

/// Pin every convolution's tier from statically inferred shapes; with
/// `freeze_params`, additionally insert `PackConv2dFilter` nodes on
/// direct-tier parameter filters (see the module docs). Idempotent:
/// already-pinned and already-packed convs are left alone, so a second run
/// reports zero rewrites.
pub fn select_conv_layouts(
    net: &mut Network,
    input_shapes: &[(&str, Shape)],
    freeze_params: bool,
) -> Result<LayoutReport> {
    // Static shapes for every edge, from the declared graph-input shapes
    // plus whatever earlier passes materialized into the value store.
    let ir = net.to_ir();
    let mut extended: Vec<(&str, Shape)> = input_shapes.to_vec();
    for (name, t) in net.values() {
        if !extended.iter().any(|(n, _)| *n == name.as_str()) {
            extended.push((name.as_str(), t.shape().clone()));
        }
    }
    let mut scratch = Vec::new();
    let shapes = deep500_verify::shape_pass::infer(&ir, &extended, &[], &mut scratch);

    // Plan phase: immutable scan, no graph mutation yet.
    let mut rewrites: Vec<Rewrite> = Vec::new();
    for (id, node) in net.nodes() {
        if node.op_type != "Conv2d" || node.attrs.int_or("weights_packed", 0) == 1 {
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
        let wname = node.inputs[1].clone();
        let pack = (freeze_params
            && resolved == ConvAlgorithm::Direct
            && net.is_parameter(&wname)
            && ws.rank() == 4)
            .then(|| {
                let dims = [
                    ws.dim(0) as i64,
                    ws.dim(1) as i64,
                    ws.dim(2) as i64,
                    ws.dim(3) as i64,
                ];
                (wname.clone(), format!("{wname}::packed"), dims)
            });
        if declared != resolved || pack.is_some() {
            rewrites.push(Rewrite { id, resolved, pack });
        }
    }

    // Apply phase. Convs sharing a filter share one pack node.
    let mut report = LayoutReport::default();
    let mut pack_nodes: HashMap<String, String> = HashMap::new();
    for rw in rewrites {
        let node = net.remove_node(rw.id)?;
        let mut attrs = node.attrs.with_str("algorithm", rw.resolved.attr_name());
        let mut inputs = node.inputs.clone();
        if let Some((wname, packed, dims)) = rw.pack {
            if !pack_nodes.contains_key(&wname) {
                net.add_node(
                    format!("pack::{wname}"),
                    "PackConv2dFilter",
                    deep500_ops::registry::Attributes::new(),
                    &[wname.as_str()],
                    &[packed.as_str()],
                )?;
                pack_nodes.insert(wname.clone(), packed.clone());
            }
            attrs = attrs
                .with_int("weights_packed", 1)
                .with_ints("w_dims", &dims);
            inputs[1] = packed;
            report.packed += 1;
        } else {
            report.retagged += 1;
        }
        net.add_node(
            node.name,
            node.op_type,
            attrs,
            &inputs.iter().map(String::as_str).collect::<Vec<_>>(),
            &node.outputs.iter().map(String::as_str).collect::<Vec<_>>(),
        )?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut net = models::lenet(1, 28, 10, 3).unwrap();
        let report = select_conv_layouts(&mut net, &lenet_shapes(), true).unwrap();
        assert_eq!(report.packed, 2, "both LeNet convs ride the direct tier");
        for (_, node) in net.nodes() {
            if node.op_type == "Conv2d" {
                assert_eq!(node.attrs.str_or("algorithm", ""), "direct");
                assert_eq!(node.attrs.int_or("weights_packed", 0), 1);
                assert_eq!(node.attrs.ints("w_dims").len(), 4);
            }
        }
        assert_eq!(
            net.nodes()
                .filter(|(_, n)| n.op_type == "PackConv2dFilter")
                .count(),
            2
        );
        // Idempotent: nothing left to rewrite.
        let again = select_conv_layouts(&mut net, &lenet_shapes(), true).unwrap();
        assert_eq!(again.rewrites(), 0);
    }

    #[test]
    fn training_mode_pins_tiers_without_packing() {
        let mut net = models::lenet(1, 28, 10, 3).unwrap();
        let report = select_conv_layouts(&mut net, &lenet_shapes(), false).unwrap();
        assert_eq!(report.packed, 0, "no pack nodes while parameters train");
        assert_eq!(report.retagged, 2);
        for (_, node) in net.nodes() {
            assert_ne!(node.op_type, "PackConv2dFilter");
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

        let mut packed = net.clone_structure();
        select_conv_layouts(&mut packed, &lenet_shapes(), true).unwrap();
        let mut ex = ReferenceExecutor::construct(packed, usize::MAX).unwrap();
        let got = ex.inference(&feeds).unwrap();
        for (name, t) in &expect {
            let gb: Vec<u32> = got[name].data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, eb, "output '{name}' drifted under the layout pass");
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
        for freeze in [false, true] {
            let report = select_conv_layouts(&mut net, &shapes, freeze).unwrap();
            assert_eq!(report.retagged, 0);
            let algos: Vec<&str> = net
                .nodes()
                .filter(|(_, n)| n.op_type == "Conv2d")
                .map(|(_, n)| n.attrs.str_or("algorithm", ""))
                .collect();
            assert_eq!(algos, ["im2col", "im2col", "direct"], "freeze={freeze}");
        }
    }

    #[test]
    fn shared_filters_share_one_pack_node() {
        use deep500_ops::registry::Attributes;
        let mut net = Network::new("shared");
        net.add_input("x");
        let mut w = Tensor::zeros([8, 2, 3, 3]);
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            *v = (i as f32 * 0.13).cos();
        }
        net.add_parameter("w", w);
        net.add_parameter("b", Tensor::zeros([8]));
        for (name, out) in [("c1", "y1"), ("c2", "y2")] {
            net.add_node(
                name,
                "Conv2d",
                Attributes::new()
                    .with_int("stride", 1)
                    .with_int("pad", 1)
                    .with_str("algorithm", "auto"),
                &["x", "w", "b"],
                &[out],
            )
            .unwrap();
        }
        net.add_node("sum", "Add", Attributes::new(), &["y1", "y2"], &["y"])
            .unwrap();
        net.add_output("y");
        let shapes = [("x", Shape::new(&[1, 2, 10, 10]))];
        let report = select_conv_layouts(&mut net, &shapes, true).unwrap();
        assert_eq!(report.packed, 2);
        assert_eq!(
            net.nodes()
                .filter(|(_, n)| n.op_type == "PackConv2dFilter")
                .count(),
            1,
            "one pack node serves both convs"
        );
        deep500_verify::gate(&net.to_ir()).unwrap();
    }
}
