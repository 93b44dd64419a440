//! Stage 1: decompose a model into canonical bricks.
//!
//! Walks the verifier IR (`Network::to_ir`), runs the concrete shape pass
//! to resolve every tensor, and emits one [`BrickInstance`] per node. The
//! instance's [`BrickKey`] is the canonical identity used for
//! deduplication: operator kind, attributes in sorted order, resolved
//! input shapes, dtype, the dispatch tier the operator reports for those
//! shapes (`Operator::annotation`, e.g. a convolution's resolved
//! algorithm) — two convolutions that dispatch to different tiers are
//! different bricks even if their attributes agree — and the `wanted`
//! mask of input gradients its backward owes.

use deep500::graph::Network;
use deep500::ops::registry::{create_op, AttrValue, Attributes};
use deep500::tensor::Shape;
use std::collections::HashSet;

/// Canonical brick identity: the dedup key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BrickKey {
    /// Operator kind (`"Conv2d"`, `"Linear"`, ...).
    pub op_type: String,
    /// Attributes rendered in sorted-key order (`"pad=1;stride=2"`).
    pub attrs: String,
    /// Resolved input shapes, in operator-input order.
    pub in_dims: Vec<Vec<usize>>,
    /// Element dtype (`"f32"` unless the node declares otherwise).
    pub dtype: String,
    /// The dispatch tier the operator resolves to at these shapes
    /// (empty for ops that report none).
    pub tier: String,
    /// Which input gradients the parent model's backward sweep reads
    /// (`Operator::backward_wanted`): parameters and node-produced
    /// activations, not feeds. A first layer skips its dX product, so it
    /// is a different — cheaper — brick than the same layer mid-network.
    pub wanted: Vec<bool>,
}

impl BrickKey {
    /// Compact human-readable form for reports.
    pub fn render(&self) -> String {
        let shapes: Vec<String> = self
            .in_dims
            .iter()
            .map(|d| {
                let dims: Vec<String> = d.iter().map(|x| x.to_string()).collect();
                format!("[{}]", dims.join("x"))
            })
            .collect();
        let mut s = format!("{} {} {}", self.op_type, shapes.join(","), self.dtype);
        if !self.attrs.is_empty() {
            s.push_str(&format!(" {{{}}}", self.attrs));
        }
        if !self.tier.is_empty() {
            s.push_str(&format!(" {}", self.tier));
        }
        if self.wanted.contains(&false) {
            let mask: String = self
                .wanted
                .iter()
                .map(|&w| if w { 'g' } else { '-' })
                .collect();
            s.push_str(&format!(" wanted={mask}"));
        }
        s
    }
}

/// Render one attribute value without `Debug` noise (no `Int(..)`
/// wrappers or quotes — the result lands inside JSON strings).
fn render_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::Int(i) => i.to_string(),
        AttrValue::Float(f) => format!("{f}"),
        AttrValue::Str(s) => s.clone(),
        AttrValue::Ints(v) => {
            let items: Vec<String> = v.iter().map(|i| i.to_string()).collect();
            items.join(",")
        }
    }
}

/// One resolved operator input.
#[derive(Debug, Clone)]
pub struct BrickInput {
    pub shape: Shape,
    /// Whether the parent model binds this input to a parameter (weights)
    /// rather than an activation — the micro-runner reproduces the same
    /// binding so gradient publication costs match.
    pub is_param: bool,
    /// Whether a node of the parent model writes this input (as opposed
    /// to a feed): its backward then owes the producer a gradient, and the
    /// micro-runner puts a pass-through producer in front to match.
    pub produced: bool,
}

/// One node of a model, resolved to a concrete brick.
#[derive(Debug, Clone)]
pub struct BrickInstance {
    /// Node name in the parent model (diagnostics only; not part of the key).
    pub node: String,
    pub key: BrickKey,
    /// The node's attributes by value, for reconstructing a micro-network.
    pub attrs: Attributes,
    pub inputs: Vec<BrickInput>,
    pub out_shape: Shape,
    /// Whether backprop from `loss` reaches this node. The executors skip
    /// the backward of a node no gradient arrives at (a dead branch), so
    /// the predictor must not charge for it. Not part of the key: the
    /// brick's own cost is the same either way.
    pub reached: bool,
}

/// The tensors backprop from `loss` delivers a gradient to: `loss` itself
/// and, walking the nodes in reverse, every input of a node one of whose
/// outputs is already in the set.
fn reached_tensors(ir: &deep500::verify::ir::GraphIr, loss: &str) -> HashSet<String> {
    let mut reached = HashSet::from([loss.to_string()]);
    // `to_ir` preserves construction order, which is topological for every
    // network the builder APIs produce.
    for node in ir.nodes.iter().rev() {
        if node.outputs.iter().any(|o| reached.contains(o)) {
            reached.extend(node.inputs.iter().cloned());
        }
    }
    reached
}

/// Decompose `net` into one brick per node under the given feed shapes,
/// with `loss` naming the tensor training backprop seeds from. Fails if
/// the shape pass cannot resolve every tensor the nodes touch — an
/// unresolved brick cannot be keyed, let alone benchmarked.
pub fn decompose(
    net: &Network,
    input_shapes: &[(&str, Shape)],
    loss: &str,
) -> Result<Vec<BrickInstance>, String> {
    let ir = net.to_ir();
    let mut lints = Vec::new();
    let shapes = deep500::verify::shape_pass::infer(&ir, input_shapes, &[], &mut lints);
    let reached = reached_tensors(&ir, loss);
    let produced: HashSet<&String> = ir.nodes.iter().flat_map(|n| n.outputs.iter()).collect();

    let mut bricks = Vec::with_capacity(ir.nodes.len());
    for node in &ir.nodes {
        if node.outputs.len() != 1 {
            return Err(format!(
                "{}: node '{}' has {} outputs; bricks are single-output",
                ir.name,
                node.name,
                node.outputs.len()
            ));
        }
        let mut in_shapes = Vec::with_capacity(node.inputs.len());
        for input in &node.inputs {
            let s = shapes.get(input).cloned().ok_or_else(|| {
                format!(
                    "{}: unresolved shape for input '{input}' of '{}'",
                    ir.name, node.name
                )
            })?;
            in_shapes.push(s);
        }
        let out_shape = shapes.get(&node.outputs[0]).cloned().ok_or_else(|| {
            format!(
                "{}: unresolved shape for output '{}' of '{}'",
                ir.name, node.outputs[0], node.name
            )
        })?;

        let op = create_op(&node.op_type, &node.attrs)
            .map_err(|e| format!("{}: node '{}': {e}", ir.name, node.name))?;
        let shape_refs: Vec<&Shape> = in_shapes.iter().collect();
        let tier = op.annotation(&shape_refs).unwrap_or_default();

        let attrs_canon: Vec<String> = node
            .attrs
            .iter_sorted()
            .iter()
            .map(|(k, v)| format!("{k}={}", render_attr(v)))
            .collect();
        let dtype = match node.attrs.get("dtype") {
            Some(AttrValue::Str(s)) => s.clone(),
            _ => "f32".to_string(),
        };
        let inputs: Vec<BrickInput> = node
            .inputs
            .iter()
            .zip(&in_shapes)
            .map(|(name, shape)| BrickInput {
                shape: shape.clone(),
                is_param: ir.params.contains_key(name),
                produced: produced.contains(name),
            })
            .collect();
        let key = BrickKey {
            op_type: node.op_type.clone(),
            attrs: attrs_canon.join(";"),
            in_dims: in_shapes.iter().map(|s| s.dims().to_vec()).collect(),
            dtype,
            tier,
            wanted: inputs.iter().map(|i| i.is_param || i.produced).collect(),
        };
        bricks.push(BrickInstance {
            node: node.name.clone(),
            key,
            attrs: node.attrs.clone(),
            inputs,
            out_shape,
            reached: reached.contains(&node.outputs[0]),
        });
    }
    Ok(bricks)
}
