//! Stage 1: decompose a model into canonical bricks.
//!
//! Walks the verifier IR (`Network::to_ir`), runs the concrete shape pass
//! to resolve every tensor, and emits one [`BrickInstance`] per node. The
//! instance's [`BrickKey`] is the canonical identity used for
//! deduplication: operator kind, attributes in sorted order, resolved
//! input shapes, dtype, and the dispatch tier the operator reports for
//! those shapes (`Operator::annotation`, e.g. a convolution's resolved
//! algorithm) — two convolutions that dispatch to different tiers are
//! different bricks even if their attributes agree.

use deep500::graph::Network;
use deep500::ops::registry::{create_op, AttrValue, Attributes};
use deep500::tensor::Shape;

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
    /// Expected density (percent, bucketed) of the output gradient the
    /// node receives during backprop in its parent model — a node below a
    /// max-pool sees a mostly-zero dY. Vestigial as a cost predictor since
    /// the conv backward became a dense GEMM lowering (no kernel skips
    /// zero gradient elements any more); kept in the key until the
    /// follow-up that removes the density model.
    pub grad_pct: u8,
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
        s.push_str(&format!(" grad={}%", self.grad_pct));
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
    /// Unbucketed incoming-gradient density in `[0, 1]` (0 when backprop
    /// from `loss` never reaches this node).
    pub grad_density: f64,
}

/// Propagate expected gradient density backward from `loss`.
///
/// Backprop's cost depends on how sparse the flowing gradient is: a
/// max-pool passes gradient to one input element per window, a ReLU
/// zeroes it wherever the activation was clipped, while GEMM-backed ops
/// (conv, linear, batchnorm, losses) emit fully dense input gradients
/// regardless of what they receive. This walk assigns every tensor the
/// density of the gradient it will carry; multiple consumers accumulate
/// (saturating at 1.0), and a tensor backprop never reaches stays at 0.
fn grad_densities(
    ir: &deep500::verify::ir::GraphIr,
    shapes: &std::collections::HashMap<String, Shape>,
    loss: &str,
) -> std::collections::HashMap<String, f64> {
    let mut density: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    density.insert(loss.to_string(), 1.0);
    // `to_ir` preserves construction order, which is topological for every
    // network the builder APIs produce.
    for node in ir.nodes.iter().rev() {
        let dout: f64 = node
            .outputs
            .iter()
            .map(|o| density.get(o).copied().unwrap_or(0.0))
            .fold(0.0, f64::max);
        if dout == 0.0 {
            continue;
        }
        let numel = |name: &str| shapes.get(name).map(|s| s.numel().max(1)).unwrap_or(1);
        for (i, input) in node.inputs.iter().enumerate() {
            let d_in = match node.op_type.as_str() {
                // Element-wise mask: roughly half the activations clip.
                "Relu" => dout * 0.5,
                // One winning element per pooling window.
                "MaxPool2d" => dout * numel(&node.outputs[0]) as f64 / numel(input) as f64,
                // Gradient passes through unchanged (zeros stay zeros).
                "Add" | "Flatten" | "Reshape" | "Scale" | "Identity" => dout,
                // Losses are not differentiable in their label input.
                "SoftmaxCrossEntropy" if i == 1 => 0.0,
                // Everything else (conv, linear, batchnorm, losses, ...)
                // produces dense input gradients.
                _ => 1.0,
            };
            let slot = density.entry(input.clone()).or_insert(0.0);
            *slot = (*slot + d_in).min(1.0);
        }
    }
    density
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
    let density = grad_densities(&ir, &shapes, loss);
    let produced: std::collections::HashSet<&String> =
        ir.nodes.iter().flat_map(|n| n.outputs.iter()).collect();

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
        let grad_density = density
            .get(&node.outputs[0])
            .copied()
            .unwrap_or(0.0)
            .clamp(0.0, 1.0);
        // Bucket to 5% steps: close-enough densities cost the same to
        // run, and finer buckets would shred the dedup ratio.
        let grad_pct = ((grad_density * 20.0).round() * 5.0) as u8;

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
            grad_pct,
            wanted: inputs.iter().map(|i| i.is_param || i.produced).collect(),
        };
        bricks.push(BrickInstance {
            node: node.name.clone(),
            key,
            attrs: node.attrs.clone(),
            inputs,
            out_shape,
            grad_density,
        });
    }
    Ok(bricks)
}
