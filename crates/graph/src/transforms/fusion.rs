//! Elementwise-operator fusion.
//!
//! The paper's Use Case 1 contrasts TensorFlow's Adam — "sequentially
//! executing several short operations" — with Caffe2's single fused Adam
//! kernel, "drastically reducing invocation and scheduling overheads".
//! This transformation reproduces the optimization at the graph level:
//! maximal chains of single-consumer elementwise operators collapse into
//! one `FusedElementwise` node whose forward pass traverses the buffer
//! once, paying one dispatch instead of k.

use crate::network::{Network, NodeId};
use deep500_ops::operator::Operator;
use deep500_ops::registry::{self, Attributes};
use deep500_tensor::{Error, Result, Shape, Tensor};
use std::sync::Once;

/// One stage of a fused elementwise chain.
#[derive(Debug, Clone, PartialEq)]
enum Stage {
    Scale(f32, f32),
    Relu,
    Sigmoid,
    Tanh,
    Sqrt,
}

impl Stage {
    fn apply(&self, x: f32) -> f32 {
        match self {
            Stage::Scale(a, b) => a * x + b,
            Stage::Relu => x.max(0.0),
            Stage::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Stage::Tanh => x.tanh(),
            Stage::Sqrt => x.sqrt(),
        }
    }

    /// Derivative given the stage input `x` and output `y`.
    fn derivative(&self, x: f32, y: f32) -> f32 {
        match self {
            Stage::Scale(a, _) => *a,
            Stage::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Stage::Sigmoid => y * (1.0 - y),
            Stage::Tanh => 1.0 - y * y,
            Stage::Sqrt => 1.0 / (2.0 * y),
        }
    }

    fn spec(&self) -> String {
        match self {
            Stage::Scale(a, b) => format!("Scale({a},{b})"),
            Stage::Relu => "Relu".into(),
            Stage::Sigmoid => "Sigmoid".into(),
            Stage::Tanh => "Tanh".into(),
            Stage::Sqrt => "Sqrt".into(),
        }
    }

    fn parse(s: &str) -> Result<Stage> {
        if let Some(rest) = s.strip_prefix("Scale(") {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| Error::Format(format!("bad stage spec '{s}'")))?;
            let mut parts = inner.split(',');
            let a: f32 = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| Error::Format(format!("bad stage spec '{s}'")))?;
            let b: f32 = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| Error::Format(format!("bad stage spec '{s}'")))?;
            return Ok(Stage::Scale(a, b));
        }
        match s {
            "Relu" => Ok(Stage::Relu),
            "Sigmoid" => Ok(Stage::Sigmoid),
            "Tanh" => Ok(Stage::Tanh),
            "Sqrt" => Ok(Stage::Sqrt),
            _ => Err(Error::Format(format!("unknown fused stage '{s}'"))),
        }
    }

    /// Build a stage from a fusable node, if the node qualifies.
    fn from_node(op_type: &str, attrs: &Attributes) -> Option<Stage> {
        match op_type {
            "Scale" => Some(Stage::Scale(
                attrs.float_or("alpha", 1.0) as f32,
                attrs.float_or("beta", 0.0) as f32,
            )),
            "Relu" => Some(Stage::Relu),
            "Sigmoid" => Some(Stage::Sigmoid),
            "Tanh" => Some(Stage::Tanh),
            "Sqrt" => Some(Stage::Sqrt),
            _ => None,
        }
    }
}

/// A fused chain of elementwise stages executed in one buffer traversal.
#[derive(Debug, Clone)]
pub struct FusedElementwiseOp {
    stages: Vec<Stage>,
}

impl FusedElementwiseOp {
    /// Parse from the `spec` attribute: stage specs joined by `;`.
    pub fn from_spec(spec: &str) -> Result<Self> {
        let stages = spec
            .split(';')
            .filter(|s| !s.is_empty())
            .map(Stage::parse)
            .collect::<Result<Vec<_>>>()?;
        if stages.is_empty() {
            return Err(Error::Invalid("empty fusion spec".into()));
        }
        Ok(FusedElementwiseOp { stages })
    }

    /// Number of fused stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }
}

impl Operator for FusedElementwiseOp {
    fn name(&self) -> &str {
        "FusedElementwise"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        // Single traversal through all stages.
        let out = inputs[0].map(|mut v| {
            for st in &self.stages {
                v = st.apply(v);
            }
            v
        });
        Ok(vec![out])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        _outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        let g = grad_outputs[0];
        let x = inputs[0];
        let mut dx = Tensor::zeros(x.shape().clone());
        let depth = self.stages.len();
        let mut vals = vec![0.0f32; depth + 1];
        // Slices bound once: `data_mut` stamps a fresh content version
        // (a global atomic) on every call.
        for (out, (&xv, &gv)) in dx.data_mut().iter_mut().zip(x.data().iter().zip(g.data())) {
            vals[0] = xv;
            for (k, st) in self.stages.iter().enumerate() {
                vals[k + 1] = st.apply(vals[k]);
            }
            let mut d = gv;
            for (k, st) in self.stages.iter().enumerate().rev() {
                d *= st.derivative(vals[k], vals[k + 1]);
            }
            *out = d;
        }
        Ok(vec![dx])
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        deep500_metrics::flops::counts::elementwise(s[0].numel(), 2 * self.stages.len())
    }
}

/// Register `FusedElementwise` with the global operator registry (idempotent).
pub fn ensure_registered() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        registry::register_op("FusedElementwise", |attrs| {
            let spec = attrs.str_or("spec", "");
            Ok(Box::new(FusedElementwiseOp::from_spec(spec)?))
        });
    });
}

/// Fuse maximal chains of fusable elementwise nodes. A node may join a
/// chain if its single output tensor has exactly one consumer, is not a
/// declared graph output, and the consumer is also fusable. Returns the
/// number of chains fused.
///
/// The rewritten graph is re-verified through `deep500-verify` before the
/// function returns: a fusion that broke dataflow (dangling edge, duplicate
/// writer) surfaces as `Error::Validation` here instead of at the next
/// executor rebuild.
pub fn fuse_elementwise(net: &mut Network) -> Result<usize> {
    let fused = fuse_elementwise_inner(net)?;
    if fused > 0 {
        deep500_verify::gate(&net.to_ir())?;
    }
    Ok(fused)
}

fn fuse_elementwise_inner(net: &mut Network) -> Result<usize> {
    ensure_registered();
    let mut fused = 0usize;
    loop {
        // Find a chain head: fusable node whose producer is not fusable
        // (or absent), with a fusable successor.
        let mut chain: Vec<NodeId> = Vec::new();
        'search: for (id, node) in net.nodes() {
            if Stage::from_node(&node.op_type, &node.attrs).is_none() {
                continue;
            }
            // Head: input tensor not produced by a fusable node.
            if let Some(prev) = net.producer_of(&node.inputs[0]) {
                let pn = net.node(prev).expect("live");
                if Stage::from_node(&pn.op_type, &pn.attrs).is_some()
                    && net.consumers_of(&pn.outputs[0]).len() == 1
                    && !net.graph_outputs().contains(&pn.outputs[0])
                {
                    continue; // not a head; the earlier node will start the chain
                }
            }
            // Extend the chain while the link conditions hold.
            let mut cur = id;
            chain.push(cur);
            loop {
                let cn = net.node(cur).expect("live");
                let out = &cn.outputs[0];
                if net.graph_outputs().contains(out) {
                    break;
                }
                let consumers = net.consumers_of(out);
                if consumers.len() != 1 {
                    break;
                }
                let next = consumers[0];
                let nn = net.node(next).expect("live");
                if Stage::from_node(&nn.op_type, &nn.attrs).is_none() {
                    break;
                }
                chain.push(next);
                cur = next;
            }
            if chain.len() >= 2 {
                break 'search;
            }
            chain.clear();
        }
        if chain.len() < 2 {
            return Ok(fused);
        }

        // Build the fused replacement.
        let stages: Vec<Stage> = chain
            .iter()
            .map(|&id| {
                let n = net.node(id).expect("live");
                Stage::from_node(&n.op_type, &n.attrs).expect("fusable")
            })
            .collect();
        let spec = stages.iter().map(Stage::spec).collect::<Vec<_>>().join(";");
        let first = net.node(chain[0]).expect("live").clone();
        let last = net.node(*chain.last().unwrap()).expect("live").clone();
        for &id in &chain {
            net.remove_node(id)?;
        }
        net.add_node(
            format!("fused::{}", first.name),
            "FusedElementwise",
            Attributes::new().with_str("spec", &spec),
            &[&first.inputs[0]],
            &[&last.outputs[0]],
        )?;
        fused += 1;
    }
}

/// Fold single-consumer `Relu`s into the write-back epilogue of their
/// producing GEMM-backed node (`Linear`, `MatMul`, or `Conv2d`). The pair
/// collapses into one node carrying `epilogue = "relu"`, which the operator
/// registry lowers onto the packed microkernel's epilogue hook
/// (`deep500_ops::gemm::Epilogue`): the activation is applied to each
/// output tile while it is still register-resident, so the intermediate
/// pre-activation tensor is never written to memory at all. (On the
/// direct convolution tier the bias ride-along makes this a single fused
/// bias+ReLU write-back; the other conv tiers apply the identical values
/// in a separate in-place pass.) Returns the number of pairs fused.
///
/// Eligibility mirrors [`fuse_elementwise`]: the GEMM's output must have
/// exactly one consumer, must not be a declared graph output (the
/// pre-activation name disappears), and the GEMM must not already carry an
/// epilogue. The rewrite is exact — the epilogue applies `max(x, 0)` to the
/// identical per-element values a standalone `Relu` node would see, and the
/// fused backward masks gradients through the (retained) post-activation
/// output exactly like `ReluOp::backward`.
pub fn fuse_gemm_epilogues(net: &mut Network) -> Result<usize> {
    let mut fused = 0usize;
    loop {
        let mut pair: Option<(NodeId, NodeId)> = None;
        'search: for (id, node) in net.nodes() {
            if node.op_type != "Linear" && node.op_type != "MatMul" && node.op_type != "Conv2d" {
                continue;
            }
            if !node.attrs.str_or("epilogue", "").is_empty() {
                continue;
            }
            if node.outputs.len() != 1 {
                continue;
            }
            let out = &node.outputs[0];
            if net.graph_outputs().contains(out) {
                continue;
            }
            let consumers = net.consumers_of(out);
            if consumers.len() != 1 {
                continue;
            }
            let rn = net.node(consumers[0]).expect("live");
            // The consumer must read the GEMM output exactly once — a
            // hypothetical Relu(y, y) shape would double-count.
            if rn.op_type == "Relu" && rn.inputs.len() == 1 {
                pair = Some((id, consumers[0]));
                break 'search;
            }
        }
        let Some((gemm, relu)) = pair else {
            if fused > 0 {
                deep500_verify::gate(&net.to_ir())?;
            }
            return Ok(fused);
        };
        let g = net.remove_node(gemm)?;
        let r = net.remove_node(relu)?;
        net.add_node(
            g.name,
            g.op_type,
            g.attrs.with_str("epilogue", "relu"),
            &g.inputs.iter().map(String::as_str).collect::<Vec<_>>(),
            &r.outputs.iter().map(String::as_str).collect::<Vec<_>>(),
        )?;
        fused += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};
    use deep500_ops::grad_check::test_gradient;

    fn chain_net() -> Network {
        // x -> Scale(2,1) -> Relu -> Scale(0.5,0) -> y
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

    #[test]
    fn fusion_collapses_chain_and_preserves_output() {
        let x = Tensor::from_slice(&[-3.0, 0.0, 2.0]);
        let mut ref_ex = ReferenceExecutor::construct(chain_net(), usize::MAX).unwrap();
        let expect = ref_ex.inference(&[("x", x.clone())]).unwrap()["y"].clone();

        let mut net = chain_net();
        let n = fuse_elementwise(&mut net).unwrap();
        assert_eq!(n, 1);
        assert_eq!(net.num_nodes(), 1, "3 ops fused into 1");
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let got = ex.inference(&[("x", x)]).unwrap()["y"].clone();
        assert!(expect.approx_eq(&got, 1e-6));
    }

    #[test]
    fn fusion_respects_graph_outputs() {
        // t1 is a declared output: the chain must not fuse across it.
        let mut net = chain_net();
        net.add_output("t1");
        let n = fuse_elementwise(&mut net).unwrap();
        // Only r -> s2 can fuse.
        assert_eq!(n, 1);
        assert_eq!(net.num_nodes(), 2);
    }

    #[test]
    fn fusion_respects_fanout() {
        // t1 feeds two consumers: s1 cannot fuse forward.
        let mut net = chain_net();
        net.add_node("extra", "Sigmoid", Attributes::new(), &["t1"], &["z"])
            .unwrap();
        net.add_output("z");
        let n = fuse_elementwise(&mut net).unwrap();
        assert_eq!(n, 1, "only r->s2 fuses");
        assert_eq!(net.num_nodes(), 3);
    }

    #[test]
    fn fused_op_gradient_is_correct() {
        ensure_registered();
        let op = FusedElementwiseOp::from_spec("Scale(2,1);Tanh;Scale(0.5,0)").unwrap();
        assert_eq!(op.depth(), 3);
        let x = Tensor::from_slice(&[0.3, -0.7, 1.2, 0.05]);
        let report = test_gradient(&op, &[&x], 1e-3, 10).unwrap();
        assert!(report.passes(1e-3), "max rel {}", report.max_rel_error);
    }

    #[test]
    fn spec_roundtrip_and_errors() {
        let op = FusedElementwiseOp::from_spec("Relu;Sqrt").unwrap();
        assert_eq!(op.depth(), 2);
        assert!(FusedElementwiseOp::from_spec("").is_err());
        assert!(FusedElementwiseOp::from_spec("Bogus").is_err());
        assert!(FusedElementwiseOp::from_spec("Scale(1").is_err());
    }

    #[test]
    fn nothing_to_fuse_is_a_noop() {
        let mut net = Network::new("single");
        net.add_input("x");
        net.add_node("r", "Relu", Attributes::new(), &["x"], &["y"])
            .unwrap();
        net.add_output("y");
        assert_eq!(fuse_elementwise(&mut net).unwrap(), 0);
        assert_eq!(net.num_nodes(), 1);
    }
}
