//! The simulated-framework graph executor.
//!
//! `FrameworkExecutor` executes a portable Deep500 network the way the
//! profiled framework would: the network is first *lowered* through a
//! [`NetworkVisitor`] (exactly the paper's ONNX-visitor pipeline, Fig. 4),
//! which rewrites operator algorithm choices to the framework's backend
//! kernels; execution then runs on the reference loop with the profile
//! installed as its per-node hook, paying the profile's dispatch overhead
//! and copy behaviour per node — all real CPU work, all outside the timed
//! operator spans.

use crate::profile::FrameworkProfile;
use deep500_graph::network::{Network, Node, NodeId};
use deep500_graph::visitor::{traverse, NetworkVisitor};
use deep500_graph::{GraphExecutor, NodeHook, ReferenceExecutor};
use deep500_metrics::event::EventList;
use deep500_metrics::trace::OpAttribution;
use deep500_ops::registry::Attributes;
use deep500_tensor::{Result, Tensor};
use std::collections::HashMap;

/// Visitor that lowers a portable network onto a framework profile:
/// structural copy with backend algorithm attributes on compute nodes.
struct ProfileLowering<'a> {
    profile: &'a FrameworkProfile,
    out: Network,
}

impl ProfileLowering<'_> {
    fn copy_node(&mut self, node: &Node, attrs: Attributes) -> Result<()> {
        let ins: Vec<&str> = node.inputs.iter().map(|s| s.as_str()).collect();
        let outs: Vec<&str> = node.outputs.iter().map(|s| s.as_str()).collect();
        self.out
            .add_node(node.name.clone(), node.op_type.clone(), attrs, &ins, &outs)?;
        Ok(())
    }
}

impl NetworkVisitor for ProfileLowering<'_> {
    fn begin_network(&mut self, net: &Network) -> Result<()> {
        self.out.name = format!("{}@{}", net.name, self.profile.name);
        for i in net.graph_inputs() {
            self.out.add_input(i.clone());
        }
        for o in net.graph_outputs() {
            self.out.add_output(o.clone());
        }
        for p in net.get_params() {
            self.out
                .add_parameter(p.clone(), net.fetch_tensor(p)?.clone());
        }
        Ok(())
    }
    fn visit_conv2d(&mut self, _id: NodeId, node: &Node, _net: &Network) -> Result<()> {
        let attrs = node
            .attrs
            .clone()
            .with_str("algorithm", self.profile.conv_algo_attr());
        self.copy_node(node, attrs)
    }
    fn visit_matmul(&mut self, _id: NodeId, node: &Node, _net: &Network) -> Result<()> {
        let attrs = node
            .attrs
            .clone()
            .with_str("algorithm", self.profile.gemm_algo_attr());
        self.copy_node(node, attrs)
    }
    fn visit_linear(&mut self, _id: NodeId, node: &Node, _net: &Network) -> Result<()> {
        let attrs = node
            .attrs
            .clone()
            .with_str("algorithm", self.profile.gemm_algo_attr());
        self.copy_node(node, attrs)
    }
    fn visit_custom(&mut self, _id: NodeId, node: &Node, _net: &Network) -> Result<()> {
        self.copy_node(node, node.attrs.clone())
    }
}

/// Lower a portable network onto a framework profile (visitor pipeline).
fn lower_network(net: &Network, profile: &FrameworkProfile) -> Result<Network> {
    let mut v = ProfileLowering {
        profile,
        out: Network::new(""),
    };
    traverse(net, &mut v)?;
    Ok(v.out)
}

/// The profile as the reference loop's per-node hook: everything a
/// framework runtime does around an operator, none of it inside the timed
/// operator span.
impl NodeHook for FrameworkProfile {
    /// Dispatch burn, then owned input copies when the profile stages
    /// inputs into framework-managed buffers.
    fn before_forward(&mut self, _node: &Node, inputs: &[&Tensor]) -> Option<Vec<Tensor>> {
        self.dispatch();
        self.input_copies
            .then(|| inputs.iter().map(|&t| t.clone()).collect())
    }

    /// Extra copy passes on split/concat outputs (TF's memcpy penalty).
    fn after_forward(&mut self, node: &Node, outputs: &mut [Tensor]) {
        if !is_split_or_concat(node) {
            return;
        }
        for _ in 0..self.split_concat_copy_passes {
            for t in outputs.iter_mut() {
                // A genuine full-buffer copy.
                let copy = t.data().to_vec();
                t.data_mut().copy_from_slice(std::hint::black_box(&copy));
            }
        }
    }

    fn before_backward(&mut self, _node: &Node) {
        self.dispatch();
    }

    /// Split/Concat on a view-capable backend (PyTorch-like,
    /// `split_concat_copy_passes == 0`) alias their inputs instead of
    /// copying, so their outputs cost no device memory.
    fn outputs_are_views(&self, node: &Node) -> bool {
        self.split_concat_copy_passes == 0 && is_split_or_concat(node)
    }
}

fn is_split_or_concat(node: &Node) -> bool {
    node.op_type == "Split" || node.op_type == "Concat"
}

/// A [`GraphExecutor`] that executes with a framework profile's overheads:
/// the lowered network on the [`ReferenceExecutor`] loop, with the profile
/// installed as its [`NodeHook`].
pub struct FrameworkExecutor {
    profile: FrameworkProfile,
    inner: ReferenceExecutor,
}

impl FrameworkExecutor {
    /// Build an executor for `network` under `profile` with unbounded
    /// memory.
    pub fn new(network: &Network, profile: FrameworkProfile) -> Result<Self> {
        Self::with_memory_limit(network, profile, usize::MAX)
    }

    /// Build with a device memory capacity (bytes) — the simulated GPU of
    /// the Fig. 7 experiment. Like every executor, construction is gated
    /// on the static verifier.
    pub fn with_memory_limit(
        network: &Network,
        profile: FrameworkProfile,
        capacity: usize,
    ) -> Result<Self> {
        let lowered = lower_network(network, &profile)?;
        let inner = ReferenceExecutor::with_hook(lowered, capacity, Box::new(profile.clone()))?;
        Ok(FrameworkExecutor { profile, inner })
    }

    /// The active profile.
    pub fn profile(&self) -> &FrameworkProfile {
        &self.profile
    }

    /// Re-verify and re-derive operators after a graph transformation
    /// mutated the network.
    pub fn refresh(&mut self) -> Result<()> {
        self.inner.refresh()
    }
}

impl GraphExecutor for FrameworkExecutor {
    fn network(&self) -> &Network {
        self.inner.network()
    }
    fn network_mut(&mut self) -> &mut Network {
        self.inner.network_mut()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn inference(&mut self, feeds: &[(&str, Tensor)]) -> Result<HashMap<String, Tensor>> {
        self.inner.inference(feeds)
    }

    fn inference_and_backprop(
        &mut self,
        feeds: &[(&str, Tensor)],
        loss: &str,
    ) -> Result<HashMap<String, Tensor>> {
        self.inner.inference_and_backprop(feeds, loss)
    }

    fn events_mut(&mut self) -> &mut EventList {
        self.inner.events_mut()
    }

    fn peak_memory(&self) -> usize {
        self.inner.peak_memory()
    }

    fn op_totals(&self) -> HashMap<usize, OpAttribution> {
        self.inner.op_totals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_graph::executor::FrameworkOverheadProbe;
    use deep500_graph::validate::{test_executor, test_executor_backprop};
    use deep500_graph::{models, Engine};
    use deep500_metrics::event::SharedEvent;
    use deep500_tensor::Error;

    fn net() -> Network {
        models::lenet(1, 12, 4, 77).unwrap()
    }

    fn feeds() -> Vec<(&'static str, Tensor)> {
        vec![
            ("x", Tensor::ones([2, 1, 12, 12])),
            ("labels", Tensor::from_slice(&[0.0, 3.0])),
        ]
    }

    #[test]
    fn all_profiles_match_the_reference_executor() {
        for profile in FrameworkProfile::all() {
            let name = profile.name;
            let mut fx = FrameworkExecutor::new(&net(), profile).unwrap();
            let rg = Engine::builder(net()).build().unwrap();
            let mut rx = rg.lock();
            let report = test_executor(&mut fx, &mut *rx, &feeds(), 2).unwrap();
            assert!(
                report.passes(1e-4),
                "{name}: outputs diverge: {:?}",
                report.output_norms
            );
        }
    }

    #[test]
    fn backprop_gradients_match_reference() {
        let mut fx = FrameworkExecutor::new(&net(), FrameworkProfile::tensorflow()).unwrap();
        let rg = Engine::builder(net()).build().unwrap();
        let mut rx = rg.lock();
        let report = test_executor_backprop(&mut fx, &mut *rx, &feeds(), "loss", 2).unwrap();
        assert!(report.passes(1e-3), "{:?}", report.gradient_norms);
        assert!(!report.gradient_norms.is_empty());
    }

    #[test]
    fn lowering_rewrites_algorithms() {
        let lowered = lower_network(&net(), &FrameworkProfile::deepbench()).unwrap();
        let conv = lowered
            .nodes()
            .find(|(_, n)| n.op_type == "Conv2d")
            .unwrap()
            .1;
        assert_eq!(conv.attrs.str_or("algorithm", ""), "im2col");
        assert!(lowered.name.contains("@deepbench"));
        assert_eq!(lowered.num_nodes(), net().num_nodes());
    }

    #[test]
    fn memory_limit_causes_oom() {
        let r = FrameworkExecutor::with_memory_limit(&net(), FrameworkProfile::pytorch(), 4 * 1024)
            .unwrap()
            .inference(&feeds());
        assert!(matches!(r, Err(Error::OutOfMemory { .. })));
    }

    #[test]
    fn peak_memory_reported() {
        let mut fx = FrameworkExecutor::new(&net(), FrameworkProfile::pytorch()).unwrap();
        fx.inference(&feeds()).unwrap();
        assert!(fx.peak_memory() > 0);
        assert_eq!(fx.profile().name, "pytorch");
    }

    #[test]
    fn construction_and_refresh_are_gated_on_the_verifier() {
        // Dangling fetch: a declared output nothing produces.
        let mut broken = net();
        broken.add_output("ghost");
        let r = FrameworkExecutor::new(&broken, FrameworkProfile::pytorch());
        assert!(matches!(r, Err(Error::Validation(_))), "construction");

        let mut fx = FrameworkExecutor::new(&net(), FrameworkProfile::pytorch()).unwrap();
        fx.network_mut().add_output("ghost");
        assert!(matches!(fx.refresh(), Err(Error::Validation(_))), "refresh");
    }

    #[test]
    fn framework_runs_attribute_operator_time() {
        let mut fx = FrameworkExecutor::new(&net(), FrameworkProfile::caffe2()).unwrap();
        fx.inference_and_backprop(&feeds(), "loss").unwrap();
        let rows = fx.op_attribution();
        assert_eq!(rows.len(), fx.network().num_nodes());
        for row in &rows {
            assert_eq!(row.forward_calls, 1, "{}", row.name);
        }
        let conv = rows.iter().find(|r| r.name.starts_with("conv")).unwrap();
        assert_eq!(conv.backward_calls, 1);
        assert!(conv.flops_per_call > 0.0);
    }

    /// Pins the hook placement: dispatch burn and copies land in the
    /// probe's overhead (pass time − Σ operator time), not in operator
    /// time. Were the hook inside the timed span, tensorflow's operator
    /// time would carry its 30k-iteration burn per node.
    #[test]
    fn profile_costs_are_overhead_not_operator_time() {
        let measure = |profile: FrameworkProfile| {
            let mut fx = FrameworkExecutor::new(&net(), profile).unwrap();
            let probe = SharedEvent::new(FrameworkOverheadProbe::new());
            fx.events_mut().push(Box::new(probe.clone()));
            fx.inference_and_backprop(&feeds(), "loss").unwrap(); // warm-up
            let warm = probe.with(|p| (p.overhead(), p.operator_time()));
            for _ in 0..5 {
                fx.inference_and_backprop(&feeds(), "loss").unwrap();
            }
            probe.with(|p| (p.overhead() - warm.0, p.operator_time() - warm.1))
        };
        let (tf_overhead, tf_ops) = measure(FrameworkProfile::tensorflow());
        let (db_overhead, db_ops) = measure(FrameworkProfile::deepbench());
        assert!(
            tf_overhead > db_overhead,
            "tensorflow overhead {tf_overhead} vs deepbench {db_overhead}"
        );
        let ratio = tf_ops / db_ops;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "operator time must not absorb profile costs: tensorflow {tf_ops} vs deepbench {db_ops}"
        );
    }
}
