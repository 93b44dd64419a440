//! Distributed optimizers (paper §IV-F).
//!
//! Each scheme wraps a Level-2 [`ThreeStepOptimizer`](deep500_train::ThreeStepOptimizer)
//! and splices
//! communication between backpropagation and the update rule — the design
//! that lets "implementing a custom optimizer based on these methods
//! automatically grant distribution capabilities". The provided variants
//! mirror the paper's §V-E lineup:
//!
//! | paper name | type |
//! |---|---|
//! | REF-dsgd / CDSGD | [`dsgd::ConsistentDecentralized`] (reference vs optimized flavour) |
//! | Horovod | [`dsgd::ConsistentDecentralized::horovod`] (fused-buffer allreduce) |
//! | REF-pssgd (TF-PS-like) | [`pssgd::ConsistentCentralized`] |
//! | REF-asgd | [`asgd::InconsistentCentralized`] |
//! | stale-synchronous | [`stale::StaleSynchronous`] |
//! | REF-dpsgd | [`dpsgd::DecentralizedNeighbor`] |
//! | REF-mavg | [`mavg::ModelAveraging`] |
//! | SparCML | [`sparcml::SparseDecentralized`] |

pub mod asgd;
pub mod dpsgd;
pub mod dsgd;
pub mod mavg;
pub mod pssgd;
pub mod signsgd;
pub mod sparcml;
pub mod stale;

use crate::comm::{CommResult, Communicator};
use deep500_data::Minibatch;
use deep500_graph::{grad_name, GraphExecutor};
use deep500_metrics::{CommunicationVolume, FaultCounters, Phase};
use deep500_tensor::{Result, Tensor};
use deep500_train::optimizer::StepResult;

/// A per-rank distributed training scheme.
pub trait DistributedOptimizer: Send {
    /// Scheme name for reports.
    fn name(&self) -> &str;

    /// One distributed training iteration on this rank's minibatch shard.
    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult>;

    /// Communication counters of this rank.
    fn comm_stats(&self) -> CommunicationVolume;

    /// This rank's virtual time (compute + modeled communication).
    fn virtual_time(&self) -> f64;

    /// Announce the beginning of training step `step` to the communication
    /// layer. Under a fault plan this is where planned rank crashes fire
    /// (`Err(RankDead)` on the crashing rank) and where survivors observe
    /// group shrinkage; without faults it is a no-op.
    fn begin_step(&mut self, _step: u64) -> CommResult<()> {
        Ok(())
    }

    /// Charge measured local compute seconds to this rank's virtual clock
    /// (straggler plans stretch them).
    fn advance_virtual(&mut self, _seconds: f64) {}

    /// Fault-injection and recovery counters of this rank's communicator
    /// (all zero without a fault plan).
    fn fault_stats(&self) -> FaultCounters {
        FaultCounters::default()
    }
}

/// A built-in scheme: it states its name and its step and owns a
/// [`SchemeCore`]. The rest of [`DistributedOptimizer`] reads the core's
/// communicator, in the one implementation below that all eight schemes
/// share.
pub(crate) trait Scheme: Send {
    fn name(&self) -> &str;

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult>;

    fn core(&self) -> &SchemeCore;

    fn core_mut(&mut self) -> &mut SchemeCore;
}

impl<S: Scheme> DistributedOptimizer for S {
    fn name(&self) -> &str {
        Scheme::name(self)
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        Scheme::train_step(self, executor, batch)
    }

    fn comm_stats(&self) -> CommunicationVolume {
        self.core().comm.stats()
    }

    fn virtual_time(&self) -> f64 {
        self.core().comm.elapsed()
    }

    fn begin_step(&mut self, step: u64) -> CommResult<()> {
        self.core_mut().comm.begin_step(step)
    }

    fn advance_virtual(&mut self, seconds: f64) {
        self.core_mut().comm.advance(seconds);
    }

    fn fault_stats(&self) -> FaultCounters {
        self.core().comm.fault_stats()
    }
}

/// `(parameter name, gradient tensor)` pairs.
pub(crate) type NamedGradients = Vec<(String, Tensor)>;

/// Fetch every parameter gradient as `(param name, gradient)` pairs.
pub(crate) fn collect_gradients(executor: &dyn GraphExecutor) -> Result<NamedGradients> {
    executor
        .network()
        .gradient()
        .into_iter()
        .map(|(pname, gname)| Ok((pname, executor.network().fetch_tensor(&gname)?.clone())))
        .collect()
}

/// A fused gradient buffer plus its `(parameter, element count)` layout.
pub(crate) type FusedGradients = (Vec<f32>, Vec<(String, usize)>);

/// Flatten all gradients into one fused buffer (Horovod-style tensor
/// fusion); returns the buffer and the layout for unflattening.
pub(crate) fn flatten_gradients(executor: &dyn GraphExecutor) -> Result<FusedGradients> {
    let mut buf = Vec::new();
    let mut layout = Vec::new();
    for (pname, gname) in executor.network().gradient() {
        let g = executor.network().fetch_tensor(&gname)?;
        layout.push((pname, g.numel()));
        buf.extend_from_slice(g.data());
    }
    Ok((buf, layout))
}

/// Write a fused gradient buffer back into per-parameter tensors inside
/// the network value store.
pub(crate) fn unflatten_gradients(
    executor: &mut dyn GraphExecutor,
    buf: &[f32],
    layout: &[(String, usize)],
) -> Result<Vec<(String, Tensor)>> {
    let mut out = Vec::with_capacity(layout.len());
    let mut off = 0usize;
    for (pname, len) in layout {
        let shape = executor.network().fetch_tensor(pname)?.shape().clone();
        let t = Tensor::from_vec(shape, buf[off..off + len].to_vec())?;
        executor
            .network_mut()
            .feed_tensor(grad_name(pname), t.clone());
        out.push((pname.clone(), t));
        off += len;
    }
    Ok(out)
}

/// The "Python reference" conversion penalty: the paper's REF
/// implementations pay NumPy array conversions around every communication;
/// we reproduce it as a real f32→f64→f32 round trip over the buffer.
pub(crate) fn conversion_roundtrip(buf: &mut [f32]) {
    let wide: Vec<f64> = buf.iter().map(|&v| v as f64).collect();
    for (dst, &src) in buf.iter_mut().zip(std::hint::black_box(&wide)) {
        *dst = src as f32;
    }
}

/// What every scheme owns: the wrapped Level-2 optimizer and this rank's
/// communicator. A step is the two halves of
/// [`train_step_traced`](deep500_train::train_step_traced) with the
/// scheme's communication spliced in between; a scheme has no event list
/// of its own, so both halves report their spans to the executor's hooks
/// (the track `Engine::builder().trace(..)` attaches).
pub(crate) struct SchemeCore {
    pub base: Box<dyn deep500_train::ThreeStepOptimizer>,
    pub comm: Box<dyn Communicator>,
    /// Steps begun so far: the id the step's spans carry.
    steps: usize,
}

impl SchemeCore {
    pub fn new(
        base: Box<dyn deep500_train::ThreeStepOptimizer>,
        comm: Box<dyn Communicator>,
    ) -> Self {
        SchemeCore {
            base,
            comm,
            steps: 0,
        }
    }

    /// The local (non-communication) half of a step: three-step prologue +
    /// inference-and-backprop. Gradients are left in the network for the
    /// scheme to communicate.
    pub fn backprop(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        self.steps += 1;
        deep500_train::backprop_half(self.base.as_mut(), executor, batch, None, self.steps - 1)
    }

    /// Apply the base update rule with an already-communicated gradient,
    /// as one [`Phase::OptimizerUpdate`] span.
    pub fn apply_update(
        &mut self,
        executor: &mut dyn GraphExecutor,
        pname: &str,
        grad: &Tensor,
    ) -> Result<()> {
        let start = std::time::Instant::now();
        deep500_train::apply_update(self.base.as_mut(), executor, pname, grad)?;
        executor.events_mut().span(
            Phase::OptimizerUpdate,
            self.steps - 1,
            start.elapsed().as_secs_f64(),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_graph::{models, Engine};
    use deep500_train::sgd::GradientDescent;

    #[test]
    fn flatten_unflatten_roundtrip() {
        let net = models::mlp(4, &[3], 2, 1).unwrap();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        let batch = Minibatch {
            x: Tensor::ones([2, 4]),
            labels: Tensor::from_slice(&[0.0, 1.0]),
        };
        let mut sgd = GradientDescent::new(0.1);
        deep500_train::backprop_half(&mut sgd, &mut *ex, &batch, None, 0).unwrap();
        let before = collect_gradients(&*ex).unwrap();
        let (buf, layout) = flatten_gradients(&*ex).unwrap();
        assert_eq!(
            buf.len(),
            before.iter().map(|(_, g)| g.numel()).sum::<usize>()
        );
        let after = unflatten_gradients(&mut *ex, &buf, &layout).unwrap();
        for ((n1, g1), (n2, g2)) in before.iter().zip(&after) {
            assert_eq!(n1, n2);
            assert_eq!(g1, g2);
        }
    }

    /// A linear classifier whose `loss` tensor exists (backprop can seed
    /// it) but, unless `declare_loss`, is not a declared graph output.
    fn classifier(declare_loss: bool) -> deep500_graph::Network {
        use deep500_ops::registry::Attributes;
        let mut net = deep500_graph::Network::new("head-only");
        net.add_input("x");
        net.add_input("labels");
        net.add_parameter("w", Tensor::ones([2, 4]));
        net.add_parameter("b", Tensor::zeros([2]));
        net.add_node(
            "fc",
            "Linear",
            Attributes::new(),
            &["x", "w", "b"],
            &["logits"],
        )
        .unwrap();
        net.add_node(
            "xent",
            "SoftmaxCrossEntropy",
            Attributes::new(),
            &["logits", "labels"],
            &["loss"],
        )
        .unwrap();
        net.add_output("logits");
        if declare_loss {
            net.add_output("loss");
        }
        net
    }

    /// One single-rank CDSGD step on `net`, with the phases of every span
    /// its executor's hooks saw.
    fn cdsgd_step(net: deep500_graph::Network) -> (Result<StepResult>, Vec<Phase>) {
        use crate::comm::ThreadTransport;
        use deep500_metrics::event::{Event, SharedEvent};
        #[derive(Default)]
        struct Spans(Vec<Phase>);
        impl Event for Spans {
            fn span(&mut self, phase: Phase, _id: usize, _seconds: f64) {
                self.0.push(phase);
            }
        }
        let spans = SharedEvent::new(Spans::default());
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        ex.events_mut().push(Box::new(spans.clone()));
        let comm = ThreadTransport::create(1, crate::NetworkModel::instant()).remove(0);
        let mut scheme = dsgd::ConsistentDecentralized::optimized(
            Box::new(GradientDescent::new(0.1)),
            Box::new(comm),
        );
        let batch = Minibatch {
            x: Tensor::ones([2, 4]),
            labels: Tensor::from_slice(&[0.0, 1.0]),
        };
        let result = DistributedOptimizer::train_step(&mut scheme, &mut *ex, &batch);
        (result, spans.with(|s| s.0.clone()))
    }

    #[test]
    fn a_step_without_a_loss_output_is_a_typed_error_not_a_panic() {
        let (result, _) = cdsgd_step(classifier(false));
        assert!(
            matches!(result, Err(deep500_tensor::Error::NotFound(_))),
            "{result:?}"
        );
    }

    #[test]
    fn a_step_reports_assembly_and_update_spans_to_the_executor_hooks() {
        let (result, spans) = cdsgd_step(classifier(true));
        assert!(result.unwrap().loss.is_finite());
        let count = |phase| spans.iter().filter(|&&p| p == phase).count();
        assert_eq!(count(Phase::BatchAssembly), 1);
        assert_eq!(count(Phase::OptimizerUpdate), 2, "one per parameter");
    }

    #[test]
    fn conversion_roundtrip_is_value_preserving() {
        let mut buf = vec![1.5f32, -2.25, 1e-7];
        let orig = buf.clone();
        conversion_roundtrip(&mut buf);
        assert_eq!(buf, orig);
    }
}
