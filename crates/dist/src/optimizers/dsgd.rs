//! Consistent decentralized SGD (allreduce data parallelism).
//!
//! The paper's Listing 9, verbatim in structure: three-step prologue,
//! backprop, **allreduce of every gradient**, then the update rule. Three
//! flavours share the type:
//!
//! * `reference` (REF-dsgd) — per-tensor allreduce with the "Python"
//!   NumPy-conversion penalty the paper blames for the ~10× gap,
//! * `optimized` (CDSGD) — the 23-line custom C++/MPI operator: direct
//!   buffers, per-tensor ring allreduce,
//! * `horovod` — fused-buffer allreduce (Horovod's tensor fusion): all
//!   gradients concatenated, one ring allreduce.

use super::{
    collect_gradients, conversion_roundtrip, flatten_gradients, unflatten_gradients, Scheme,
    SchemeCore,
};
use crate::collectives::{allreduce_ring_among, average_among};
use crate::comm::Communicator;
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_tensor::{Result, Tensor};
use deep500_train::optimizer::StepResult;
use deep500_train::ThreeStepOptimizer;

/// Gradient-allreduce data-parallel SGD.
pub struct ConsistentDecentralized {
    core: SchemeCore,
    name: &'static str,
    conversion_overhead: bool,
    fused_buffers: bool,
}

impl ConsistentDecentralized {
    /// The optimized direct-buffer variant (the paper's CDSGD).
    pub fn optimized(base: Box<dyn ThreeStepOptimizer>, comm: Box<dyn Communicator>) -> Self {
        ConsistentDecentralized {
            core: SchemeCore::new(base, comm),
            name: "CDSGD",
            conversion_overhead: false,
            fused_buffers: false,
        }
    }

    /// The Python-reference variant (REF-dsgd): pays buffer conversions
    /// around every communication.
    pub fn reference(base: Box<dyn ThreeStepOptimizer>, comm: Box<dyn Communicator>) -> Self {
        ConsistentDecentralized {
            core: SchemeCore::new(base, comm),
            name: "REF-dsgd",
            conversion_overhead: true,
            fused_buffers: false,
        }
    }

    /// Horovod-style fused-buffer allreduce.
    pub fn horovod(base: Box<dyn ThreeStepOptimizer>, comm: Box<dyn Communicator>) -> Self {
        ConsistentDecentralized {
            core: SchemeCore::new(base, comm),
            name: "Horovod",
            conversion_overhead: false,
            fused_buffers: true,
        }
    }
}

impl Scheme for ConsistentDecentralized {
    fn name(&self) -> &str {
        self.name
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        let result = self.core.backprop(executor, batch)?;
        // Graceful degradation: the ring forms over the live group and the
        // average renormalizes by its size. Without faults the live group
        // is the full world and the schedule is bit-identical.
        let live = self.core.comm.live_ranks();
        if self.fused_buffers {
            // One fused allreduce over all gradients.
            let (mut buf, layout) = flatten_gradients(executor)?;
            allreduce_ring_among(self.core.comm.as_mut(), &mut buf, &live)?;
            average_among(&mut buf, live.len());
            let grads = unflatten_gradients(executor, &buf, &layout)?;
            for (pname, grad) in grads {
                self.core.apply_update(executor, &pname, &grad)?;
            }
        } else {
            // Per-tensor allreduce, exactly Listing 9's loop.
            for (pname, grad) in collect_gradients(executor)? {
                let shape = grad.shape().clone();
                let mut buf = grad.into_vec();
                if self.conversion_overhead {
                    conversion_roundtrip(&mut buf);
                }
                allreduce_ring_among(self.core.comm.as_mut(), &mut buf, &live)?;
                average_among(&mut buf, live.len());
                if self.conversion_overhead {
                    conversion_roundtrip(&mut buf);
                }
                let grad = Tensor::from_vec(shape, buf)?;
                self.core.apply_update(executor, &pname, &grad)?;
            }
        }
        Ok(result)
    }

    fn core(&self) -> &SchemeCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SchemeCore {
        &mut self.core
    }
}
