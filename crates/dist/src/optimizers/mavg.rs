//! Model averaging (MAVG): local SGD with periodic parameter allreduce.
//!
//! Every rank trains independently and every `period` steps the parameter
//! vectors (not gradients) are averaged globally — cheaper than per-step
//! gradient allreduce when the period exceeds one, at some statistical
//! efficiency cost.

use super::{collect_gradients, Scheme, SchemeCore};
use crate::collectives::{allreduce_ring_among, average_among};
use crate::comm::Communicator;
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_tensor::{Result, Tensor};
use deep500_train::optimizer::StepResult;
use deep500_train::ThreeStepOptimizer;

/// Periodic model averaging.
pub struct ModelAveraging {
    core: SchemeCore,
    /// Average parameters every this many steps.
    pub period: u64,
    step: u64,
}

impl ModelAveraging {
    pub fn new(
        base: Box<dyn ThreeStepOptimizer>,
        comm: Box<dyn Communicator>,
        period: u64,
    ) -> Self {
        ModelAveraging {
            core: SchemeCore::new(base, comm),
            period: period.max(1),
            step: 0,
        }
    }
}

impl Scheme for ModelAveraging {
    fn name(&self) -> &str {
        "MAVG"
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        let result = self.core.backprop(executor, batch)?;
        for (pname, grad) in collect_gradients(executor)? {
            self.core.apply_update(executor, &pname, &grad)?;
        }
        self.step += 1;
        if self.step.is_multiple_of(self.period) {
            // Parameter averaging over the live group: survivors
            // renormalize by the shrunken group size and continue.
            let live = self.core.comm.live_ranks();
            let params: Vec<String> = executor.network().get_params().to_vec();
            for pname in params {
                let current = executor.network().fetch_tensor(&pname)?.clone();
                let mut buf = current.data().to_vec();
                allreduce_ring_among(self.core.comm.as_mut(), &mut buf, &live)?;
                average_among(&mut buf, live.len());
                executor
                    .network_mut()
                    .feed_tensor(pname, Tensor::from_vec(current.shape().clone(), buf)?);
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
