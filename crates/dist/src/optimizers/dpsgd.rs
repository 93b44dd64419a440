//! Decentralized neighbor-based SGD (DPSGD, Lian et al. style).
//!
//! Each rank updates locally, then averages its *parameters* with its two
//! ring neighbors — "DPSGD communication volume remains constant with
//! respect to the number of nodes, but usually converges slower and to a
//! less accurate result" (§V-E).

use super::{collect_gradients, Scheme, SchemeCore};
use crate::collectives::neighbor_exchange_among;
use crate::comm::Communicator;
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_tensor::{Result, Tensor};
use deep500_train::optimizer::StepResult;
use deep500_train::ThreeStepOptimizer;

/// Gossip (neighbor-averaging) decentralized SGD.
pub struct DecentralizedNeighbor {
    core: SchemeCore,
}

impl DecentralizedNeighbor {
    pub fn new(base: Box<dyn ThreeStepOptimizer>, comm: Box<dyn Communicator>) -> Self {
        DecentralizedNeighbor {
            core: SchemeCore::new(base, comm),
        }
    }
}

impl Scheme for DecentralizedNeighbor {
    fn name(&self) -> &str {
        "DPSGD"
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        let result = self.core.backprop(executor, batch)?;
        // Local update with the local gradient.
        for (pname, grad) in collect_gradients(executor)? {
            self.core.apply_update(executor, &pname, &grad)?;
        }
        // Gossip: average each parameter with ring neighbors. The ring
        // re-forms over the live group when ranks crash (full group =
        // identical schedule).
        let live = self.core.comm.live_ranks();
        let params: Vec<String> = executor.network().get_params().to_vec();
        for pname in params {
            let current = executor.network().fetch_tensor(&pname)?.clone();
            let averaged = neighbor_exchange_among(self.core.comm.as_mut(), current.data(), &live)?;
            executor
                .network_mut()
                .feed_tensor(pname, Tensor::from_vec(current.shape().clone(), averaged)?);
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
