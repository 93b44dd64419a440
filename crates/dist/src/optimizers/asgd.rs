//! Inconsistent centralized SGD — asynchronous parameter server (Fig. 5b).
//!
//! Workers push gradients and pull whatever parameters the server holds
//! *right now*; the server applies each gradient immediately against its
//! current (possibly newer) parameters — HOGWILD-style inconsistency.
//! No barrier exists between workers, but "despite being asynchronous,
//! ASGD becomes slower the more worker nodes queue up to communicate"
//! (§V-E) — the serialization shows up in the virtual clock because every
//! delivery occupies the server endpoint.

use super::{collect_gradients, Scheme, SchemeCore};
use crate::comm::Communicator;
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_tensor::{Result, Tensor};
use deep500_train::optimizer::StepResult;
use deep500_train::ThreeStepOptimizer;

/// Asynchronous parameter-server SGD.
pub struct InconsistentCentralized {
    core: SchemeCore,
    /// Server-side gradient application counter (version vector).
    pub updates_applied: u64,
}

impl InconsistentCentralized {
    pub fn new(base: Box<dyn ThreeStepOptimizer>, comm: Box<dyn Communicator>) -> Self {
        InconsistentCentralized {
            core: SchemeCore::new(base, comm),
            updates_applied: 0,
        }
    }
}

impl Scheme for InconsistentCentralized {
    fn name(&self) -> &str {
        "ASGD"
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        let result = self.core.backprop(executor, batch)?;
        let world = self.core.comm.world();
        let rank = self.core.comm.rank();
        let grads = collect_gradients(executor)?;
        if rank == 0 {
            // Server: apply own gradient, then serve each worker's push in
            // arrival order — each against the *current* parameters, and
            // reply with whatever the parameters are at that moment
            // (inconsistent reads).
            for (pname, grad) in grads {
                self.core.apply_update(executor, &pname, &grad)?;
                self.updates_applied += 1;
                for peer in 1..world {
                    let incoming = self.core.comm.recv(peer)?;
                    let shape = executor.network().fetch_tensor(&pname)?.shape().clone();
                    let g = Tensor::from_vec(shape, incoming)?;
                    self.core.apply_update(executor, &pname, &g)?;
                    self.updates_applied += 1;
                    let current = executor.network().fetch_tensor(&pname)?.data().to_vec();
                    self.core.comm.send(peer, &current)?;
                }
            }
        } else {
            for (pname, grad) in grads {
                self.core.comm.send(0, grad.data())?;
                let fresh = self.core.comm.recv(0)?;
                let shape = executor.network().fetch_tensor(&pname)?.shape().clone();
                executor
                    .network_mut()
                    .feed_tensor(pname, Tensor::from_vec(shape, fresh)?);
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
