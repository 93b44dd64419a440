//! Consistent centralized SGD — the parameter-server architecture.
//!
//! Rank 0 doubles as the (single-shard) parameter server: all ranks
//! compute gradients; workers push them to rank 0; rank 0 averages the
//! full set, applies the base update once, and pushes fresh parameters
//! back (paper Fig. 5a). The per-server message count scales linearly
//! with the number of workers — the incast that caps PS scalability in
//! Fig. 12.

use super::{collect_gradients, Scheme, SchemeCore};
use crate::comm::{CommError, Communicator};
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_tensor::{Error, Result, Tensor};
use deep500_train::optimizer::StepResult;
use deep500_train::ThreeStepOptimizer;

/// Parameter-server synchronous SGD.
pub struct ConsistentCentralized {
    core: SchemeCore,
}

impl ConsistentCentralized {
    pub fn new(base: Box<dyn ThreeStepOptimizer>, comm: Box<dyn Communicator>) -> Self {
        ConsistentCentralized {
            core: SchemeCore::new(base, comm),
        }
    }
}

impl Scheme for ConsistentCentralized {
    fn name(&self) -> &str {
        "PSSGD"
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        let result = self.core.backprop(executor, batch)?;
        let rank = self.core.comm.rank();
        // Failover: the server is the lowest live rank. Synchronous PS
        // keeps all ranks' parameters identical after every step, so any
        // survivor can take over the server role deterministically. With
        // no faults the server is rank 0 and the schedule is unchanged.
        let live = self.core.comm.live_ranks();
        let server = *live
            .first()
            .ok_or_else(|| CommError::Closed("no live ranks left".into()))?;
        let grads = collect_gradients(executor)?;
        if rank == server {
            // Server: receive every live worker's gradient per parameter,
            // average with our own, update, then push parameters back.
            for (pname, grad) in grads {
                let mut acc = grad.into_vec();
                for &peer in live.iter().filter(|&&p| p != server) {
                    let incoming = self.core.comm.recv(peer)?;
                    if incoming.len() != acc.len() {
                        return Err(Error::Communication(format!(
                            "PS gradient size mismatch for '{pname}'"
                        )));
                    }
                    for (a, b) in acc.iter_mut().zip(incoming) {
                        *a += b;
                    }
                }
                let inv = 1.0 / live.len() as f32;
                acc.iter_mut().for_each(|v| *v *= inv);
                let shape = executor.network().fetch_tensor(&pname)?.shape().clone();
                let grad = Tensor::from_vec(shape, acc)?;
                self.core.apply_update(executor, &pname, &grad)?;
                // Broadcast fresh parameters (PS pushes to each worker).
                let fresh = executor.network().fetch_tensor(&pname)?.data().to_vec();
                for &peer in live.iter().filter(|&&p| p != server) {
                    self.core.comm.send(peer, &fresh)?;
                }
            }
        } else {
            for (pname, grad) in grads {
                self.core.comm.send(server, grad.data())?;
                let fresh = self.core.comm.recv(server)?;
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
