//! Stale-synchronous centralized SGD (paper Fig. 5c).
//!
//! The middle ground between synchronous and asynchronous PS training:
//! workers may run ahead of the slowest worker by at most `max_staleness`
//! versions. Instead of synchronizing with the server *every* step (PSSGD)
//! the worker pushes/pulls only when its local step counter would exceed
//! the last-synchronized server version by the staleness bound — so with
//! bound `s`, communication happens every `s+1` steps, and parameters used
//! in between are up to `s` versions stale.
//!
//! ## Fault tolerance
//!
//! Staleness already tolerates missing updates, which makes this the one
//! centralized scheme that degrades gracefully under message loss: a
//! worker whose push is dropped (after retry exhaustion) simply keeps
//! training on its stale replica and re-synchronizes next round; the
//! server averages over whichever contributions actually arrived. To keep
//! rounds aligned under loss, each rank's sync is a **single fused
//! message tagged with its round number**: the server stashes
//! early next-round pushes and counts the missing round as lost instead
//! of misreading a later message.

use super::{collect_gradients, Scheme, SchemeCore};
use crate::comm::{CommError, Communicator};
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_tensor::{Error, Result, Tensor};
use deep500_train::optimizer::StepResult;
use deep500_train::ThreeStepOptimizer;
use std::collections::HashMap;

/// Stale-synchronous parameter-server SGD.
pub struct StaleSynchronous {
    core: SchemeCore,
    /// Maximum allowed staleness (0 = fully synchronous).
    pub max_staleness: u64,
    local_step: u64,
    /// Synchronization round counter (tags the fused sync messages).
    sync_round: u64,
    /// Locally accumulated gradients awaiting the next synchronization.
    pending: Vec<(String, Vec<f32>)>,
    /// Server-side: pushes that arrived for a *future* round while the
    /// current round's contribution was lost, keyed by worker.
    stash: HashMap<usize, (u64, Vec<f32>)>,
}

impl StaleSynchronous {
    pub fn new(
        base: Box<dyn ThreeStepOptimizer>,
        comm: Box<dyn Communicator>,
        max_staleness: u64,
    ) -> Self {
        StaleSynchronous {
            core: SchemeCore::new(base, comm),
            max_staleness,
            local_step: 0,
            sync_round: 0,
            pending: Vec::new(),
            stash: HashMap::new(),
        }
    }

    fn accumulate(&mut self, grads: Vec<(String, Tensor)>) {
        if self.pending.is_empty() {
            self.pending = grads.into_iter().map(|(n, g)| (n, g.into_vec())).collect();
        } else {
            for ((_, acc), (_, g)) in self.pending.iter_mut().zip(grads) {
                for (a, b) in acc.iter_mut().zip(g.data()) {
                    *a += b;
                }
            }
        }
    }

    /// Obtain `peer`'s fused contribution for `round`, consuming the stash
    /// or the channel. `Ok(None)` means the contribution is lost (dropped
    /// push, dead or timed-out peer) — the caller skips it.
    fn round_contribution(&mut self, peer: usize, round: u64) -> Result<Option<Vec<f32>>> {
        if let Some((r, payload)) = self.stash.remove(&peer) {
            if r == round {
                return Ok(Some(payload));
            }
            // A future round is already banked: `round` was lost.
            self.stash.insert(peer, (r, payload));
            return Ok(None);
        }
        loop {
            match self.core.comm.recv(peer) {
                Ok(msg) => {
                    if msg.is_empty() {
                        return Err(Error::Communication("empty SSP sync message".into()));
                    }
                    let r = msg[0] as u64;
                    if r == round {
                        return Ok(Some(msg[1..].to_vec()));
                    }
                    if r > round {
                        // The peer's push for `round` was dropped and it
                        // already moved on: bank this one, skip `round`.
                        self.stash.insert(peer, (r, msg[1..].to_vec()));
                        return Ok(None);
                    }
                    // r < round cannot happen (each round pushed at most
                    // once, in order); discard defensively.
                }
                Err(
                    CommError::Timeout { .. }
                    | CommError::RankDead(_)
                    | CommError::Dropped { .. }
                    | CommError::Closed(_),
                ) => return Ok(None),
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Scheme for StaleSynchronous {
    fn name(&self) -> &str {
        "StaleSyncSGD"
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        let result = self.core.backprop(executor, batch)?;
        self.local_step += 1;
        let grads = collect_gradients(executor)?;

        // Apply locally right away (staleness: local params drift from the
        // server's between synchronizations) and bank the gradient.
        for (pname, grad) in &grads {
            self.core.apply_update(executor, pname, grad)?;
        }
        self.accumulate(grads);

        // Synchronize once the staleness budget is exhausted.
        if !self.local_step.is_multiple_of(self.max_staleness + 1) {
            return Ok(result);
        }
        let round = self.sync_round;
        self.sync_round += 1;
        let rank = self.core.comm.rank();
        // The server is the lowest live rank (failover as in PSSGD; the
        // new server continues from its own replica, which SSP's staleness
        // tolerance absorbs).
        let live = self.core.comm.live_ranks();
        let server = *live
            .first()
            .ok_or_else(|| CommError::Closed("no live ranks left".into()))?;
        let pending = std::mem::take(&mut self.pending);
        let layout: Vec<(String, usize)> =
            pending.iter().map(|(n, v)| (n.clone(), v.len())).collect();
        if rank == server {
            // Fuse our own banked gradients, then fold in whichever
            // worker contributions actually arrive for this round.
            let mut acc: Vec<f32> = pending.into_iter().flat_map(|(_, v)| v).collect();
            let mut contributors = vec![server];
            let workers: Vec<usize> = live.iter().copied().filter(|&p| p != server).collect();
            for peer in workers {
                match self.round_contribution(peer, round)? {
                    Some(contrib) => {
                        if contrib.len() != acc.len() {
                            return Err(Error::Communication(format!(
                                "SSP fused size mismatch: {} vs {}",
                                contrib.len(),
                                acc.len()
                            )));
                        }
                        for (a, b) in acc.iter_mut().zip(contrib) {
                            *a += b;
                        }
                        contributors.push(peer);
                    }
                    None => {
                        // Lost contribution: recover by continuing without
                        // it — staleness absorbs the gap.
                        self.core.comm.record_lost(1);
                    }
                }
            }
            let inv = 1.0 / contributors.len() as f32;
            acc.iter_mut().for_each(|v| *v *= inv);
            // Apply the averaged accumulated gradient, then push fresh
            // parameters (fused, round-tagged) back to the contributors.
            let mut off = 0usize;
            let mut fresh = vec![round as f32];
            for (pname, len) in &layout {
                let shape = executor.network().fetch_tensor(pname)?.shape().clone();
                let g = Tensor::from_vec(shape, acc[off..off + len].to_vec())?;
                self.core.apply_update(executor, pname, &g)?;
                fresh.extend_from_slice(executor.network().fetch_tensor(pname)?.data());
                off += len;
            }
            for &peer in contributors.iter().filter(|&&p| p != server) {
                match self.core.comm.send(peer, &fresh) {
                    Ok(()) => {}
                    Err(
                        CommError::Dropped { .. } | CommError::RankDead(_) | CommError::Closed(_),
                    ) => {
                        // The contributor misses this round's fresh params
                        // and keeps its stale replica — staleness absorbs
                        // the divergence. (Closed: the peer already finished
                        // its run and left; the reply is moot.)
                        self.core.comm.record_lost(1);
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        } else {
            let mut payload = vec![round as f32];
            for (_, v) in &pending {
                payload.extend_from_slice(v);
            }
            match self.core.comm.send(server, &payload) {
                Ok(()) => {
                    // The push landed, so the server counts us as a
                    // contributor and replies with fused fresh params —
                    // unless that reply is itself dropped, in which case we
                    // keep the stale replica (staleness absorbs it).
                    loop {
                        match self.core.comm.recv(server) {
                            Ok(reply) => {
                                let r = reply.first().map(|&r| r as u64);
                                if r < Some(round) {
                                    // A late reply from a round we already
                                    // gave up on: old news, discard.
                                    continue;
                                }
                                if r != Some(round) {
                                    return Err(Error::Communication(format!(
                                        "SSP reply round mismatch at round {round}"
                                    )));
                                }
                                let mut off = 1usize;
                                for (pname, len) in &layout {
                                    let shape =
                                        executor.network().fetch_tensor(pname)?.shape().clone();
                                    executor.network_mut().feed_tensor(
                                        pname.clone(),
                                        Tensor::from_vec(shape, reply[off..off + len].to_vec())?,
                                    );
                                    off += len;
                                }
                                break;
                            }
                            Err(
                                CommError::Timeout { .. }
                                | CommError::Dropped { .. }
                                | CommError::RankDead(_)
                                | CommError::Closed(_),
                            ) => {
                                // Reply lost (or server gone): train on.
                                self.core.comm.record_lost(1);
                                break;
                            }
                            Err(e) => return Err(e.into()),
                        }
                    }
                }
                Err(CommError::Dropped { .. } | CommError::RankDead(_) | CommError::Closed(_)) => {
                    // This round's sync is lost (dropped push, or the server
                    // already finished its run and left): keep training on
                    // the stale replica and re-synchronize next round.
                    self.core.comm.record_lost(1);
                }
                Err(e) => return Err(e.into()),
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
