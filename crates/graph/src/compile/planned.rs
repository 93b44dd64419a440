//! The plan interpreter: the one level-parallel executor.
//!
//! [`PlannedExecutor`] freezes the network's dependency levels — the
//! verifier's partition, whose concatenation is the topological order the
//! reference loop walks — into an [`ExecutionPlan`] and runs it level by
//! level, joining before the next level starts. Whether a level's steps go
//! to the thread pool or run in order on the coordinator is
//! [`deep500_ops::par`]'s decision, taken from the steps' declared FLOPs
//! (see `level_work`): a chain, or a level of small nodes, never pays a
//! hand-off. The frozen plan is the only thing a pass reads. It is a
//! drop-in [`GraphExecutor`]:
//!
//! * the tensor environment and the backward sweep's gradient table are
//!   dense `Vec<Option<Tensor>>`s indexed by interned tensor id — no string
//!   hashing on the hot path,
//! * dispatch lists and per-level death lists are precomputed — readiness
//!   and remaining-consumer counts are never recomputed,
//! * every buffer a pass touches — operator outputs, feed copies and
//!   gradients — comes from the executor's one [`BufferPool`], and a dead
//!   tensor's buffer goes back to it when its level joins (inference) or at
//!   pass end (backprop), so the pool holds one working set per size class
//!   whatever batch sizes arrive.
//!
//! Three properties are preserved relative to
//! [`ReferenceExecutor`](crate::ReferenceExecutor):
//!
//! * **Bit-identical results.** Pool buffers are zero-filled on
//!   acquisition and within a level only independent nodes run; the one
//!   ordering hazard is backward gradient *accumulation*, where `f32`
//!   addition is commutative but not associative. Steps are stored in
//!   level order, levels are walked in reverse and each level reversed,
//!   and a level's results are applied in that order on the coordinator —
//!   so contributions reach any tensor in strictly descending step index.
//!   The reference loop's order is the same level order, so that is its
//!   reverse sweep by construction, and contributions are `axpy`ed on
//!   arrival.
//! * **Event attribution.** Each operator is timed on its worker thread and
//!   reported to the [`EventList`] as a completed `Event::span` from the
//!   coordinating thread, keeping per-op attribution exact where
//!   interleaved `begin`/`end` pairs would be meaningless.
//! * **OOM semantics.** The shared [`MemoryAccountant`] is atomic; racing
//!   allocations either claim their bytes within capacity or fail, so a
//!   configured memory limit still produces `Error::OutOfMemory`.
//!
//! Nothing in the plan depends on the feed shapes, so it is frozen once,
//! when the executor is built, and gated there on the plan-soundness lint
//! (`V018`), right after the graph gate — no pass runs an unchecked plan.

use super::plan::{ExecutionPlan, PlanStep, ValueRef};
use crate::executor::{node_rows, rows_by_id, GraphExecutor, MemoryAccountant};
use crate::network::{Network, NodeId};
use deep500_metrics::event::{EventList, Phase};
use deep500_metrics::trace::OpAttribution;
use deep500_ops::{par, Operator};
use deep500_tensor::{with_pool, BufferPool, Error, PoolStats, Result, Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// What an operator declares for its input shapes: FLOPs, bytes moved, and
/// (first call only) the dispatch note.
type Declared = (f64, u64, Option<String>);
/// What the coordinator hands a forward worker: the operator, its resolved
/// inputs, the workspace bytes to account — and what the operator
/// declared, which rides through the worker untouched so the level needs
/// no second list.
type ForwardJob<'a> = (&'a dyn Operator, Vec<&'a Tensor>, usize, Declared);
/// What the worker hands back: outputs, wall-clock seconds, and the job's
/// [`Declared`].
type ForwardProduct = (Vec<Tensor>, f64, Declared);
type BackwardJob<'a> = (&'a PlanStep, &'a dyn Operator, Vec<&'a Tensor>);
/// The step comes back with its input gradients and wall-clock seconds.
type BackwardProduct<'a> = (&'a PlanStep, Vec<Option<Tensor>>, f64);

/// The work estimate [`par::map_items`] gets for a level: the
/// multiply-adds (FLOPs / 2) of its *second-largest* step, so a level
/// forks only when at least two of its steps would each be worth handing
/// to the pool. One big step beside small ones gains nothing from a fork —
/// it forks inside its own kernel — and a one-step level has no second, so
/// its FLOPs are not even asked for.
fn level_work(flops: impl ExactSizeIterator<Item = f64>) -> usize {
    if flops.len() < 2 {
        return 0;
    }
    let (mut largest, mut second) = (0.0f64, 0.0f64);
    for f in flops {
        if f > largest {
            (largest, second) = (f, largest);
        } else if f > second {
            second = f;
        }
    }
    (second / 2.0) as usize
}

/// Plan counters (see [`PlannedExecutor::plan_cache_stats`]). One plan,
/// built with the executor, serves every feed shape, so they always read
/// builds 1, hits 0, cached 1. Kept because the frozen `spine/` benchmark
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans frozen.
    pub builds: usize,
    /// Always 0: there is no second plan to switch to.
    pub hits: usize,
    /// Plans held.
    pub cached: usize,
}

/// Resolve a step's pre-interned input sources against the pass
/// environment and the network store, in operator-input order.
fn gather_inputs<'a>(
    step: &'a PlanStep,
    env: &'a [Option<Tensor>],
    network: &'a Network,
    plan: &'a ExecutionPlan,
) -> Result<Vec<&'a Tensor>> {
    step.inputs
        .iter()
        .map(|source| match source {
            ValueRef::Env(id) => match env[*id].as_ref() {
                Some(t) => Ok(t),
                // Undeclared-but-prefed name: store fallback.
                None => network.fetch_tensor(&plan.tensor_names[*id]),
            },
            ValueRef::Net(name) => network.fetch_tensor(name),
        })
        .collect()
}

/// The plan-driven executor. See the module docs for the design.
pub struct PlannedExecutor {
    network: Network,
    ops: HashMap<NodeId, Box<dyn Operator>>,
    /// The frozen schedule, built and gated at construction.
    plan: ExecutionPlan,
    events: EventList,
    memory: MemoryAccountant,
    pool: Arc<BufferPool>,
    pass_counter: usize,
    /// One row per node, indexed by node id (Level-0 attribution).
    rows: Vec<OpAttribution>,
}

impl PlannedExecutor {
    /// The verified construction path behind [`Engine`]: `capacity` is the
    /// device memory limit in bytes. Construction is gated on the static
    /// verifier, then freezes the plan and gates it on the plan-soundness
    /// lint ([`deep500_verify::gate_plan`], `V018`) — `Error::Validation`
    /// on any `Deny` lint of either. Level-parallel execution over recycled
    /// buffers makes dataflow defects like duplicate writers actively
    /// dangerous, not just wrong.
    ///
    /// [`Engine`]: crate::engine::Engine
    pub(crate) fn construct(network: Network, capacity: usize) -> Result<Self> {
        let ir = network.to_ir();
        deep500_verify::gate(&ir)?;
        let ops = network.instantiate_ops()?;
        let plan = ExecutionPlan::from_levels(&network, &network.levels(&ir)?);
        deep500_verify::gate_plan(&plan.to_plan_ir(&network, &ops, &[]))?;
        let rows = node_rows(&network, &[]);
        Ok(PlannedExecutor {
            network,
            ops,
            plan,
            events: EventList::new(),
            memory: MemoryAccountant::new(capacity),
            pool: Arc::new(BufferPool::new()),
            pass_counter: 0,
            rows,
        })
    }

    /// The execution plan every pass runs.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Plan counters: always 1 build and 1 plan held, never a hit.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            builds: 1,
            hits: 0,
            cached: 1,
        }
    }

    /// The planned forward pass. With `reclaim`, buffers of tensors whose
    /// consumers are exhausted go back to the pool as soon as their
    /// level's successors join (inference); without it the
    /// whole environment stays live for backprop and only the memory
    /// accounting is released, mirroring the reference executor.
    fn forward_planned(
        &mut self,
        feeds: &[(&str, Tensor)],
        reclaim: bool,
    ) -> Result<Vec<Option<Tensor>>> {
        let Self {
            network,
            ops,
            plan,
            events,
            memory,
            pool,
            rows,
            ..
        } = self;

        memory.reset();
        let mut env: Vec<Option<Tensor>> = vec![None; plan.num_env()];
        for (name, t) in feeds {
            let Some(&id) = plan.feed_ids.get(*name) else {
                return Err(Error::Invalid(format!(
                    "feed '{name}' is not a declared graph input of '{}'",
                    network.name
                )));
            };
            memory.allocate(t.size_bytes())?;
            // The copy's buffer ends the pass in the pool like every other
            // environment tensor, so it must come out of the pool too — a
            // plain allocation here would grow the pool by one feed-sized
            // buffer per pass.
            env[id] = Some(with_pool(pool, || t.clone()));
        }

        for (l, &(lo, hi)) in plan.level_ranges.iter().enumerate() {
            let level = &plan.steps[lo..hi];
            // The coordinator resolves each step's inputs and reads off
            // their shapes everything the operator declares — the FLOPs
            // are what the fork decision goes by.
            let mut jobs: Vec<ForwardJob> = Vec::with_capacity(level.len());
            for step in level {
                let op = ops.get(&step.node).expect("instantiated op").as_ref();
                let inputs = gather_inputs(step, &env, network, plan)?;
                let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
                // The dispatch note is a `format!`; only the first call of
                // a node keeps it, so only that call builds it.
                let note = if rows[step.node.0].forward_calls == 0 {
                    op.annotation(&shapes)
                } else {
                    None
                };
                let declared = (op.flops(&shapes), op.bytes_moved(&shapes), note);
                jobs.push((op, inputs, op.workspace_bytes(&shapes), declared));
            }

            let run = |(op, inputs, workspace, declared): ForwardJob| {
                memory.allocate(workspace)?;
                let start = std::time::Instant::now();
                let outputs = with_pool(pool, || op.forward(&inputs));
                let seconds = start.elapsed().as_secs_f64();
                memory.release(workspace);
                let outputs = outputs?;
                for t in &outputs {
                    memory.allocate(t.size_bytes())?;
                }
                Ok((outputs, seconds, declared))
            };
            let work = level_work(jobs.iter().map(|job| job.3 .0));
            let results: Vec<Result<ForwardProduct>> = par::map_items(jobs, work, run);
            for (step, result) in level.iter().zip(results) {
                let (outputs, seconds, (flops, bytes, note)) = result?;
                events.span(Phase::OperatorForward, step.node.0, seconds);
                let row = &mut rows[step.node.0];
                if let Some(note) = note {
                    row.note = note;
                }
                row.record_forward(seconds, flops, bytes);
                for (&oid, tensor) in step.outputs.iter().zip(outputs) {
                    env[oid] = Some(tensor);
                }
            }
            // Level joined: process the precomputed death list.
            for &id in &plan.dies_after_level[l] {
                if reclaim {
                    if let Some(t) = env[id].take() {
                        memory.release(t.size_bytes());
                        pool.recycle(t.into_vec());
                    }
                } else if let Some(t) = env[id].as_ref() {
                    // Keep the value for backprop; release accounting only,
                    // like the reference executor.
                    memory.release(t.size_bytes());
                }
            }
        }
        Ok(env)
    }

    /// Collect declared graph outputs from a planned environment.
    fn collect_outputs(&self, env: &[Option<Tensor>]) -> Result<HashMap<String, Tensor>> {
        let plan = &self.plan;
        let mut out = HashMap::new();
        for (name, id) in &plan.outputs {
            let t = env[*id]
                .as_ref()
                .ok_or_else(|| Error::NotFound(format!("graph output '{name}'")))?;
            out.insert(name.clone(), t.clone());
        }
        Ok(out)
    }

    /// Return a pass environment's remaining buffers to the pool.
    fn reclaim_env(&self, env: Vec<Option<Tensor>>) {
        for t in env.into_iter().flatten() {
            self.pool.recycle(t.into_vec());
        }
    }

    /// Backward sweep over the frozen levels in reverse; publishes
    /// parameter gradients into the network value store like the reference.
    ///
    /// Gradients live in one dense table over the plan's gradient ids (env
    /// ids, then parameters). Steps are in level order, levels are walked
    /// in reverse, each level reversed, and a level's results are applied
    /// in that order — so contributions to any tensor arrive in strictly
    /// descending step index, which is the reference's reverse sweep over
    /// the same level order, and are accumulated on arrival.
    fn backward_planned(&mut self, env: &[Option<Tensor>], loss: &str, pass: usize) -> Result<()> {
        let plan = &self.plan;
        let loss_id = plan
            .tensor_ids
            .get(loss)
            .copied()
            .ok_or_else(|| Error::NotFound(format!("loss tensor '{loss}'")))?;
        let loss_tensor = env[loss_id]
            .as_ref()
            .ok_or_else(|| Error::NotFound(format!("loss tensor '{loss}'")))?;
        // Seed dL/dL = 1.
        let seed_start = std::time::Instant::now();
        let num_params = self.network.get_params().len();
        let mut grads: Vec<Option<Tensor>> = vec![None; plan.num_env() + num_params];
        grads[loss_id] = Some(Tensor::full(loss_tensor.shape().clone(), 1.0));
        let seed_s = seed_start.elapsed().as_secs_f64();

        let network = &self.network;
        let ops = &self.ops;
        let pool = &self.pool;
        let mut spans: Vec<(usize, f64)> = Vec::new();
        for &(lo, hi) in plan.level_ranges.iter().rev() {
            // Reverse within the level to mirror the reference sweep. All
            // consumers of this level's outputs live in higher levels and
            // have already contributed, so their gradients are final.
            // A node contributes when some output has a gradient; its
            // other outputs' gradients are zeros. As in the forward pass,
            // the coordinator resolves the inputs.
            let mut jobs: Vec<BackwardJob> = Vec::new();
            for step in plan.steps[lo..hi].iter().rev() {
                if !step.outputs.iter().any(|&oid| grads[oid].is_some()) {
                    continue;
                }
                for &oid in &step.outputs {
                    if let (None, Some(t)) = (&grads[oid], &env[oid]) {
                        let zeros = || Tensor::zeros(t.shape().clone());
                        grads[oid] = Some(with_pool(pool, zeros));
                    }
                }
                let op = ops.get(&step.node).expect("instantiated op").as_ref();
                jobs.push((step, op, gather_inputs(step, env, network, plan)?));
            }
            // The fork decision reads the forward FLOPs, as the forward
            // pass does; a one-step level is never priced.
            let work = level_work(jobs.iter().map(|(_, op, inputs)| {
                op.flops(&inputs.iter().map(|t| t.shape()).collect::<Vec<_>>())
            }));
            let grads_ref = &grads;
            let results = par::map_items(jobs, work, |(step, op, inputs)| {
                let output_tensors: Vec<&Tensor> = step
                    .outputs
                    .iter()
                    .map(|&oid| {
                        env[oid]
                            .as_ref()
                            .ok_or_else(|| Error::NotFound(plan.tensor_names[oid].clone()))
                    })
                    .collect::<Result<_>>()?;
                let grad_refs: Vec<&Tensor> = step
                    .outputs
                    .iter()
                    .map(|&oid| grads_ref[oid].as_ref().expect("filled above"))
                    .collect();
                let start = std::time::Instant::now();
                let input_grads = with_pool(pool, || {
                    op.backward_wanted(&grad_refs, &inputs, &output_tensors, &step.wanted)
                });
                let seconds = start.elapsed().as_secs_f64();
                Ok::<BackwardProduct, Error>((step, input_grads?, seconds))
            });
            for result in results {
                let (step, input_grads, seconds) = result?;
                spans.push((step.node.0, seconds));
                for (gid, gtensor) in step.grad_ids.iter().zip(input_grads) {
                    // `None`: an unwanted gradient the operator elided.
                    let Some(gtensor) = gtensor else { continue };
                    match gid.map(|gid| &mut grads[gid]) {
                        Some(Some(acc)) => {
                            acc.axpy(1.0, &gtensor)?;
                            pool.recycle(gtensor.into_vec());
                        }
                        Some(slot) => *slot = Some(gtensor),
                        // Unwanted, but the operator computed it anyway.
                        None => pool.recycle(gtensor.into_vec()),
                    }
                }
            }
        }

        self.events.span(Phase::LossSeed, pass, seed_s);
        for (id, seconds) in spans {
            self.events.span(Phase::OperatorBackward, id, seconds);
            self.rows[id].record_backward(seconds);
        }

        // Publish parameter gradients into the network value store: the
        // gradient's buffer moves into the store and the buffer it
        // displaces goes back to the pool, so no pass copies a gradient
        // and the pool stays balanced.
        let publish_start = std::time::Instant::now();
        for (i, g) in grads.drain(grads.len() - num_params..).enumerate() {
            let pname = &self.network.get_params()[i];
            let g = match g {
                Some(g) => g,
                None => Tensor::zeros(self.network.fetch_tensor(pname)?.shape().clone()),
            };
            let gname = crate::grad_name(pname);
            if let Some(displaced) = self.network.feed_tensor(gname, g) {
                self.pool.recycle(displaced.into_vec());
            }
        }
        for t in grads.into_iter().flatten() {
            self.pool.recycle(t.into_vec());
        }
        self.events.span(
            Phase::Bookkeeping,
            pass,
            publish_start.elapsed().as_secs_f64(),
        );
        Ok(())
    }
}

impl GraphExecutor for PlannedExecutor {
    fn network(&self) -> &Network {
        &self.network
    }
    fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn inference(&mut self, feeds: &[(&str, Tensor)]) -> Result<HashMap<String, Tensor>> {
        self.pass_counter += 1;
        let pass = self.pass_counter;
        self.events.begin(Phase::Inference, pass);
        let env = self.forward_planned(feeds, true)?;
        let outputs = self.collect_outputs(&env);
        // Reclaim inside the phase window so the Bookkeeping span merges
        // with the pass it belongs to (sinks flush at outer-phase ends).
        let reclaim_start = std::time::Instant::now();
        self.reclaim_env(env);
        self.events.span(
            Phase::Bookkeeping,
            pass,
            reclaim_start.elapsed().as_secs_f64(),
        );
        self.events.end(Phase::Inference, pass);
        outputs
    }

    fn inference_and_backprop(
        &mut self,
        feeds: &[(&str, Tensor)],
        loss: &str,
    ) -> Result<HashMap<String, Tensor>> {
        self.pass_counter += 1;
        let pass = self.pass_counter;
        self.events.begin(Phase::Backprop, pass);
        let env = self.forward_planned(feeds, false)?;
        self.backward_planned(&env, loss, pass)?;
        let outputs = self.collect_outputs(&env);
        let reclaim_start = std::time::Instant::now();
        self.reclaim_env(env);
        self.events.span(
            Phase::Bookkeeping,
            pass,
            reclaim_start.elapsed().as_secs_f64(),
        );
        self.events.end(Phase::Backprop, pass);
        outputs
    }

    fn events_mut(&mut self) -> &mut EventList {
        &mut self.events
    }

    fn peak_memory(&self) -> usize {
        self.memory.peak()
    }

    fn op_totals(&self) -> HashMap<usize, OpAttribution> {
        rows_by_id(&self.network, &self.rows)
    }

    fn buffer_pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::plan::tests::diamond_net;
    use crate::executor::ReferenceExecutor;
    use crate::models;

    fn mlp_feeds(batch: usize, features: usize) -> Vec<(String, Tensor)> {
        let x: Vec<f32> = (0..batch * features)
            .map(|i| ((i * 37 % 17) as f32 - 8.0) / 5.0)
            .collect();
        let labels: Vec<f32> = (0..batch).map(|i| (i % 2) as f32).collect();
        vec![
            (
                "x".to_string(),
                Tensor::from_vec([batch, features], x).unwrap(),
            ),
            ("labels".to_string(), Tensor::from_slice(&labels)),
        ]
    }

    use models::feed_refs as as_refs;

    #[test]
    fn planned_inference_is_bit_identical_to_reference() {
        let net = models::mlp(12, &[16, 8], 3, 9).unwrap();
        let feeds = mlp_feeds(4, 12);
        let mut rf = ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let mut pl = PlannedExecutor::construct(net, usize::MAX).unwrap();
        let expect = rf.inference(&as_refs(&feeds)).unwrap();
        // Two passes: the second runs on recycled pool buffers.
        for _ in 0..2 {
            let got = pl.inference(&as_refs(&feeds)).unwrap();
            for (name, t) in &expect {
                assert_eq!(got[name].data(), t.data(), "output '{name}'");
            }
        }
    }

    #[test]
    fn planned_backprop_matches_reference_gradients_bitwise() {
        let net = models::mlp(10, &[12], 4, 21).unwrap();
        let feeds = mlp_feeds(3, 10);
        let mut rf = ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let mut pl = PlannedExecutor::construct(net, usize::MAX).unwrap();
        rf.inference_and_backprop(&as_refs(&feeds), "loss").unwrap();
        pl.inference_and_backprop(&as_refs(&feeds), "loss").unwrap();
        for p in rf.network().get_params().to_vec() {
            let g = crate::grad_name(&p);
            let rg = rf.network().fetch_tensor(&g).unwrap();
            let pg = pl.network().fetch_tensor(&g).unwrap();
            assert_eq!(rg.data(), pg.data(), "gradient of '{p}'");
        }
    }

    #[test]
    fn undeclared_feed_is_rejected() {
        let net = models::mlp(4, &[], 2, 3).unwrap();
        let mut pl = PlannedExecutor::construct(net, usize::MAX).unwrap();
        let err = pl
            .inference(&[("ghost", Tensor::ones([1, 4]))])
            .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    #[test]
    fn trait_reports_pool_stats_and_no_static_plan() {
        let net = models::mlp(16, &[24, 16], 4, 4).unwrap();
        let mut pl = PlannedExecutor::construct(net, usize::MAX).unwrap();
        pl.inference(&as_refs(&mlp_feeds(4, 16))).unwrap();
        let as_trait: &dyn GraphExecutor = &pl;
        assert_eq!(as_trait.static_plan_bytes(), None);
        assert_eq!(as_trait.buffer_pool_stats(), Some(pl.pool.stats()));
        assert!(pl.pool.stats().held_bytes > 0);
    }

    #[test]
    fn planned_ooms_on_tiny_capacity() {
        let net = models::mlp(4, &[4], 2, 5).unwrap();
        let mut pl = PlannedExecutor::construct(net, 8).unwrap();
        let err = pl.inference(&as_refs(&mlp_feeds(2, 4))).unwrap_err();
        assert!(matches!(err, Error::OutOfMemory { .. }));
    }

    #[test]
    fn both_concurrent_kinds_build_the_plan_interpreter() {
        use crate::ExecutorKind;
        let net = models::mlp(4, &[4], 2, 6).unwrap();
        let mut rf = ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let feeds = mlp_feeds(2, 4);
        let expect = rf.inference(&as_refs(&feeds)).unwrap();
        for kind in [ExecutorKind::Wavefront, ExecutorKind::Planned] {
            let mut ex = kind.construct(net.clone_structure(), usize::MAX).unwrap();
            assert!(ex.as_any().is::<PlannedExecutor>(), "{kind:?}");
            let got = ex.inference(&as_refs(&feeds)).unwrap();
            assert_eq!(got["loss"].data(), expect["loss"].data(), "{kind:?}");
        }
    }

    #[test]
    fn diamond_inference_matches_reference() {
        let x = Tensor::from_vec([2, 1], vec![1.5, -0.5]).unwrap();
        let mut pl = PlannedExecutor::construct(diamond_net(), usize::MAX).unwrap();
        let mut rf = ReferenceExecutor::construct(diamond_net(), usize::MAX).unwrap();
        let p = pl.inference(&[("x", x.clone())]).unwrap();
        let r = rf.inference(&[("x", x)]).unwrap();
        assert_eq!(p["y"].data(), r["y"].data());
    }

    #[test]
    fn concurrent_level_ooms_on_tiny_capacity() {
        let mut ex = PlannedExecutor::construct(diamond_net(), 8).unwrap();
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]); // 16 bytes
        let err = ex.inference(&[("x", x)]).unwrap_err();
        assert!(matches!(err, Error::OutOfMemory { .. }));
    }

    #[test]
    fn buffers_recycle_across_passes() {
        let net = models::mlp(6, &[6], 2, 2).unwrap();
        let mut ex = PlannedExecutor::construct(net, usize::MAX).unwrap();
        let feeds = mlp_feeds(4, 6);
        ex.inference_and_backprop(&as_refs(&feeds), "loss").unwrap();
        let first = ex.buffer_pool_stats().unwrap();
        ex.inference_and_backprop(&as_refs(&feeds), "loss").unwrap();
        let second = ex.buffer_pool_stats().unwrap();
        assert!(
            second.hits > first.hits,
            "second pass should reuse first-pass gradient buffers: {second:?}"
        );
        // Activations come back from the pool, so the second pass falls
        // through to the allocator less often than the first did.
        assert!(
            second.misses - first.misses < first.misses,
            "slots + pool must absorb second-pass allocations: {first:?} -> {second:?}"
        );
    }

    /// Every buffer the interpreter parks in the pool was taken from the
    /// pool: the feed copy used to be a plain allocation that ended each
    /// pass in the pool, growing it by one feed-sized class per pass.
    #[test]
    fn held_bytes_are_flat_across_steady_state_passes() {
        let case = models::zoo()
            .into_iter()
            .find(|c| c.name == "lenet")
            .expect("zoo has lenet")
            .at_batch(32);
        let feeds = case.feeds(1);
        for backprop in [false, true] {
            let mut ex =
                PlannedExecutor::construct(case.net.clone_structure(), usize::MAX).unwrap();
            let pass = |ex: &mut PlannedExecutor| {
                if backprop {
                    ex.inference_and_backprop(&as_refs(&feeds), "loss").unwrap();
                } else {
                    ex.inference(&as_refs(&feeds)).unwrap();
                }
            };
            for _ in 0..10 {
                pass(&mut ex);
            }
            let after_10 = ex.buffer_pool_stats().unwrap();
            for _ in 0..50 {
                pass(&mut ex);
            }
            let after_60 = ex.buffer_pool_stats().unwrap();
            assert_eq!(
                after_60.held_bytes, after_10.held_bytes,
                "backprop={backprop}: pool grew between pass 10 and pass 60"
            );
            // A buffer drawn from the pool and dropped instead of recycled
            // (an unwanted gradient, an operator temporary) shows up as one
            // miss per pass; lane scratch may still warm up a class late.
            assert!(
                after_60.misses - after_10.misses < 25,
                "backprop={backprop}: steady-state misses: {after_10:?} -> {after_60:?}"
            );
            // Only a node's first call builds its dispatch note; 59 later
            // calls must not have dropped it.
            let rows = ex.op_attribution();
            let mut convs = rows.iter().filter(|r| r.name.starts_with("conv"));
            assert!(
                convs.clone().count() == 2 && convs.all(|r| r.note.starts_with("tier=")),
                "conv rows must carry the resolved tier: {rows:?}"
            );
        }
    }

    /// Dynamic batching hands the interpreter a different batch size from
    /// pass to pass. One plan serves them all, and the pool's working set
    /// is the largest batch's: a second sweep over the same sizes neither
    /// builds a plan nor parks another byte.
    #[test]
    fn plans_and_pool_do_not_multiply_with_batch_sizes() {
        use crate::{Engine, ExecutorKind};
        let case = models::zoo()
            .into_iter()
            .find(|c| c.name == "resnet_like")
            .expect("zoo has resnet_like");
        let engine = Engine::builder(case.net.clone_structure())
            .executor(ExecutorKind::Planned)
            .build()
            .unwrap();
        let mut rf = ReferenceExecutor::construct(case.net.clone_structure(), usize::MAX).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut held = Vec::new();
        for _ in 0..2 {
            for batch in 1..=8 {
                let feeds = case.at_batch(batch).feeds(batch as u64);
                let expect = rf.inference(&as_refs(&feeds)).unwrap();
                let got = engine.lock().inference(&as_refs(&feeds)).unwrap();
                for (name, t) in &expect {
                    assert_eq!(bits(&got[name]), bits(t), "batch {batch} '{name}'");
                }
            }
            let ex = engine.lock();
            let planned = ex.as_any().downcast_ref::<PlannedExecutor>().unwrap();
            assert_eq!(planned.plan_cache_stats().builds, 1);
            held.push(planned.buffer_pool_stats().unwrap().held_bytes);
        }
        assert_eq!(held[1], held[0], "the second sweep grew the pool");
    }
}
