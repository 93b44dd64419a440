//! Distributed training orchestration over the thread transport.
//!
//! [`DistributedRunner`] is the single entry point for Level-3 training
//! runs: a builder that picks the world size, scheme [`Variant`], network
//! model, executor, and (optionally) a seeded [`FaultPlan`], then spawns
//! one OS thread per rank — the reproduction's analogue of the paper's
//! "OS forking to turn an existing Python application into an MPI-capable
//! one". Every rank trains on the plan interpreter unless
//! `.executor(ExecutorKind::Reference)` selects the serial oracle, which
//! gives the same bits:
//!
//! ```ignore
//! let report = DistributedRunner::new(&network, dataset)
//!     .world(4)
//!     .variant(Variant::Cdsgd)
//!     .network(NetworkModel::aries())
//!     .faults(FaultPlan::seeded(7).with_drops(0.1, 3))
//!     .run()?;
//! assert!(report.consistency(1e-5).is_consistent());
//! ```
//!
//! The result is a [`RunReport`]: per-rank losses, parameters, volumes,
//! virtual times, fault counters, and a [`RankStatus`] that distinguishes
//! planned crashes from failures. [`RunReport::consistency`] produces a
//! [`ConsistencyReport`] that *names* the diverging ranks and parameters
//! instead of a bare boolean.

use crate::comm::{CommError, Communicator, ThreadCommunicator, ThreadTransport};
use crate::fault::{FaultPlan, FaultyCommunicator};
use crate::netmodel::NetworkModel;
use crate::optimizers::{
    asgd::InconsistentCentralized, dpsgd::DecentralizedNeighbor, dsgd::ConsistentDecentralized,
    mavg::ModelAveraging, pssgd::ConsistentCentralized, signsgd::SignCompressedSgd,
    sparcml::SparseDecentralized, stale::StaleSynchronous, DistributedOptimizer,
};
use crate::tracing::TracingCommunicator;
use deep500_data::sampler::{DatasetSampler, ShardedSampler};
use deep500_data::Dataset;
use deep500_graph::{Engine, ExecutorKind, Network};
use deep500_metrics::norms::{abs_diff, nan_max};
use deep500_metrics::trace::{rank_by_total, OpAttribution, TraceRecorder};
use deep500_metrics::{CommunicationVolume, FaultCounters};
use deep500_tensor::{Error, Result};
use deep500_train::sgd::GradientDescent;
use std::fmt;
use std::sync::Arc;
use std::thread;

/// Everything a rank's closure receives.
struct RankContext {
    rank: usize,
    comm: ThreadCommunicator,
}

/// Spawn `world` rank threads running `f`; returns per-rank results in
/// join order. Any rank error aborts the whole run.
fn spawn_ranks<T: Send + 'static>(
    world: usize,
    model: NetworkModel,
    f: impl Fn(RankContext) -> Result<T> + Send + Sync + Clone + 'static,
) -> Result<Vec<T>> {
    let comms = ThreadTransport::create(world, model);
    let handles: Vec<_> = comms
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let f = f.clone();
            thread::Builder::new()
                .name(format!("d5-rank{rank}"))
                .spawn(move || f(RankContext { rank, comm }))
                .expect("spawn rank thread")
        })
        .collect();
    let mut results = Vec::with_capacity(world);
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(v)) => results.push(v),
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or(Some(Error::Communication("rank thread panicked".into())))
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(results),
    }
}

/// Factory signature of [`Variant::Custom`].
///
/// Public for: the payload of `Variant::Custom`.
pub type CustomFactory =
    Arc<dyn Fn(Box<dyn Communicator>) -> Box<dyn DistributedOptimizer> + Send + Sync>;

/// The distributed SGD variant a [`DistributedRunner`] trains with
/// (paper §IV-F/§V-E lineup).
#[derive(Clone)]
pub enum Variant {
    /// Consistent decentralized SGD, optimized direct-buffer flavour.
    Cdsgd,
    /// Consistent decentralized SGD with the Python-reference conversion
    /// penalty.
    RefDsgd,
    /// Fused-buffer (Horovod-style) allreduce.
    Horovod,
    /// Synchronous parameter server.
    Pssgd,
    /// Asynchronous parameter server.
    Asgd,
    /// Stale-synchronous parameter server.
    StaleSynchronous {
        /// Maximum parameter staleness (0 = fully synchronous).
        max_staleness: u64,
    },
    /// Decentralized neighbor gossip.
    Dpsgd,
    /// Periodic model averaging.
    Mavg {
        /// Average parameters every this many steps.
        period: u64,
    },
    /// SparCML top-k sparse allreduce.
    SparCml {
        /// Fraction of gradient entries kept.
        density: f64,
    },
    /// signSGD with majority vote.
    SignSgd,
    /// A user-provided scheme factory.
    Custom(&'static str, CustomFactory),
}

impl Variant {
    /// Scheme name (matches the per-scheme `DistributedOptimizer::name`).
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Cdsgd => "CDSGD",
            Variant::RefDsgd => "REF-dsgd",
            Variant::Horovod => "Horovod",
            Variant::Pssgd => "PSSGD",
            Variant::Asgd => "ASGD",
            Variant::StaleSynchronous { .. } => "StaleSyncSGD",
            Variant::Dpsgd => "DPSGD",
            Variant::Mavg { .. } => "MAVG",
            Variant::SparCml { .. } => "SparCML",
            Variant::SignSgd => "SignSGD",
            Variant::Custom(name, _) => name,
        }
    }

    /// Build the per-rank scheme over `comm` with a gradient-descent base
    /// optimizer at learning rate `lr`.
    fn build(&self, lr: f32, comm: Box<dyn Communicator>) -> Box<dyn DistributedOptimizer> {
        let base = Box::new(GradientDescent::new(lr));
        match self {
            Variant::Cdsgd => Box::new(ConsistentDecentralized::optimized(base, comm)),
            Variant::RefDsgd => Box::new(ConsistentDecentralized::reference(base, comm)),
            Variant::Horovod => Box::new(ConsistentDecentralized::horovod(base, comm)),
            Variant::Pssgd => Box::new(ConsistentCentralized::new(base, comm)),
            Variant::Asgd => Box::new(InconsistentCentralized::new(base, comm)),
            Variant::StaleSynchronous { max_staleness } => {
                Box::new(StaleSynchronous::new(base, comm, *max_staleness))
            }
            Variant::Dpsgd => Box::new(DecentralizedNeighbor::new(base, comm)),
            Variant::Mavg { period } => Box::new(ModelAveraging::new(base, comm, *period)),
            Variant::SparCml { density } => {
                Box::new(SparseDecentralized::new(base, comm, *density))
            }
            Variant::SignSgd => Box::new(SignCompressedSgd::new(base, comm)),
            Variant::Custom(_, factory) => factory(comm),
        }
    }
}

impl fmt::Debug for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Variant({})", self.name())
    }
}

/// How a rank's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankStatus {
    /// All steps executed.
    Completed,
    /// The fault plan crashed this rank at the given step; partial results
    /// up to the crash are reported.
    Crashed { at_step: usize },
    /// The rank aborted on an error (typed communication failures
    /// included); the message carries the cause.
    Failed(String),
}

/// Per-rank outcome of a [`DistributedRunner`] run.
#[derive(Debug, Clone)]
pub struct RankReport {
    pub rank: usize,
    pub status: RankStatus,
    /// Loss after each completed step.
    pub losses: Vec<f32>,
    /// Final parameters (name → flat values) for cross-rank checks.
    pub final_params: Vec<(String, Vec<f32>)>,
    /// Communication counters.
    pub volume: CommunicationVolume,
    /// Virtual time (compute + modeled communication).
    pub virtual_time: f64,
    /// Fault-injection and recovery counters (zero without a plan).
    pub faults: FaultCounters,
    /// Per-operator wall-time attribution from this rank's executor.
    pub op_attribution: Vec<OpAttribution>,
}

/// The outcome of a distributed training run: one report per rank, sorted
/// by rank, plus aggregation helpers.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub ranks: Vec<RankReport>,
}

impl RunReport {
    /// Ranks that ran to completion.
    pub fn completed(&self) -> Vec<&RankReport> {
        self.ranks
            .iter()
            .filter(|r| r.status == RankStatus::Completed)
            .collect()
    }

    /// True when every rank completed every step.
    pub fn all_completed(&self) -> bool {
        self.ranks.iter().all(|r| r.status == RankStatus::Completed)
    }

    /// Ranks that aborted on an error (planned crashes excluded).
    pub fn failed(&self) -> Vec<&RankReport> {
        self.ranks
            .iter()
            .filter(|r| matches!(r.status, RankStatus::Failed(_)))
            .collect()
    }

    /// Per-operator attribution merged across all ranks (calls, wall time
    /// and forward FLOP/byte totals summed by node id; the latest per-call
    /// figures are structural and identical on every rank), ranked by
    /// [`rank_by_total`].
    pub fn op_attribution(&self) -> Vec<OpAttribution> {
        let mut merged: Vec<OpAttribution> = Vec::new();
        for row in self.ranks.iter().flat_map(|r| &r.op_attribution) {
            match merged.iter_mut().find(|m| m.id == row.id) {
                Some(m) => m.merge(row),
                None => merged.push(row.clone()),
            }
        }
        rank_by_total(&mut merged);
        merged
    }

    /// Communication counters merged across all ranks.
    pub fn volume(&self) -> CommunicationVolume {
        let mut total = CommunicationVolume::new();
        for r in &self.ranks {
            total.merge(&r.volume);
        }
        total
    }

    /// Fault counters merged across all ranks.
    pub fn faults(&self) -> FaultCounters {
        let mut total = FaultCounters::new();
        for r in &self.ranks {
            total.merge(&r.faults);
        }
        total
    }

    /// Parameter consistency across the *completed* ranks.
    pub fn consistency(&self, tol: f32) -> ConsistencyReport {
        consistency_over(
            self.completed()
                .into_iter()
                .map(|r| (r.rank, r.final_params.as_slice())),
            tol,
        )
    }
}

/// One elementwise parameter divergence between two ranks.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The diverging rank.
    pub rank: usize,
    /// The rank compared against (lowest checked rank).
    pub reference_rank: usize,
    /// Parameter name.
    pub param: String,
    /// Flat element index within the parameter.
    pub index: usize,
    /// Value on `rank`.
    pub got: f32,
    /// Value on `reference_rank`.
    pub reference: f32,
}

/// Diagnostic result of a cross-rank parameter consistency check: instead
/// of a bare boolean it names which ranks and parameters diverged, so test
/// failures point at the culprit directly.
#[derive(Debug, Clone)]
pub struct ConsistencyReport {
    /// Tolerance the check ran with.
    pub tol: f32,
    /// Number of ranks compared.
    pub ranks_checked: usize,
    /// Largest elementwise |difference| seen; NaN when some difference is.
    pub max_abs_diff: f32,
    /// Out-of-tolerance elements, the first eight found.
    pub divergences: Vec<Divergence>,
    /// Structural mismatches (parameter name/shape disagreements).
    pub structural: Vec<String>,
}

impl ConsistencyReport {
    /// Cap on recorded divergences (counts keep accumulating in
    /// `max_abs_diff`).
    const MAX_RECORDED: usize = 8;

    /// True when every rank's parameters agree within the tolerance.
    pub fn is_consistent(&self) -> bool {
        self.divergences.is_empty() && self.structural.is_empty()
    }
}

impl fmt::Display for ConsistencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_consistent() {
            return write!(
                f,
                "consistent: {} ranks agree within {:e} (max |Δ| {:e})",
                self.ranks_checked, self.tol, self.max_abs_diff
            );
        }
        write!(
            f,
            "INCONSISTENT across {} ranks (tol {:e}, max |Δ| {:e})",
            self.ranks_checked, self.tol, self.max_abs_diff
        )?;
        for s in &self.structural {
            write!(f, "; {s}")?;
        }
        for d in &self.divergences {
            write!(
                f,
                "; rank {} vs {}: '{}'[{}] = {} vs {}",
                d.rank, d.reference_rank, d.param, d.index, d.got, d.reference
            )?;
        }
        Ok(())
    }
}

/// Core consistency check over `(rank, params)` pairs; the first entry is
/// the reference.
fn consistency_over<'a>(
    mut entries: impl Iterator<Item = (usize, &'a [(String, Vec<f32>)])>,
    tol: f32,
) -> ConsistencyReport {
    let mut report = ConsistencyReport {
        tol,
        ranks_checked: 0,
        max_abs_diff: 0.0,
        divergences: Vec::new(),
        structural: Vec::new(),
    };
    let Some((ref_rank, ref_params)) = entries.next() else {
        return report;
    };
    report.ranks_checked = 1;
    for (rank, params) in entries {
        report.ranks_checked += 1;
        if params.len() != ref_params.len() {
            report.structural.push(format!(
                "rank {rank} has {} params, rank {ref_rank} has {}",
                params.len(),
                ref_params.len()
            ));
            continue;
        }
        for ((n1, v1), (n2, v2)) in params.iter().zip(ref_params) {
            if n1 != n2 || v1.len() != v2.len() {
                report.structural.push(format!(
                    "rank {rank} param '{n1}' ({} elems) vs rank {ref_rank} '{n2}' ({} elems)",
                    v1.len(),
                    v2.len()
                ));
                continue;
            }
            for (i, (a, b)) in v1.iter().zip(v2).enumerate() {
                // A NaN on either side is a divergence at any tolerance.
                let diff = abs_diff(*a, *b);
                report.max_abs_diff = nan_max(report.max_abs_diff.into(), diff) as f32;
                let agrees = diff <= f64::from(tol);
                if !agrees && report.divergences.len() < ConsistencyReport::MAX_RECORDED {
                    report.divergences.push(Divergence {
                        rank,
                        reference_rank: ref_rank,
                        param: n1.clone(),
                        index: i,
                        got: *a,
                        reference: *b,
                    });
                }
            }
        }
    }
    report
}

/// Builder for Level-3 distributed training runs (collapses the old
/// `run_distributed` / `train_data_parallel` / `train_data_parallel_with`
/// surface into one API).
pub struct DistributedRunner {
    network: Network,
    dataset: Arc<dyn Dataset>,
    world: usize,
    batch: usize,
    steps: usize,
    seed: u64,
    lr: f32,
    model: NetworkModel,
    executor: ExecutorKind,
    variant: Variant,
    faults: Option<Arc<FaultPlan>>,
    trace: Option<TraceRecorder>,
}

impl DistributedRunner {
    /// A runner over `network` and `dataset` with defaults: 2 ranks,
    /// per-rank batch 8, 10 steps, seed 0, lr 0.1, instant network,
    /// planned executor, [`Variant::Cdsgd`], no faults.
    pub fn new(network: &Network, dataset: Arc<dyn Dataset>) -> Self {
        DistributedRunner {
            network: network.clone_structure(),
            dataset,
            world: 2,
            batch: 8,
            steps: 10,
            seed: 0,
            lr: 0.1,
            model: NetworkModel::instant(),
            executor: ExecutorKind::Planned,
            variant: Variant::Cdsgd,
            faults: None,
            trace: None,
        }
    }

    /// Number of ranks.
    pub fn world(mut self, world: usize) -> Self {
        self.world = world.max(1);
        self
    }

    /// Per-rank minibatch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Training steps per rank.
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Sampler shard seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Learning rate of the gradient-descent base optimizer.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Distributed SGD variant.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// α-β network model pricing every message.
    pub fn network(mut self, model: NetworkModel) -> Self {
        self.model = model;
        self
    }

    /// Per-rank graph executor; `ExecutorKind::Reference` is the oracle
    /// the default plan interpreter must match bit for bit.
    pub fn executor(mut self, kind: ExecutorKind) -> Self {
        self.executor = kind;
        self
    }

    /// Inject a (possibly zero-fault) [`FaultPlan`]: every rank's
    /// communicator is wrapped in a
    /// [`FaultyCommunicator`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Record every rank's communication into `recorder`: each rank's
    /// communicator is wrapped in a
    /// [`TracingCommunicator`] feeding
    /// a per-rank track (`rank0`, `rank1`, …), outermost so injected fault
    /// delays show up in the spans.
    pub fn trace(mut self, recorder: &TraceRecorder) -> Self {
        self.trace = Some(recorder.clone());
        self
    }

    /// Spawn the rank threads, train, and join into a [`RunReport`].
    ///
    /// Planned rank crashes and per-rank communication failures are
    /// reported in each rank's [`RankStatus`] — they do *not* abort the
    /// run. Infrastructure errors (graph construction, sampling) do.
    pub fn run(self) -> Result<RunReport> {
        let DistributedRunner {
            network,
            dataset,
            world,
            batch,
            steps,
            seed,
            lr,
            model,
            executor,
            variant,
            faults,
            trace,
        } = self;
        let proto = Arc::new(network);
        let mut ranks = spawn_ranks(world, model, move |ctx| -> Result<RankReport> {
            let rank = ctx.rank;
            let mut exec = Engine::builder(proto.clone_structure())
                .executor(executor)
                .build()?
                .into_inner()?;
            let mut sampler = ShardedSampler::new(dataset.clone(), batch, rank, world, true, seed);
            let mut comm: Box<dyn Communicator> = match &faults {
                Some(plan) => Box::new(FaultyCommunicator::new(ctx.comm, plan.clone(), model)),
                None => Box::new(ctx.comm),
            };
            if let Some(recorder) = &trace {
                comm = Box::new(TracingCommunicator::new(
                    comm,
                    recorder.sink(format!("rank{rank}")),
                ));
            }
            let mut opt = variant.build(lr, comm);
            let mut losses = Vec::with_capacity(steps);
            let mut status = RankStatus::Completed;
            for step in 0..steps {
                match opt.begin_step(step as u64) {
                    Ok(()) => {}
                    Err(CommError::RankDead(r)) if r == rank => {
                        status = RankStatus::Crashed { at_step: step };
                        break;
                    }
                    Err(e) => {
                        status = RankStatus::Failed(e.to_string());
                        break;
                    }
                }
                let mb = match sampler.next_batch()? {
                    Some(mb) => mb,
                    None => {
                        sampler.reset_epoch();
                        sampler.next_batch()?.ok_or_else(|| {
                            Error::Invalid("empty shard: world too large for dataset".into())
                        })?
                    }
                };
                let t = std::time::Instant::now();
                match opt.train_step(exec.as_mut(), &mb) {
                    Ok(result) => {
                        // Charge the measured local compute to the virtual
                        // clock (straggler plans stretch it); the
                        // communicator already charged the communication.
                        opt.advance_virtual(t.elapsed().as_secs_f64());
                        losses.push(result.loss);
                    }
                    Err(e) => {
                        status = RankStatus::Failed(e.to_string());
                        break;
                    }
                }
            }
            let final_params = exec
                .network()
                .get_params()
                .iter()
                .map(|p| Ok((p.clone(), exec.network().fetch_tensor(p)?.data().to_vec())))
                .collect::<Result<Vec<_>>>()?;
            Ok(RankReport {
                rank,
                status,
                losses,
                final_params,
                volume: opt.comm_stats(),
                virtual_time: opt.virtual_time(),
                faults: opt.fault_stats(),
                op_attribution: exec.op_attribution(),
            })
        })?;
        ranks.sort_by_key(|r| r.rank);
        Ok(RunReport { ranks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizers::dsgd::ConsistentDecentralized;
    use deep500_data::synthetic::SyntheticDataset;
    use deep500_graph::models;
    use deep500_train::optimizer::train_step;

    fn dataset(n: usize) -> Arc<dyn Dataset> {
        Arc::new(SyntheticDataset::new(
            "dist",
            deep500_tensor::Shape::new(&[8]),
            3,
            n,
            0.3,
            42,
        ))
    }

    fn net() -> Network {
        models::mlp(8, &[8], 3, 7).unwrap()
    }

    #[test]
    fn ranks_default_to_the_plan_interpreter() {
        let runner = DistributedRunner::new(&net(), dataset(16));
        assert_eq!(runner.executor, ExecutorKind::Planned);
        // Else `executor_parity` would compare the default with itself.
        let oracle = runner.executor(ExecutorKind::Reference);
        assert_eq!(oracle.executor, ExecutorKind::Reference);
    }

    #[test]
    fn spawn_ranks_propagates_errors() {
        let r: Result<Vec<()>> = spawn_ranks(2, NetworkModel::instant(), |ctx| {
            if ctx.rank == 1 {
                Err(Error::Invalid("boom".into()))
            } else {
                // Rank 0 must not deadlock waiting on rank 1.
                Ok(())
            }
        });
        assert!(r.is_err());
    }

    /// The Level-3 exactness check: consistent-decentralized SGD over N
    /// ranks with per-rank batch b equals sequential SGD with batch N·b.
    #[test]
    fn dsgd_matches_sequential_large_batch() {
        let world = 4usize;
        let per_rank_batch = 4usize;
        let steps = 3usize;
        let ds = dataset(256);

        // Distributed run (unshuffled shards for a reproducible union).
        let proto = net();
        let proto2 = Arc::new(proto.clone_structure());
        let ds2 = ds.clone();
        let results = spawn_ranks(world, NetworkModel::instant(), move |ctx| {
            let mut executor = Engine::builder(proto2.clone_structure())
                .build()?
                .into_inner()?;
            let mut sampler = ShardedSampler::new(
                ds2.clone(),
                per_rank_batch,
                ctx.rank,
                world,
                false, // no shuffle: shard k-th batch = strided indices
                0,
            );
            let mut opt = ConsistentDecentralized::optimized(
                Box::new(GradientDescent::new(0.1)),
                Box::new(ctx.comm),
            );
            for _ in 0..steps {
                let mb = sampler.next_batch()?.expect("enough data");
                opt.train_step(&mut *executor, &mb)?;
            }
            executor
                .network()
                .get_params()
                .iter()
                .map(|p| Ok(executor.network().fetch_tensor(p)?.data().to_vec()))
                .collect::<Result<Vec<_>>>()
        })
        .unwrap();

        // Sequential run with the union batches (same samples, same order
        // by construction of the strided shards).
        let mut executor = Engine::builder(proto)
            .build()
            .unwrap()
            .into_inner()
            .unwrap();
        let mut opt = GradientDescent::new(0.1);
        for step in 0..steps {
            // Union of all ranks' step-th batches: global indices
            // rank + world * (step*b + j).
            let mut indices = Vec::new();
            for rank in 0..world {
                for j in 0..per_rank_batch {
                    indices.push(rank + world * (step * per_rank_batch + j));
                }
            }
            let mb = deep500_data::dataset::assemble_minibatch(ds.as_ref(), &indices).unwrap();
            train_step(&mut opt, &mut *executor, &mb).unwrap();
        }
        let seq_params: Vec<Vec<f32>> = executor
            .network()
            .get_params()
            .iter()
            .map(|p| executor.network().fetch_tensor(p).unwrap().data().to_vec())
            .collect();

        for rank_params in &results {
            for (dist, seq) in rank_params.iter().zip(&seq_params) {
                for (a, b) in dist.iter().zip(seq) {
                    assert!((a - b).abs() < 5e-4, "distributed {a} vs sequential {b}");
                }
            }
        }
    }

    #[test]
    fn synchronous_variants_keep_ranks_consistent() {
        for variant in [Variant::RefDsgd, Variant::Horovod, Variant::Pssgd] {
            let name = variant.name();
            let report = DistributedRunner::new(&net(), dataset(128))
                .world(4)
                .batch(4)
                .steps(3)
                .seed(1)
                .learning_rate(0.05)
                .variant(variant)
                .run()
                .unwrap();
            assert!(report.all_completed(), "{name}: all ranks complete");
            let consistency = report.consistency(1e-5);
            assert!(consistency.is_consistent(), "{name}: {consistency}");
            assert!(report.ranks.iter().all(|r| r.volume.bytes_sent > 0));
            assert_eq!(report.faults(), FaultCounters::default());
        }
    }

    #[test]
    fn traced_run_records_per_rank_spans_and_attribution() {
        let recorder = TraceRecorder::new();
        let report = DistributedRunner::new(&net(), dataset(128))
            .world(2)
            .batch(4)
            .steps(3)
            .variant(Variant::Cdsgd)
            .trace(&recorder)
            .run()
            .unwrap();
        assert!(report.all_completed());
        // One communication track per rank, with byte-carrying spans.
        let tracks = recorder.tracks();
        for rank in 0..2 {
            let name = format!("rank{rank}");
            let (_, spans) = tracks
                .iter()
                .find(|(t, _)| *t == name)
                .unwrap_or_else(|| panic!("missing track {name}: {tracks:?}"));
            assert!(!spans.is_empty(), "{name} has spans");
            assert!(
                spans
                    .iter()
                    .all(|s| s.phase == deep500_metrics::Phase::Communication),
                "{name} holds communication spans only"
            );
            assert!(spans.iter().any(|s| s.bytes > 0), "{name} carries bytes");
        }
        // Every rank's executor attributed its operator time, and the
        // run-level fold sums calls across ranks.
        let per_rank_fwd: usize = report.ranks[0]
            .op_attribution
            .iter()
            .map(|r| r.forward_calls)
            .sum();
        assert!(per_rank_fwd > 0, "rank 0 attributed forward calls");
        let merged = report.op_attribution();
        assert!(!merged.is_empty());
        let merged_fwd: usize = merged.iter().map(|r| r.forward_calls).sum();
        assert_eq!(merged_fwd, 2 * per_rank_fwd, "fold sums across ranks");
    }

    #[test]
    fn pssgd_matches_dsgd_trajectory() {
        // Both are synchronous averaging schemes: same math, same params.
        let mk = |variant: Variant| {
            DistributedRunner::new(&net(), dataset(128))
                .world(4)
                .batch(4)
                .steps(3)
                .seed(9)
                .learning_rate(0.1)
                .variant(variant)
                .run()
                .unwrap()
        };
        let ps = mk(Variant::Pssgd);
        let ds = mk(Variant::Cdsgd);
        for ((n1, a), (n2, b)) in ps.ranks[0]
            .final_params
            .iter()
            .zip(&ds.ranks[0].final_params)
        {
            assert_eq!(n1, n2);
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-4, "{n1}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn ps_volume_scales_with_world_but_dsgd_does_not() {
        let vol = |variant: Variant, world: usize| -> u64 {
            let report = DistributedRunner::new(&net(), dataset(256))
                .world(world)
                .batch(2)
                .steps(2)
                .seed(3)
                .variant(variant)
                .run()
                .unwrap();
            report.ranks[0].volume.bytes_sent + report.ranks[0].volume.bytes_received
        };
        // PS rank-0 traffic roughly doubles from 3 to 6 workers.
        let ps3 = vol(Variant::Pssgd, 3);
        let ps6 = vol(Variant::Pssgd, 6);
        assert!(ps6 as f64 > ps3 as f64 * 1.8, "ps {ps3} -> {ps6}");
        // Ring allreduce per-rank traffic is ~constant (2(n-1)/n·S).
        let d3 = vol(Variant::Cdsgd, 3);
        let d6 = vol(Variant::Cdsgd, 6);
        assert!(
            (d6 as f64) < (d3 as f64) * 1.4,
            "dsgd {d3} -> {d6} should stay flat"
        );
    }

    #[test]
    fn gossip_and_mavg_and_sparse_run_and_learn() {
        // Smoke + loss-decrease check for the remaining schemes.
        for variant in [
            Variant::Dpsgd,
            Variant::Mavg { period: 2 },
            Variant::SparCml { density: 0.25 },
        ] {
            let name = variant.name();
            let report = DistributedRunner::new(&net(), dataset(512))
                .world(4)
                .batch(8)
                .steps(40)
                .seed(5)
                .variant(variant)
                .network(NetworkModel::aries())
                .run()
                .unwrap();
            assert!(report.all_completed(), "{name}");
            for r in &report.ranks {
                // Noisy minibatch losses: compare head/tail averages.
                let head: f32 = r.losses[..5].iter().sum::<f32>() / 5.0;
                let tail: f32 = r.losses[r.losses.len() - 5..].iter().sum::<f32>() / 5.0;
                assert!(tail < head, "{name} rank {}: loss {head} -> {tail}", r.rank);
                assert!(r.virtual_time > 0.0, "{name}: virtual time tracked");
            }
        }
    }

    #[test]
    fn consistency_report_names_the_divergence() {
        type Params = Vec<(String, Vec<f32>)>;
        let mk = |v: f32| -> Params { vec![("w".into(), vec![1.0, v])] };
        let check = |ranks: &[(usize, Params)]| {
            consistency_over(ranks.iter().map(|(r, p)| (*r, p.as_slice())), 1e-6)
        };
        let good = check(&[(0, mk(2.0)), (1, mk(2.0))]);
        assert!(good.is_consistent());
        let bad = check(&[(0, mk(2.0)), (1, mk(2.5))]);
        assert!(!bad.is_consistent());
        assert_eq!(bad.divergences.len(), 1);
        let d = &bad.divergences[0];
        assert_eq!((d.rank, d.reference_rank, d.index), (1, 0, 1));
        assert_eq!(d.param, "w");
        let msg = format!("{bad}");
        assert!(msg.contains("'w'[1]"), "{msg}");
        assert!(msg.contains("INCONSISTENT"), "{msg}");
        // Structural mismatches are diagnosed, not panicked on.
        let odd: Params = vec![("b".into(), vec![0.0])];
        let mixed = check(&[(0, mk(2.0)), (2, odd)]);
        assert!(!mixed.is_consistent());
        assert!(!mixed.structural.is_empty());
    }

    #[test]
    fn a_nan_parameter_is_a_divergence_at_any_tolerance() {
        type Params = Vec<(String, Vec<f32>)>;
        let mk = |v: f32| -> Params { vec![("w".into(), vec![1.0, v])] };
        let check = |ranks: &[(usize, Params)], tol: f32| {
            consistency_over(ranks.iter().map(|(r, p)| (*r, p.as_slice())), tol)
        };
        for pair in [
            [(0, mk(2.0)), (1, mk(f32::NAN))],
            [(0, mk(f32::NAN)), (1, mk(2.0))],
            [(0, mk(f32::NAN)), (1, mk(f32::NAN))],
        ] {
            for tol in [0.0, 1.0, f32::INFINITY] {
                let report = check(&pair, tol);
                assert!(!report.is_consistent(), "tol {tol}: {report}");
                assert_eq!(report.divergences.len(), 1);
                assert!(report.max_abs_diff.is_nan(), "{report}");
            }
        }
        // Equal values agree at `tol = 0`, matching infinities included.
        let inf = check(&[(0, mk(f32::INFINITY)), (1, mk(f32::INFINITY))], 0.0);
        assert!(inf.is_consistent(), "{inf}");
        assert_eq!(inf.max_abs_diff, 0.0);
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let mut runner = DistributedRunner::new(&net(), dataset(128))
                .world(4)
                .batch(4)
                .steps(3)
                .seed(7)
                .variant(Variant::Cdsgd);
            if let Some(p) = plan {
                runner = runner.faults(p);
            }
            runner.run().unwrap()
        };
        let plain = run(None);
        let wrapped = run(Some(FaultPlan::seeded(123)));
        assert!(wrapped.all_completed());
        assert_eq!(wrapped.faults(), FaultCounters::default());
        for (a, b) in plain.ranks.iter().zip(&wrapped.ranks) {
            assert_eq!(a.losses, b.losses, "losses must be bit-identical");
            for ((n1, v1), (n2, v2)) in a.final_params.iter().zip(&b.final_params) {
                assert_eq!(n1, n2);
                assert_eq!(v1, v2, "params must be bit-identical ({n1})");
            }
        }
    }
}
