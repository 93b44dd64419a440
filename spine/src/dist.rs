//! `dist-mlp-dp2`: two-rank data-parallel SGD through `DistributedRunner`
//! on the thread transport.
//!
//! `DistributedRunner::run` reports losses but no per-step times, so the
//! ranks train with [`TimedCdsgd`]: the very optimizer `Variant::Cdsgd`
//! builds (`ConsistentDecentralized::optimized` over `GradientDescent`),
//! wrapped to stamp the clock in `begin_step`. The wrapper lives here, in
//! the spine; nothing in `dist` changes.

use crate::consts::*;
use crate::loadgen::Tally;
use crate::model::{Feed, Model};
use crate::probes;
use crate::report::Metrics;
use crate::span::Track;
use crate::stats::{median, quiet_quartile, windowed, Better};
use crate::{Outcome, RunArgs};
use deep500::data::sampler::ShardedSampler;
use deep500::data::synthetic::SyntheticDataset;
use deep500::data::{Dataset, DatasetSampler, Minibatch};
use deep500::dist::collectives::allreduce_ring;
use deep500::dist::optimizers::dsgd::ConsistentDecentralized;
use deep500::dist::optimizers::DistributedOptimizer;
use deep500::dist::{
    CommResult, Communicator, DistributedRunner, NetworkModel, RunReport, ThreadTransport, Variant,
};
use deep500::graph::{Engine, ExecutorKind, GraphExecutor, Network};
use deep500::metrics::{CommunicationVolume, FaultCounters};
use deep500::tensor::{Shape, Tensor, Xoshiro256StarStar};
use deep500::train::sgd::GradientDescent;
use deep500::train::{train_step, StepResult};
use deep500::verify;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one rank's wrapper observed during one `run()`.
struct RankLog {
    rank: usize,
    /// `begin_step` instants, closed by the instant `comm_stats` was read
    /// (right after the last step).
    stamps: Vec<Instant>,
    /// `(start, end)` around the inner `train_step` (traced runs only).
    train: Vec<(Instant, Instant)>,
}

type Sink = Arc<Mutex<Vec<RankLog>>>;

/// `Variant::Cdsgd`'s optimizer plus clock stamps.
struct TimedCdsgd {
    inner: ConsistentDecentralized,
    log: RankLog,
    end: Cell<Option<Instant>>,
    traced: bool,
    sink: Sink,
}

impl DistributedOptimizer for TimedCdsgd {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> deep500::tensor::Result<StepResult> {
        if !self.traced {
            return self.inner.train_step(executor, batch);
        }
        let t0 = Instant::now();
        let result = self.inner.train_step(executor, batch);
        self.log.train.push((t0, Instant::now()));
        result
    }
    fn comm_stats(&self) -> CommunicationVolume {
        self.end.set(Some(Instant::now()));
        self.inner.comm_stats()
    }
    fn virtual_time(&self) -> f64 {
        self.inner.virtual_time()
    }
    fn begin_step(&mut self, step: u64) -> CommResult<()> {
        self.log.stamps.push(Instant::now());
        self.inner.begin_step(step)
    }
    fn advance_virtual(&mut self, seconds: f64) {
        self.inner.advance_virtual(seconds)
    }
    fn fault_stats(&self) -> FaultCounters {
        self.inner.fault_stats()
    }
}

impl Drop for TimedCdsgd {
    fn drop(&mut self) {
        self.log.stamps.extend(self.end.get());
        let log = std::mem::replace(
            &mut self.log,
            RankLog {
                rank: 0,
                stamps: Vec::new(),
                train: Vec::new(),
            },
        );
        // A poisoned sink only means another rank panicked; the run fails
        // on that panic, not here.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(log);
        }
    }
}

fn dataset(seed: u64) -> Arc<dyn Dataset> {
    Arc::new(SyntheticDataset::new(
        "spine-dist",
        Shape::new(&[DIST_FEATURES]),
        DIST_CLASSES,
        DIST_DATASET,
        DIST_NOISE,
        seed,
    ))
}

/// One `DistributedRunner::run` of `steps` steps from the initial weights.
struct Chunk {
    report: RunReport,
    wall_s: f64,
    /// Per-rank logs, sorted by rank.
    logs: Vec<RankLog>,
}

fn run_chunk(
    net: &Network,
    data: &Arc<dyn Dataset>,
    seed: u64,
    steps: usize,
    traced: bool,
) -> Chunk {
    let sink: Sink = Arc::default();
    let factory_sink = sink.clone();
    let variant = Variant::Custom(
        "CDSGD",
        Arc::new(
            move |comm: Box<dyn Communicator>| -> Box<dyn DistributedOptimizer> {
                Box::new(TimedCdsgd {
                    log: RankLog {
                        rank: comm.rank(),
                        stamps: Vec::with_capacity(steps + 1),
                        train: Vec::new(),
                    },
                    inner: ConsistentDecentralized::optimized(
                        Box::new(GradientDescent::new(DIST_LR)),
                        comm,
                    ),
                    end: Cell::new(None),
                    traced,
                    sink: factory_sink.clone(),
                })
            },
        ),
    );
    let t = Instant::now();
    let report = DistributedRunner::new(net, data.clone())
        .world(DIST_WORLD)
        .batch(DIST_BATCH)
        .steps(steps)
        .seed(seed)
        .learning_rate(DIST_LR)
        .variant(variant)
        .run()
        .expect("distributed run");
    let wall_s = t.elapsed().as_secs_f64();
    let mut logs = std::mem::take(&mut *sink.lock().expect("rank logs"));
    logs.sort_by_key(|l| l.rank);
    Chunk {
        report,
        wall_s,
        logs,
    }
}

/// Model bytes and dataset seed to a completed first short run: decode,
/// verifier gate, dataset build, rank spawn + engine builds + first steps.
fn setup(model: &Model, seed: u64) -> (Network, Arc<dyn Dataset>) {
    let net = model.decode();
    verify::gate_with_inputs(&net.to_ir(), &model.input_shapes(DIST_BATCH))
        .expect("model passes the gate");
    let data = dataset(seed);
    run_chunk(&net, &data, seed, DIST_SETUP_STEPS, false);
    (net, data)
}

/// Step times (ms) of one rank: gaps between consecutive stamps.
fn step_ms(log: &RankLog) -> impl Iterator<Item = f64> + '_ {
    log.stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
}

/// Rank 0's shard batch joined with rank 1's: the global minibatch of one
/// step.
fn union_batch(samplers: &mut [ShardedSampler]) -> Minibatch {
    let parts: Vec<Minibatch> = samplers
        .iter_mut()
        .map(|s| loop {
            match s.next_batch().expect("sampling") {
                Some(mb) => break mb,
                None => s.reset_epoch(),
            }
        })
        .collect();
    let xs: Vec<Tensor> = parts.iter().map(|p| p.x.clone()).collect();
    let labels: Vec<Tensor> = parts.iter().map(|p| p.labels.clone()).collect();
    Minibatch {
        x: Tensor::concat_axis0(&xs).expect("same sample shape"),
        labels: Tensor::concat_axis0(&labels).expect("labels concatenate"),
    }
}

fn shard_samplers(data: &Arc<dyn Dataset>, seed: u64) -> Vec<ShardedSampler> {
    (0..DIST_WORLD)
        .map(|rank| ShardedSampler::new(data.clone(), DIST_BATCH, rank, DIST_WORLD, true, seed))
        .collect()
}

/// Sequential large-batch SGD over the union of the shards: what
/// consistent decentralized SGD must equal up to float rounding. Returns
/// the loss of each step.
fn sequential_losses(model: &Model, data: &Arc<dyn Dataset>, seed: u64, steps: usize) -> Vec<f32> {
    let engine = Engine::builder(model.decode())
        .executor(ExecutorKind::Reference)
        .build()
        .expect("reference engine");
    let mut guard = engine.lock();
    let mut opt = GradientDescent::new(DIST_LR);
    let mut samplers = shard_samplers(data, seed);
    (0..steps)
        .map(|_| {
            train_step(&mut opt, guard.executor(), &union_batch(&mut samplers))
                .expect("sequential step")
                .loss
        })
        .collect()
}

/// Median seconds of a solo (one-rank, no exchange) step on the rank-0
/// shard, sampling included.
fn solo_step_s(
    model: &Model,
    data: &Arc<dyn Dataset>,
    seed: u64,
    steps: usize,
    track: &mut Track,
) -> f64 {
    let engine = Engine::builder(model.decode())
        .executor(ExecutorKind::Reference)
        .build()
        .expect("solo engine");
    let mut guard = engine.lock();
    let mut opt = GradientDescent::new(DIST_LR);
    let mut samplers = shard_samplers(data, seed);
    samplers.truncate(1);
    let times: Vec<f64> = (0..steps as u64)
        .map(|id| {
            let t0 = Instant::now();
            let batch = union_batch(&mut samplers);
            let t1 = Instant::now();
            train_step(&mut opt, guard.executor(), &batch).expect("solo step");
            let t2 = Instant::now();
            let root = track.push("spine.solo_step", id, t0, t2, None);
            track.push("data.next_batch", id, t0, t1, root);
            track.push("train.train_step", id, t1, t2, root);
            (t2 - t0).as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median microseconds of a two-rank ring allreduce over a gradient-sized
/// buffer on the thread transport.
fn allreduce_us(elements: usize) -> f64 {
    const ROUNDS: usize = 200;
    let comms = ThreadTransport::create(DIST_WORLD, NetworkModel::instant());
    let times: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                s.spawn(move || {
                    let mut buf = vec![1.0f32; elements];
                    (0..ROUNDS)
                        .map(|_| {
                            let t = Instant::now();
                            allreduce_ring(&mut comm, &mut buf).expect("allreduce");
                            t.elapsed().as_secs_f64()
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("allreduce rank"))
            .collect()
    });
    median(&times[0]) * 1e6
}

pub fn run(args: &RunArgs) -> Outcome {
    let model = Model::dist_mlp();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        built = Some(setup(&model, args.seed));
        times.push(t.elapsed().as_secs_f64());
    }
    let (net, data) = built.expect("SETUP_REPEATS > 0");
    let mut m = Metrics::default();
    m.set("setup_s", quiet_quartile(&times, Better::Lower));

    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < WARMUP_S {
        run_chunk(&net, &data, args.seed, DIST_CHUNK_STEPS / 4, false);
    }

    let epoch = Instant::now();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut chunks = Vec::new();
    let mut rss_mb = None;
    while epoch.elapsed().as_secs_f64() < seconds {
        chunks.push(run_chunk(
            &net,
            &data,
            args.seed,
            DIST_CHUNK_STEPS,
            args.trace,
        ));
        if chunks.len() == DIST_RSS_AT {
            rss_mb = Some(crate::peak_rss_mb());
        }
    }

    // Each run is one window: its wall time (rank spawn and engine builds
    // included) and rank 0's step times.
    let global_batch = (DIST_BATCH * DIST_WORLD) as f64;
    let w = windowed(
        chunks
            .iter()
            .map(|c| (c.wall_s, step_ms(&c.logs[0]).collect()))
            .collect(),
        global_batch,
    );
    let mut notes = vec![format!(
        "{} runs of {} steps x {} global samples in {:.2} s; quiet quartile over runs, step tail is \
         p{:.2}",
        chunks.len(),
        DIST_CHUNK_STEPS,
        global_batch,
        chunks.iter().map(|c| c.wall_s).sum::<f64>(),
        w.tail_percentile
    )];

    let mut tracks = Vec::new();
    if args.trace {
        m.set("spine.traced_throughput_per_s", w.rate);
        m.set("spine.traced_latency_p50_ms", w.p50);
        m.set("spine.latency_samples", w.samples as f64);
        m.set("spine.tail_percentile", w.tail_percentile);
        let volume = chunks[0].report.volume();
        m.set(
            "dist.bytes_per_step",
            volume.bytes_sent as f64 / DIST_CHUNK_STEPS as f64,
        );
        m.set(
            "dist.msgs_per_step",
            volume.messages_sent as f64 / DIST_CHUNK_STEPS as f64,
        );
        let skew: Vec<f64> = chunks
            .iter()
            .flat_map(|c| {
                c.logs[0]
                    .stamps
                    .iter()
                    .zip(&c.logs[1].stamps)
                    .map(|(&a, &b)| {
                        let (a, b) = (a.min(b), a.max(b));
                        (b - a).as_secs_f64() * 1e6
                    })
            })
            .collect();
        m.set("dist.rank_skew_us", median(&skew));
        for (rank, name) in ["rank0", "rank1"].into_iter().enumerate() {
            let mut track = Track::new(name, epoch, SPAN_CAP);
            for c in &chunks {
                let log = &c.logs[rank];
                for (id, (w, &(t0, t1))) in log.stamps.windows(2).zip(&log.train).enumerate() {
                    let root = track.push("dist.step", id as u64, w[0], w[1], None);
                    track.push("dist.train_step", id as u64, t0, t1, root);
                }
            }
            tracks.push(track);
        }
        let mut solo = Track::new("solo baseline", epoch, SPAN_CAP);
        let solo_s = solo_step_s(&model, &data, args.seed, 2 * DIST_CHUNK_STEPS, &mut solo);
        m.set("dist.comm_share", 1.0 - solo_s * 1e3 / w.p50);
        notes.push(format!(
            "solo step {:.1} us vs distributed step {:.1} us",
            solo_s * 1e6,
            w.p50 * 1e3
        ));
        tracks.push(solo);
        let elements: usize = net
            .get_params()
            .iter()
            .map(|p| net.fetch_tensor(p).expect("param").numel())
            .sum();
        m.set("dist.allreduce_us", allreduce_us(elements));
        let mut rng = Xoshiro256StarStar::seed_from_u64(args.seed ^ 0x5EED);
        let feeds: Vec<Feed> = (0..64).map(|_| model.feed(&mut rng, DIST_BATCH)).collect();
        let mut probe = Track::new("probe engine", epoch, SPAN_CAP);
        probes::setup_layers(&model, ExecutorKind::Reference, DIST_BATCH, &mut m);
        probes::pass_layers(
            &model,
            ExecutorKind::Reference,
            &feeds,
            None,
            true,
            &mut probe,
            &mut m,
        );
        probes::kernel_layers(&model, &feeds[0], true, &mut m);
        probes::roofline(DIST_WORLD, &mut m);
        tracks.push(probe);
    } else {
        m.set("throughput_per_s", w.rate);
        m.set("latency_p50_ms", w.p50);
        m.set("latency_p99_ms", w.tail);
        m.set("peak_rss_mb", rss_mb.unwrap_or_else(crate::peak_rss_mb));
    }

    // Oracle. Every run repeats the same computation, so all must report
    // the first run's losses bit for bit; the ranks must end bit-identical;
    // and the loss trajectory must follow sequential SGD on the union batch
    // (equal up to float rounding, so compared within the golden tolerance).
    let first = &chunks[0].report;
    let rank_losses = |c: &Chunk| -> Vec<Vec<u32>> {
        c.report
            .ranks
            .iter()
            .map(|r| r.losses.iter().map(|l| l.to_bits()).collect())
            .collect()
    };
    let reruns_differ = chunks
        .iter()
        .filter(|c| rank_losses(c) != rank_losses(&chunks[0]))
        .count();
    let sequential = sequential_losses(&model, &data, args.seed, ORACLE_STEPS);
    let mean_loss =
        |step: usize| first.ranks.iter().map(|r| r.losses[step]).sum::<f32>() / DIST_WORLD as f32;
    let incorrect = (0..ORACLE_STEPS)
        .filter(|&s| (mean_loss(s) - sequential[s]).abs() > GOLDEN_TOL)
        .count() as u64;
    let consistent = first.consistency(0.0).is_consistent();
    let completed = chunks.iter().all(|c| c.report.all_completed());
    notes.push(format!(
        "oracle: {ORACLE_STEPS} steps vs sequential SGD on the union batch, {incorrect} beyond \
         {GOLDEN_TOL}; ranks bit-identical: {consistent}; all ranks completed: {completed}; \
         reruns differing from the first: {reruns_differ}"
    ));
    let attempted = (chunks.len() * DIST_CHUNK_STEPS) as u64;
    let failed = chunks
        .iter()
        .flat_map(|c| &c.report.ranks)
        .map(|r| (DIST_CHUNK_STEPS - r.losses.len()) as u64)
        .sum();
    Outcome {
        metrics: m,
        tally: Tally {
            attempted,
            failed,
            incorrect,
            ..Tally::default()
        },
        checks_ok: consistent && completed && reruns_differ == 0,
        golden: vec![
            first.ranks[0].losses[0],
            first.ranks[0].losses[ORACLE_STEPS - 1],
        ],
        tracks,
        notes,
    }
}
