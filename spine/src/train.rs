//! `train-cnn`: `TrainingRunner::run` over LeNet on the pooled wavefront
//! executor with Adam and a shuffling sampler.

use crate::consts::*;
use crate::loadgen::Tally;
use crate::model::{Feed, Model};
use crate::probes;
use crate::report::Metrics;
use crate::span::Track;
use crate::stats::{median, quiet_quartile, windowed, Better};
use crate::{Outcome, RunArgs};
use deep500::data::sampler::ShuffleSampler;
use deep500::data::synthetic::SyntheticDataset;
use deep500::data::{Dataset, DatasetSampler};
use deep500::graph::{grad_name, Engine, ExecutorKind};
use deep500::metrics::event::{Event, Phase, SharedEvent, StopAfterIterations};
use deep500::tensor::{Shape, Xoshiro256StarStar};
use deep500::train::adam::Adam;
use deep500::train::{train_step, ThreeStepOptimizer, TrainingConfig, TrainingRunner};
use deep500::verify;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one training run owns.
struct Rig {
    engine: Engine,
    optimizer: Adam,
    sampler: ShuffleSampler,
}

fn dataset(seed: u64) -> Arc<dyn Dataset> {
    Arc::new(SyntheticDataset::new(
        "spine-train",
        Shape::new(&[TRAIN_IN_C, TRAIN_HW, TRAIN_HW]),
        TRAIN_CLASSES,
        TRAIN_DATASET,
        TRAIN_NOISE,
        seed,
    ))
}

fn runner(hook: Box<dyn Event>) -> TrainingRunner {
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: usize::MAX,
        ..TrainingConfig::default()
    });
    runner.add_event(hook);
    runner
}

/// Step losses of `steps` runner-driven steps on `rig`.
fn run_steps(rig: &mut Rig, steps: usize) -> Vec<f32> {
    let log = runner(Box::new(StopAfterIterations::new(steps)))
        .run(
            &mut rig.optimizer,
            rig.engine.lock().executor(),
            &mut rig.sampler,
            None,
        )
        .expect("training steps run");
    log.step_losses.into_iter().map(|(_, l)| l).collect()
}

/// Model bytes and dataset seed to a rig that has taken its first
/// `TRAIN_SETUP_STEPS` steps: decode, verifier gate, engine build, dataset
/// and sampler build, first steps (pool fill, filter packing).
fn setup(model: &Model, seed: u64, kind: ExecutorKind) -> Rig {
    let net = model.decode();
    verify::gate_with_inputs(&net.to_ir(), &model.input_shapes(TRAIN_BATCH))
        .expect("model passes the gate");
    let engine = Engine::builder(net)
        .executor(kind)
        .build()
        .expect("engine builds");
    let mut rig = Rig {
        engine,
        optimizer: Adam::new(TRAIN_LR),
        sampler: ShuffleSampler::new(dataset(seed), TRAIN_BATCH, seed),
    };
    run_steps(&mut rig, TRAIN_SETUP_STEPS);
    rig
}

/// The spine's hook on a timed `TrainingRunner::run`: ends the session at
/// its deadline, reads the peak RSS after a fixed number of steps, and — in
/// a traced run — records the runner's own phase events as spans.
struct StepHook {
    deadline: Instant,
    /// Timed steps taken by earlier sessions of the run.
    steps_before: usize,
    rss_mb: Option<f64>,
    /// `Some` in a traced run.
    track: Option<Track>,
    sampling: Option<Instant>,
    /// Start and span index of the iteration in progress.
    iteration: Option<(Instant, Option<u32>)>,
}

impl StepHook {
    fn until(deadline: Instant) -> StepHook {
        StepHook {
            deadline,
            steps_before: 0,
            rss_mb: None,
            track: None,
            sampling: None,
            iteration: None,
        }
    }
}

impl Event for StepHook {
    fn begin(&mut self, phase: Phase, id: usize) {
        let Some(track) = self.track.as_mut() else {
            return;
        };
        let now = Instant::now();
        match phase {
            Phase::Sampling => self.sampling = Some(now),
            Phase::Iteration => {
                let span = track.push("train.step", id as u64, now, now, None);
                self.iteration = Some((now, span));
            }
            _ => {}
        }
    }

    fn end(&mut self, phase: Phase, id: usize) {
        if phase == Phase::Iteration && self.steps_before + id + 1 == TRAIN_RSS_AT {
            self.rss_mb = Some(crate::peak_rss_mb());
        }
        let Some(track) = self.track.as_mut() else {
            return;
        };
        let now = Instant::now();
        match phase {
            Phase::Sampling => {
                if let Some(t0) = self.sampling.take() {
                    track.push("data.next_batch", id as u64, t0, now, None);
                }
            }
            Phase::Iteration => {
                if let Some((_, span)) = self.iteration.take() {
                    track.close(span, now);
                }
            }
            _ => {}
        }
    }

    /// Duration-only spans from `train_step_traced`: batch assembly starts
    /// the iteration, the optimizer update ends now.
    fn span(&mut self, phase: Phase, id: usize, seconds: f64) {
        let (Some(track), Some((t0, step))) = (self.track.as_mut(), self.iteration) else {
            return;
        };
        let d = Duration::from_secs_f64(seconds);
        let now = Instant::now();
        match phase {
            Phase::BatchAssembly => {
                track.push("train.batch_assembly", id as u64, t0, t0 + d, step);
            }
            Phase::OptimizerUpdate => {
                track.push("train.opt_update", id as u64, now - d, now, step);
            }
            _ => {}
        }
    }

    fn should_stop(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

/// Per-step wall times (s) from the runner's `(elapsed, loss)` log.
fn step_times(elapsed: &[f64]) -> Vec<f64> {
    std::iter::once(0.0)
        .chain(elapsed.iter().copied())
        .zip(elapsed.iter().copied())
        .map(|(a, b)| b - a)
        .collect()
}

/// The spine's own step loop over `train_step` until `until`: seconds
/// spent fetching each batch and on each whole step (traced run only).
fn own_loop(rig: &mut Rig, until: Instant, track: &mut Track) -> (Vec<f64>, Vec<f64>) {
    let (mut fetch, mut step) = (Vec::new(), Vec::new());
    let mut guard = rig.engine.lock();
    while Instant::now() < until {
        let t0 = Instant::now();
        let batch = match rig.sampler.next_batch().expect("sampling") {
            Some(b) => b,
            None => {
                rig.sampler.reset_epoch();
                continue;
            }
        };
        let t1 = Instant::now();
        train_step(&mut rig.optimizer, guard.executor(), &batch).expect("own-loop step");
        let t2 = Instant::now();
        let id = track.spans.len() as u64;
        let root = track.push("spine.own_step", id, t0, t2, None);
        track.push("data.next_batch", id, t0, t1, root);
        track.push("train.train_step", id, t1, t2, root);
        fetch.push((t1 - t0).as_secs_f64());
        step.push((t2 - t0).as_secs_f64());
    }
    (fetch, step)
}

/// Phases of a step, each called directly: forward alone, forward +
/// backward, and the update sweep (weights are left untouched so every
/// repeat sees the same work).
fn phase_layers(rig: &mut Rig, m: &mut Metrics) {
    let batch = loop {
        match rig.sampler.next_batch().expect("sampling") {
            Some(b) => break b,
            None => rig.sampler.reset_epoch(),
        }
    };
    let mut guard = rig.engine.lock();
    let exec = guard.executor();
    let (mut fwd, mut both, mut update) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..24 {
        let t = Instant::now();
        exec.inference(&batch.feeds()).expect("forward");
        fwd.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        exec.inference_and_backprop(&batch.feeds(), "loss")
            .expect("backprop");
        both.push(t.elapsed().as_secs_f64());
        let params: Vec<String> = exec.network().get_params().to_vec();
        let t = Instant::now();
        for p in &params {
            let grad = exec
                .network()
                .fetch_tensor(&grad_name(p))
                .expect("gradient");
            let old = exec.network().fetch_tensor(p).expect("parameter");
            std::hint::black_box(rig.optimizer.update_rule(grad, old, p).expect("update"));
        }
        update.push(t.elapsed().as_secs_f64());
    }
    m.set("train.fwd_us", median(&fwd) * 1e6);
    m.set(
        "train.bwd_us",
        (median(&both) - median(&fwd)).max(0.0) * 1e6,
    );
    m.set("train.opt_update_us", median(&update) * 1e6);
}

pub fn run(args: &RunArgs) -> Outcome {
    let model = Model::train_cnn();
    let kind = ExecutorKind::Wavefront;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(setup(&model, args.seed, kind));
        times.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("SETUP_REPEATS > 0");
    let mut m = Metrics::default();
    m.set("setup_s", quiet_quartile(&times, Better::Lower));

    // Warm the process (rayon pool, allocator, clocks) on a throwaway rig so
    // the timed rig still starts from the freshly set-up weights.
    {
        let mut scratch = setup(&model, args.seed, kind);
        let hook = StepHook::until(Instant::now() + Duration::from_secs_f64(WARMUP_S));
        runner(Box::new(hook))
            .run(
                &mut scratch.optimizer,
                scratch.engine.lock().executor(),
                &mut scratch.sampler,
                None,
            )
            .expect("warm-up training");
    }

    // The timed region: sessions of `TrainingRunner::run`, each on a fresh
    // thread, continuing with the same engine, optimizer and sampler. In a
    // traced run every session thread spends its last third in the spine's
    // own step loop, so runner and bare loop are compared under the same
    // thread placement.
    let epoch = Instant::now();
    let session = Duration::from_secs_f64(args.seconds / TRAIN_SESSIONS as f64);
    let runner_share = if args.trace { 2.0 / 3.0 } else { 1.0 };
    let mut sessions = Vec::with_capacity(TRAIN_SESSIONS);
    let mut losses: Vec<f32> = Vec::new();
    let mut rss_mb = None;
    let mut track = args
        .trace
        .then(|| Track::new("TrainingRunner", epoch, SPAN_CAP));
    let mut own_track = Track::new("spine step loop", epoch, SPAN_CAP);
    let (mut fetch_s, mut own_step_s, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut epochs = 0;
    for _ in 0..TRAIN_SESSIONS {
        let begin = Instant::now();
        let hook = SharedEvent::new(StepHook {
            steps_before: losses.len(),
            track: track.take(),
            ..StepHook::until(begin + session.mul_f64(runner_share))
        });
        let mut runner = runner(Box::new(hook.clone()));
        let (rig, own_track) = (&mut rig, &mut own_track);
        let trace = args.trace;
        let (log, own) = std::thread::scope(|s| {
            s.spawn(move || {
                let log = runner
                    .run(
                        &mut rig.optimizer,
                        rig.engine.lock().executor(),
                        &mut rig.sampler,
                        None,
                    )
                    .expect("timed training");
                let own = trace.then(|| own_loop(rig, begin + session, own_track));
                (log, own)
            })
            .join()
            .expect("training thread panicked")
        });
        (track, rss_mb) = hook.with(|h| (h.track.take(), rss_mb.or(h.rss_mb)));
        epochs += log.epochs_run;
        let elapsed: Vec<f64> = log.step_losses.iter().map(|&(e, _)| e).collect();
        losses.extend(log.step_losses.iter().map(|&(_, l)| l));
        let steps_s = step_times(&elapsed);
        if let Some((fetch, step)) = own {
            overhead.push(1.0 - median(&step) / median(&steps_s));
            fetch_s.extend(fetch);
            own_step_s.extend(step);
        }
        let steps_ms = steps_s.iter().map(|s| s * 1e3).collect();
        sessions.push((log.total_time, steps_ms));
    }
    let w = windowed(sessions, TRAIN_BATCH as f64);
    let mut notes = vec![format!(
        "{} steps of {} samples over {epochs} epochs in {} sessions; quiet quartile over sessions, step \
         tail is p{:.2}",
        losses.len(),
        TRAIN_BATCH,
        w.sessions,
        w.tail_percentile
    )];
    let mut tracks = Vec::new();
    if let Some(runner_track) = track {
        m.set("spine.traced_throughput_per_s", w.rate);
        m.set("spine.traced_latency_p50_ms", w.p50);
        m.set("spine.latency_samples", w.samples as f64);
        m.set("spine.tail_percentile", w.tail_percentile);
        if let Some(pool) = rig.engine.lock().buffer_pool_stats() {
            m.set(
                "tensor.pool_hit_ratio",
                pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64,
            );
            m.set("tensor.pool_held_bytes", pool.held_bytes as f64);
        }
        m.set("data.batch_fetch_p50_us", median(&fetch_s) * 1e6);
        m.set(
            "data.wait_share",
            fetch_s.iter().sum::<f64>() / own_step_s.iter().sum::<f64>(),
        );
        m.set("train.runner_overhead_share", median(&overhead));
        phase_layers(&mut rig, &mut m);
        let mut rng = Xoshiro256StarStar::seed_from_u64(args.seed ^ 0x5EED);
        let feeds: Vec<Feed> = (0..16).map(|_| model.feed(&mut rng, TRAIN_BATCH)).collect();
        let mut probe = Track::new("probe engine", epoch, SPAN_CAP);
        probes::setup_layers(&model, kind, TRAIN_BATCH, &mut m);
        probes::pass_layers(&model, kind, &feeds, None, true, &mut probe, &mut m);
        probes::kernel_layers(&model, &feeds[0], true, &mut m);
        probes::roofline(2, &mut m);
        tracks.push(runner_track);
        tracks.push(own_track);
        tracks.push(probe);
    } else {
        m.set("throughput_per_s", w.rate);
        m.set("latency_p50_ms", w.p50);
        m.set("latency_p99_ms", w.tail);
        m.set("peak_rss_mb", rss_mb.unwrap_or_else(crate::peak_rss_mb));
    }

    // Oracle: the same call sequence on a fresh reference-tier rig must
    // reproduce the first steps' losses bit for bit.
    let mut reference = setup(&model, args.seed, ExecutorKind::Reference);
    let want = run_steps(&mut reference, ORACLE_STEPS);
    let got = losses;
    let incorrect = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w.to_bits() != g.to_bits())
        .count() as u64;
    notes.push(format!(
        "oracle: first {} step losses replayed bitwise on the reference tier, {} differ",
        want.len().min(got.len()),
        incorrect
    ));
    Outcome {
        metrics: m,
        tally: Tally {
            attempted: got.len() as u64,
            incorrect,
            ..Tally::default()
        },
        checks_ok: got.len() >= ORACLE_STEPS,
        golden: vec![want[0], want[ORACLE_STEPS - 1]],
        tracks,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_times_difference_the_elapsed_stamps() {
        assert_eq!(step_times(&[0.5, 1.5, 1.75]), vec![0.5, 1.0, 0.25]);
        assert!(step_times(&[]).is_empty());
    }
}
