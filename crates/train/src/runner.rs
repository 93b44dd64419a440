//! The training/testing loop manager (the paper's `Runner`).
//!
//! Drives epochs of `train_step` over a `DatasetSampler`, collecting the
//! Level-2 metrics: `TrainingAccuracy` ("the training accuracy at every
//! kth step"), `TestAccuracy` ("the test accuracy at every kth epoch"),
//! the loss-vs-time series the paper plots in Figs. 9/10, and
//! time-to-accuracy (the combined performance/accuracy metric of
//! Challenge 2).

use crate::optimizer::{train_step_traced, ThreeStepOptimizer};
use deep500_data::DatasetSampler;
use deep500_graph::GraphExecutor;
use deep500_metrics::event::{Event, EventList, Phase};
use deep500_metrics::Summary;
use deep500_ops::loss::accuracy;
use deep500_tensor::{Error, Result};
use std::time::Instant;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Record training accuracy every `k` steps.
    pub train_accuracy_every: usize,
    /// Evaluate test accuracy every `k` epochs.
    pub test_accuracy_every: usize,
    /// Stop early when test accuracy reaches this value (time-to-accuracy).
    pub target_accuracy: Option<f64>,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 1,
            train_accuracy_every: 10,
            test_accuracy_every: 1,
            target_accuracy: None,
        }
    }
}

/// Everything the runner measured.
#[derive(Debug, Clone, Default)]
pub struct TrainingLog {
    /// `(elapsed seconds, loss)` per training step.
    pub step_losses: Vec<(f64, f32)>,
    /// `(step, minibatch accuracy)` every kth step.
    pub train_accuracy: Vec<(usize, f64)>,
    /// `(epoch, test accuracy, elapsed seconds)` per evaluated epoch.
    pub test_accuracy: Vec<(usize, f64, f64)>,
    /// Wallclock seconds per epoch.
    pub epoch_times: Vec<f64>,
    /// Wallclock seconds each step waited for its minibatch (the
    /// `Phase::Sampling` window around `next_batch`) — the dataset-pipeline
    /// latency the paper's Level-2 metrics attribute separately from
    /// compute. With a sampler that assembles ahead this is the part of a
    /// batch's cost the previous step did not hide, not the cost itself
    /// (time `assemble_minibatch` directly for that).
    pub sampling_times: Vec<f64>,
    /// Total wallclock seconds.
    pub total_time: f64,
    /// Seconds until `target_accuracy` was first reached, if ever.
    pub time_to_accuracy: Option<f64>,
    /// Epochs actually executed (early stop may cut this short).
    pub epochs_run: usize,
}

impl TrainingLog {
    /// Final test accuracy (None if never evaluated).
    pub fn final_test_accuracy(&self) -> Option<f64> {
        self.test_accuracy.last().map(|&(_, a, _)| a)
    }

    /// First and last recorded training loss.
    pub fn loss_endpoints(&self) -> Option<(f32, f32)> {
        match (self.step_losses.first(), self.step_losses.last()) {
            (Some(&(_, a)), Some(&(_, b))) => Some((a, b)),
            _ => None,
        }
    }

    /// Summary of per-minibatch dataset latency as the training loop saw it
    /// (`None` before any batch was fetched) — mean/median/p95 of the time
    /// each step waited in `Phase::Sampling`.
    pub fn dataset_latency(&self) -> Option<Summary> {
        Summary::try_of(&self.sampling_times)
    }

    /// Total seconds the run waited for the data pipeline (sum of sampling
    /// windows).
    pub fn sampling_total(&self) -> f64 {
        self.sampling_times.iter().sum()
    }
}

/// Evaluate test accuracy: average minibatch accuracy over one pass of the
/// test sampler (inference only).
pub fn evaluate(
    executor: &mut dyn GraphExecutor,
    test_sampler: &mut dyn DatasetSampler,
) -> Result<f64> {
    test_sampler.reset_epoch();
    let mut correct_weighted = 0.0f64;
    let mut total = 0usize;
    while let Some(batch) = test_sampler.next_batch()? {
        let outputs = executor.inference(&batch.feeds())?;
        let logits = outputs
            .get("logits")
            .ok_or_else(|| Error::NotFound("'logits' output".into()))?;
        let acc = accuracy(logits, &batch.labels)?;
        correct_weighted += acc * batch.len() as f64;
        total += batch.len();
    }
    if total == 0 {
        return Err(Error::Invalid("empty test set".into()));
    }
    Ok(correct_weighted / total as f64)
}

/// The training loop manager.
pub struct TrainingRunner {
    pub config: TrainingConfig,
    pub events: EventList,
}

impl TrainingRunner {
    pub fn new(config: TrainingConfig) -> Self {
        TrainingRunner {
            config,
            events: EventList::new(),
        }
    }

    /// Attach an event hook (metrics, early stopping).
    pub fn add_event(&mut self, hook: Box<dyn Event>) {
        self.events.push(hook);
    }

    /// Train `optimizer` on `executor` using `train_sampler`, optionally
    /// evaluating on `test_sampler`.
    pub fn run(
        &mut self,
        optimizer: &mut dyn ThreeStepOptimizer,
        executor: &mut dyn GraphExecutor,
        train_sampler: &mut dyn DatasetSampler,
        mut test_sampler: Option<&mut dyn DatasetSampler>,
    ) -> Result<TrainingLog> {
        let mut log = TrainingLog::default();
        let start = Instant::now();
        let mut step = 0usize;
        'epochs: for epoch in 0..self.config.epochs {
            self.events.begin(Phase::Epoch, epoch);
            let epoch_start = Instant::now();
            train_sampler.reset_epoch();
            loop {
                self.events.begin(Phase::Sampling, step);
                let sample_start = Instant::now();
                let batch = train_sampler.next_batch()?;
                let sample_s = sample_start.elapsed().as_secs_f64();
                self.events.end(Phase::Sampling, step);
                let Some(batch) = batch else { break };
                log.sampling_times.push(sample_s);

                self.events.begin(Phase::Iteration, step);
                let result =
                    train_step_traced(optimizer, executor, &batch, &mut self.events, step)?;
                self.events.end(Phase::Iteration, step);

                if !result.loss.is_finite() {
                    return Err(Error::Validation(format!(
                        "loss exploded at step {step}: {}",
                        result.loss
                    )));
                }
                log.step_losses
                    .push((start.elapsed().as_secs_f64(), result.loss));
                if step.is_multiple_of(self.config.train_accuracy_every.max(1)) {
                    if let Some(acc) = result.accuracy {
                        log.train_accuracy.push((step, acc));
                    }
                }
                step += 1;
                if self.events.should_stop() {
                    break;
                }
            }
            log.epoch_times.push(epoch_start.elapsed().as_secs_f64());
            log.epochs_run = epoch + 1;
            self.events.end(Phase::Epoch, epoch);

            if let Some(ts) = test_sampler.as_deref_mut() {
                if epoch.is_multiple_of(self.config.test_accuracy_every.max(1))
                    || epoch + 1 == self.config.epochs
                {
                    let acc = evaluate(executor, ts)?;
                    let elapsed = start.elapsed().as_secs_f64();
                    log.test_accuracy.push((epoch, acc, elapsed));
                    if let Some(target) = self.config.target_accuracy {
                        if acc >= target && log.time_to_accuracy.is_none() {
                            log.time_to_accuracy = Some(elapsed);
                            break 'epochs;
                        }
                    }
                }
            }
            if self.events.should_stop() {
                break;
            }
        }
        log.total_time = start.elapsed().as_secs_f64();
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::GradientDescent;
    use deep500_data::sampler::ShuffleSampler;
    use deep500_data::synthetic::SyntheticDataset;
    use deep500_graph::{models, Engine, GraphExecutor};
    use deep500_metrics::event::StopAfterIterations;
    use std::sync::Arc;

    fn setup(seed: u64) -> (Box<dyn GraphExecutor>, ShuffleSampler, ShuffleSampler) {
        // A small MLP on a learnable synthetic task; the test set is a
        // disjoint holdout of the same distribution.
        let train_ds =
            SyntheticDataset::new("toy", deep500_tensor::Shape::new(&[16]), 4, 128, 0.2, seed);
        let test: Arc<dyn deep500_data::Dataset> = Arc::new(train_ds.holdout(64));
        let ds: Arc<dyn deep500_data::Dataset> = Arc::new(train_ds);
        let net = models::mlp(16, &[32], 4, seed).unwrap();
        (
            Engine::builder(net).build().unwrap().into_inner().unwrap(),
            ShuffleSampler::new(ds, 16, seed),
            ShuffleSampler::new(test, 32, seed),
        )
    }

    #[test]
    fn training_improves_accuracy() {
        let (mut ex, mut train, mut test) = setup(5);
        let initial = evaluate(&mut *ex, &mut test).unwrap();
        let mut runner = TrainingRunner::new(TrainingConfig {
            epochs: 8,
            ..Default::default()
        });
        let mut opt = GradientDescent::new(0.1);
        let log = runner
            .run(&mut opt, &mut *ex, &mut train, Some(&mut test))
            .unwrap();
        let final_acc = log.final_test_accuracy().unwrap();
        assert!(
            final_acc > initial + 0.2,
            "accuracy must improve: {initial} -> {final_acc}"
        );
        let (first, last) = log.loss_endpoints().unwrap();
        assert!(last < first, "loss must fall: {first} -> {last}");
        assert_eq!(log.epochs_run, 8);
        assert_eq!(log.epoch_times.len(), 8);
        assert!(!log.train_accuracy.is_empty());
        assert!(log.total_time > 0.0);
    }

    #[test]
    fn early_stop_event_halts_training() {
        let (mut ex, mut train, _) = setup(6);
        let mut runner = TrainingRunner::new(TrainingConfig {
            epochs: 100,
            ..Default::default()
        });
        runner.add_event(Box::new(StopAfterIterations::new(3)));
        let mut opt = GradientDescent::new(0.05);
        let log = runner.run(&mut opt, &mut *ex, &mut train, None).unwrap();
        assert_eq!(log.step_losses.len(), 3);
        assert!(log.epochs_run < 100);
    }

    #[test]
    fn time_to_accuracy_is_recorded() {
        let (mut ex, mut train, mut test) = setup(7);
        let mut runner = TrainingRunner::new(TrainingConfig {
            epochs: 30,
            target_accuracy: Some(0.5),
            ..Default::default()
        });
        let mut opt = GradientDescent::new(0.1);
        let log = runner
            .run(&mut opt, &mut *ex, &mut train, Some(&mut test))
            .unwrap();
        assert!(log.time_to_accuracy.is_some(), "0.5 should be reachable");
        assert!(log.epochs_run < 30, "early exit on target");
    }

    #[test]
    fn dataset_latency_is_summarized_and_traced() {
        use deep500_metrics::trace::TraceRecorder;
        let (mut ex, mut train, _) = setup(9);
        let mut runner = TrainingRunner::new(TrainingConfig {
            epochs: 2,
            ..Default::default()
        });
        let recorder = TraceRecorder::new();
        runner.add_event(Box::new(recorder.sink("train")));
        let mut opt = GradientDescent::new(0.05);
        let log = runner.run(&mut opt, &mut *ex, &mut train, None).unwrap();
        // One sampling window per completed step (end-of-epoch None fetches
        // are not batches and are not logged).
        assert_eq!(log.sampling_times.len(), log.step_losses.len());
        let latency = log.dataset_latency().expect("batches were fetched");
        assert!(latency.n == log.sampling_times.len());
        assert!(latency.mean >= 0.0 && latency.mean.is_finite());
        assert!(log.sampling_total() >= 0.0);
        // The trace recorder saw the same Sampling windows via the hooks.
        let traced = recorder.phase_total_s(Phase::Sampling);
        assert!(traced >= 0.0);
        let sampling_spans: usize = recorder
            .tracks()
            .iter()
            .flat_map(|(_, spans)| spans)
            .filter(|s| s.phase == Phase::Sampling)
            .count();
        // Every fetch (including the end-of-epoch empty one) is a span.
        assert!(sampling_spans >= log.sampling_times.len());
    }

    #[test]
    fn exploding_loss_is_reported() {
        let (mut ex, mut train, _) = setup(8);
        // Absurd learning rate drives weights to ±inf, making the logits
        // non-finite — the divergence signature the runner must report.
        let mut opt = GradientDescent::new(f32::MAX);
        let mut runner = TrainingRunner::new(TrainingConfig {
            epochs: 5,
            ..Default::default()
        });
        let r = runner.run(&mut opt, &mut *ex, &mut train, None);
        assert!(matches!(r, Err(Error::Validation(_))), "{r:?}");
    }
}
