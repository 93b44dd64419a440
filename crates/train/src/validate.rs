//! Level-2 validation: `test_optimizer` and `test_training`.
//!
//! `test_optimizer` "verifies the performance and correctness of one step
//! of the optimizer (ensuring that an optimizer trajectory does not
//! diverge from the Deep500 one)"; `test_training` "tests the convergence,
//! performance, and the related tradeoff of the overall training".

use crate::optimizer::{train_step, ThreeStepOptimizer};
use crate::runner::{TrainingConfig, TrainingLog, TrainingRunner};
use deep500_data::{DatasetSampler, Minibatch};
use deep500_graph::GraphExecutor;
use deep500_metrics::norms::DiffNorms;
use deep500_metrics::Timer;
use deep500_tensor::Result;

/// Report of a single-step optimizer comparison.
///
/// Public for: returned by `test_optimizer`.
#[derive(Debug, Clone)]
pub struct OptimizerReport {
    /// Per-parameter difference norms after `steps` identical steps.
    pub param_norms: Vec<(String, DiffNorms)>,
    /// Candidate seconds per step (median-free single measurement; the
    /// runner collects proper distributions).
    pub candidate_time: f64,
    /// Reference seconds per step.
    pub reference_time: f64,
}

impl OptimizerReport {
    /// Pass criterion: all parameters within ℓ∞ `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.param_norms.iter().all(|(_, n)| n.within(tol))
    }

    /// Candidate/reference time ratio. Shorthand for
    /// [`Self::slowdown_detail`]`.ratio`; sub-microsecond steps can
    /// quantize `reference_time` to zero, in which case the ratio is a
    /// guard value — check the detail's `degenerate` flag.
    pub fn slowdown(&self) -> f64 {
        self.slowdown_detail().ratio
    }

    /// NaN-free ratio + degeneracy marker, shared with the Level-1
    /// executor reports.
    pub fn slowdown_detail(&self) -> deep500_graph::validate::Slowdown {
        deep500_graph::validate::slowdown_of(self.candidate_time, self.reference_time)
    }
}

/// Run `steps` identical training steps with a candidate and a reference
/// optimizer (each on its own executor initialized identically) and
/// compare the resulting parameters.
pub fn test_optimizer(
    candidate: &mut dyn ThreeStepOptimizer,
    cand_exec: &mut dyn GraphExecutor,
    reference: &mut dyn ThreeStepOptimizer,
    ref_exec: &mut dyn GraphExecutor,
    batches: &[Minibatch],
) -> Result<OptimizerReport> {
    let mut cand_time = 0.0;
    let mut ref_time = 0.0;
    for batch in batches {
        let (r, t) = Timer::time(|| train_step(candidate, cand_exec, batch));
        r?;
        cand_time += t;
        let (r, t) = Timer::time(|| train_step(reference, ref_exec, batch));
        r?;
        ref_time += t;
    }
    let params: Vec<String> = ref_exec.network().get_params().to_vec();
    let mut param_norms = Vec::with_capacity(params.len());
    for p in params {
        let c = cand_exec.network().fetch_tensor(&p)?;
        let r = ref_exec.network().fetch_tensor(&p)?;
        param_norms.push((p, DiffNorms::of(c.data(), r.data())));
    }
    let n = batches.len().max(1) as f64;
    Ok(OptimizerReport {
        param_norms,
        candidate_time: cand_time / n,
        reference_time: ref_time / n,
    })
}

/// Report of a whole-training validation.
///
/// Public for: returned by `test_training`.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    pub log: TrainingLog,
    /// Did the loss decrease from start to finish?
    pub loss_decreased: bool,
    /// Did test accuracy reach the threshold?
    pub reached_threshold: bool,
}

impl TrainingReport {
    /// Overall convergence pass.
    pub fn passes(&self) -> bool {
        self.loss_decreased && self.reached_threshold
    }
}

/// Train and validate convergence: loss must decrease and test accuracy
/// must reach `accuracy_threshold` by the end.
pub fn test_training(
    optimizer: &mut dyn ThreeStepOptimizer,
    executor: &mut dyn GraphExecutor,
    train_sampler: &mut dyn DatasetSampler,
    test_sampler: &mut dyn DatasetSampler,
    config: TrainingConfig,
    accuracy_threshold: f64,
) -> Result<TrainingReport> {
    let mut runner = TrainingRunner::new(config);
    let log = runner.run(optimizer, executor, train_sampler, Some(test_sampler))?;
    let loss_decreased = log
        .loss_endpoints()
        .map(|(first, last)| last < first)
        .unwrap_or(false);
    let reached_threshold = log
        .final_test_accuracy()
        .map(|a| a >= accuracy_threshold)
        .unwrap_or(false);
    Ok(TrainingReport {
        log,
        loss_decreased,
        reached_threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use crate::momentum::Momentum;
    use crate::sgd::GradientDescent;
    use deep500_data::sampler::ShuffleSampler;
    use deep500_data::synthetic::SyntheticDataset;
    use deep500_graph::{models, Engine};
    use std::sync::Arc;

    fn batches(n: usize, seed: u64) -> Vec<Minibatch> {
        let ds: Arc<dyn deep500_data::Dataset> = Arc::new(SyntheticDataset::new(
            "t",
            deep500_tensor::Shape::new(&[8]),
            3,
            64,
            0.3,
            seed,
        ));
        let mut s = ShuffleSampler::new(ds, 8, seed);
        (0..n).map(|_| s.next_batch().unwrap().unwrap()).collect()
    }

    #[test]
    fn equivalent_optimizers_pass() {
        // Momentum with mu = 0 must trace exactly the same trajectory as
        // plain gradient descent.
        let net = models::mlp(8, &[8], 3, 9).unwrap();
        let ga = Engine::builder(net.clone_structure()).build().unwrap();
        let mut ea = ga.lock();
        let gb = Engine::builder(net).build().unwrap();
        let mut eb = gb.lock();
        let mut cand = Momentum::new(0.05, 0.0);
        let mut refr = GradientDescent::new(0.05);
        let report =
            test_optimizer(&mut cand, &mut *ea, &mut refr, &mut *eb, &batches(4, 9)).unwrap();
        assert!(report.passes(1e-6), "{:?}", report.param_norms);
        assert!(report.slowdown() > 0.0);
    }

    #[test]
    fn different_optimizers_fail_the_tolerance() {
        let net = models::mlp(8, &[8], 3, 10).unwrap();
        let ga = Engine::builder(net.clone_structure()).build().unwrap();
        let mut ea = ga.lock();
        let gb = Engine::builder(net).build().unwrap();
        let mut eb = gb.lock();
        let mut cand = Adam::new(0.05);
        let mut refr = GradientDescent::new(0.05);
        let report =
            test_optimizer(&mut cand, &mut *ea, &mut refr, &mut *eb, &batches(4, 10)).unwrap();
        assert!(!report.passes(1e-9));
    }

    #[test]
    fn nan_parameters_fail_the_tolerance() {
        let net = models::mlp(8, &[8], 3, 10).unwrap();
        let ga = Engine::builder(net.clone_structure()).build().unwrap();
        let mut ea = ga.lock();
        let gb = Engine::builder(net).build().unwrap();
        let mut eb = gb.lock();
        let mut cand = GradientDescent::new(f32::NAN);
        let mut refr = GradientDescent::new(0.05);
        let report =
            test_optimizer(&mut cand, &mut *ea, &mut refr, &mut *eb, &batches(1, 10)).unwrap();
        assert!(report.param_norms.iter().all(|(_, n)| n.linf.is_nan()));
        assert!(!report.passes(f64::INFINITY));
    }

    #[test]
    fn test_training_converges_on_easy_task() {
        let train_src =
            SyntheticDataset::new("easy", deep500_tensor::Shape::new(&[16]), 4, 128, 0.2, 11);
        let test_ds: Arc<dyn deep500_data::Dataset> = Arc::new(train_src.holdout(64));
        let ds: Arc<dyn deep500_data::Dataset> = Arc::new(train_src);
        let net = models::mlp(16, &[32], 4, 13).unwrap();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        let mut train = ShuffleSampler::new(ds, 16, 1);
        let mut test = ShuffleSampler::new(test_ds, 32, 1);
        let mut opt = GradientDescent::new(0.1);
        let report = test_training(
            &mut opt,
            &mut *ex,
            &mut train,
            &mut test,
            TrainingConfig {
                epochs: 10,
                ..Default::default()
            },
            0.7,
        )
        .unwrap();
        assert!(
            report.passes(),
            "loss_dec={} acc={:?}",
            report.loss_decreased,
            report.log.final_test_accuracy()
        );
    }

    #[test]
    fn unreachable_threshold_fails() {
        let ds: Arc<dyn deep500_data::Dataset> = Arc::new(SyntheticDataset::new(
            "hard",
            deep500_tensor::Shape::new(&[8]),
            3,
            32,
            0.3,
            14,
        ));
        let net = models::mlp(8, &[4], 3, 15).unwrap();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        let mut train = ShuffleSampler::new(ds.clone(), 8, 1);
        let mut test = ShuffleSampler::new(ds, 8, 2);
        let mut opt = GradientDescent::new(0.001); // too slow to converge
        let report = test_training(
            &mut opt,
            &mut *ex,
            &mut train,
            &mut test,
            TrainingConfig {
                epochs: 1,
                ..Default::default()
            },
            0.999,
        )
        .unwrap();
        assert!(!report.reached_threshold);
    }
}
