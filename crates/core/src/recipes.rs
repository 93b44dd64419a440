//! High-level benchmarking recipes — the `d5.test_*` entry points.
//!
//! The paper's user-facing API consists of short validation/benchmark
//! calls (`test_forward`, `test_gradient`, `test_training`, …) that wire
//! the levels together. This module re-exports those entry points under
//! one roof and adds convenience drivers used by the examples and benches.

pub use deep500_data::bias::test_sampler;
pub use deep500_graph::validate::{test_executor, test_executor_backprop};
pub use deep500_ops::grad_check::test_gradient;
pub use deep500_ops::validate::test_forward;
pub use deep500_train::validate::{test_optimizer, test_training};

use deep500_data::sampler::ShuffleSampler;
use deep500_data::synthetic::SyntheticDataset;
use deep500_graph::{models, Engine, ExecutorKind, GraphExecutor};
use deep500_tensor::{Result, Shape};
use deep500_train::{ThreeStepOptimizer, TrainingConfig, TrainingLog, TrainingRunner};
use std::sync::Arc;

/// A ready-made Level-2 benchmark scenario: model + train/test samplers.
///
/// The executor is built from an [`ExecutorKind`], so any scenario can run
/// on the serial reference executor (the default) or the plan interpreter
/// — they are bit-identical, so recipe results do not depend on the
/// choice.
pub struct Scenario {
    pub executor: Box<dyn GraphExecutor>,
    pub train_sampler: ShuffleSampler,
    pub test_sampler: ShuffleSampler,
    pub name: String,
    kind: ExecutorKind,
}

impl Scenario {
    /// MLP on a learnable synthetic task — the workhorse of the optimizer
    /// benchmarks (small enough to time in seconds, hard enough to rank
    /// optimizers).
    pub fn mlp_classification(
        features: usize,
        classes: usize,
        train_len: usize,
        batch: usize,
        seed: u64,
    ) -> Result<Scenario> {
        Self::mlp_classification_with(
            ExecutorKind::Reference,
            features,
            classes,
            train_len,
            batch,
            seed,
        )
    }

    /// [`Scenario::mlp_classification`] with an explicit executor choice.
    pub fn mlp_classification_with(
        kind: ExecutorKind,
        features: usize,
        classes: usize,
        train_len: usize,
        batch: usize,
        seed: u64,
    ) -> Result<Scenario> {
        let train_ds = SyntheticDataset::new(
            "synth-train",
            Shape::new(&[features]),
            classes,
            train_len,
            0.25,
            seed,
        );
        let test_ds = train_ds.holdout(train_len / 2);
        let net = models::mlp(features, &[features * 2], classes, seed ^ 0x5EED)?;
        Ok(Scenario {
            executor: Engine::builder(net).executor(kind).build()?.into_inner()?,
            train_sampler: ShuffleSampler::new(Arc::new(train_ds), batch, seed),
            test_sampler: ShuffleSampler::new(Arc::new(test_ds), batch * 2, seed),
            name: format!("mlp-{features}f-{classes}c"),
            kind,
        })
    }

    /// CNN on a CIFAR-shaped synthetic task — the convergence-figure
    /// scenario (Figs. 9/10 at laptop scale).
    pub fn cnn_classification(
        hw: usize,
        classes: usize,
        train_len: usize,
        batch: usize,
        seed: u64,
    ) -> Result<Scenario> {
        Self::cnn_classification_with(ExecutorKind::Reference, hw, classes, train_len, batch, seed)
    }

    /// [`Scenario::cnn_classification`] with an explicit executor choice.
    pub fn cnn_classification_with(
        kind: ExecutorKind,
        hw: usize,
        classes: usize,
        train_len: usize,
        batch: usize,
        seed: u64,
    ) -> Result<Scenario> {
        let train_ds = SyntheticDataset::new(
            "synth-cifar",
            Shape::new(&[3, hw, hw]),
            classes,
            train_len,
            0.3,
            seed,
        );
        let test_ds = train_ds.holdout(train_len / 2);
        let net = models::lenet(3, hw, classes, seed ^ 0x5EED)?;
        Ok(Scenario {
            executor: Engine::builder(net).executor(kind).build()?.into_inner()?,
            train_sampler: ShuffleSampler::new(Arc::new(train_ds), batch, seed),
            test_sampler: ShuffleSampler::new(Arc::new(test_ds), batch * 2, seed),
            name: format!("cnn-{hw}px-{classes}c"),
            kind,
        })
    }

    /// Train with the given optimizer and config, returning the log.
    pub fn train(
        &mut self,
        optimizer: &mut dyn ThreeStepOptimizer,
        config: TrainingConfig,
    ) -> Result<TrainingLog> {
        let mut runner = TrainingRunner::new(config);
        runner.run(
            optimizer,
            self.executor.as_mut(),
            &mut self.train_sampler,
            Some(&mut self.test_sampler),
        )
    }

    /// Swap in a fresh executor with identically-seeded parameters, so
    /// several optimizers can be compared from the same start.
    pub fn reset_model(&mut self, net: deep500_graph::Network) -> Result<()> {
        self.executor = Engine::builder(net)
            .executor(self.kind)
            .build()?
            .into_inner()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_train::sgd::GradientDescent;

    #[test]
    fn mlp_scenario_trains_to_decent_accuracy() {
        let mut sc = Scenario::mlp_classification(16, 4, 256, 32, 3).unwrap();
        let mut opt = GradientDescent::new(0.1);
        let log = sc
            .train(
                &mut opt,
                TrainingConfig {
                    epochs: 6,
                    ..Default::default()
                },
            )
            .unwrap();
        let acc = log.final_test_accuracy().unwrap();
        assert!(acc > 0.5, "accuracy {acc}");
        assert!(sc.name.contains("mlp"));
    }

    #[test]
    fn cnn_scenario_runs_an_epoch() {
        // Exercise the wavefront switch end-to-end through a recipe.
        let mut sc =
            Scenario::cnn_classification_with(ExecutorKind::Wavefront, 12, 3, 48, 16, 5).unwrap();
        let mut opt = GradientDescent::new(0.05);
        let log = sc
            .train(
                &mut opt,
                TrainingConfig {
                    epochs: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(log.epochs_run, 1);
        assert!(log.final_test_accuracy().is_some());
    }

    #[test]
    fn reset_model_restores_initial_state() {
        let mut sc = Scenario::mlp_classification(8, 3, 64, 16, 9).unwrap();
        let initial = sc.executor.network().fetch_tensor("fc1.w").unwrap().clone();
        let mut opt = GradientDescent::new(0.1);
        sc.train(&mut opt, TrainingConfig::default()).unwrap();
        assert_ne!(
            sc.executor.network().fetch_tensor("fc1.w").unwrap(),
            &initial
        );
        let fresh = models::mlp(8, &[16], 3, 9 ^ 0x5EED).unwrap();
        sc.reset_model(fresh).unwrap();
        assert_eq!(
            sc.executor.network().fetch_tensor("fc1.w").unwrap(),
            &initial
        );
    }
}
