//! # deep500-train — Level 2: Training
//!
//! The paper's Level 2 "implements DNN training" around two interfaces:
//! `DatasetSampler` (provided by `deep500-data`) and `Optimizer`. This
//! crate provides:
//!
//! * the [`optimizer::ThreeStepOptimizer`] abstraction —
//!   the paper's novel decomposition of an SGD step into ¶ input sampling,
//!   · parameter adjustment before inference, and ¸ the update rule —
//!   which is what makes optimizers automatically distributable in Level 3,
//! * reference optimizers, written as direct translations of their
//!   published algorithms over whole-tensor operations (deliberately
//!   allocation-heavy — they play the role of the paper's "unoptimized
//!   reference implementations", several times slower than fused native
//!   kernels): [SGD](sgd), [Momentum/Nesterov](momentum), [Adam](adam),
//!   [AdaGrad](adagrad), [RMSProp](rmsprop), and
//!   [AcceleGrad](accelegrad) (the paper's Listing 7),
//! * learning-rate [schedules](lr_schedule),
//! * the [training runner](runner) with `TrainingAccuracy` /
//!   `TestAccuracy` metrics, event hooks, and time-to-accuracy reporting,
//! * [trajectory divergence analysis](trajectory) (Fig. 11) and Level-2
//!   [validation](validate): `test_optimizer` and `test_training`.

pub mod accelegrad;
pub mod adagrad;
pub mod adam;
pub mod lbfgs;
pub mod lr_schedule;
pub mod momentum;
pub mod optimizer;
pub mod rmsprop;
pub mod runner;
pub mod sgd;
pub mod trajectory;
pub mod validate;

pub use optimizer::{
    apply_update, backprop_half, train_step, train_step_traced, StepResult, ThreeStepOptimizer,
};
pub use runner::{TrainingConfig, TrainingLog, TrainingRunner};
