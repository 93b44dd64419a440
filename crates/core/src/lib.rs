//! # deep500 — a modular benchmarking infrastructure for high-performance
//! and reproducible deep learning (Rust reproduction)
//!
//! This is the umbrella crate of **Deep500-rs**, a from-scratch Rust
//! reproduction of *"A Modular Benchmarking Infrastructure for
//! High-Performance and Reproducible Deep Learning"* (Ben-Nun et al.,
//! IPDPS 2019). The system is factorized into the paper's four levels:
//!
//! | level | crate | contents |
//! |---|---|---|
//! | 0 — Operators | [`ops`] | operator trait + registry, GEMM/conv/pool/… kernels, gradient checking, DeepBench suites |
//! | 1 — Network processing | [`graph`] | network DAG, reference executor with autodiff, d5nx format, visitor, transformations |
//! | 2 — Training | [`train`] | three-step optimizers (SGD…AcceleGrad), training runner, trajectory validation |
//! | 3 — Distributed training | [`dist`] | communicators, collectives, PS/allreduce/async/sparse SGD, scaling simulation |
//!
//! plus the substrates: [`tensor`] (dense tensors + deterministic RNG),
//! [`metrics`] (concrete metric types and event hooks), [`data`] (datasets,
//! the D5J codec, storage containers, samplers), [`frameworks`]
//! (simulated TensorFlow/Caffe2/PyTorch/DeepBench backends), and
//! [`verify`] — the static graph verifier that gates every executor
//! construction and graph transform (shape/dtype inference, dataflow and
//! aliasing analysis, typed lints; see `DESIGN.md` §11).
//!
//! ## Quickstart
//!
//! ```
//! use deep500::prelude::*;
//! use std::sync::Arc;
//!
//! // A LeNet-style CNN on a synthetic MNIST-shaped dataset.
//! let net = models::lenet(1, 28, 10, 42).unwrap();
//! let engine = Engine::builder(net).build().unwrap();
//! let mut executor = engine.lock();
//! let train_ds = SyntheticDataset::mnist_like(64, 7);
//! let mut sampler = ShuffleSampler::new(Arc::new(train_ds), 16, 1);
//! let mut optimizer = GradientDescent::new(0.05);
//! let mut runner = TrainingRunner::new(TrainingConfig::default());
//! let log = runner
//!     .run(&mut optimizer, &mut *executor, &mut sampler, None)
//!     .unwrap();
//! assert!(!log.step_losses.is_empty());
//! ```

pub use deep500_data as data;
pub use deep500_dist as dist;
pub use deep500_frameworks as frameworks;
pub use deep500_graph as graph;
pub use deep500_metrics as metrics;
pub use deep500_ops as ops;
pub use deep500_serve as serve;
pub use deep500_tensor as tensor;
pub use deep500_train as train;
pub use deep500_verify as verify;

pub mod feature_matrix;
pub mod recipes;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use deep500_data::sampler::{
        BufferShuffleSampler, SequentialSampler, ShardedSampler, ShuffleSampler,
    };
    pub use deep500_data::synthetic::SyntheticDataset;
    pub use deep500_data::{Dataset, DatasetSampler, Minibatch};
    pub use deep500_frameworks::{FrameworkExecutor, FrameworkProfile};
    pub use deep500_graph::builder::NetworkBuilder;
    pub use deep500_graph::{
        models, CompileOptions, Engine, EngineBuilder, ExecutorKind, GraphExecutor, Network,
        PlannedExecutor, ReferenceExecutor, Session,
    };
    pub use deep500_metrics::{Table, Timer};
    pub use deep500_ops::registry::{create_op, register_op, Attributes};
    pub use deep500_ops::Operator;
    pub use deep500_serve::{BatchPolicy, ModelConfig, ServeError, Server};
    pub use deep500_tensor::{Shape, Tensor, Xoshiro256StarStar};
    pub use deep500_train::accelegrad::{AcceleGrad, AcceleGradConfig};
    pub use deep500_train::adagrad::AdaGrad;
    pub use deep500_train::adam::Adam;
    pub use deep500_train::momentum::Momentum;
    pub use deep500_train::rmsprop::RmsProp;
    pub use deep500_train::sgd::GradientDescent;
    pub use deep500_train::{
        train_step, ThreeStepOptimizer, TrainingConfig, TrainingLog, TrainingRunner,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_all_levels() {
        use super::prelude::*;
        let t = Tensor::ones([2, 2]);
        assert_eq!(t.numel(), 4);
        assert!(deep500_ops::registry::is_registered("Conv2d"));
        let _ = FrameworkProfile::all();
        let _ = GradientDescent::new(0.1);
    }
}
