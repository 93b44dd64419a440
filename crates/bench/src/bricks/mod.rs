//! Brick-level benchmark generation and runtime prediction (DLBricks).
//!
//! A *brick* is the unit the paper's composable-benchmark line of work
//! decomposes models into: one operator instance resolved to concrete
//! input shapes, attributes, dtype, and dispatch tier. Identical bricks
//! recur heavily both within a model (residual blocks) and across a model
//! zoo, so benchmarking the deduplicated brick set is far cheaper than
//! benchmarking every model — and summing measured brick costs (plus a
//! calibrated per-node dispatch overhead) predicts whole-model runtime
//! without ever running the model.
//!
//! The pipeline, each stage its own module:
//!
//! 1. [`decompose`](decompose::decompose) — walk a model's verifier IR
//!    ([`Network::to_ir`]), run the concrete shape pass, and emit one
//!    [`BrickInstance`] per node, keyed by (op kind, canonical attributes,
//!    resolved input shapes, dtype, tier, wanted input gradients).
//! 2. [`dedup`](dedup::dedup) — union instances across the zoo into a
//!    [`BrickSet`] of unique bricks with multiplicities, reporting the
//!    dedup ratio.
//! 3. [`microbench`](microbench::measure) — benchmark each unique brick
//!    once, through the same `Engine`/`Session` front door the serving
//!    and training layers use, as subjects of the crate's one timing loop.
//! 4. [`compose`](compose::predict) — sum brick costs plus a measured
//!    per-node dispatch overhead term ([`compose::Calibration`]) into
//!    whole-model forward and training-step predictions, validated
//!    against `TraceRecorder` measurements by the `bricks` bin.
//!
//! [`Network::to_ir`]: deep500::graph::Network::to_ir

pub mod compose;
pub mod decompose;
pub mod dedup;
pub mod microbench;

pub use compose::{calibrate, predict, Calibration, Overhead, Prediction};
pub use decompose::{decompose, BrickInput, BrickInstance, BrickKey};
pub use dedup::{dedup, Brick, BrickSet};
pub use microbench::{measure, BrickCost, MicroRunner};
