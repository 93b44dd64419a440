//! # deep500-tensor
//!
//! The dense-tensor substrate underneath Deep500-rs. The Deep500 paper is a
//! *meta-framework* that assumes high-performance frameworks exist; in this
//! reproduction we build that substrate ourselves. This crate provides:
//!
//! * [`shape::Shape`] — dimension/stride algebra for N-D arrays,
//! * [`Tensor`] — an owned, contiguous, row-major `f32` tensor (the paper
//!   uses 32-bit floats for all DNN parameters and errors),
//! * [`descriptor::TensorDesc`] / [`descriptor::DataType`] — the paper's
//!   ABI-style tensor descriptor (element type and shape) used for
//!   framework interoperability, and the element types the verifier infers,
//! * [`pool::BufferPool`] — size-class recycling of tensor buffers, scoped
//!   per thread via [`pool::with_pool`] so executors can reuse activation
//!   and gradient storage across passes without touching operator code,
//! * [`rng`] — a deterministic, seedable xoshiro256\*\* generator plus
//!   normal/uniform sampling and the standard DNN weight initializers
//!   (reproducibility, pillar 5: every random bit in Deep500-rs flows from
//!   an explicit seed through this generator),
//! * [`Error`] — the common error type shared by the higher-level crates
//!   (notably [`Error::OutOfMemory`], which the Level-1 micro-batching
//!   experiment relies on),
//! * [`wait::poll`] — the poll-before-park loop every thread that waits for
//!   another (a rank for a message, a serve client for its reply, an idle
//!   serve worker for a request) runs before it parks.

pub mod descriptor;
pub mod error;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod tensor;
pub mod wait;

pub use descriptor::{DataType, TensorDesc};
pub use error::{Error, Result};
pub use pool::{
    recycle_scratch, scratch_dirty, scratch_zeroed, with_pool, BufferPool, PoolStats, LINE_F32,
};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use shape::Shape;
pub use tensor::Tensor;
