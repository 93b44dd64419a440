//! deep500-serve: a multi-tenant inference server over the Deep500
//! execution stack.
//!
//! The paper's benchmarking infrastructure measures training and
//! inference as *offline* workloads; this crate adds the online serving
//! side on the same substrate (threads, mutexes, condvars — no async
//! runtime), built entirely out of the workspace's existing layers:
//!
//! * **Engine/Session** ([`deep500_graph::Engine`]) — one verified,
//!   optionally compiled executor shared by many tenants; the server's
//!   worker replicas are engines over
//!   [`clone_structure`](deep500_graph::Network::clone_structure) copies.
//! * **Batch contract** ([`deep500_verify::batch_contract`]) — the
//!   verifier's dual-probe symbolic shape engine proves which interface
//!   tensors scale per-sample with the batch, which makes dynamic
//!   batching *sound by construction*: only `PerSample` tensors are
//!   concatenated/split, aggregates are excluded, entangled models are
//!   rejected at build time.
//! * **Tracing** ([`deep500_metrics::trace::TraceRecorder`]) — every
//!   request emits `Queue`/`Batch`/`Request` spans next to the engine's
//!   operator spans, so a served request is attributable end to end.
//! * **Waiting** ([`deep500_tensor::wait::poll`]) — the poll-before-park
//!   loop `deep500-dist`'s ranks use. A client waiting for its reply and an
//!   idle worker waiting for a request poll an atomic hint for up to 50 µs
//!   before they park on their condvar, and the other side signals only a
//!   thread that recorded it parked: a small model's request crosses both
//!   hand-offs without a futex round trip.
//!
//! ```
//! use deep500_graph::models;
//! use deep500_serve::{BatchPolicy, ModelConfig, Server};
//! use deep500_tensor::Tensor;
//! use std::time::Duration;
//!
//! let server = Server::builder()
//!     .model(
//!         "mlp",
//!         ModelConfig::new(models::mlp(8, &[16], 4, 1).unwrap())
//!             .batched_input("x", &[8])
//!             .batched_input("labels", &[])
//!             .policy(BatchPolicy::Dynamic {
//!                 max_batch: 8,
//!                 max_delay: Duration::from_millis(2),
//!             }),
//!     )
//!     .build()
//!     .unwrap();
//! let reply = server
//!     .infer(
//!         "mlp",
//!         &[
//!             ("x", Tensor::ones([1, 8])),
//!             ("labels", Tensor::from_slice(&[0.0])),
//!         ],
//!     )
//!     .unwrap();
//! assert_eq!(reply.outputs["logits"].shape().dims(), &[1, 4]);
//! server.shutdown();
//! ```

pub mod batch;
pub mod error;
pub mod loadgen;
pub mod server;

pub use batch::BatchPolicy;
pub use error::{ServeError, ServeResult};
pub use loadgen::{closed_loop, open_loop, LoadSummary};
pub use server::{
    InferReply, ModelConfig, RequestTiming, Server, ServerBuilder, ShardStats, Ticket,
};
