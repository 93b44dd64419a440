//! # deep500-dist — Level 3: Distributed Training
//!
//! The paper's "cornerstone feature": distributing DNN training "with
//! virtually no effort from an API user", by wrapping Level-2 three-step
//! optimizers with communication. The paper runs on MPI over Cray Aries;
//! this reproduction substitutes two transports behind one
//! [`comm::Communicator`] interface:
//!
//! * a **thread transport** — real in-process ranks over crossbeam
//!   channels, used for correctness (tests run real data-parallel SGD on
//!   2–8 ranks and check exact equivalence with sequential large-batch
//!   SGD),
//! * a **virtual-time layer** — every message carries its sender's virtual
//!   timestamp; an α-β [`netmodel::NetworkModel`]
//!   (Aries-like presets) prices each hop, so the same collective
//!   algorithms yield faithful time estimates without a supercomputer,
//! * a **schedule simulator** ([`scaling`]) — for Fig. 12's 8–256-node
//!   sweeps, the per-scheme communication schedules execute round by round
//!   against the network model; communication volumes are exact properties
//!   of the schedules.
//!
//! Provided distributed SGD variants (paper §IV-F/§V-E): consistent
//! centralized (PSSGD), inconsistent centralized (ASGD),
//! stale-synchronous, consistent decentralized (DSGD, both a
//! "Python-reference" flavour with conversion overhead and the optimized
//! CDSGD), neighbor-based decentralized (DPSGD), model averaging (MAVG),
//! Horovod-style fused-buffer allreduce, and SparCML sparse allreduce.
//!
//! ## Fault injection and recovery
//!
//! Communication is fallible by design: every [`Communicator`] operation
//! returns a typed [`comm::CommError`] instead of panicking. A seeded,
//! fully deterministic [`fault::FaultPlan`] wraps any communicator in a
//! [`fault::FaultyCommunicator`] that injects message drops (with
//! retry/backoff priced through the network model), bounded delays,
//! straggler slowdowns, and rank crashes at chosen steps.
//! Decentralized schemes degrade gracefully — surviving ranks re-form the
//! group and renormalize their allreduce — while centralized schemes fail
//! over (lowest live rank becomes the server) or abort with a typed
//! error. [`runner::DistributedRunner`] is the builder entry point.

// Communication paths must surface typed errors, not panic (tests may
// still unwrap for brevity).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod collectives;
pub mod comm;
pub mod fault;
pub mod netmodel;
pub mod optimizers;
pub mod runner;
pub mod scaling;
pub mod sparse;
pub mod tracing;

pub use comm::{CommError, CommResult, Communicator, SendOptions, ThreadTransport};
pub use fault::{FaultPlan, FaultyCommunicator};
pub use netmodel::NetworkModel;
pub use runner::{
    ConsistencyReport, DistributedRunner, RankReport, RankStatus, RunReport, Variant,
};
pub use tracing::TracingCommunicator;
