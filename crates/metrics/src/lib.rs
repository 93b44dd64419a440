//! # deep500-metrics
//!
//! Metric and measurement infrastructure for the Deep500-rs benchmarking
//! meta-framework (pillar 2, "Metrics", of the Deep500 paper).
//!
//! The paper's test-metric base class provides three capabilities:
//! obtaining the number of re-runs needed for a measurement,
//! making/summarizing a measurement, and generating a selected result. This crate provides them
//! as concrete metric types, each with its own typed accessors:
//!
//! * [`time::WallclockTime`], norm-based accuracy metrics ([`norms`]),
//!   [`heatmap::Heatmap`] and variance maps ([`variance::VarianceMap`]),
//!   [`comm::CommunicationVolume`], [`fault::FaultCounters`] and
//!   [`energy::EnergyMetric`], with the analytical FLOP counts in
//!   [`flops::counts`],
//! * [`Event`] — the hook interface invoked by graph executors and training
//!   runners at well-defined points (a metric type that measures a phase
//!   implements it),
//! * robust statistics used by the evaluation methodology ([`stats`]):
//!   medians and *nonparametric 95% confidence intervals* computed over 30
//!   re-runs, following Hoefler & Belli's scientific-benchmarking guidance,
//! * plain-text report tables ([`report::Table`]) used by the benchmark
//!   harnesses to print the paper's rows and series.
//!
//! There is no common metric trait: nothing dispatches over metrics, and
//! the Level 0–3 test functions return typed reports (`ForwardReport`,
//! `ExecutorReport`, `SamplerReport`, …) that hold the concrete types.

pub mod comm;
pub mod energy;
pub mod event;
pub mod fault;
pub mod flops;
pub mod heatmap;
pub mod json;
pub mod norms;
pub mod report;
pub mod stats;
pub mod time;
pub mod trace;
pub mod variance;

pub use comm::CommunicationVolume;
pub use energy::{EnergyMetric, PowerModel};
pub use event::{Event, EventList, Phase};
pub use fault::FaultCounters;
pub use heatmap::Heatmap;
pub use json::Json;
pub use report::Table;
pub use stats::{ConfidenceInterval, Summary};
pub use time::{Timer, WallclockTime};
pub use trace::{
    op_table, rank_by_total, validate_chrome_trace, OpAttribution, TraceRecorder, TraceSink,
    TraceSpan,
};
pub use variance::VarianceMap;
