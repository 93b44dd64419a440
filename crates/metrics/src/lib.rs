//! # deep500-metrics
//!
//! Metric and measurement infrastructure for the Deep500-rs benchmarking
//! meta-framework (pillar 2, "Metrics", of the Deep500 paper).
//!
//! The paper's `TestMetric` class provides three capabilities: obtaining the
//! number of re-runs needed for a measurement, making/summarizing a
//! measurement, and generating a selected result. This crate provides the
//! Rust equivalents:
//!
//! * [`TestMetric`] — the common trait for all metrics,
//! * concrete metrics: [`time::WallclockTime`],
//!   [`flops::FlopsMetric`], norm-based accuracy metrics
//!   ([`norms`]), [`heatmap::Heatmap`] and variance maps
//!   ([`variance::VarianceMap`]), [`comm::CommunicationVolume`],
//! * [`Event`] — the hook interface invoked by graph executors and training
//!   runners at well-defined points (a metric type may implement both traits,
//!   exactly as in the paper),
//! * robust statistics used by the evaluation methodology ([`stats`]):
//!   medians and *nonparametric 95% confidence intervals* computed over 30
//!   re-runs, following Hoefler & Belli's scientific-benchmarking guidance,
//! * plain-text report tables ([`report::Table`]) used by the benchmark
//!   harnesses to print the paper's rows and series.

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
pub use flops::FlopsMetric;
pub use heatmap::Heatmap;
pub use json::Json;
pub use report::Table;
pub use stats::{ConfidenceInterval, Summary};
pub use time::{Timer, WallclockTime};
pub use trace::{validate_chrome_trace, OpAttribution, TraceRecorder, TraceSink, TraceSpan};
pub use variance::VarianceMap;

/// The result of summarizing a metric: a single number, a series, a 2-D map,
/// or free-form text. This is what benchmark harnesses render.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A single scalar (e.g. median runtime in seconds).
    Scalar(f64),
    /// An ordered series (e.g. loss per iteration).
    Series(Vec<f64>),
    /// A dense 2-D map (e.g. an output heatmap), row-major.
    Matrix {
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    },
    /// Free-form textual result.
    Text(String),
    /// No meaningful value could be computed (e.g. summarizing an empty
    /// sample set). Carries the reason; renders explicitly instead of
    /// leaking `NaN` into reports.
    Degenerate(String),
}

impl MetricValue {
    /// Extract the scalar value, if this is a `Scalar`.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            MetricValue::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract the series, if this is a `Series`.
    pub fn as_series(&self) -> Option<&[f64]> {
        match self {
            MetricValue::Series(v) => Some(v),
            _ => None,
        }
    }

    /// `true` if no meaningful value could be computed.
    pub fn is_degenerate(&self) -> bool {
        matches!(self, MetricValue::Degenerate(_))
    }
}

/// Common interface of all Deep500 metrics (the paper's `TestMetric`).
///
/// A metric accumulates observations (scalars by default; richer metrics
/// expose their own strongly-typed recording methods) and can summarize them
/// into a [`MetricValue`]. `reruns` reports how many repetitions of the
/// measured action the metric wants in order to be statistically meaningful
/// (e.g. 30 for wallclock measurements, 1 for exact counters).
pub trait TestMetric {
    /// Human-readable metric name used in reports.
    fn name(&self) -> &str;

    /// Number of re-runs of the measured action this metric requires.
    /// Exact counters need one run; noisy measurements want more.
    fn reruns(&self) -> usize {
        1
    }

    /// Record one scalar observation.
    fn observe(&mut self, value: f64);

    /// Summarize all observations so far.
    fn summarize(&self) -> MetricValue;

    /// Render the summary as a short human-readable string.
    fn render(&self) -> String {
        match self.summarize() {
            MetricValue::Scalar(v) => format!("{}: {:.6}", self.name(), v),
            MetricValue::Series(s) => format!("{}: series of {} points", self.name(), s.len()),
            MetricValue::Matrix { rows, cols, .. } => {
                format!("{}: {}x{} map", self.name(), rows, cols)
            }
            MetricValue::Text(t) => format!("{}: {}", self.name(), t),
            MetricValue::Degenerate(why) => format!("{}: degenerate ({})", self.name(), why),
        }
    }

    /// Discard all observations.
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Count {
        n: usize,
    }
    impl TestMetric for Count {
        fn name(&self) -> &str {
            "count"
        }
        fn observe(&mut self, _v: f64) {
            self.n += 1;
        }
        fn summarize(&self) -> MetricValue {
            MetricValue::Scalar(self.n as f64)
        }
        fn reset(&mut self) {
            self.n = 0;
        }
    }

    #[test]
    fn default_reruns_is_one() {
        let c = Count { n: 0 };
        assert_eq!(c.reruns(), 1);
    }

    #[test]
    fn metric_value_accessors() {
        assert_eq!(MetricValue::Scalar(2.0).as_scalar(), Some(2.0));
        assert_eq!(MetricValue::Text("x".into()).as_scalar(), None);
        let s = MetricValue::Series(vec![1.0, 2.0]);
        assert_eq!(s.as_series().unwrap().len(), 2);
        assert!(MetricValue::Scalar(0.0).as_series().is_none());
    }

    #[test]
    fn render_formats() {
        let mut c = Count { n: 0 };
        c.observe(0.0);
        assert_eq!(c.render(), "count: 1.000000");
        c.reset();
        assert_eq!(c.summarize(), MetricValue::Scalar(0.0));
    }
}
