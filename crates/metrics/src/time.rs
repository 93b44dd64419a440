//! Wallclock-time measurement.

use crate::event::{Event, Phase};
use crate::stats::Summary;
use crate::{MetricValue, TestMetric};
use std::collections::HashMap;
use std::time::Instant;

/// A simple scope timer returning elapsed seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Start timing now.
    pub fn start() -> Timer {
        Timer {
            start: Instant::now(),
        }
    }

    /// Elapsed seconds since `start`.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Time a closure, returning `(result, seconds)`.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let t = Timer::start();
        let r = f();
        (r, t.elapsed_s())
    }
}

impl Default for Timer {
    fn default() -> Self {
        Timer::start()
    }
}

/// The paper's wallclock-time metric: accumulates per-run durations (in
/// seconds), wants 30 re-runs, and summarizes to the median. It also
/// implements [`Event`], timing a chosen [`Phase`] when attached to an
/// executor or runner.
///
/// Starts are stacked per phase-instance id, so re-entrant or interleaved
/// `begin`s of the same phase nest instead of clobbering the outer
/// measurement, and off-thread-timed spans ([`Event::span`]) record their
/// measured duration directly rather than degenerating to ~0 s through the
/// default `begin`+`end` forwarding.
pub struct WallclockTime {
    name: String,
    phase: Phase,
    samples: Vec<f64>,
    /// Open starts, keyed by phase-instance id. A `Vec` per id lets
    /// same-id re-entrant begins nest (LIFO) instead of losing the outer
    /// start.
    pending: HashMap<usize, Vec<Instant>>,
    /// `end`s that arrived with no matching open `begin`.
    unmatched_ends: usize,
}

impl WallclockTime {
    /// Wallclock metric timing `phase`, defaulting to 30 re-runs.
    pub fn new(phase: Phase) -> Self {
        WallclockTime {
            name: format!("wallclock[{phase:?}]"),
            phase,
            samples: Vec::new(),
            pending: HashMap::new(),
            unmatched_ends: 0,
        }
    }

    /// All recorded durations, seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of `begin`s currently open (no matching `end` yet).
    pub fn open_begins(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Number of `end`s that arrived without a matching `begin` — nonzero
    /// means the instrumentation bracketing is unbalanced.
    pub fn unmatched_ends(&self) -> usize {
        self.unmatched_ends
    }

    /// Full summary (median, quartiles, 95% CI).
    pub fn summary(&self) -> Option<Summary> {
        Summary::try_of(&self.samples)
    }
}

impl TestMetric for WallclockTime {
    fn name(&self) -> &str {
        &self.name
    }
    fn reruns(&self) -> usize {
        30
    }
    fn observe(&mut self, value: f64) {
        self.samples.push(value);
    }
    fn summarize(&self) -> MetricValue {
        match self.summary() {
            Some(s) => MetricValue::Scalar(s.median),
            None => MetricValue::Degenerate("no samples".into()),
        }
    }
    fn reset(&mut self) {
        self.samples.clear();
        self.pending.clear();
        self.unmatched_ends = 0;
    }
}

impl Event for WallclockTime {
    fn begin(&mut self, phase: Phase, id: usize) {
        if phase == self.phase {
            self.pending.entry(id).or_default().push(Instant::now());
        }
    }
    fn end(&mut self, phase: Phase, id: usize) {
        if phase == self.phase {
            match self.pending.get_mut(&id).and_then(Vec::pop) {
                Some(start) => self.samples.push(start.elapsed().as_secs_f64()),
                None => self.unmatched_ends += 1,
            }
        }
    }
    /// Off-thread-timed spans carry their duration: record it directly.
    /// The default forwarding to `begin`+`end` would measure the (~0 s)
    /// gap between the two calls on the reporting thread, not the span.
    fn span(&mut self, phase: Phase, _id: usize, seconds: f64) {
        if phase == self.phase {
            self.samples.push(seconds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_something() {
        let (v, secs) = Timer::time(|| {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(v > 0);
        assert!(secs >= 0.0);
    }

    #[test]
    fn wallclock_event_accumulates() {
        let mut m = WallclockTime::new(Phase::Inference);
        for i in 0..3 {
            m.begin(Phase::Inference, i);
            m.end(Phase::Inference, i);
        }
        // Other phases must be ignored.
        m.begin(Phase::Epoch, 0);
        m.end(Phase::Epoch, 0);
        assert_eq!(m.samples().len(), 3);
        assert!(m.summarize().as_scalar().unwrap() >= 0.0);
    }

    #[test]
    fn wallclock_reruns_default_and_override() {
        let m = WallclockTime::new(Phase::Inference);
        assert_eq!(m.reruns(), 30);
    }

    #[test]
    fn unmatched_end_is_counted_not_recorded() {
        let mut m = WallclockTime::new(Phase::Backprop);
        m.end(Phase::Backprop, 0);
        assert!(m.samples().is_empty());
        assert_eq!(m.unmatched_ends(), 1);
        m.reset();
        assert!(m.summary().is_none());
        assert_eq!(m.unmatched_ends(), 0);
    }

    #[test]
    fn span_records_reported_duration_not_forwarding_gap() {
        // Regression: without a `span` override, the default forwards to
        // begin+end on the reporting thread and records the ~0 s gap
        // between the two calls instead of the measured duration.
        let mut m = WallclockTime::new(Phase::OperatorForward);
        m.span(Phase::OperatorForward, 3, 0.25);
        m.span(Phase::Epoch, 0, 1.0); // other phases ignored
        assert_eq!(m.samples(), &[0.25]);
    }

    #[test]
    fn reentrant_begins_nest_instead_of_clobbering() {
        let mut m = WallclockTime::new(Phase::Iteration);
        m.begin(Phase::Iteration, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.begin(Phase::Iteration, 0); // same id, re-entrant
        m.end(Phase::Iteration, 0); // closes the inner start
        m.end(Phase::Iteration, 0); // closes the outer start
        assert_eq!(m.samples().len(), 2);
        assert_eq!(m.unmatched_ends(), 0);
        // The outer measurement (closed last) covers the sleep; the old
        // single-slot `pending` lost it to the inner begin's overwrite.
        assert!(m.samples()[1] >= 0.001, "outer span was clobbered");
        assert!(m.samples()[1] >= m.samples()[0]);
    }

    #[test]
    fn interleaved_ids_time_independently() {
        let mut m = WallclockTime::new(Phase::Sampling);
        m.begin(Phase::Sampling, 1);
        m.begin(Phase::Sampling, 2);
        m.end(Phase::Sampling, 1);
        assert_eq!(m.open_begins(), 1);
        m.end(Phase::Sampling, 2);
        assert_eq!(m.samples().len(), 2);
        assert_eq!(m.open_begins(), 0);
    }

    #[test]
    fn empty_summarize_is_degenerate_not_nan() {
        let m = WallclockTime::new(Phase::Inference);
        let v = m.summarize();
        assert!(v.is_degenerate(), "got {v:?}");
        assert!(m.render().contains("degenerate"));
    }
}
