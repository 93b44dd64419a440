//! Modeled energy consumption.
//!
//! The paper lists "consumed energy" among the Level-0 performance metrics
//! and motivates hardware choices with "performance and power advantages
//! of using a novel ASIC". Without RAPL/NVML counters, energy is modeled
//! from a device power envelope: `E = P_active · t_busy + P_idle · t_idle`.
//! The model is explicit and swappable, exactly like the storage and
//! network models elsewhere in this reproduction.

use crate::event::{Event, Phase};
use crate::{MetricValue, TestMetric};
use std::time::Instant;

/// A device power envelope in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power drawn while executing operators.
    pub active_w: f64,
    /// Power drawn while idle (management, memory refresh).
    pub idle_w: f64,
}

impl PowerModel {
    /// A P100-class accelerator (Piz Daint's GPU: 300 W TDP, ~30 W idle).
    pub fn p100() -> Self {
        PowerModel {
            active_w: 300.0,
            idle_w: 30.0,
        }
    }

    /// A server-CPU socket (Xeon-class).
    pub fn xeon() -> Self {
        PowerModel {
            active_w: 135.0,
            idle_w: 45.0,
        }
    }

    /// A mobile-class SoC.
    pub fn mobile_soc() -> Self {
        PowerModel {
            active_w: 8.0,
            idle_w: 1.0,
        }
    }

    /// Energy in joules for the given busy/total seconds.
    pub fn energy_j(&self, busy_s: f64, total_s: f64) -> f64 {
        let idle_s = (total_s - busy_s).max(0.0);
        self.active_w * busy_s + self.idle_w * idle_s
    }
}

/// Energy metric: attach to an executor as an [`Event`]; operator phases
/// count as busy time, everything between the start and the summary as
/// wall time.
pub struct EnergyMetric {
    model: PowerModel,
    busy_s: f64,
    started: Instant,
    op_start: Option<Instant>,
}

impl EnergyMetric {
    pub fn new(model: PowerModel) -> Self {
        EnergyMetric {
            model,
            busy_s: 0.0,
            started: Instant::now(),
            op_start: None,
        }
    }

    /// Busy (operator-executing) seconds so far.
    ///
    /// Public for: §IV-A, the evaluator's energy metric (busy against idle
    /// time).
    pub fn busy_seconds(&self) -> f64 {
        self.busy_s
    }

    /// Modeled joules so far.
    pub fn energy_j(&self) -> f64 {
        self.model
            .energy_j(self.busy_s, self.started.elapsed().as_secs_f64())
    }

    /// Average power so far in watts.
    pub fn average_power_w(&self) -> f64 {
        let t = self.started.elapsed().as_secs_f64();
        if t > 0.0 {
            self.energy_j() / t
        } else {
            self.model.idle_w
        }
    }
}

impl Event for EnergyMetric {
    fn begin(&mut self, phase: Phase, _id: usize) {
        if matches!(phase, Phase::OperatorForward | Phase::OperatorBackward) {
            self.op_start = Some(Instant::now());
        }
    }
    fn end(&mut self, phase: Phase, _id: usize) {
        if matches!(phase, Phase::OperatorForward | Phase::OperatorBackward) {
            if let Some(s) = self.op_start.take() {
                self.busy_s += s.elapsed().as_secs_f64();
            }
        }
    }
    /// Off-thread-timed operator spans carry their duration; accumulate it
    /// directly instead of timing the ~0 s begin/end forwarding gap.
    fn span(&mut self, phase: Phase, _id: usize, seconds: f64) {
        if matches!(phase, Phase::OperatorForward | Phase::OperatorBackward) {
            self.busy_s += seconds;
        }
    }
}

impl TestMetric for EnergyMetric {
    fn name(&self) -> &str {
        "energy"
    }
    fn observe(&mut self, value: f64) {
        self.busy_s += value;
    }
    fn summarize(&self) -> MetricValue {
        MetricValue::Scalar(self.energy_j())
    }
    fn render(&self) -> String {
        format!(
            "energy: {:.2} J (avg {:.1} W, busy {:.3} s)",
            self.energy_j(),
            self.average_power_w(),
            self.busy_s
        )
    }
    fn reset(&mut self) {
        self.busy_s = 0.0;
        self.started = Instant::now();
        self.op_start = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_model_energy() {
        let m = PowerModel {
            active_w: 100.0,
            idle_w: 10.0,
        };
        assert_eq!(m.energy_j(1.0, 2.0), 110.0);
        assert_eq!(m.energy_j(2.0, 2.0), 200.0);
        // busy > total clamps idle at 0
        assert_eq!(m.energy_j(3.0, 2.0), 300.0);
    }

    #[test]
    fn presets_ordered_by_power() {
        assert!(PowerModel::p100().active_w > PowerModel::xeon().active_w);
        assert!(PowerModel::xeon().active_w > PowerModel::mobile_soc().active_w);
    }

    #[test]
    fn event_accumulates_busy_time() {
        let mut e = EnergyMetric::new(PowerModel::xeon());
        e.begin(Phase::OperatorForward, 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        e.end(Phase::OperatorForward, 0);
        assert!(e.busy_seconds() >= 0.004);
        assert!(e.energy_j() > 0.0);
        let avg = e.average_power_w();
        assert!(avg > PowerModel::xeon().idle_w * 0.9);
        assert!(avg <= PowerModel::xeon().active_w * 1.1);
        e.reset();
        assert_eq!(e.busy_seconds(), 0.0);
    }

    #[test]
    fn span_accumulates_reported_duration() {
        // Regression: the default `span` forwarding recorded ~0 s of busy
        // time for off-thread-timed operators.
        let mut e = EnergyMetric::new(PowerModel::p100());
        e.span(Phase::OperatorForward, 0, 0.5);
        e.span(Phase::OperatorBackward, 0, 0.25);
        e.span(Phase::Iteration, 0, 10.0); // not busy time
        assert!((e.busy_seconds() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn non_operator_phases_ignored() {
        let mut e = EnergyMetric::new(PowerModel::p100());
        e.begin(Phase::Epoch, 0);
        e.end(Phase::Epoch, 0);
        assert_eq!(e.busy_seconds(), 0.0);
    }
}
