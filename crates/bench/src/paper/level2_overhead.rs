//! §V-D "Optimization Overhead" — Deep500 instrumentation costs <1%.
//!
//! The paper measures "the runtime of training in native TensorFlow and
//! using the Deep500 TensorFlow integration": apart from first-epoch
//! instantiation, Deep500 incurs negligible (<1%) overhead (≈243 ms/epoch
//! either way). Here: the same training loop runs (a) bare, and (b) with
//! the full Deep500 instrumentation attached — wallclock events on every
//! operator plus the FrameworkOverhead probe — an epoch of each per timing
//! round, interleaved, first epoch dropped as the paper does.
//!
//! Expected shape (paper), the gate `instrumentation_within_ci_of_bare`:
//! the instrumented per-epoch median is statistically indistinguishable
//! from the bare one — red only when its CI sits strictly above. (A "<1 %"
//! point threshold is below this host's run-to-run noise; the measured
//! percentage is in the detail.)

use super::Trainee;
use crate::rows::{find, no_slower, Row, Verdict};
use crate::{reruns, scale, Scale};
use deep500::graph::executor::FrameworkOverheadProbe;
use deep500::metrics::event::Phase;
use deep500::metrics::WallclockTime;
use deep500::prelude::*;

pub fn instrumentation_within_ci_of_bare(rows: &[Row]) -> Verdict {
    let epoch = |name| find(rows, "level2_overhead", "epoch", ("configuration", name)).interval();
    let (bare, instrumented) = (epoch("native"), epoch("Deep500-instrumented"));
    no_slower(
        "instrumentation_within_ci_of_bare",
        "the instrumented per-epoch CI does not sit above the bare one",
        [("instrumented vs bare".to_string(), instrumented, bare)],
    )
    .with(format!(
        "median overhead {:+.2}% (paper: <1%)",
        (instrumented.median / bare.median - 1.0) * 100.0
    ))
}

pub fn section() -> Vec<Row> {
    let task = if scale() == Scale::Full {
        (1, 28, 1024, 64)
    } else {
        (1, 16, 256, 32)
    };
    let configurations = ["native", "Deep500-instrumented"];
    let mut trainees = configurations.map(|configuration| {
        let net = models::lenet(1, task.1, 10, 20).expect("lenet");
        let mut ex =
            FrameworkExecutor::new(&net, FrameworkProfile::tensorflow()).expect("executor");
        if configuration != "native" {
            // The full metric stack: per-operator wallclock, whole-pass
            // wallclock, and the framework-overhead probe.
            for phase in [
                Phase::OperatorForward,
                Phase::OperatorBackward,
                Phase::Backprop,
            ] {
                ex.events_mut().push(Box::new(WallclockTime::new(phase)));
            }
            ex.events_mut()
                .push(Box::new(FrameworkOverheadProbe::new()));
        }
        Trainee::new(Box::new(ex), Box::new(GradientDescent::new(0.05)), task, 20)
    });
    let timed = Trainee::train(&mut trainees, reruns().max(5));
    let row = |name: &str| Row::of("level2_overhead").key("configuration", name);
    let rows = configurations.iter().zip(&timed);
    rows.map(|(name, epoch)| row(name).ms("epoch", epoch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::Better;

    fn rows(bare: (f64, f64), instrumented: (f64, f64)) -> [Row; 2] {
        let row = |configuration: &str, (lo, hi): (f64, f64)| {
            let row = Row::of("level2_overhead").key("configuration", configuration);
            row.measured(
                "epoch",
                "ms",
                Better::Lower,
                (lo + hi) / 2.0,
                Some((lo, hi)),
                7,
            )
        };
        [
            row("native", bare),
            row("Deep500-instrumented", instrumented),
        ]
    }

    #[test]
    fn overlapping_intervals_pass_and_a_separated_one_fails() {
        assert!(instrumentation_within_ci_of_bare(&rows((25.7, 27.1), (25.0, 31.3))).ok);
        // Faster under instrumentation is noise, not a contradiction.
        assert!(instrumentation_within_ci_of_bare(&rows((25.7, 27.1), (24.0, 25.0))).ok);
        let v = instrumentation_within_ci_of_bare(&rows((25.7, 27.1), (28.0, 29.0)));
        assert!(!v.ok && v.detail.contains('%'), "{}", v.detail);
    }
}
