//! Fig. 10 — one optimizer (Adam) across framework backends.
//!
//! The paper's comparison of "Adam TF", "Adam CF2" (native framework
//! optimizers over their own executors) against "Adam TF Deep500" /
//! "Adam CF2 Deep500" (the reference optimizer over each framework's
//! executor): final accuracy and time per epoch, the four configurations
//! trained an epoch per timing round, interleaved. The paper's TF composes
//! Adam from tensor ops — modeled by the composed reference running over
//! the TF executor; Caffe2's fused Adam kernel is the `FusedAdam` update.
//! `fig10_frameworks` rows are keyed by `configuration`, `executor` and
//! `optimizer` (`native` or `reference`): `epoch` and `final_accuracy`.
//!
//! Expected shapes (paper), each a gate:
//! * all four reach comparable accuracy ("Deep500's Adam … still achieves
//!   high accuracy, even when the framework does not") —
//!   `frameworks_reach_comparable_accuracy`;
//! * the TF executor is the slowest — `tensorflow_executor_slowest`;
//! * the reference optimizer costs more than the native fused one on
//!   either executor — `reference_costs_no_less_than_native`, one-sided:
//!   on the TF-like executor native *is* the composed update, a tie by
//!   construction, and on a small CNN the update hides behind the
//!   convolutions, so only "reference measurably cheaper" contradicts.

use super::Trainee;
use crate::rows::{no_slower, select, Better, Interval, Row, Verdict};
use crate::{reruns, scale, Scale};
use deep500::frameworks::fused_optim::FusedAdam;
use deep500::prelude::*;

/// How far apart final test accuracies may lie and still be "comparable".
const ACCURACY_BAND: f64 = 0.05;

pub fn frameworks_reach_comparable_accuracy(rows: &[Row]) -> Verdict {
    let accuracies = select(rows, "fig10_frameworks", "final_accuracy");
    let accuracies: Vec<f64> = accuracies.map(|r| r.median).collect();
    let spread = accuracies.iter().fold(f64::NEG_INFINITY, |m, a| m.max(*a))
        - accuracies.iter().fold(f64::INFINITY, |m, a| m.min(*a));
    Verdict::new(
        "frameworks_reach_comparable_accuracy",
        spread <= ACCURACY_BAND,
        format!("final test accuracies {accuracies:.3?}: spread {spread:.3} <= {ACCURACY_BAND}"),
    )
}

/// The `epoch` rows whose key `name` reads `value`.
fn epochs<'a>(rows: &'a [Row], name: &'a str, value: &'a str) -> impl Iterator<Item = &'a Row> {
    select(rows, "fig10_frameworks", "epoch").filter(move |r| r.is(name, value))
}

/// `(label, a's epoch, b's epoch)`.
fn epoch_pair(a: &Row, b: &Row) -> (String, Interval, Interval) {
    let label = format!("{} vs {}", a.text("configuration"), b.text("configuration"));
    (label, a.interval(), b.interval())
}

pub fn tensorflow_executor_slowest(rows: &[Row]) -> Verdict {
    let pairs = epochs(rows, "executor", "caffe2")
        .flat_map(|cf2| epochs(rows, "executor", "tensorflow").map(move |tf| epoch_pair(cf2, tf)));
    no_slower(
        "tensorflow_executor_slowest",
        "no Caffe2-like epoch CI sits above a TF-like one",
        pairs,
    )
}

pub fn reference_costs_no_less_than_native(rows: &[Row]) -> Verdict {
    let pairs: Vec<(String, Interval, Interval)> = epochs(rows, "optimizer", "reference")
        .map(|reference| {
            let executor = reference.text("executor");
            let native = epochs(rows, "executor", executor).find(|r| r.is("optimizer", "native"));
            epoch_pair(native.expect("a native row per executor"), reference)
        })
        .collect();
    let factors: Vec<String> = pairs
        .iter()
        .map(|(_, n, r)| format!("{:.2}x", r.median / n.median))
        .collect();
    no_slower(
        "reference_costs_no_less_than_native",
        "no native epoch CI sits above its executor's reference run",
        pairs,
    )
    .with(format!("reference/native {factors:?}"))
}

pub fn section() -> Vec<Row> {
    let task = if scale() == Scale::Full {
        (3, 32, 2048, 64)
    } else {
        (3, 16, 384, 32)
    };
    let configs = [
        (
            "Adam TF (native)",
            FrameworkProfile::tensorflow(),
            "native",
            false,
        ),
        (
            "Adam CF2 (native, fused)",
            FrameworkProfile::caffe2(),
            "native",
            true,
        ),
        (
            "Adam TF Deep500",
            FrameworkProfile::tensorflow(),
            "reference",
            false,
        ),
        (
            "Adam CF2 Deep500",
            FrameworkProfile::caffe2(),
            "reference",
            false,
        ),
    ];
    let mut trainees: Vec<Trainee> = configs
        .iter()
        .map(|(_, profile, _, fused)| {
            let net = models::lenet(3, task.1, 10, 100).expect("lenet");
            let executor = FrameworkExecutor::new(&net, profile.clone()).expect("executor");
            let optimizer: Box<dyn ThreeStepOptimizer> = if *fused {
                Box::new(FusedAdam::new(0.002))
            } else {
                Box::new(Adam::new(0.002))
            };
            Trainee::new(Box::new(executor), optimizer, task, 10)
        })
        .collect();
    let timed = Trainee::train(&mut trainees, reruns());
    let mut rows = Vec::new();
    for (((label, profile, optimizer, _), trainee), epoch) in
        configs.iter().zip(&trainees).zip(&timed)
    {
        let row = Row::of("fig10_frameworks")
            .key("configuration", *label)
            .key("executor", profile.name)
            .key("optimizer", *optimizer);
        rows.push(row.ms("epoch", epoch));
        let accuracy = trainee.final_accuracy();
        rows.push(row.value("final_accuracy", "ratio", Better::Higher, accuracy));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(cells: [((f64, f64), f64); 4]) -> Vec<Row> {
        let labels = [
            ("Adam TF (native)", "tensorflow", "native"),
            ("Adam CF2 (native, fused)", "caffe2", "native"),
            ("Adam TF Deep500", "tensorflow", "reference"),
            ("Adam CF2 Deep500", "caffe2", "reference"),
        ];
        let mut rows = Vec::new();
        for ((label, executor, optimizer), ((lo, hi), accuracy)) in labels.into_iter().zip(cells) {
            let row = Row::of("fig10_frameworks")
                .key("configuration", label)
                .key("executor", executor)
                .key("optimizer", optimizer);
            rows.push(row.measured(
                "epoch",
                "ms",
                Better::Lower,
                (lo + hi) / 2.0,
                Some((lo, hi)),
                7,
            ));
            rows.push(row.value("final_accuracy", "ratio", Better::Higher, accuracy));
        }
        rows
    }

    #[test]
    fn rows_with_the_papers_shapes_pass_every_gate() {
        let rows = rows([
            ((70.0, 78.0), 0.89),
            ((44.0, 50.0), 0.88),
            ((72.0, 80.0), 0.89),
            ((46.0, 52.0), 0.89),
        ]);
        assert!(frameworks_reach_comparable_accuracy(&rows).ok);
        assert!(tensorflow_executor_slowest(&rows).ok);
        assert!(reference_costs_no_less_than_native(&rows).ok);
    }

    #[test]
    fn each_gate_goes_red_on_the_rows_that_contradict_it() {
        let agreeing = [
            ((70.0, 78.0), 0.89),
            ((44.0, 50.0), 0.88),
            ((72.0, 80.0), 0.89),
            ((46.0, 52.0), 0.89),
        ];
        let mut cells = agreeing;
        cells[3].1 = 0.70; // one configuration falls out of the band
        assert!(!frameworks_reach_comparable_accuracy(&rows(cells)).ok);

        let mut cells = agreeing;
        cells[1].0 = (90.0, 95.0); // a Caffe2-like run slower than both TF runs
        assert!(!tensorflow_executor_slowest(&rows(cells)).ok);

        let mut cells = agreeing;
        cells[3].0 = (30.0, 40.0); // the reference Adam cheaper than the fused one
        let v = reference_costs_no_less_than_native(&rows(cells));
        assert!(
            !v.ok && v.detail.contains("Adam CF2 Deep500"),
            "{}",
            v.detail
        );
    }
}
