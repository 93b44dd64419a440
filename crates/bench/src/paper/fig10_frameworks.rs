//! Fig. 10 — one optimizer (Adam) across framework backends.
//!
//! The paper's comparison of "Adam TF", "Adam CF2" (native framework
//! optimizers over their own executors) against "Adam TF Deep500" /
//! "Adam CF2 Deep500" (the reference optimizer over each framework's
//! executor): final accuracy and time per epoch, the four configurations
//! trained an epoch per timing round, interleaved. The paper's TF composes
//! Adam from tensor ops — modeled by the composed reference running over
//! the TF executor; Caffe2's fused Adam kernel is the `FusedAdam` update.
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
use crate::rows::{claim, num, select, text, unless, Timing, Verdict};
use crate::{reruns, scale, time_rounds, Report, Scale, Subject};
use deep500::frameworks::fused_optim::FusedAdam;
use deep500::metrics::Json;
use deep500::prelude::*;

/// How far apart final test accuracies may lie and still be "comparable".
const ACCURACY_BAND: f64 = 0.05;

pub fn frameworks_reach_comparable_accuracy(rows: &[Json]) -> Verdict {
    let accuracies: Vec<f64> = rows.iter().map(|r| num(r, "final_accuracy")).collect();
    let spread = accuracies.iter().fold(f64::NEG_INFINITY, |m, a| m.max(*a))
        - accuracies.iter().fold(f64::INFINITY, |m, a| m.min(*a));
    (
        spread <= ACCURACY_BAND,
        format!("final test accuracies {accuracies:?}: spread {spread:.3} <= {ACCURACY_BAND}"),
    )
}

pub fn tensorflow_executor_slowest(rows: &[Json]) -> Verdict {
    let mut against = Vec::new();
    for tf in select(rows, "executor", "tensorflow") {
        for cf2 in select(rows, "executor", "caffe2") {
            let (slow, fast) = (Timing::read(tf, "epoch"), Timing::read(cf2, "epoch"));
            if fast.above(&slow) {
                against.push(format!(
                    "{} {:.1} ms/epoch above {} {:.1}",
                    text(cf2, "configuration"),
                    fast.ms,
                    text(tf, "configuration"),
                    slow.ms
                ));
            }
        }
    }
    unless("no Caffe2-like epoch CI sits above a TF-like one", against)
}

pub fn reference_costs_no_less_than_native(rows: &[Json]) -> Verdict {
    let mut against = Vec::new();
    let mut factors = Vec::new();
    for reference in select(rows, "optimizer", "reference") {
        let executor = text(reference, "executor");
        let native = select(rows, "executor", executor).find(|r| text(r, "optimizer") == "native");
        let native = Timing::read(native.expect("a native row per executor"), "epoch");
        let own = Timing::read(reference, "epoch");
        factors.push(format!("{executor} {:.2}x", own.ms / native.ms));
        if native.above(&own) {
            against.push(format!(
                "{executor}: reference {:.1} below native {:.1} ms/epoch",
                own.ms, native.ms
            ));
        }
    }
    let (ok, detail) = unless(
        "no native epoch CI sits above its executor's reference run",
        against,
    );
    (ok, format!("{detail}; reference/native {factors:?}"))
}

pub fn section(report: &mut Report) {
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
    let mut subjects: Vec<Subject<1>> = trainees
        .iter_mut()
        .map(|trainee| Subject::spans(move || trainee.epoch()))
        .collect();
    let timed = time_rounds(1, reruns(), &mut subjects);
    drop(subjects);
    let rows: Vec<Json> = configs
        .iter()
        .zip(&trainees)
        .zip(&timed)
        .map(|(((label, profile, optimizer, fused), trainee), [t])| {
            Json::obj([
                ("configuration", Json::from(*label)),
                ("executor", Json::from(profile.name)),
                ("optimizer", Json::from(*optimizer)),
                ("fused", Json::from(*fused)),
                ("epoch", Timing::of(t).json()),
                (
                    "final_accuracy",
                    Json::fixed(*trainee.accuracy.last().expect("epochs ran"), 4),
                ),
            ])
        })
        .collect();
    claim(
        report,
        "frameworks_reach_comparable_accuracy",
        frameworks_reach_comparable_accuracy(&rows),
    );
    claim(
        report,
        "tensorflow_executor_slowest",
        tensorflow_executor_slowest(&rows),
    );
    claim(
        report,
        "reference_costs_no_less_than_native",
        reference_costs_no_less_than_native(&rows),
    );
    report.rows("fig10_frameworks", rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{interval, Span};

    fn rows(cells: [(Span, f64); 4]) -> Vec<Json> {
        let labels = [
            ("Adam TF (native)", "tensorflow", "native"),
            ("Adam CF2 (native, fused)", "caffe2", "native"),
            ("Adam TF Deep500", "tensorflow", "reference"),
            ("Adam CF2 Deep500", "caffe2", "reference"),
        ];
        let row = |((label, executor, optimizer), (epoch, accuracy))| {
            Json::obj([
                ("configuration", Json::from(label)),
                ("executor", Json::from(executor)),
                ("optimizer", Json::from(optimizer)),
                ("epoch", interval(epoch)),
                ("final_accuracy", Json::from(accuracy)),
            ])
        };
        labels.into_iter().zip(cells).map(row).collect()
    }

    #[test]
    fn rows_with_the_papers_shapes_pass_every_gate() {
        let rows = rows([
            ((70.0, 78.0), 0.89),
            ((44.0, 50.0), 0.88),
            ((72.0, 80.0), 0.89),
            ((46.0, 52.0), 0.89),
        ]);
        assert!(frameworks_reach_comparable_accuracy(&rows).0);
        assert!(tensorflow_executor_slowest(&rows).0);
        assert!(reference_costs_no_less_than_native(&rows).0);
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
        assert!(!frameworks_reach_comparable_accuracy(&rows(cells)).0);

        let mut cells = agreeing;
        cells[1].0 = (90.0, 95.0); // a Caffe2-like run slower than both TF runs
        assert!(!tensorflow_executor_slowest(&rows(cells)).0);

        let mut cells = agreeing;
        cells[3].0 = (30.0, 40.0); // the reference Adam cheaper than the fused one
        let (ok, detail) = reference_costs_no_less_than_native(&rows(cells));
        assert!(!ok && detail.contains("caffe2: reference"), "{detail}");
    }
}
