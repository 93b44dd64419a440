//! `bricks` — brick-level benchmark generation and runtime prediction.
//!
//! The DLBricks-style pipeline over the model zoo:
//!
//! 1. decompose every zoo model into canonical bricks (op kind, resolved
//!    shapes, attributes, dtype, dispatch tier, wanted input gradients),
//! 2. deduplicate bricks across the zoo (the dedup ratio is the measured
//!    benchmarking-cost saving),
//! 3. micro-benchmark each unique brick once through the Engine/Session
//!    front door,
//! 4. predict each model's forward and training-step time by summing its
//!    bricks' costs plus a calibrated per-node dispatch overhead, and
//!    validate against whole-model `TraceRecorder` measurements.
//!
//! Bricks, calibration chains and whole models are all subjects of one
//! `time_rounds` call, so machine-speed drift over the run hits both sides
//! of the predicted-vs-measured comparison equally.
//!
//! Writes `BENCH_bricks.json`; gates: geometric-mean relative prediction
//! error ≤ 25%, dedup ratio ≥ 1.2, and a sane report (every brick and
//! model row measured, the zoo not shrunk).
//!
//! Run with: `cargo run --release -p deep500-bench -- bricks`

use crate::bricks::{
    decompose, dedup, microbench, predict, BrickCost, BrickKey, Calibration, MicroRunner,
};
use crate::{scale, time_rounds, Report, Scale, Subject};
use deep500::graph::models::{feed_refs, zoo, ZooCase};
use deep500::graph::{Engine, ExecutorKind};
use deep500::metrics::{Json, Phase, TraceRecorder};
use deep500::tensor::Tensor;
use std::collections::HashMap;

/// Whole-model ground truth: a traced engine whose `TraceRecorder` phase
/// deltas give one forward pass (`Inference`) and one training step
/// (`Backprop`, whose span covers the forward half too).
struct ModelBench {
    recorder: TraceRecorder,
    engine: Engine,
    feeds: Vec<(String, Tensor)>,
}

impl ModelBench {
    fn new(case: &ZooCase) -> ModelBench {
        let recorder = TraceRecorder::new();
        let engine = Engine::builder(case.net.clone_structure())
            .executor(ExecutorKind::Reference)
            .trace(&recorder)
            .build()
            .unwrap_or_else(|e| panic!("{}: engine: {e}", case.name));
        ModelBench {
            recorder,
            engine,
            feeds: case.feeds(0xbead),
        }
    }

    /// One re-warming step, then one measured forward pass and one
    /// measured training step: `[forward, train]` phase deltas.
    fn subject(&self) -> Subject<'_, 2> {
        Subject::spans(move || {
            let feeds = feed_refs(&self.feeds);
            let session = self.engine.session();
            let train = || {
                session
                    .infer_and_backprop(&feeds, "loss")
                    .expect("model train");
            };
            train();
            let f0 = self.recorder.phase_total_s(Phase::Inference);
            session.infer(&feeds).expect("model infer");
            let fwd = self.recorder.phase_total_s(Phase::Inference) - f0;
            let t0 = self.recorder.phase_total_s(Phase::Backprop);
            train();
            [fwd, self.recorder.phase_total_s(Phase::Backprop) - t0]
        })
    }
}

pub fn run(report: &mut Report) {
    let warmup = 3;
    // Sub-microsecond bricks need more rounds than the default for a
    // steady median on a shared machine; the pipeline still takes seconds.
    let rounds = match scale() {
        Scale::Smoke => 8,
        Scale::Default => 12,
        Scale::Full => 30,
    };
    let zoo = zoo();

    // ---- 1. Decompose, 2. deduplicate --------------------------------------
    let per_model: Vec<(String, Vec<_>)> = zoo
        .iter()
        .map(|case| {
            let instances = decompose(&case.net, &case.input_shapes(), "loss")
                .unwrap_or_else(|e| panic!("decompose failed: {e}"));
            (case.name.to_string(), instances)
        })
        .collect();
    let set = dedup(&per_model);

    // ---- 3. One interleaved measurement: bricks, chains, whole models ------
    let runner = MicroRunner::new(&set).unwrap_or_else(|e| panic!("micro-networks: {e}"));
    let calibration = Calibration::new().unwrap_or_else(|e| panic!("calibration: {e}"));
    let model_benches: Vec<ModelBench> = zoo.iter().map(ModelBench::new).collect();
    let mut subjects = runner.subjects();
    let chains_at = subjects.len();
    subjects.extend(calibration.subjects());
    let models_at = subjects.len();
    subjects.extend(model_benches.iter().map(ModelBench::subject));
    let summaries = time_rounds(warmup, rounds, &mut subjects);
    drop(subjects);

    let costs_vec = microbench::costs(&summaries[..chains_at]);
    let overhead = calibration.solve(&summaries[chains_at..models_at]);
    let costs: HashMap<BrickKey, BrickCost> = set
        .bricks
        .iter()
        .zip(&costs_vec)
        .map(|(b, c)| (b.key.clone(), *c))
        .collect();

    // ---- 4. Predict vs. measure --------------------------------------------
    let mut model_rows = Vec::new();
    let mut log_errs = Vec::new();
    let mut rows_sane = true;
    for ((name, instances), [fwd, train]) in per_model.iter().zip(&summaries[models_at..]) {
        let (meas_fwd, meas_train) = (fwd.median, train.median);
        let pred =
            predict(instances, &costs, &overhead).unwrap_or_else(|e| panic!("predict failed: {e}"));
        let fwd_err = ((pred.forward_s - meas_fwd).abs() / meas_fwd).max(1e-4);
        let train_err = ((pred.train_s - meas_train).abs() / meas_train).max(1e-4);
        log_errs.extend([fwd_err.ln(), train_err.ln()]);
        rows_sane &= meas_train > meas_fwd && meas_fwd > 0.0;
        model_rows.push(Json::obj([
            ("model", Json::from(name.as_str())),
            ("nodes", Json::from(instances.len())),
            ("predicted_forward_ms", Json::fixed(pred.forward_s * 1e3, 6)),
            ("measured_forward_ms", Json::fixed(meas_fwd * 1e3, 6)),
            ("forward_rel_err", Json::fixed(fwd_err, 4)),
            ("predicted_train_ms", Json::fixed(pred.train_s * 1e3, 6)),
            ("measured_train_ms", Json::fixed(meas_train * 1e3, 6)),
            ("train_rel_err", Json::fixed(train_err, 4)),
        ]));
    }
    let geomean = (log_errs.iter().sum::<f64>() / log_errs.len() as f64).exp();

    // ---- BENCH_bricks.json -------------------------------------------------
    let brick_rows: Vec<Json> = set
        .bricks
        .iter()
        .zip(&costs_vec)
        .map(|(b, c)| {
            Json::obj([
                ("brick", Json::from(b.key.render())),
                ("count", Json::from(b.count)),
                ("forward_ms", Json::fixed(c.forward_s * 1e3, 6)),
                ("backward_ms", Json::fixed(c.backward_s * 1e3, 6)),
            ])
        })
        .collect();
    rows_sane &= set.bricks.iter().all(|b| b.count >= 1)
        && costs_vec.iter().all(|c| c.forward_s >= 0.0)
        && set.total_instances >= set.len()
        && !set.is_empty();
    let us = |s: f64| Json::fixed(s * 1e6, 3);
    report
        .field("rounds", rounds)
        .field("unique_bricks", set.len())
        .field("total_instances", set.total_instances)
        .field("dedup_ratio", Json::fixed(set.dedup_ratio(), 4))
        .field("geomean_rel_err", Json::fixed(geomean, 4))
        .field(
            "overhead_us",
            Json::obj([
                ("forward_fixed", us(overhead.fwd_fixed_s)),
                ("forward_per_node", us(overhead.fwd_per_node_s)),
                ("train_fixed", us(overhead.train_fixed_s)),
                ("train_per_node", us(overhead.train_per_node_s)),
            ]),
        )
        .rows("bricks", brick_rows)
        .rows("models", model_rows)
        .gate(
            "dedup_ratio",
            set.dedup_ratio() >= 1.2,
            format!("{:.2} >= 1.2 (the zoo shares bricks)", set.dedup_ratio()),
        )
        .gate(
            "geomean_rel_err",
            geomean <= 0.25,
            format!(
                "{geomean:.3} <= 0.25 over {} (model x pass) pairs",
                log_errs.len()
            ),
        )
        .gate(
            "zoo_size",
            per_model.len() >= 5,
            format!("{} models >= 5", per_model.len()),
        )
        .gate(
            "rows_measured",
            rows_sane,
            "every brick counted and timed; every model's train step > forward pass > 0",
        );
}
