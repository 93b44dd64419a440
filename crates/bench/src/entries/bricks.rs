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
//! Writes `BENCH_bricks.json`: `bricks` rows keyed by `brick` (its
//! multiplicity `count` across the zoo, `forward_ms`, `backward_ms`),
//! `models` rows keyed by `model` (`nodes`, `predicted_forward_ms`,
//! `measured_forward_ms`, `predicted_train_ms`, `measured_train_ms`) and
//! the calibrated dispatch overhead, `overhead` rows keyed by `pass` and
//! `term`. Gates: geometric-mean relative prediction error ≤ 25%, dedup
//! ratio (instances per unique brick, Σ `count` over the brick rows) ≥
//! 1.2, and a sane report (every brick and model row measured, the zoo
//! not shrunk).
//!
//! Run with: `cargo run --release -p deep500-bench -- bricks`

use crate::bricks::{
    decompose, dedup, microbench, predict, BrickCost, BrickKey, Calibration, MicroRunner,
};
use crate::rows::{select, Better, Row, Verdict};
use crate::{scale, time_rounds, Scale, Subject};
use deep500::graph::models::{feed_refs, zoo, ZooCase};
use deep500::graph::{Engine, ExecutorKind};
use deep500::metrics::{Phase, TraceRecorder};
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

pub fn measure() -> Vec<Row> {
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

    // ---- BENCH_bricks.json -------------------------------------------------
    let mut rows = Vec::new();
    for (brick, [forward, backward]) in set.bricks.iter().zip(&summaries[..chains_at]) {
        let row = Row::of("bricks").key("brick", brick.key.render());
        rows.push(row.count("count", Better::None, brick.count));
        rows.push(row.ms("forward_ms", forward));
        rows.push(row.ms("backward_ms", backward));
    }

    // ---- 4. Predict vs. measure --------------------------------------------
    for ((name, instances), [fwd, train]) in per_model.iter().zip(&summaries[models_at..]) {
        let pred =
            predict(instances, &costs, &overhead).unwrap_or_else(|e| panic!("predict failed: {e}"));
        let row = Row::of("models").key("model", name.as_str());
        let predicted = |metric, s: f64| row.value(metric, "ms", Better::None, s * 1e3);
        rows.push(row.count("nodes", Better::None, instances.len()));
        rows.push(predicted("predicted_forward_ms", pred.forward_s));
        rows.push(row.ms("measured_forward_ms", fwd));
        rows.push(predicted("predicted_train_ms", pred.train_s));
        rows.push(row.ms("measured_train_ms", train));
    }
    let terms = [
        ("forward", "fixed", overhead.fwd_fixed_s),
        ("forward", "per_node", overhead.fwd_per_node_s),
        ("train", "fixed", overhead.train_fixed_s),
        ("train", "per_node", overhead.train_per_node_s),
    ];
    for (pass, term, s) in terms {
        let row = Row::of("overhead").key("pass", pass).key("term", term);
        rows.push(row.value("overhead", "us", Better::Lower, s * 1e6));
    }
    rows
}

pub fn dedup_ratio(rows: &[Row]) -> Verdict {
    // Instances per unique brick: Σ `count` over the brick rows, per row.
    let counts: Vec<f64> = select(rows, "bricks", "count").map(|r| r.median).collect();
    let ratio = counts.iter().sum::<f64>() / counts.len() as f64;
    Verdict::new(
        "dedup_ratio",
        ratio >= 1.2,
        format!("{ratio:.2} >= 1.2 (the zoo shares bricks)"),
    )
}

/// A prediction's relative error against its measurement, floored at
/// 1e-4 so one lucky model cannot pull the geometric mean to zero.
fn rel_err(rows: &[Row], model: &Row, pass: &str) -> f64 {
    let predicted = model.median_of(rows, &format!("predicted_{pass}_ms"));
    let measured = model.median_of(rows, &format!("measured_{pass}_ms"));
    ((predicted - measured).abs() / measured).max(1e-4)
}

pub fn geomean_rel_err(rows: &[Row]) -> Verdict {
    let errs: Vec<(String, f64, f64)> = select(rows, "models", "nodes")
        .map(|m| {
            let name = m.text("model").to_string();
            (name, rel_err(rows, m, "forward"), rel_err(rows, m, "train"))
        })
        .collect();
    let logs = errs.iter().flat_map(|(_, f, t)| [f.ln(), t.ln()]);
    let geomean = (logs.sum::<f64>() / (2 * errs.len()) as f64).exp();
    let per_model: Vec<String> = errs
        .iter()
        .map(|(m, f, t)| format!("{m} {f:.3}/{t:.3}"))
        .collect();
    Verdict::new(
        "geomean_rel_err",
        geomean <= 0.25,
        format!(
            "{geomean:.3} <= 0.25 over {} (model x pass) pairs; forward/train per model: \
             {per_model:?}",
            2 * errs.len()
        ),
    )
}

pub fn zoo_size(rows: &[Row]) -> Verdict {
    let models = select(rows, "models", "nodes").count();
    Verdict::new("zoo_size", models >= 5, format!("{models} models >= 5"))
}

pub fn rows_measured(rows: &[Row]) -> Verdict {
    let bricks: Vec<&Row> = select(rows, "bricks", "count").collect();
    let counted = !bricks.is_empty() && bricks.iter().all(|b| b.median >= 1.0);
    let timed = select(rows, "bricks", "forward_ms").all(|r| r.median >= 0.0);
    let mut forward = select(rows, "models", "measured_forward_ms");
    let ordered =
        forward.all(|f| f.median_of(rows, "measured_train_ms") > f.median && f.median > 0.0);
    Verdict::new(
        "rows_measured",
        counted && timed && ordered,
        "every brick counted and timed; every model's train step > forward pass > 0".to_string(),
    )
}
