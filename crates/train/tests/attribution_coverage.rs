//! Whole-run attribution coverage regression.
//!
//! Every second of a traced training run must be owned: either by an
//! operator span (forward/backward kernels) or by an explicitly named
//! non-operator phase — sampling, batch assembly, loss-gradient seeding,
//! optimizer updates, pool/plan bookkeeping. The uninstrumented residual
//! (wavefront dispatch, runner loop glue) must stay below 10% of total
//! epoch wall time, matching the gate `profile` enforces in CI.

use deep500_data::sampler::ShuffleSampler;
use deep500_data::synthetic::SyntheticDataset;
use deep500_graph::{models, Engine, ExecutorKind, GraphExecutor};
use deep500_metrics::event::Phase;
use deep500_metrics::trace::TraceRecorder;
use deep500_tensor::Shape;
use deep500_train::sgd::GradientDescent;
use deep500_train::{TrainingConfig, TrainingRunner};
use std::sync::Arc;

/// Epochs (of four steps each) the coverage ratio is measured over, after
/// one warm-up epoch.
const MEASURED_EPOCHS: usize = 4;

fn run_coverage(kind: ExecutorKind) -> f64 {
    let recorder = TraceRecorder::new();
    let features = 32;
    let net = models::mlp(features, &[128, 64], 4, 42).expect("build mlp");
    let engine = Engine::builder(net)
        .executor(kind)
        .trace(&recorder)
        .build()
        .expect("build engine");
    let mut ex = engine.lock();

    let ds = SyntheticDataset::new("coverage-train", Shape::new(&[features]), 4, 128, 0.2, 7);
    let mut sampler = ShuffleSampler::new(Arc::new(ds), 32, 7);
    let mut opt = GradientDescent::new(0.05);
    // (attributed operator time + owned phases, epoch wall time) so far.
    let totals = |ex: &dyn GraphExecutor| -> (f64, f64) {
        let attributed: f64 = ex.op_attribution().iter().map(|r| r.total_s()).sum();
        let owned: f64 = [
            Phase::Sampling,
            Phase::BatchAssembly,
            Phase::LossSeed,
            Phase::OptimizerUpdate,
            Phase::Bookkeeping,
        ]
        .iter()
        .map(|p| recorder.phase_total_s(*p))
        .sum();
        (attributed + owned, recorder.phase_total_s(Phase::Epoch))
    };
    // Four cold steps of this MLP are ~1 ms in release, and plan build,
    // gates and first touch dominate them: one untimed warm-up epoch, then
    // the floor is asserted on the deltas of the epochs that follow.
    let mut epochs = |epochs: usize| {
        let mut runner = TrainingRunner::new(TrainingConfig {
            epochs,
            ..Default::default()
        });
        runner.events.push(Box::new(recorder.sink("runner")));
        runner
            .run(&mut opt, &mut *ex, &mut sampler, None)
            .expect("training run");
        totals(&*ex)
    };
    let (explained_0, run_0) = epochs(1);
    let (explained, run_total) = epochs(MEASURED_EPOCHS);
    assert!(run_total > run_0, "{kind:?}: epoch phase must be traced");
    (explained - explained_0) / (run_total - run_0)
}

#[test]
fn traced_training_run_attributes_at_least_ninety_percent_of_epoch_time() {
    // The reference row is a tripwire, not the 0.90 gate: its residual is
    // the oracle loop's own per-node glue (node clones, name-keyed
    // environment), which nothing optimises. Measured warmed in release,
    // 2026-09-27, 2 cores, 24 runs: Wavefront 0.905-0.926 (0.848-0.872
    // before the interpreter's backward ran on dense ids), Reference
    // 0.767-0.842.
    for (kind, floor) in [
        (ExecutorKind::Wavefront, 0.90),
        (ExecutorKind::Reference, 0.70),
    ] {
        let coverage = run_coverage(kind);
        println!("{kind:?}: warmed coverage {coverage:.4}");
        assert!(
            coverage >= floor,
            "{kind:?}: warmed whole-run attribution coverage {coverage:.4} \
             fell below the {floor:.2} floor"
        );
        // Owned phases must not double-count operator time: total
        // attribution can never exceed the run itself (small tolerance for
        // timer skew between nested span measurements).
        assert!(
            coverage <= 1.05,
            "{kind:?}: coverage {coverage:.4} over-counts the run"
        );
    }
}

#[test]
fn new_training_phases_are_populated() {
    let recorder = TraceRecorder::new();
    let net = models::mlp(16, &[24], 4, 3).expect("build mlp");
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Wavefront)
        .trace(&recorder)
        .build()
        .expect("build engine");
    let mut ex = engine.lock();
    let ds = SyntheticDataset::new("phase-train", Shape::new(&[16]), 4, 64, 0.2, 5);
    let mut sampler = ShuffleSampler::new(Arc::new(ds), 16, 5);
    let mut opt = GradientDescent::new(0.05);
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: 1,
        ..Default::default()
    });
    runner.events.push(Box::new(recorder.sink("runner")));
    runner
        .run(&mut opt, &mut *ex, &mut sampler, None)
        .expect("training run");
    for phase in [
        Phase::BatchAssembly,
        Phase::LossSeed,
        Phase::OptimizerUpdate,
        Phase::Bookkeeping,
    ] {
        assert!(
            recorder.phase_total_s(phase) > 0.0,
            "{phase:?} must be populated by a traced training run"
        );
    }
}
