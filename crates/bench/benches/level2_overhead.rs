//! §V-D "Optimization Overhead" — Deep500 instrumentation costs <1%.
//!
//! The paper measures "the runtime of training in native TensorFlow and
//! using the Deep500 TensorFlow integration": apart from first-epoch
//! instantiation, Deep500 incurs negligible (<1%) overhead (≈243 ms/epoch
//! either way). Here: the same training loop runs (a) bare, and (b) with
//! the full Deep500 instrumentation attached — wallclock events on every
//! operator plus the FrameworkOverhead probe — and the two per-epoch
//! medians are compared.

use deep500::graph::executor::FrameworkOverheadProbe;
use deep500::metrics::event::Phase;
use deep500::metrics::stats::Summary;
use deep500::metrics::WallclockTime;
use deep500::prelude::*;
use deep500_bench::{banner, reruns, scale, Scale};
use std::sync::Arc;

fn epoch_times(instrumented: bool, epochs: usize) -> Vec<f64> {
    let (hw, len, batch) = if scale() == Scale::Full {
        (28, 1024, 64)
    } else {
        (16, 256, 32)
    };
    let train_ds = SyntheticDataset::new("ovh", Shape::new(&[1, hw, hw]), 10, len, 0.4, 20);
    let net = models::lenet(1, hw, 10, 20).unwrap();
    let mut ex = FrameworkExecutor::new(&net, FrameworkProfile::tensorflow()).unwrap();
    if instrumented {
        // The full metric stack: per-operator wallclock, whole-pass
        // wallclock, and the framework-overhead probe.
        ex.events_mut()
            .push(Box::new(WallclockTime::new(Phase::OperatorForward)));
        ex.events_mut()
            .push(Box::new(WallclockTime::new(Phase::OperatorBackward)));
        ex.events_mut()
            .push(Box::new(WallclockTime::new(Phase::Backprop)));
        ex.events_mut()
            .push(Box::new(FrameworkOverheadProbe::new()));
    }
    let mut sampler = ShuffleSampler::new(Arc::new(train_ds), batch, 6);
    let mut opt = GradientDescent::new(0.05);
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs,
        ..Default::default()
    });
    let log = runner.run(&mut opt, &mut ex, &mut sampler, None).unwrap();
    log.epoch_times
}

fn main() {
    banner(
        "§V-D — Level-2 optimization overhead",
        "native training loop vs the same loop under full Deep500 instrumentation",
    );
    let epochs = reruns().max(5);

    let native = epoch_times(false, epochs);
    let instrumented = epoch_times(true, epochs);
    // Drop the first epoch (instantiation overhead, as the paper does).
    let native_s = Summary::of(&native[1..]);
    let instr_s = Summary::of(&instrumented[1..]);

    let mut table = Table::new(
        "per-epoch runtime (first epoch excluded)",
        &["configuration", "median [ms]", "95% CI [ms]"],
    );
    for (name, s) in [("native", &native_s), ("Deep500-instrumented", &instr_s)] {
        table.row(&[
            name.to_string(),
            format!("{:.2}", s.median * 1e3),
            format!("[{:.2}, {:.2}]", s.median_ci.lo * 1e3, s.median_ci.hi * 1e3),
        ]);
    }
    table.print();

    let overhead = (instr_s.median - native_s.median) / native_s.median * 100.0;
    println!(
        "\nmeasured instrumentation overhead: {overhead:+.2}% \
         (paper claims <1%; CIs overlapping = statistically indistinguishable: {})",
        native_s.median_ci.overlaps(&instr_s.median_ci)
    );
}
