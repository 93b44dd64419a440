//! The runner's default executor is a speed choice, not a numerical one:
//! every deterministic scheme trains to the same bits on the plan
//! interpreter (the default) as on the serial `ReferenceExecutor` oracle —
//! losses and final parameters, every rank, at worlds 2 and 4, and under a
//! zero-fault plan. ASGD and stale-synchronous SGD apply updates in arrival
//! order, so two runs of either differ on any executor; they are not here.

use deep500_data::synthetic::SyntheticDataset;
use deep500_data::Dataset;
use deep500_dist::runner::{DistributedRunner, RunReport, Variant};
use deep500_dist::FaultPlan;
use deep500_graph::{models, ExecutorKind, Network};
use deep500_tensor::Shape;
use std::sync::Arc;

fn dataset() -> Arc<dyn Dataset> {
    Arc::new(SyntheticDataset::new(
        "executor-parity",
        Shape::new(&[32]),
        4,
        256,
        0.3,
        31,
    ))
}

fn net() -> Network {
    models::mlp(32, &[64, 32], 4, 17).unwrap()
}

fn runner(variant: Variant, world: usize) -> DistributedRunner {
    DistributedRunner::new(&net(), dataset())
        .world(world)
        .batch(8)
        .steps(5)
        .seed(3)
        .learning_rate(0.05)
        .variant(variant)
}

type Bits = Vec<(Vec<u32>, Vec<(String, Vec<u32>)>)>;

/// Every rank's losses and final parameters, as bits.
fn bits(report: &RunReport) -> Bits {
    let as_bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect();
    report
        .ranks
        .iter()
        .map(|r| {
            let params = r.final_params.iter();
            (
                as_bits(&r.losses),
                params.map(|(name, v)| (name.clone(), as_bits(v))).collect(),
            )
        })
        .collect()
}

/// `runner` on the default executor and on the oracle: both complete and
/// agree bit for bit on every rank.
fn assert_default_matches_oracle(label: &str, runner: impl Fn() -> DistributedRunner) {
    let planned = runner().run().unwrap();
    let oracle = runner().executor(ExecutorKind::Reference).run().unwrap();
    assert!(planned.all_completed() && oracle.all_completed(), "{label}");
    assert_eq!(bits(&planned), bits(&oracle), "{label}");
}

#[test]
fn every_deterministic_scheme_trains_to_the_oracles_bits() {
    let variants = [
        Variant::Cdsgd,
        Variant::RefDsgd,
        Variant::Horovod,
        Variant::Pssgd,
        Variant::Dpsgd,
        Variant::Mavg { period: 2 },
        Variant::SparCml { density: 0.25 },
        Variant::SignSgd,
    ];
    for variant in variants {
        for world in [2, 4] {
            let label = format!("{} at world {world}", variant.name());
            assert_default_matches_oracle(&label, || runner(variant.clone(), world));
        }
    }
}

#[test]
fn a_zero_fault_plan_keeps_the_oracles_bits() {
    assert_default_matches_oracle("CDSGD under a zero-fault plan", || {
        runner(Variant::Cdsgd, 4).faults(FaultPlan::seeded(5))
    });
}
