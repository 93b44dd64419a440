//! Chaos tests: the fault-injection subsystem's contract.
//!
//! Three properties anchor the design (ISSUE acceptance criteria):
//!
//! 1. a **zero-fault plan is bit-identical** to the fault-free path for
//!    every deterministic variant — the decorator and the `_among`
//!    collectives must be exact no-ops when nothing fails,
//! 2. under a seeded 10% drop plan, **stale-synchronous SGD keeps
//!    converging** (lost pushes are absorbed by staleness) while **PSSGD
//!    aborts cleanly** with a typed error when retries are exhausted —
//!    no panic, no deadlock,
//! 3. the **same seed yields the same injected fault sequence** (and
//!    therefore the same losses and counters) — reproducible chaos, the
//!    paper's determinism pillar applied to failure.

use deep500_data::synthetic::SyntheticDataset;
use deep500_data::Dataset;
use deep500_dist::runner::{DistributedRunner, RankStatus, Variant};
use deep500_dist::{FaultPlan, NetworkModel};
use deep500_graph::{models, Network};
use deep500_tensor::Shape;
use std::sync::Arc;

fn dataset(len: usize) -> Arc<dyn Dataset> {
    Arc::new(SyntheticDataset::new(
        "chaos",
        Shape::new(&[10]),
        3,
        len,
        0.3,
        77,
    ))
}

fn net() -> Network {
    models::mlp(10, &[8], 3, 5).unwrap()
}

fn runner(variant: Variant) -> DistributedRunner {
    DistributedRunner::new(&net(), dataset(256))
        .world(4)
        .batch(4)
        .steps(6)
        .seed(11)
        .learning_rate(0.05)
        .variant(variant)
}

/// Acceptance criterion: running under a zero-fault plan is bit-identical
/// to the fault-free path, for all (deterministic) variants. ASGD is
/// excluded: its server applies updates in whatever order worker messages
/// arrive, so even two fault-free runs differ.
#[test]
fn zero_fault_plan_is_bit_identical_for_all_variants() {
    let variants = [
        Variant::Cdsgd,
        Variant::RefDsgd,
        Variant::Horovod,
        Variant::Pssgd,
        Variant::StaleSynchronous { max_staleness: 1 },
        Variant::Dpsgd,
        Variant::Mavg { period: 2 },
        Variant::SparCml { density: 0.3 },
        Variant::SignSgd,
    ];
    for variant in variants {
        let name = variant.name();
        let plain = runner(variant.clone()).run().unwrap();
        let wrapped = runner(variant).faults(FaultPlan::seeded(99)).run().unwrap();
        assert!(wrapped.all_completed(), "{name}");
        assert_eq!(
            wrapped.faults(),
            Default::default(),
            "{name}: zero-fault plan must inject nothing"
        );
        for (a, b) in plain.ranks.iter().zip(&wrapped.ranks) {
            assert_eq!(a.losses, b.losses, "{name} rank {}: losses", a.rank);
            for ((n1, v1), (n2, v2)) in a.final_params.iter().zip(&b.final_params) {
                assert_eq!(n1, n2, "{name}");
                assert_eq!(v1, v2, "{name} rank {} param {n1}", a.rank);
            }
            assert_eq!(
                (a.volume.bytes_sent, a.volume.messages_sent),
                (b.volume.bytes_sent, b.volume.messages_sent),
                "{name} rank {}: traffic must be identical",
                a.rank
            );
        }
    }
}

/// Acceptance criterion: under a seeded 10%-drop plan with retries,
/// decentralized variants complete (surviving-rank renormalization is a
/// no-op here — nobody crashes) and the metrics report non-zero
/// retries/recoveries priced through the network model.
#[test]
fn drops_with_retries_recover_and_are_metered() {
    for variant in [Variant::Cdsgd, Variant::Mavg { period: 2 }] {
        let name = variant.name();
        let report = runner(variant)
            .steps(8)
            .network(NetworkModel::aries())
            .faults(FaultPlan::seeded(7).with_drops(0.10, 5).with_patience(0.25))
            .run()
            .unwrap();
        assert!(report.all_completed(), "{name}: retries must mask drops");
        let f = report.faults();
        assert!(f.drops_injected > 0, "{name}: plan must actually drop");
        assert!(f.retries > 0, "{name}: drops must be retried");
        assert!(f.recoveries > 0, "{name}: retransmissions are recoveries");
        assert!(
            f.recovery_virtual_s > 0.0,
            "{name}: recovery must cost virtual time"
        );
        // Synchronous allreduce schemes stay consistent because every
        // message is eventually delivered, in order.
        let c = report.consistency(1e-5);
        assert!(c.is_consistent(), "{name}: {c}");
    }
}

/// Stale-synchronous SGD tolerates unrecovered drops (staleness absorbs
/// the lost round); PSSGD has no such slack and must abort with a typed
/// error — cleanly, within the patience bound, not by panicking or
/// deadlocking.
#[test]
fn ssp_converges_under_drops_while_pssgd_aborts_cleanly() {
    let plan = || {
        FaultPlan::seeded(13)
            .with_drops(0.10, 0) // no retries: drops surface
            .with_patience(0.1)
    };
    let ssp = DistributedRunner::new(&net(), dataset(1024))
        .world(4)
        .batch(8)
        .steps(30)
        .seed(2)
        .learning_rate(0.05)
        .variant(Variant::StaleSynchronous { max_staleness: 1 })
        .faults(plan())
        .run()
        .unwrap();
    assert!(
        ssp.all_completed(),
        "SSP absorbs drops: {:?}",
        ssp.ranks
            .iter()
            .map(|r| (r.rank, r.status.clone()))
            .collect::<Vec<_>>()
    );
    let f = ssp.faults();
    assert!(f.drops_injected > 0, "the plan must actually drop");
    assert!(f.steps_lost > 0, "lost contributions are counted");
    // Converges: late mean loss below early mean loss on every rank.
    for r in &ssp.ranks {
        let head: f32 = r.losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = r.losses[r.losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(tail < head, "rank {}: loss {head} -> {tail}", r.rank);
    }

    let ps = DistributedRunner::new(&net(), dataset(1024))
        .world(4)
        .batch(8)
        .steps(30)
        .seed(2)
        .learning_rate(0.05)
        .variant(Variant::Pssgd)
        .faults(plan())
        .run()
        .unwrap();
    assert!(
        !ps.all_completed(),
        "PSSGD cannot survive unrecovered drops"
    );
    let failed = ps.failed();
    assert!(!failed.is_empty());
    for r in failed {
        match &r.status {
            RankStatus::Failed(msg) => {
                let msg = msg.to_lowercase();
                assert!(
                    msg.contains("dropped")
                        || msg.contains("timed out")
                        || msg.contains("closed")
                        || msg.contains("dead"),
                    "rank {} must carry a typed cause, got: {msg}",
                    r.rank
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}

/// Acceptance criterion: same seed ⇒ same injected fault sequence. The
/// witness is threefold: identical counters, identical losses, identical
/// parameters. A different seed must produce a different schedule.
#[test]
fn same_seed_means_same_faults() {
    let run = |seed: u64| {
        runner(Variant::Cdsgd)
            .steps(8)
            .network(NetworkModel::aries())
            .faults(
                FaultPlan::seeded(seed)
                    .with_drops(0.15, 5)
                    .with_delays(0.2, 4.0)
                    .with_patience(0.25),
            )
            .run()
            .unwrap()
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.faults(), b.faults(), "counters must replay exactly");
    for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
        assert_eq!(ra.losses, rb.losses);
        assert_eq!(ra.faults, rb.faults, "per-rank counters replay");
    }
    let c = run(43);
    assert_ne!(
        a.faults(),
        c.faults(),
        "a different seed should produce a different fault schedule"
    );
}

/// Graceful degradation: a planned crash kills one rank; the surviving
/// ranks of decentralized schemes re-form the ring, renormalize the
/// average over the live group, and finish consistent with each other.
#[test]
fn decentralized_survivors_renormalize_after_crash() {
    for variant in [
        Variant::Cdsgd,
        Variant::Horovod,
        Variant::Mavg { period: 2 },
    ] {
        let name = variant.name();
        let report = runner(variant)
            .steps(8)
            .faults(FaultPlan::seeded(5).with_crash(2, 4).with_patience(0.25))
            .run()
            .unwrap();
        assert_eq!(
            report.ranks[2].status,
            RankStatus::Crashed { at_step: 4 },
            "{name}"
        );
        assert_eq!(report.ranks[2].losses.len(), 4, "{name}: trained to crash");
        for r in [0usize, 1, 3] {
            assert_eq!(
                report.ranks[r].status,
                RankStatus::Completed,
                "{name} rank {r} must survive"
            );
            assert_eq!(report.ranks[r].losses.len(), 8, "{name} rank {r}");
        }
        let f = report.faults();
        assert_eq!(f.crashes_injected, 1, "{name}");
        assert!(f.recoveries > 0, "{name}: survivors detect and re-form");
        // Survivors agree among themselves (consistency() skips the
        // crashed rank).
        let c = report.consistency(1e-5);
        assert_eq!(c.ranks_checked, 3, "{name}");
        assert!(c.is_consistent(), "{name}: {c}");
    }
}

/// PSSGD fail-over: when the server (lowest rank) crashes, the lowest
/// *live* rank takes over — synchronous PS keeps every replica identical,
/// so survivors continue consistently.
#[test]
fn pssgd_fails_over_to_lowest_live_rank() {
    let report = runner(Variant::Pssgd)
        .steps(8)
        .faults(FaultPlan::seeded(3).with_crash(0, 3).with_patience(0.25))
        .run()
        .unwrap();
    assert_eq!(report.ranks[0].status, RankStatus::Crashed { at_step: 3 });
    for r in 1..4 {
        assert_eq!(
            report.ranks[r].status,
            RankStatus::Completed,
            "rank {r} must ride out the fail-over"
        );
    }
    let c = report.consistency(1e-5);
    assert_eq!(c.ranks_checked, 3);
    assert!(c.is_consistent(), "{c}");
}

/// Stragglers do not change the math, only the virtual clock, for every
/// built-in scheme: the slowed rank's virtual time grows, the plan counts
/// its slowdowns, the run still moves bytes, and ranks that agree without
/// a straggler still agree with one. Each assertion reads one of the
/// scheme's communicator-forwarding methods (`advance_virtual` and
/// `virtual_time`, `fault_stats`, `comm_stats`), so a scheme whose
/// forwarding fell back to a default would fail here. ASGD is exempt
/// from the bitwise loss comparison, as in the zero-fault test.
#[test]
fn straggler_slows_the_clock_not_the_math() {
    let variants = [
        Variant::Cdsgd,
        Variant::RefDsgd,
        Variant::Horovod,
        Variant::Pssgd,
        Variant::Asgd,
        Variant::StaleSynchronous { max_staleness: 1 },
        Variant::Dpsgd,
        Variant::Mavg { period: 2 },
        Variant::SparCml { density: 0.3 },
        Variant::SignSgd,
    ];
    for variant in variants {
        let name = variant.name();
        let deterministic = !matches!(variant, Variant::Asgd);
        let plain = runner(variant.clone()).run().unwrap();
        let slowed = runner(variant)
            .faults(FaultPlan::seeded(1).with_straggler(1, 8.0))
            .run()
            .unwrap();
        assert!(slowed.all_completed(), "{name}");
        assert!(slowed.faults().straggler_slowdowns > 0, "{name}");
        assert!(slowed.volume().total_bytes() > 0, "{name}: no traffic");
        if deterministic {
            for (a, b) in plain.ranks.iter().zip(&slowed.ranks) {
                assert_eq!(a.losses, b.losses, "{name}: straggling is timing-only");
            }
        }
        if deterministic && plain.consistency(1e-5).is_consistent() {
            let c = slowed.consistency(1e-5);
            assert!(c.is_consistent(), "{name}: {c}");
        }
        // The straggler's own clock stretched measurably.
        assert!(
            slowed.ranks[1].virtual_time > plain.ranks[1].virtual_time,
            "{name}: {} !> {}",
            slowed.ranks[1].virtual_time,
            plain.ranks[1].virtual_time
        );
    }
}
