//! Fault tolerance — drop-rate × scheme sweep over the Level-3
//! fault-injection subsystem.
//!
//! Two parts:
//!
//! 1. **Real runs** (4 ranks, real messages, seeded fault plans): each
//!    scheme trains under increasing message-drop rates with a bounded
//!    retry budget; the table reports completion, injected/recovered
//!    fault counts, the virtual time spent recovering, and the final
//!    loss. Decentralized and stale-synchronous schemes degrade
//!    gracefully; synchronous PS aborts cleanly once a message exhausts
//!    its retries.
//! 2. **Analytic sweep** at 8–64 nodes via `simulate_step_faulty`:
//!    expected retransmissions E = (1 − p^{k+1})/(1 − p) scale the
//!    communication term of the α-β schedule model.
//!
//! Run with: `cargo bench --bench fault_tolerance`

use deep500::dist::runner::{DistributedRunner, Variant};
use deep500::dist::scaling::{simulate_step_faulty, Scheme, WorkloadModel};
use deep500::dist::{FaultPlan, NetworkModel};
use deep500::metrics::report::fmt_bytes;
use deep500::prelude::*;
use deep500_bench::{banner, scale, Scale};
use std::sync::Arc;

fn main() {
    banner(
        "Fault tolerance — drop-rate x scheme sweep (Level 3)",
        "seeded fault injection on 4 real ranks + analytic 8-64 node sweep",
    );

    // ------------------------------------------------ part 1: real runs
    let steps = if scale() == Scale::Full { 24 } else { 12 };
    let dataset: Arc<dyn Dataset> = Arc::new(SyntheticDataset::new(
        "fault-bench",
        Shape::new(&[16]),
        4,
        2048,
        0.3,
        21,
    ));
    let network = models::mlp(16, &[16], 4, 21).unwrap();
    let variants: Vec<(&str, Variant)> = vec![
        ("CDSGD", Variant::Cdsgd),
        ("Horovod", Variant::Horovod),
        ("SSP(1)", Variant::StaleSynchronous { max_staleness: 1 }),
        ("PSSGD", Variant::Pssgd),
    ];
    let drop_rates = [0.0f64, 0.05, 0.10, 0.20];

    let mut table = Table::new(
        format!("4 ranks x {steps} steps, Aries model, retries=3, seed 42"),
        &[
            "scheme",
            "drop",
            "done",
            "drops",
            "retries",
            "recov",
            "lost",
            "recov t [ms]",
            "loss end",
        ],
    );
    for (name, variant) in &variants {
        for &rate in &drop_rates {
            let report = DistributedRunner::new(&network, dataset.clone())
                .world(4)
                .batch(16)
                .steps(steps)
                .seed(9)
                .learning_rate(0.05)
                .variant(variant.clone())
                .network(NetworkModel::aries())
                .faults(
                    FaultPlan::seeded(42)
                        .with_drops(rate, 3)
                        .with_patience(0.25),
                )
                .run()
                .unwrap();
            let f = report.faults();
            let completed = report.completed();
            let loss = completed
                .first()
                .and_then(|r| r.losses.last())
                .map(|l| format!("{l:.3}"))
                .unwrap_or_else(|| "—".into());
            table.row(&[
                name.to_string(),
                format!("{:.0}%", rate * 100.0),
                format!("{}/4", completed.len()),
                f.drops_injected.to_string(),
                f.retries.to_string(),
                f.recoveries.to_string(),
                f.steps_lost.to_string(),
                format!("{:.3}", f.recovery_virtual_s * 1e3),
                loss,
            ]);
        }
    }
    table.print();

    // A crash scenario: rank 2 dies mid-run; survivors renormalize.
    let report = DistributedRunner::new(&network, dataset.clone())
        .world(4)
        .batch(16)
        .steps(steps)
        .seed(9)
        .learning_rate(0.05)
        .variant(Variant::Cdsgd)
        .network(NetworkModel::aries())
        .faults(
            FaultPlan::seeded(42)
                .with_drops(0.05, 3)
                .with_crash(2, steps as u64 / 2)
                .with_patience(0.25),
        )
        .run()
        .unwrap();
    let c = report.consistency(1e-5);
    println!(
        "\ncrash scenario (CDSGD, rank 2 dies at step {}): {}/4 ranks\n\
         finished, survivor consistency: {}, merged counters: {:?}",
        steps / 2,
        report.completed().len(),
        c.is_consistent(),
        report.faults(),
    );

    // ----------------------------------- part 2: analytic 8-64 node sweep
    let w = WorkloadModel::default();
    let net = NetworkModel::aries();
    println!("\n--- analytic sweep: throughput [images/s] under drops, retries=3 ---");
    let mut table = Table::new(
        "ResNet-50-like, 128 images/node, E=(1-p^(k+1))/(1-p)",
        &["scheme", "nodes", "p=0", "p=0.05", "p=0.2", "sent @ p=0.2"],
    );
    for scheme in [Scheme::Cdsgd, Scheme::RefDpsgd, Scheme::RefPssgd] {
        for nodes in [8usize, 64] {
            let cell = |p: f64| {
                let pt = simulate_step_faulty(scheme, nodes, 128, &w, &net, p, 3);
                match pt.throughput {
                    Some(t) => format!("{t:.0}"),
                    None => format!("— ({})", pt.note.unwrap_or("failed")),
                }
            };
            let sent = simulate_step_faulty(scheme, nodes, 128, &w, &net, 0.2, 3);
            table.row(&[
                scheme.label().to_string(),
                nodes.to_string(),
                cell(0.0),
                cell(0.05),
                cell(0.2),
                fmt_bytes(sent.sent_bytes_per_step),
            ]);
        }
    }
    table.print();
    println!(
        "\nreading guide: every scheme pays E-fold communication under\n\
         drops; the ring schedules merely slow down, while the synchronous\n\
         PS at 64 nodes crosses the permanent-loss threshold and aborts\n\
         once p^(k+1) x 2n messages/step becomes non-negligible."
    );
}
