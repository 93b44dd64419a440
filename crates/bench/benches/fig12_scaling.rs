//! Fig. 12 — strong and weak scaling of distributed training (Level 3).
//!
//! Two parts, mirroring §V-E:
//!
//! 1. **Small-scale ground truth** (real threads, real messages, virtual
//!    clock): four ranks run every scheme on a real model; communication
//!    volumes are exact message counts.
//! 2. **Schedule simulation at paper scale** (8–256 nodes, ResNet-50-like
//!    workload, Aries-like α-β network): strong scaling with a global
//!    minibatch of 1,024 and weak scaling at 128 images/node, plus the
//!    per-node communication-volume table from the figure caption.
//!
//! Expected shapes (paper): CDSGD ≫ REF-dsgd (Python conversions);
//! decentralized beats centralized as nodes grow; ASGD degrades with node
//! count; DPSGD volume constant; SparCML volume < dense at small scale,
//! densifying with nodes; TF-PS crashes and Horovod diverges at 256 nodes.

use deep500::dist::runner::{DistributedRunner, Variant};
use deep500::dist::scaling::{strong_scaling, weak_scaling, Scheme, WorkloadModel};
use deep500::dist::NetworkModel;
use deep500::metrics::report::fmt_bytes;
use deep500::prelude::*;
use deep500_bench::{banner, scale, Scale};
use std::sync::Arc;

fn main() {
    banner(
        "Fig. 12 — strong and weak scaling (Level 3)",
        "real 4-rank runs (ground truth) + schedule simulation at 8-256 nodes",
    );

    // ------------------------------------------- part 1: real threads
    println!("--- ground truth: 4 real ranks, real messages, virtual Aries clock ---");
    let steps = if scale() == Scale::Full { 20 } else { 8 };
    let schemes: Vec<(&str, Variant)> = vec![
        ("CDSGD", Variant::Cdsgd),
        ("REF-dsgd", Variant::RefDsgd),
        ("Horovod", Variant::Horovod),
        ("REF-pssgd", Variant::Pssgd),
        ("REF-asgd", Variant::Asgd),
        ("REF-dpsgd", Variant::Dpsgd),
        ("REF-mavg", Variant::Mavg { period: 2 }),
        ("SparCML", Variant::SparCml { density: 0.1 }),
    ];

    let dataset: Arc<dyn Dataset> = Arc::new(SyntheticDataset::new(
        "fig12",
        Shape::new(&[32]),
        4,
        4096,
        0.3,
        12,
    ));
    let network = models::mlp(32, &[64], 4, 12).unwrap();
    let mut table = Table::new(
        format!("4 ranks x {steps} steps (rank-0 numbers)"),
        &[
            "scheme",
            "loss end",
            "sent/rank",
            "msgs",
            "virtual time [ms]",
        ],
    );
    for (name, variant) in schemes {
        let report = DistributedRunner::new(&network, dataset.clone())
            .world(4)
            .batch(16)
            .steps(steps)
            .seed(3)
            .learning_rate(0.05)
            .variant(variant)
            .network(NetworkModel::aries())
            .run()
            .unwrap();
        let r = &report.ranks[0];
        table.row(&[
            name.to_string(),
            format!("{:.3}", r.losses.last().unwrap()),
            fmt_bytes(r.volume.bytes_sent),
            r.volume.messages_sent.to_string(),
            format!("{:.2}", r.virtual_time * 1e3),
        ]);
    }
    table.print();

    // --------------------------------------- part 2: paper-scale schedules
    let w = WorkloadModel::default();
    let net = NetworkModel::aries();

    println!("\n--- strong scaling: ResNet-50-like, global minibatch 1024, 8-64 nodes ---");
    let nodes = [8usize, 16, 32, 64];
    let mut table = Table::new(
        "aggregate throughput [images/s] (— = failed)",
        &["scheme", "8", "16", "32", "64"],
    );
    for scheme in Scheme::strong_set() {
        let pts = strong_scaling(&[scheme], &nodes, 1024, &w, &net);
        let mut cells = vec![scheme.label().to_string()];
        for p in &pts {
            cells.push(match p.throughput {
                Some(t) => format!("{t:.0}"),
                None => format!("— ({})", p.note.unwrap_or("failed")),
            });
        }
        table.row(&cells);
    }
    table.print();

    println!("\nper-node communicated data per step at 8 nodes (caption analogue):");
    for scheme in Scheme::strong_set() {
        let p = deep500::dist::scaling::simulate_step(scheme, 8, 128, &w, &net);
        println!(
            "  {:>9}: {}",
            scheme.label(),
            fmt_bytes(p.sent_bytes_per_step)
        );
    }

    println!("\n--- weak scaling: 128 images/node, 1-256 nodes ---");
    let nodes = [1usize, 4, 16, 64, 256];
    let mut table = Table::new(
        "aggregate throughput [images/s] (— = failed)",
        &["scheme", "1", "4", "16", "64", "256"],
    );
    for scheme in Scheme::weak_set() {
        let pts = weak_scaling(&[scheme], &nodes, 128, &w, &net);
        let mut cells = vec![scheme.label().to_string()];
        for p in &pts {
            cells.push(match p.throughput {
                Some(t) => format!("{t:.0}"),
                None => format!("— ({})", p.note.unwrap_or("failed")),
            });
        }
        table.row(&cells);
    }
    table.print();
    println!(
        "\nreading guide (paper Fig. 12): the allreduce schemes (CDSGD,\n\
         Horovod) scale past the PS architectures; REF-dsgd trails CDSGD by\n\
         a wide margin (Python conversion overhead); ASGD throughput and\n\
         volume degrade with node count; TF-PS crashes and Horovod's loss\n\
         explodes at 256 nodes."
    );
}
