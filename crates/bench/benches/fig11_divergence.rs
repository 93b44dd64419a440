//! Fig. 11 — trajectory divergence between a native optimizer and the
//! Deep500 reference.
//!
//! Reproduces the paper's analysis: run native (fused) Adam and the
//! reference Adam from identical parameters through identical minibatch
//! streams, recording per-layer ℓ2 and ℓ∞ distances per iteration — "a
//! single step … is faithful to the original algorithm, however,
//! continuing training increases divergence, where some parameters (e.g.,
//! fully connected) diverge faster than others (additive bias)".

use deep500::frameworks::fused_optim::FusedAdam;
use deep500::prelude::*;
use deep500::train::trajectory::compare_trajectories;
use deep500_bench::{banner, scale, Scale};
use std::sync::Arc;

fn main() {
    banner(
        "Fig. 11 — native-vs-reference trajectory divergence",
        "per-layer l2/l-inf distance between FusedAdam and reference Adam",
    );
    let iterations = if scale() == Scale::Full { 900 } else { 150 };
    let record_every = (iterations / 10).max(1);

    // MLP on synthetic MNIST-shaped data, as in the paper's Fig. 11 setup.
    let ds: Arc<dyn Dataset> = Arc::new(SyntheticDataset::mnist_like(1024, 42));
    let mut sampler = ShuffleSampler::new(ds, 32, 4);
    let mut batches = Vec::with_capacity(iterations);
    while batches.len() < iterations {
        match sampler.next_batch().unwrap() {
            Some(b) => batches.push(b),
            None => sampler.reset_epoch(),
        }
    }

    let net = models::mlp(28 * 28, &[64, 32], 10, 11).unwrap();
    // The MLP input is flat; flatten the image batches.
    for b in &mut batches {
        let n = b.labels.numel();
        b.x.reshape(&[n, 28 * 28]).unwrap();
    }
    let engine_a = Engine::builder(net.clone_structure()).build().unwrap();
    let engine_b = Engine::builder(net).build().unwrap();
    let (mut exec_a, mut exec_b) = (engine_a.lock(), engine_b.lock());
    let mut native = FusedAdam::new(0.002);
    let mut reference = Adam::new(0.002);

    let log = compare_trajectories(
        &mut *exec_a,
        &mut native,
        &mut *exec_b,
        &mut reference,
        &batches,
    )
    .unwrap();

    // Panel (a): l2 divergence per layer over iterations.
    let mut table = Table::new(
        "l2 divergence (per layer and total) at sampled iterations",
        &{
            let mut h = vec!["iteration", "total"];
            let names: Vec<&str> = log
                .per_param
                .iter()
                .map(|p| Box::leak(p.name.clone().into_boxed_str()) as &str)
                .collect();
            h.extend(names);
            h
        },
    );
    for it in (0..iterations).step_by(record_every) {
        let mut cells = vec![it.to_string(), format!("{:.3e}", log.total_l2[it])];
        for p in &log.per_param {
            cells.push(format!("{:.2e}", p.l2[it]));
        }
        table.row(&cells);
    }
    table.print();

    // Panel (b): l-inf.
    println!(
        "\nl-inf divergence, total: start {:.2e} -> end {:.2e}",
        log.total_linf[0],
        log.total_linf[iterations - 1]
    );

    // Shape checks matching the paper's observations.
    println!("\nreading guide (paper Fig. 11):");
    let first = log.total_l2[0];
    let last = log.total_l2[iterations - 1];
    println!(
        "  * step 1 is (near-)faithful: total l2 after one step = {first:.2e}\n\
         \x20 * divergence grows chaotically with training: {first:.2e} -> {last:.2e} ({}x)",
        (last / first.max(1e-30)) as i64
    );
    // Weight matrices vs bias vectors.
    let weight_end: f64 = log
        .per_param
        .iter()
        .filter(|p| p.name.ends_with(".w"))
        .map(|p| p.l2[iterations - 1])
        .sum();
    let bias_end: f64 = log
        .per_param
        .iter()
        .filter(|p| p.name.ends_with(".b"))
        .map(|p| p.l2[iterations - 1])
        .sum();
    println!(
        "  * fully-connected weights diverge faster than additive biases:\n\
         \x20   weights {weight_end:.2e} vs biases {bias_end:.2e}"
    );
}
