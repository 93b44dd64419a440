//! Executor selection: train the same model on the serial reference
//! executor and the level-parallel plan interpreter
//! (`ExecutorKind::Wavefront` and `ExecutorKind::Planned` both select it),
//! and show that the trajectories are bit-identical while the interpreter
//! recycles its allocations.
//!
//! ```text
//! cargo run --release --example executor_selection
//! ```

use deep500::prelude::*;
use std::sync::Arc;

fn train(kind: ExecutorKind, seed: u64) -> deep500::tensor::Result<(Vec<f32>, String)> {
    let net = models::lenet(1, 28, 10, seed)?;
    let engine = Engine::builder(net).executor(kind).build()?;
    let mut executor = engine.lock();
    let ds = SyntheticDataset::mnist_like(96, 7);
    let mut sampler = ShuffleSampler::new(Arc::new(ds), 16, 1);
    let mut opt = Momentum::new(0.02, 0.9);
    let mut runner = TrainingRunner::new(TrainingConfig {
        epochs: 2,
        ..Default::default()
    });
    let log = runner.run(&mut opt, executor.executor(), &mut sampler, None)?;
    let losses = log.step_losses.iter().map(|&(_, loss)| loss).collect();
    Ok((losses, format!("{kind:?}")))
}

fn main() -> deep500::tensor::Result<()> {
    let seed = 42;
    let (ref_losses, _) = train(ExecutorKind::Reference, seed)?;
    let (wf_losses, _) = train(ExecutorKind::Wavefront, seed)?;

    println!("== LeNet, 2 epochs, same seed, both executors ==");
    println!(" step | reference loss | level-parallel loss");
    println!("------+----------------+--------------------");
    let stride = (ref_losses.len() / 6).max(1);
    for (i, (r, w)) in ref_losses.iter().zip(&wf_losses).enumerate() {
        if i % stride == 0 || i + 1 == ref_losses.len() {
            println!(" {i:<4} | {r:<14.6} | {w:<19.6}");
        }
    }

    let identical = ref_losses.len() == wf_losses.len()
        && ref_losses
            .iter()
            .zip(&wf_losses)
            .all(|(r, w)| r.to_bits() == w.to_bits());
    println!(
        "\ntrajectories bit-identical: {identical} ({} steps)",
        ref_losses.len()
    );

    // Peek at the buffers: every pass draws from and returns to one pool.
    let net = models::lenet(1, 14, 4, seed)?;
    let engine = Engine::builder(net)
        .executor(ExecutorKind::Wavefront)
        .build()?;
    let mut wf = engine.lock();
    let feeds = vec![
        ("x", Tensor::ones([2, 1, 14, 14])),
        ("labels", Tensor::from_slice(&[1.0, 3.0])),
    ];
    for _ in 0..3 {
        wf.inference_and_backprop(&feeds, "loss")?;
    }
    let stats = wf
        .buffer_pool_stats()
        .expect("the interpreter pools buffers");
    println!(
        "buffer pool after 3 passes: {} hits, {} misses, {} recycles, {} bytes held",
        stats.hits, stats.misses, stats.recycled, stats.held_bytes
    );
    assert!(identical, "executors diverged");
    Ok(())
}
