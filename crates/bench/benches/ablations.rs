//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These are not paper figures; they justify this reproduction's internal
//! choices with measurements:
//!
//! 1. **Convolution algorithm crossover** — direct vs im2col across
//!    channel counts (why `Auto` is the direct tier; the tracked version
//!    of this table is `BENCH_conv.json`).
//! 2. **GEMM cache blocking** — naive vs blocked/parallel kernels (why the
//!    "cuDNN-class" kernel is the blocked one).
//! 3. **Allreduce algorithm** — ring vs flat under the α-β model across
//!    world sizes (why CDSGD rides on the ring).
//! 4. **Shuffle-buffer capacity** — pseudo-shuffle stochasticity vs buffer
//!    size (quantifying the paper's "reduces stochasticity" remark).

use deep500::data::sampler::{BufferShuffleSampler, DatasetSampler};
use deep500::dist::scaling::{simulate_step, Scheme, WorkloadModel};
use deep500::dist::NetworkModel;
use deep500::ops::conv::{Conv2dOp, ConvAlgorithm};
use deep500::ops::gemm::{matmul, Algorithm};
use deep500::ops::Operator;
use deep500::prelude::*;
use deep500_bench::{banner, measure, scale, Scale};
use std::sync::Arc;

fn main() {
    banner(
        "Ablations — substrate design choices",
        "conv algorithm crossover, GEMM blocking, allreduce schedule, shuffle buffer",
    );
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);

    // 1 ------------------------------------------------------------------
    println!("--- 1. convolution algorithm crossover (3x3, stride 1, 16x16 spatial) ---");
    let mut table = Table::new(
        "median forward time [ms] by channel count",
        &["channels in->out", "direct", "im2col", "winner"],
    );
    let channel_grid: &[(usize, usize)] = if scale() == Scale::Full {
        &[(1, 4), (4, 16), (16, 64), (64, 128)]
    } else {
        &[(1, 4), (4, 16), (16, 32)]
    };
    for &(ci, co) in channel_grid {
        let x = Tensor::rand_uniform([2, ci, 16, 16], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform([co, ci, 3, 3], -0.5, 0.5, &mut rng);
        let b = Tensor::zeros([co]);
        let mut cells = vec![format!("{ci} -> {co}")];
        let mut best = ("", f64::INFINITY);
        for (name, algo) in [
            ("direct", ConvAlgorithm::Direct),
            ("im2col", ConvAlgorithm::Im2col),
        ] {
            let op = Conv2dOp::new(1, 1, algo);
            let s = measure(|| op.forward(&[&x, &w, &b]).unwrap());
            cells.push(format!("{:.3}", s.median * 1e3));
            if s.median < best.1 {
                best = (name, s.median);
            }
        }
        cells.push(best.0.to_string());
        table.row(&cells);
    }
    table.print();

    // 2 ------------------------------------------------------------------
    println!("\n--- 2. GEMM cache blocking ---");
    let n = if scale() == Scale::Full { 512 } else { 256 };
    let a = Tensor::rand_uniform([n, n], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([n, n], -1.0, 1.0, &mut rng);
    let mut base = 0.0;
    for algo in [
        Algorithm::Naive,
        Algorithm::Blocked,
        Algorithm::Parallel,
        Algorithm::Packed,
    ] {
        let s = measure(|| matmul(algo, &a, &b).unwrap());
        if base == 0.0 {
            base = s.median;
        }
        println!(
            "  {algo:>9?}: {:8.2} ms  ({:.1}x vs naive)",
            s.median * 1e3,
            base / s.median
        );
    }

    // 3 ------------------------------------------------------------------
    println!("\n--- 3. allreduce schedule under the Aries model (ResNet-50 buffer) ---");
    let w = WorkloadModel::default();
    let net = NetworkModel::aries();
    let mut table = Table::new(
        "communication seconds per step (compute excluded)",
        &["nodes", "ring (CDSGD)", "flat/PS (TF-PS)", "ring advantage"],
    );
    for nodes in [4usize, 8, 16, 32, 64, 128] {
        let compute = 1.0 * w.compute_s_per_image; // per-node batch of 1
        let ring = simulate_step(Scheme::Cdsgd, nodes, 1, &w, &net).step_time_s - compute;
        let flat = simulate_step(Scheme::TfPs, nodes, 1, &w, &net).step_time_s - compute;
        table.row(&[
            nodes.to_string(),
            format!("{:.4}", ring),
            format!("{:.4}", flat),
            format!("{:.1}x", flat / ring),
        ]);
    }
    table.print();

    // 4 ------------------------------------------------------------------
    println!("\n--- 4. pseudo-shuffle buffer capacity vs stochasticity ---");
    // Metric: over the first epoch batch stream, how far (in dataset
    // positions) can an element travel from its file order? A true shuffle
    // has expected displacement ~len/3; a tiny buffer keeps elements near
    // their original position ("reduces stochasticity").
    let len = 512usize;
    let ds: Arc<dyn Dataset> = Arc::new(SyntheticDataset::mnist_like(len, 77));
    let mut table = Table::new(
        "element displacement vs buffer capacity",
        &["buffer", "mean displacement", "of true-shuffle expectation"],
    );
    // Label each sample by its index via label_of-free trick: use
    // deterministic samples and recover positions from label streams is
    // ambiguous; instead sample indices directly through the sampler by
    // draining batch indices (labels carry class, so track via order of
    // emission against a sequential baseline of the same dataset).
    for capacity in [1usize, 16, 128, 512] {
        let mut s = BufferShuffleSampler::new(ds.clone(), 1, capacity, 5);
        // With batch=1, emission order is a permutation; reconstruct it by
        // matching each emitted sample tensor against its index.
        let mut order = Vec::with_capacity(len);
        let originals: Vec<deep500::data::Sample> =
            (0..len).map(|i| ds.sample(i).unwrap()).collect();
        while let Some(batch) = s.next_batch().unwrap() {
            let emitted = batch.x.data();
            let pos = originals
                .iter()
                .position(|o| o.data.data() == emitted)
                .expect("emitted sample must exist");
            order.push(pos);
        }
        let mean_disp: f64 = order
            .iter()
            .enumerate()
            .map(|(t, &src)| (t as f64 - src as f64).abs())
            .sum::<f64>()
            / len as f64;
        let true_shuffle = len as f64 / 3.0;
        table.row(&[
            capacity.to_string(),
            format!("{mean_disp:.1}"),
            format!("{:.0} %", mean_disp / true_shuffle * 100.0),
        ]);
    }
    table.print();
    println!(
        "\nconclusions: im2col wins once channels amortize the lowering;\n\
         blocking buys the GEMM its speedup; the ring's advantage over the\n\
         PS schedule grows linearly with node count; a small shuffle buffer\n\
         barely displaces elements (the paper's reduced stochasticity),\n\
         approaching a true shuffle only when the buffer spans the dataset."
    );
}
