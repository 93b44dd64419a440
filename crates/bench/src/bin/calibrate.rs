//! `calibrate` — one-shot kernel speed report for this host.
//!
//! Prints the wallclock of the paper's two highlighted problem sizes
//! (Fig. 6's box-plot kernels) across the substrate's algorithm choices,
//! so benchmark scales can be picked for the machine at hand.
//!
//! Run with: `cargo run --release -p deep500-bench --bin calibrate`

use deep500::metrics::stats::Summary;
use deep500::ops::conv::{Conv2dOp, ConvAlgorithm};
use deep500::ops::deepbench::{HIGHLIGHTED_CONV, HIGHLIGHTED_GEMM};
use deep500::ops::gemm::{matmul, Algorithm};
use deep500::ops::Operator;
use deep500::prelude::*;
use deep500_bench::{reruns, time_rounds, Subject};

fn print_tier(tier: String, wall: &Summary, flops: f64) {
    println!(
        "  {tier:>9}: {:8.1} ms  ({:.2} GFLOP/s)",
        wall.median * 1e3,
        flops / wall.median / 1e9
    );
}

fn main() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    println!(
        "host calibration ({} logical cores)\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let g = HIGHLIGHTED_GEMM;
    println!("GEMM {}x{}x{} (Fig. 6b highlight):", g.m, g.n, g.k);
    let a = Tensor::rand_uniform([g.m, g.k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([g.k, g.n], -1.0, 1.0, &mut rng);
    let tiers = [Algorithm::Blocked, Algorithm::Parallel, Algorithm::Packed];
    let mut subjects: Vec<Subject<1>> = tiers
        .iter()
        .map(|&algo| {
            let (a, b) = (&a, &b);
            Subject::wall(move || matmul(algo, a, b).unwrap())
        })
        .collect();
    // The warm-up round pays first-touch, packing and scratch growth, so
    // the tier that happens to run first does not look slower than it is.
    for (algo, [t]) in tiers.iter().zip(time_rounds(1, reruns(), &mut subjects)) {
        print_tier(format!("{algo:?}"), &t, g.flops());
    }
    drop(subjects);

    let c = HIGHLIGHTED_CONV;
    println!(
        "\nconv N={} C={} H=W={} k={} (Fig. 6a highlight):",
        c.n, c.c, c.h, c.r
    );
    let x = Tensor::rand_uniform([c.n, c.c, c.h, c.w], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform([c.k, c.c, c.r, c.r], -0.5, 0.5, &mut rng);
    let bias = Tensor::zeros([c.k]);
    let tiers = [
        ConvAlgorithm::Direct,
        ConvAlgorithm::Im2col,
        ConvAlgorithm::Winograd,
    ];
    let ops: Vec<Conv2dOp> = tiers
        .iter()
        .map(|&algo| Conv2dOp::new(c.stride, c.pad, algo))
        .collect();
    let mut subjects: Vec<Subject<1>> = ops
        .iter()
        .map(|op| Subject::wall(|| op.forward(&[&x, &w, &bias]).unwrap()))
        .collect();
    for (algo, [t]) in tiers.iter().zip(time_rounds(1, reruns(), &mut subjects)) {
        print_tier(format!("{algo:?}"), &t, c.flops());
    }
    println!(
        "\nuse D5_BENCH_SCALE=full for paper-size benchmark sweeps if these\nkernels complete in well under a second each."
    );
}
