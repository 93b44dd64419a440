//! `conv` — DeepBench-style convolution tier sweep.
//!
//! Times each convolution execution tier (im2col lowering, Winograd
//! F(2x2, 3x3) where eligible, and the direct NCHWc implicit-GEMM tier)
//! on a fixed set of CNN-inference-class layer shapes from the embedded
//! DeepBench suite family, after asserting pairwise parity within l-inf
//! 1e-4. Emits `BENCH_conv.json` at the repo root with per-tier wall time
//! and achieved GFLOP/s plus the direct-over-im2col speedup per shape,
//! and exits non-zero if any tier diverges from the im2col baseline.
//!
//!
//! A second table times the *backward* pass (`conv::backward_direct`, the
//! blocked GEMM lowering) on training-class cells — the two LeNet convs the
//! spine's `train-cnn` workload runs plus two DeepBench training cells —
//! against the direct-tier forward of the same cell, after a parity gate
//! against the scalar `conv::backward_reference` oracle (relative l-inf
//! 1e-4). `bwd_over_fwd` is the number to watch: backward is twice the
//! forward's FLOPs, so a kernel-speed backward sits in the low single
//! digits.
//!
//! Run with: `cargo run --release -p deep500-bench --bin conv`
//! Set `D5_CONV_SMOKE=1` for the fast CI-sized run.

use deep500::metrics::norms::linf_diff;
use deep500::ops::conv::{self, Conv2dOp, ConvAlgorithm, ConvGeometry};
use deep500::ops::deepbench::ConvSize;
use deep500::ops::Operator;
use deep500::prelude::*;
use std::time::Instant;

/// Six DeepBench-class batch-1 inference cells: a strided stem, the
/// early big-spatial 3x3 body cells (where im2col's materialized `K x P`
/// column matrix runs to 7-14 MB and falls out of cache — the case the
/// direct tier's never-materialized B panels exist for), the mid-network
/// 3x3s at descending spatial / ascending channel extents, and a 1x1
/// projection (im2col's best case: the lowering is the identity, so this
/// cell keeps the sweep honest about where the direct win comes from).
fn cells() -> Vec<(&'static str, ConvSize)> {
    vec![
        ("stem7x7", ConvSize::new(1, 3, 112, 112, 32, 7, 2, 3)),
        ("mobile3x3_112", ConvSize::new(1, 32, 112, 112, 64, 3, 1, 1)),
        ("vgg3x3_56", ConvSize::new(1, 64, 56, 56, 64, 3, 1, 1)),
        ("body3x3_56", ConvSize::new(1, 32, 56, 56, 32, 3, 1, 1)),
        ("body3x3_28", ConvSize::new(1, 64, 28, 28, 64, 3, 1, 1)),
        ("proj1x1", ConvSize::new(1, 64, 28, 28, 128, 1, 1, 0)),
    ]
}

/// Training-class backward cells: LeNet conv1 / conv2 at the spine's batch
/// 32, and two DeepBench training cells (ResNet body 3x3s at batch 8).
fn backward_cells() -> Vec<(&'static str, ConvSize)> {
    vec![
        ("lenet_conv1", ConvSize::new(32, 3, 16, 16, 6, 5, 1, 2)),
        ("lenet_conv2", ConvSize::new(32, 6, 8, 8, 16, 5, 1, 0)),
        ("resnet3x3_56", ConvSize::new(8, 64, 56, 56, 64, 3, 1, 1)),
        ("resnet3x3_28", ConvSize::new(8, 128, 28, 28, 128, 3, 1, 1)),
    ]
}

/// Relative l-inf of `got` against `want`, scaled by `want`'s magnitude.
fn rel_linf(got: &Tensor, want: &Tensor) -> f64 {
    let scale = want.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    linf_diff(got.data(), want.data()) / f64::from(scale)
}

/// One JSON row per training-class cell: parity against the scalar oracle,
/// then forward and backward best-of-`reps`, interleaved.
fn backward_rows(reps: usize, parity_ok: &mut bool) -> Vec<String> {
    let mut rows = Vec::new();
    for (name, cs) in backward_cells() {
        let x = rand_tensor(&[cs.n, cs.c, cs.h, cs.w], 0xD0 ^ cs.k as u64);
        let w = rand_tensor(&[cs.k, cs.c, cs.r, cs.r], 0xD1 ^ cs.k as u64);
        let b = rand_tensor(&[cs.k], 0xD2 ^ cs.k as u64);
        let g = ConvGeometry {
            stride: cs.stride,
            pad: cs.pad,
        };
        let op = Conv2dOp::new(cs.stride, cs.pad, ConvAlgorithm::Direct);
        let y = op.forward(&[&x, &w, &b]).expect("warmup forward");
        // ReLU-masked gradient, as a conv under an activation sees it.
        let dy = rand_tensor(y[0].shape().dims(), 0xD3 ^ cs.k as u64).map(|v| v.max(0.0));

        let got = conv::backward_direct(&dy, &x, &w, g).expect("backward");
        let want = conv::backward_reference(&dy, &x, &w, g).expect("oracle backward");
        let err = got
            .iter()
            .zip(&want)
            .map(|(a, b)| rel_linf(a, b))
            .fold(0.0, f64::max);
        if err > 1e-4 {
            eprintln!("conv: FAIL {name} backward diverges from the oracle (rel l-inf {err:.2e})");
            *parity_ok = false;
        }

        let (mut fwd, mut bwd) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let start = Instant::now();
            drop(op.forward(&[&x, &w, &b]).expect("timed forward"));
            fwd = fwd.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            drop(conv::backward_direct(&dy, &x, &w, g).expect("timed backward"));
            bwd = bwd.min(start.elapsed().as_secs_f64());
        }
        // dW and dX are one forward's worth of multiply-adds each.
        let bwd_gflops = 2.0 * cs.flops() / bwd / 1e9;
        println!(
            "conv: bwd {:<13} n{:<2} c{:<3} {:>2}x{:<2} co{:<3} k{} s{} p{}  fwd {:.3}ms  \
             bwd {:.3}ms ({:.1} GF/s)  bwd/fwd {:.2}  oracle rel l-inf {:.1e}",
            name,
            cs.n,
            cs.c,
            cs.h,
            cs.w,
            cs.k,
            cs.r,
            cs.stride,
            cs.pad,
            fwd * 1e3,
            bwd * 1e3,
            bwd_gflops,
            bwd / fwd,
            err
        );
        rows.push(format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"c\": {}, \"hw\": {}, \"co\": {}, \
             \"k\": {}, \"stride\": {}, \"pad\": {}, \"fwd_ms\": {:.4}, \"bwd_ms\": {:.4}, \
             \"bwd_gflops\": {:.2}, \"bwd_over_fwd\": {:.3}, \"oracle_rel_linf\": {:.3e}}}",
            name,
            cs.n,
            cs.c,
            cs.h,
            cs.k,
            cs.r,
            cs.stride,
            cs.pad,
            fwd * 1e3,
            bwd * 1e3,
            bwd_gflops,
            bwd / fwd,
            err
        ));
    }
    rows
}

struct TierTime {
    tier: &'static str,
    ms: f64,
    gflops: f64,
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
}

/// Best-of-`reps` wall time of `op.forward` for every tier at once,
/// round-robin interleaved (tier A rep 1, tier B rep 1, ..., tier A rep
/// 2, ...) so slow machine-level noise lands on all tiers alike rather
/// than on whichever happened to run during the noisy window. Each op
/// gets one untimed warmup call first, which also charges the direct
/// tier's one-time filter packing to setup — where deployment pays it,
/// via the compile-time pack pass.
fn time_tiers(ops: &[Conv2dOp], inputs: &[&Tensor], reps: usize) -> Vec<f64> {
    for op in ops {
        op.forward(inputs).expect("warmup forward");
    }
    let mut best = vec![f64::INFINITY; ops.len()];
    for _ in 0..reps {
        for (op, best) in ops.iter().zip(&mut best) {
            let start = Instant::now();
            let out = op.forward(inputs).expect("timed forward");
            *best = best.min(start.elapsed().as_secs_f64());
            drop(out);
        }
    }
    best
}

fn main() {
    let smoke = std::env::var("D5_CONV_SMOKE").is_ok();
    let reps = if smoke { 5 } else { 30 };

    let mut rows: Vec<String> = Vec::new();
    let mut wins = 0usize;
    let mut parity_ok = true;
    for (name, cs) in cells() {
        let x = rand_tensor(&[cs.n, cs.c, cs.h, cs.w], 0xC0 ^ cs.k as u64);
        let w = rand_tensor(&[cs.k, cs.c, cs.r, cs.r], 0xC1 ^ cs.k as u64);
        let b = rand_tensor(&[cs.k], 0xC2 ^ cs.k as u64);
        let inputs = [&x, &w, &b];
        let flops = cs.flops();

        let wino_ok = cs.r == 3 && cs.stride == 1;
        let mut tiers: Vec<(&'static str, ConvAlgorithm)> = vec![
            ("im2col", ConvAlgorithm::Im2col),
            ("direct", ConvAlgorithm::Direct),
        ];
        if wino_ok {
            tiers.insert(1, ("winograd", ConvAlgorithm::Winograd));
        }

        // Parity first: every tier within l-inf 1e-4 of the im2col baseline.
        let baseline = Conv2dOp::new(cs.stride, cs.pad, ConvAlgorithm::Im2col)
            .forward(&inputs)
            .expect("baseline forward");
        for (tier, algo) in &tiers[1..] {
            let out = Conv2dOp::new(cs.stride, cs.pad, *algo)
                .forward(&inputs)
                .expect("tier forward");
            if !out[0].approx_eq(&baseline[0], 1e-4) {
                eprintln!("conv: FAIL {name} tier '{tier}' diverges from im2col");
                parity_ok = false;
            }
        }

        let ops: Vec<Conv2dOp> = tiers
            .iter()
            .map(|(_, algo)| Conv2dOp::new(cs.stride, cs.pad, *algo))
            .collect();
        let times = time_tiers(&ops, &inputs, reps);
        let timed: Vec<TierTime> = tiers
            .iter()
            .zip(&times)
            .map(|((tier, _), &secs)| TierTime {
                tier,
                ms: secs * 1e3,
                gflops: flops / secs / 1e9,
            })
            .collect();
        let ms_of = |t: &str| {
            timed
                .iter()
                .find(|r| r.tier == t)
                .map(|r| r.ms)
                .unwrap_or(f64::NAN)
        };
        let speedup = ms_of("im2col") / ms_of("direct");
        if speedup >= 3.0 {
            wins += 1;
        }
        println!(
            "conv: {:<11} n{} c{:<3} {:>3}x{:<3} co{:<3} k{} s{} p{}  {}  direct/im2col {:.2}x",
            name,
            cs.n,
            cs.c,
            cs.h,
            cs.w,
            cs.k,
            cs.r,
            cs.stride,
            cs.pad,
            timed
                .iter()
                .map(|t| format!("{} {:.3}ms ({:.1} GF/s)", t.tier, t.ms, t.gflops))
                .collect::<Vec<_>>()
                .join("  "),
            speedup,
        );
        let tier_json: Vec<String> = timed
            .iter()
            .map(|t| {
                format!(
                    "{{\"tier\": \"{}\", \"ms\": {:.4}, \"gflops_per_s\": {:.2}}}",
                    t.tier, t.ms, t.gflops
                )
            })
            .collect();
        rows.push(format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"c\": {}, \"hw\": {}, \"co\": {}, \
             \"k\": {}, \"stride\": {}, \"pad\": {}, \"flops\": {:.0}, \
             \"tiers\": [{}], \"speedup_direct_vs_im2col\": {:.3}}}",
            name,
            cs.n,
            cs.c,
            cs.h,
            cs.k,
            cs.r,
            cs.stride,
            cs.pad,
            flops,
            tier_json.join(", "),
            speedup,
        ));
    }

    let bwd_rows = backward_rows(reps, &mut parity_ok);

    let json = format!(
        "{{\n  \"benchmark\": \"conv\",\n  \"smoke\": {smoke},\n  \"reps\": {reps},\n  \
         \"direct_3x_wins\": {wins},\n  \"cases\": [\n{}\n  ],\n  \"backward\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        bwd_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_conv.json");
    std::fs::write(path, &json).expect("write BENCH_conv.json");
    println!("conv: wrote {path} (direct >=3x over im2col on {wins}/6 shapes)");

    if !parity_ok {
        std::process::exit(1);
    }
}
