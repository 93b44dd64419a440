//! Fig. 6 — Level-0 operator performance and accuracy.
//!
//! Regenerates both panels of the paper's Fig. 6: convolution (6a) and
//! matrix multiplication (6b), each as (i) the distribution over a
//! DeepBench-style problem-size suite per framework, native vs
//! Deep500-wrapped, and (ii) the highlighted single problem size
//! (conv: N=16, C=3, H=W=224, 3×3; GEMM: M=K=2560, N=64); plus the §V-B
//! ℓ∞ correctness table (median over the suite vs the reference kernel).
//!
//! Expected shapes (paper): DeepBench fastest (no framework management);
//! TensorFlow slowest; Deep500 wrapping statistically indistinguishable
//! from native (overlapping CIs).

use deep500::frameworks::native::{
    run_kernel_direct, run_kernel_framework, run_kernel_wrapped, NativeOpWrapper,
};
use deep500::frameworks::FrameworkProfile;
use deep500::metrics::norms::linf_diff;
use deep500::metrics::stats::median;
use deep500::ops::conv::{self, Conv2dOp, ConvAlgorithm, ConvGeometry};
use deep500::ops::deepbench::{self, ConvSize, GemmSize};
use deep500::ops::gemm::{Algorithm, MatMulOp};
use deep500::ops::Operator;
use deep500::prelude::*;
use deep500_bench::{banner, fmt_ms, measure, scale, Scale};

fn gemm_inputs(g: &GemmSize, rng: &mut Xoshiro256StarStar) -> (Tensor, Tensor) {
    (
        Tensor::rand_uniform([g.m, g.k], -1.0, 1.0, rng),
        Tensor::rand_uniform([g.k, g.n], -1.0, 1.0, rng),
    )
}

fn conv_inputs(c: &ConvSize, rng: &mut Xoshiro256StarStar) -> (Tensor, Tensor, Tensor) {
    (
        Tensor::rand_uniform([c.n, c.c, c.h, c.w], -1.0, 1.0, rng),
        Tensor::rand_uniform([c.k, c.c, c.r, c.r], -0.5, 0.5, rng),
        Tensor::zeros([c.k]),
    )
}

fn gemm_suite() -> Vec<GemmSize> {
    let mut suite = deepbench::gemm_suite();
    if scale() != Scale::Full {
        // Shrink the largest dimensions so a 1-core run stays in minutes
        // (small-kernel regimes are also where framework overhead shows,
        // which is what the violin plots contrast).
        for g in &mut suite {
            g.m = g.m.min(512);
            g.n = g.n.min(128);
            g.k = g.k.min(512);
        }
        suite.truncate(10);
    }
    suite
}

fn conv_suite() -> Vec<ConvSize> {
    let suite = deepbench::conv_suite();
    if scale() == Scale::Full {
        suite
    } else {
        suite
            .iter()
            .map(|c| deepbench::shrink_conv(c, 64))
            .collect()
    }
}

fn main() {
    banner(
        "Fig. 6 — operator performance (Level 0)",
        "conv + GEMM over a DeepBench-style suite, native vs Deep500-wrapped",
    );
    let mut rng = Xoshiro256StarStar::seed_from_u64(6);

    // ---------------------------------------------------------- Fig. 6b
    println!("--- GEMM suite ({} sizes) ---", gemm_suite().len());
    let mut table = Table::new(
        "Fig. 6b analogue: per-framework runtime distribution over the suite",
        &[
            "framework",
            "median native [ms]",
            "median Deep500 [ms]",
            "CIs overlap",
        ],
    );
    for profile in FrameworkProfile::all() {
        let mut native = Vec::new();
        let mut wrapped = Vec::new();
        for g in gemm_suite() {
            let (a, b) = gemm_inputs(&g, &mut rng);
            let op = MatMulOp::new(profile.gemm_algo);
            let nat = measure(|| run_kernel_framework(&profile, &op, &[&a, &b]).unwrap());
            // Deep500 wrapping: descriptor-checked custom-op interface on
            // top of the same framework invocation.
            let wrapper = NativeOpWrapper::new(
                MatMulOp::new(profile.gemm_algo),
                vec![
                    deep500::tensor::TensorDesc::f32([g.m, g.k]),
                    deep500::tensor::TensorDesc::f32([g.k, g.n]),
                ],
            );
            let wrp = measure(|| {
                profile.dispatch();
                run_kernel_wrapped(&wrapper, &[&a, &b]).unwrap()
            });
            native.push(nat);
            wrapped.push(wrp);
        }
        let nat_med = median(&native.iter().map(|s| s.median).collect::<Vec<_>>());
        let wrp_med = median(&wrapped.iter().map(|s| s.median).collect::<Vec<_>>());
        let overlap = native
            .iter()
            .zip(&wrapped)
            .filter(|(n, w)| n.median_ci.overlaps(&w.median_ci))
            .count();
        table.row(&[
            profile.name.to_string(),
            format!("{:.3}", nat_med * 1e3),
            format!("{:.3}", wrp_med * 1e3),
            format!("{overlap}/{}", native.len()),
        ]);
    }
    table.print();

    // Highlighted GEMM box plot: M=K=2560, N=64.
    let g = if scale() == Scale::Full {
        deepbench::HIGHLIGHTED_GEMM
    } else {
        GemmSize::new(1024, 64, 1024)
    };
    println!(
        "\nhighlighted GEMM {}x{}x{} (paper: M=K=2560, N=64):",
        g.m, g.n, g.k
    );
    let (a, b) = gemm_inputs(&g, &mut rng);
    for profile in FrameworkProfile::all() {
        let op = MatMulOp::new(profile.gemm_algo);
        let s = measure(|| run_kernel_framework(&profile, &op, &[&a, &b]).unwrap());
        println!("  {:>10}: {} ms", profile.name, fmt_ms(&s));
    }

    // ---------------------------------------------------------- Fig. 6a
    println!("\n--- convolution suite ({} sizes) ---", conv_suite().len());
    let mut table = Table::new(
        "Fig. 6a analogue: per-framework runtime distribution over the suite",
        &[
            "framework",
            "median native [ms]",
            "median Deep500 [ms]",
            "CIs overlap",
        ],
    );
    for profile in FrameworkProfile::all() {
        let mut native = Vec::new();
        let mut wrapped = Vec::new();
        for c in conv_suite() {
            let (x, w, bias) = conv_inputs(&c, &mut rng);
            let op = Conv2dOp::new(c.stride, c.pad, profile.conv_algo);
            let nat = measure(|| run_kernel_framework(&profile, &op, &[&x, &w, &bias]).unwrap());
            let wrp = measure(|| {
                profile.dispatch();
                run_kernel_direct(&op, &[&x, &w, &bias]).unwrap()
            });
            native.push(nat);
            wrapped.push(wrp);
        }
        let nat_med = median(&native.iter().map(|s| s.median).collect::<Vec<_>>());
        let wrp_med = median(&wrapped.iter().map(|s| s.median).collect::<Vec<_>>());
        let overlap = native
            .iter()
            .zip(&wrapped)
            .filter(|(n, w)| n.median_ci.overlaps(&w.median_ci))
            .count();
        table.row(&[
            profile.name.to_string(),
            format!("{:.3}", nat_med * 1e3),
            format!("{:.3}", wrp_med * 1e3),
            format!("{overlap}/{}", native.len()),
        ]);
    }
    table.print();

    // Highlighted conv box plot.
    let c = if scale() == Scale::Full {
        deepbench::HIGHLIGHTED_CONV
    } else {
        ConvSize::new(4, 3, 96, 96, 16, 3, 1, 1)
    };
    println!(
        "\nhighlighted conv N={} C={} H=W={} k={} (paper: 16x3x224x224, 3x3):",
        c.n, c.c, c.h, c.r
    );
    let (x, w, bias) = conv_inputs(&c, &mut rng);
    for profile in FrameworkProfile::all() {
        let op = Conv2dOp::new(c.stride, c.pad, profile.conv_algo);
        let s = measure(|| run_kernel_framework(&profile, &op, &[&x, &w, &bias]).unwrap());
        println!("  {:>10}: {} ms", profile.name, fmt_ms(&s));
    }

    // ------------------------------------------------- §V-B correctness
    println!("\n--- correctness: median l-inf vs reference over the conv suite ---");
    // Each optimized tier against the scalar seven-loop reference: three
    // different summation orders of the same convolution.
    let mut errs_by_algo = [
        ("im2col", ConvAlgorithm::Im2col, Vec::new()),
        ("direct", ConvAlgorithm::Direct, Vec::new()),
    ];
    for c in conv_suite() {
        let (x, w, bias) = conv_inputs(&c, &mut rng);
        let geometry = ConvGeometry {
            stride: c.stride,
            pad: c.pad,
        };
        let reference = conv::forward_reference(&x, &w, &bias, geometry).unwrap();
        for (_, algo, errs) in errs_by_algo.iter_mut() {
            let out = Conv2dOp::new(c.stride, c.pad, *algo)
                .forward(&[&x, &w, &bias])
                .unwrap();
            errs.push(linf_diff(out[0].data(), reference.data()));
        }
    }
    for (name, _, errs) in &errs_by_algo {
        println!(
            "  {:>9} vs scalar reference: median l-inf = {:.2e}  (paper reports ~7e-4 between frameworks)",
            name,
            median(errs)
        );
    }

    // GEMM algorithm correctness: every fast tier against the naive
    // reference. The packed tier's register-tiled accumulation gives it a
    // genuinely different rounding profile than the blocked tiers.
    for (name, algo) in [
        ("blocked", Algorithm::Blocked),
        ("parallel", Algorithm::Parallel),
        ("packed", Algorithm::Packed),
    ] {
        let mut errs = Vec::new();
        for g in gemm_suite() {
            let (a, b) = gemm_inputs(&g, &mut rng);
            let reference = deep500::ops::gemm::matmul(Algorithm::Naive, &a, &b).unwrap();
            let fast = deep500::ops::gemm::matmul(algo, &a, &b).unwrap();
            errs.push(linf_diff(fast.data(), reference.data()));
        }
        println!(
            "  {:>9} GEMM vs naive: median l-inf = {:.2e}",
            name,
            median(&errs)
        );
    }
}
