//! `conv` — DeepBench-style convolution tier sweep.
//!
//! Times each convolution execution tier (im2col lowering, the direct
//! NCHWc implicit-GEMM tier) on a fixed set of CNN-inference-class layer
//! shapes from the embedded DeepBench suite family, after checking
//! pairwise parity within l-inf 1e-4. The direct tier is timed twice, as
//! two op instances (`direct` and `direct_aa`): their ratio `aa_ratio` is
//! an A/A noise witness — how far two medians of one kernel sit apart in
//! this run — not a decision, and no gate reads it. Writes
//! `BENCH_conv.json` with per-tier wall time, its median's 95 % CI and
//! achieved GFLOP/s plus the direct-over-im2col speedup per shape.
//!
//! A second table times the *backward* pass (`conv::backward_direct`: the
//! stride-1 window reduction for `dW` on narrow layers, the blocked GEMM
//! lowering for everything else) on training-class cells — the two LeNet
//! convs the spine's `train-cnn` workload runs, a 32-channel body cell on
//! the window side of the `dW` rule and two DeepBench training cells on
//! the GEMM side — against the direct-tier forward of the same cell, after
//! a parity gate against the scalar `conv::backward_reference` oracle
//! (relative l-inf 1e-4). `bwd_over_fwd` is the number to watch: backward
//! is twice the forward's FLOPs, so a kernel-speed backward sits in the low
//! single digits. `dw_ms` is the same pass with `dX` elided (what a first
//! layer runs) and `dx_ms` the difference, so each half has a tracked row.
//!
//! Gates: forward and backward parity, the direct tier beats im2col on at
//! least 4 shapes and by 2x on at least three (the baseline is the row-copy im2col lowering, itself GEMM-speed:
//! the best ratio sits at 2.5-2.9x), and no backward costs measurably more
//! than 8x its forward.
//!
//! Run with: `cargo run --release -p deep500-bench -- conv`
//! (`D5_BENCH_SCALE=smoke` for the fast CI-sized run).

use crate::{scale, time_rounds, Report, Scale, Subject};
use deep500::metrics::norms::linf_diff;
use deep500::metrics::Json;
use deep500::ops::conv::{self, Conv2dOp, ConvAlgorithm, ConvGeometry};
use deep500::ops::deepbench::ConvSize;
use deep500::ops::Operator;
use deep500::prelude::*;

/// Six DeepBench-class batch-1 inference cells: a strided stem, the
/// early big-spatial 3x3 body cells (where im2col's materialized `K x P`
/// column matrix runs to 7-14 MB and falls out of cache — the case the
/// direct tier's never-materialized B panels exist for), the mid-network
/// 3x3s at descending spatial / ascending channel extents, and a 1x1
/// projection (im2col's best case: the lowering is the identity, so this
/// cell keeps the sweep honest about where the direct win comes from).
/// Then the three cells that would show a shape class im2col wins: a wide
/// 3x3 at batch 8 (where a per-batch cost such as a filter transform would
/// amortize), and the two shapes a floor under the direct tier would send
/// away from it — a reduction shallower than one microkernel tile
/// (`C·kh·kw = 3 < 8`) and an output narrower than one (`Ho·Wo = 4 < 8`),
/// the latter at stride 1 (read as windows) and at stride 2 (still
/// gathered: the one class where the two tiers tie).
/// Last, the three convolutions the spine benchmark actually runs: LeNet's
/// two at `train-cnn`'s batch 32 (the second unpadded, so read in place)
/// and `resnet_like`'s 16-channel body at `serve-conv-open`'s four-row
/// batches.
fn cells() -> Vec<(&'static str, ConvSize)> {
    vec![
        ("stem7x7", ConvSize::new(1, 3, 112, 112, 32, 7, 2, 3)),
        ("mobile3x3_112", ConvSize::new(1, 32, 112, 112, 64, 3, 1, 1)),
        ("vgg3x3_56", ConvSize::new(1, 64, 56, 56, 64, 3, 1, 1)),
        ("body3x3_56", ConvSize::new(1, 32, 56, 56, 32, 3, 1, 1)),
        ("body3x3_28", ConvSize::new(1, 64, 28, 28, 64, 3, 1, 1)),
        ("proj1x1", ConvSize::new(1, 64, 28, 28, 128, 1, 1, 0)),
        ("body3x3_28_b8", ConvSize::new(8, 64, 28, 28, 64, 3, 1, 1)),
        ("tiny_k_rgb1x1", ConvSize::new(1, 3, 32, 32, 16, 1, 1, 0)),
        ("tiny_p_tail3x3", ConvSize::new(1, 64, 2, 2, 64, 3, 1, 1)),
        ("tiny_p_strided3x3", ConvSize::new(1, 64, 4, 4, 64, 3, 2, 1)),
        ("lenet_conv1", ConvSize::new(32, 3, 16, 16, 6, 5, 1, 2)),
        ("lenet_conv2", ConvSize::new(32, 6, 8, 8, 16, 5, 1, 0)),
        (
            "resnet16_body_b4",
            ConvSize::new(4, 16, 32, 32, 16, 3, 1, 1),
        ),
    ]
}

/// Training-class backward cells: LeNet conv1 / conv2 at the spine's batch
/// 32, a 32-channel body 3x3 (the widest tracked layer whose `dW` reduces
/// along windows), and two DeepBench training cells (ResNet body 3x3s at
/// batch 8, 64 and 128 channels: `dW` through the GEMM).
fn backward_cells() -> Vec<(&'static str, ConvSize)> {
    vec![
        ("lenet_conv1", ConvSize::new(32, 3, 16, 16, 6, 5, 1, 2)),
        ("lenet_conv2", ConvSize::new(32, 6, 8, 8, 16, 5, 1, 0)),
        ("body3x3_56_b8", ConvSize::new(8, 32, 56, 56, 32, 3, 1, 1)),
        ("resnet3x3_56", ConvSize::new(8, 64, 56, 56, 64, 3, 1, 1)),
        ("resnet3x3_28", ConvSize::new(8, 128, 28, 28, 128, 3, 1, 1)),
    ]
}

/// How many forwards a backward may cost. Twice the FLOPs, so a kernel-speed
/// backward sits in the low single digits (the scalar loop this gate was
/// written against was 13x). It was 6 until ISSUE 18 made `lenet_conv1`'s
/// forward 2.4x faster and left the `dX` half of its backward alone: that
/// cell's ratio went from 2.3 to 4.3-4.6, and to 6.1-6.7 on the hours this
/// shared host gives the lanes one vCPU (EXPERIMENTS E27). The `dX` half
/// is the next lens; tighten this again when it lands.
const BWD_OVER_FWD_LIMIT: f64 = 8.0;

/// Relative l-inf of `got` against `want`, scaled by `want`'s magnitude.
fn rel_linf(got: &Tensor, want: &Tensor) -> f64 {
    let scale = want.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    linf_diff(got.data(), want.data()) / f64::from(scale)
}

/// The cell's geometry, the leading fields of every JSON row.
fn cell_fields(name: &str, cs: &ConvSize) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::from(name)),
        ("n", Json::from(cs.n)),
        ("c", Json::from(cs.c)),
        ("hw", Json::from(cs.h)),
        ("co", Json::from(cs.k)),
        ("k", Json::from(cs.r)),
        ("stride", Json::from(cs.stride)),
        ("pad", Json::from(cs.pad)),
    ]
}

/// One JSON row per training-class cell: parity against the scalar oracle,
/// then forward, backward and backward without `dX` timed interleaved.
/// Returns the rows, the worst oracle error, the worst backward/forward
/// ratio, and the cells whose backward is *measurably* over
/// [`BWD_OVER_FWD_LIMIT`] times their forward — the medians' 95 %
/// intervals clear the factor, the CI-separation estimator of
/// EXPERIMENTS E26.
fn backward_rows(reps: usize) -> (Vec<Json>, f64, f64, Vec<String>) {
    let mut rows = Vec::new();
    let (mut worst_err, mut worst_ratio) = (0.0f64, 0.0f64);
    let mut over = Vec::new();
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

        let timed = time_rounds(
            1,
            reps,
            &mut [
                Subject::wall(|| op.forward(&[&x, &w, &b]).expect("timed forward")),
                Subject::wall(|| conv::backward_direct(&dy, &x, &w, g).expect("timed backward")),
                Subject::wall(|| {
                    op.backward_wanted(&[&dy], &[&x, &w, &b], &[&y[0]], &[false, true, true])
                        .expect("timed dW")
                }),
            ],
        );
        let (fwd, bwd, dw) = (timed[0][0].median, timed[1][0].median, timed[2][0].median);
        // dW and dX are one forward's worth of multiply-adds each.
        let bwd_gflops = 2.0 * cs.flops() / bwd / 1e9;
        worst_err = worst_err.max(err);
        worst_ratio = worst_ratio.max(bwd / fwd);
        if timed[1][0].median_ci.lo > BWD_OVER_FWD_LIMIT * timed[0][0].median_ci.hi {
            over.push(format!("{name} {:.2}x", bwd / fwd));
        }
        let mut row = cell_fields(name, &cs);
        row.extend([
            ("fwd_ms", Json::fixed(fwd * 1e3, 4)),
            ("bwd_ms", Json::fixed(bwd * 1e3, 4)),
            ("dw_ms", Json::fixed(dw * 1e3, 4)),
            ("dx_ms", Json::fixed((bwd - dw) * 1e3, 4)),
            ("bwd_gflops", Json::fixed(bwd_gflops, 2)),
            ("bwd_over_fwd", Json::fixed(bwd / fwd, 3)),
            ("oracle_rel_linf", Json::fixed(err, 9)),
        ]);
        rows.push(Json::obj(row));
    }
    (rows, worst_err, worst_ratio, over)
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
}

pub fn run(report: &mut Report) {
    let reps = if scale() == Scale::Smoke { 5 } else { 30 };

    let mut rows: Vec<Json> = Vec::new();
    let (mut faster, mut wins) = (0usize, 0usize);
    let mut all_timed = true;
    let mut diverged: Vec<String> = Vec::new();
    for (name, cs) in cells() {
        let x = rand_tensor(&[cs.n, cs.c, cs.h, cs.w], 0xC0 ^ cs.k as u64);
        let w = rand_tensor(&[cs.k, cs.c, cs.r, cs.r], 0xC1 ^ cs.k as u64);
        let b = rand_tensor(&[cs.k], 0xC2 ^ cs.k as u64);
        let inputs = [&x, &w, &b];
        let flops = cs.flops();

        // The tiers, then the direct tier again as the A/A witness.
        let tiers = [
            ("im2col", ConvAlgorithm::Im2col),
            ("direct", ConvAlgorithm::Direct),
            ("direct_aa", ConvAlgorithm::Direct),
        ];

        // Parity first: every tier within l-inf 1e-4 of the im2col baseline.
        let baseline = Conv2dOp::new(cs.stride, cs.pad, ConvAlgorithm::Im2col)
            .forward(&inputs)
            .expect("baseline forward");
        for (tier, algo) in &tiers[1..] {
            let out = Conv2dOp::new(cs.stride, cs.pad, *algo)
                .forward(&inputs)
                .expect("tier forward");
            if !out[0].approx_eq(&baseline[0], 1e-4) {
                diverged.push(format!("{name}/{tier}"));
            }
        }

        // All tiers of a cell are subjects of one loop, so slow
        // machine-level noise lands on all of them alike. The warm-up round
        // also charges the direct tier's one-time filter packing to setup —
        // where deployment pays it, on the first pass. A
        // sample is at least ~10 MFLOP of calls, so the microsecond-scale
        // tiny cells are not timing the clock.
        let calls = (1e7 / flops).ceil().max(1.0) as usize;
        let ops: Vec<Conv2dOp> = tiers
            .iter()
            .map(|(_, algo)| Conv2dOp::new(cs.stride, cs.pad, *algo))
            .collect();
        let mut subjects: Vec<Subject<1>> = ops
            .iter()
            .map(|op| {
                Subject::wall(move || {
                    for _ in 0..calls {
                        std::hint::black_box(op.forward(&inputs).expect("timed forward"));
                    }
                })
            })
            .collect();
        let timed = time_rounds(1, reps, &mut subjects);
        let [im2col, direct, direct_aa] = [timed[0][0], timed[1][0], timed[2][0]];
        let speedup = im2col.median / direct.median;
        all_timed &= timed.iter().all(|t| t[0].median > 0.0);
        faster += usize::from(speedup > 1.0);
        wins += usize::from(speedup >= 2.0);
        let tier_rows: Vec<Json> = tiers
            .iter()
            .zip(&timed)
            .map(|((tier, _), t)| {
                let ms = |seconds: f64| seconds * 1e3 / calls as f64;
                let ci = [t[0].median_ci.lo, t[0].median_ci.hi].map(|v| Json::fixed(ms(v), 4));
                let median = ms(t[0].median);
                Json::obj([
                    ("tier", Json::from(*tier)),
                    ("ms", Json::fixed(median, 4)),
                    ("min_ms", Json::fixed(ms(t[0].min), 4)),
                    ("ms_ci", Json::from(ci.to_vec())),
                    ("gflops_per_s", Json::fixed(flops / median / 1e6, 2)),
                ])
            })
            .collect();
        let mut row = cell_fields(name, &cs);
        row.extend([
            ("flops", Json::from(flops)),
            ("tiers", Json::from(tier_rows)),
            ("speedup_direct_vs_im2col", Json::fixed(speedup, 3)),
            // A noise witness, not a decision: one kernel against itself.
            ("aa_ratio", Json::fixed(direct_aa.median / direct.median, 3)),
        ]);
        rows.push(Json::obj(row));
    }

    let (bwd_rows, bwd_err, bwd_ratio, bwd_slow) = backward_rows(reps);
    let cells = rows.len();
    report
        .gate(
            "cells",
            cells == 13 && bwd_rows.len() == 5 && all_timed,
            format!(
                "{cells} forward cells of 13, {} backward cells of 5, every timing > 0",
                bwd_rows.len()
            ),
        )
        .field("reps", reps)
        .field("direct_2x_wins", wins)
        .rows("cases", rows)
        .rows("backward", bwd_rows)
        .gate(
            "forward_parity",
            diverged.is_empty(),
            format!("every tier within l-inf 1e-4 of im2col; diverged: {diverged:?}"),
        )
        .gate(
            "direct_beats_im2col",
            faster >= 4,
            format!("direct faster on {faster} of {cells} shapes, need 4"),
        )
        .gate(
            "direct_2x_wins",
            wins >= 3,
            format!(
                "direct >= 2x im2col on {wins} of {cells} shapes, need 3 (was 3x on 1 \
                 until the row-copy im2col made the baseline 1.2-1.5x faster)"
            ),
        )
        .gate(
            "backward_parity",
            bwd_err <= 1e-4,
            format!("worst oracle rel l-inf {bwd_err:.1e} <= 1e-4"),
        )
        .gate(
            "backward_over_forward",
            bwd_slow.is_empty(),
            format!(
                "no backward's median CI above {BWD_OVER_FWD_LIMIT} x its forward's (was 6 x the \
                 median until ISSUE 18: forwards fell 2.4x, the dX half did not; worst ratio of \
                 medians {bwd_ratio:.2}); over: {bwd_slow:?}"
            ),
        );
}
