//! `conv` — DeepBench-style convolution tier sweep.
//!
//! Times each convolution execution tier (im2col lowering, the direct
//! NCHWc implicit-GEMM tier) on a fixed set of CNN-inference-class layer
//! shapes from the embedded DeepBench suite family, after checking
//! pairwise parity within l-inf 1e-4. The direct tier is timed twice, as
//! two op instances (`direct` and `direct_aa`): how far their two medians
//! sit apart is an A/A noise witness for this run — not a decision, and no
//! gate reads it. `cases` rows are keyed by the cell's geometry (`name`,
//! `n`, `c`, `hw`, `co`, `k`, `stride`, `pad`): its `flops`, and per
//! `tier` the wall time of one call (`ms`) and whether the tier's output
//! `diverged` from im2col's.
//!
//! A second table, `backward`, times the *backward* pass
//! (`conv::backward_direct`: the stride-1 window reduction for `dW` on
//! narrow layers, the blocked GEMM lowering for everything else) on
//! training-class cells — the two LeNet convs the spine's `train-cnn`
//! workload runs, a 32-channel body cell on the window side of the `dW`
//! rule and two DeepBench training cells on the GEMM side — against the
//! direct-tier forward of the same cell (`fwd_ms`, `bwd_ms`), after a
//! parity check against the scalar `conv::backward_reference` oracle
//! (`oracle_rel_linf`). `bwd_ms` over `fwd_ms` is the number to watch:
//! backward is twice the forward's FLOPs, so a kernel-speed backward sits
//! in the low single digits. `dw_ms` is the same pass with `dX` elided
//! (what a first layer runs); `bwd_ms - dw_ms` is the `dX` half.
//!
//! Gates: forward and backward parity, the direct tier beats im2col on at
//! least 4 shapes and by 2x on at least three (the baseline is the
//! row-copy im2col lowering, itself GEMM-speed: the best ratio sits at
//! 2.5-2.9x), and no backward costs measurably more than 8x its forward.
//!
//! Run with: `cargo run --release -p deep500-bench -- conv`
//! (`D5_BENCH_SCALE=smoke` for the fast CI-sized run).

use crate::rows::{select, unless, Better, Row, Verdict};
use crate::{scale, time_rounds, Scale, Subject};
use deep500::metrics::norms::linf_diff;
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

/// The cell's geometry: the leading key columns of every row of `table`.
fn cell(table: &str, name: &str, cs: &ConvSize) -> Row {
    Row::of(table)
        .key("name", name)
        .key("n", cs.n)
        .key("c", cs.c)
        .key("hw", cs.h)
        .key("co", cs.k)
        .key("k", cs.r)
        .key("stride", cs.stride)
        .key("pad", cs.pad)
}

/// The rows of one training-class cell: parity against the scalar oracle,
/// then forward, backward and backward without `dX` timed interleaved.
fn backward_rows(name: &str, cs: &ConvSize, reps: usize) -> Vec<Row> {
    let x = rand_tensor(&[cs.n, cs.c, cs.h, cs.w], 0xD0 ^ cs.k as u64);
    let w = rand_tensor(&[cs.k, cs.c, cs.r, cs.r], 0xD1 ^ cs.k as u64);
    let b = rand_tensor(&[cs.k], 0xD2 ^ cs.k as u64);
    let (stride, pad) = (cs.stride, cs.pad);
    let (g, op) = (
        ConvGeometry { stride, pad },
        Conv2dOp::new(stride, pad, ConvAlgorithm::Direct),
    );
    let y = op.forward(&[&x, &w, &b]).expect("warmup forward");
    // ReLU-masked gradient, as a conv under an activation sees it.
    let dy = rand_tensor(y[0].shape().dims(), 0xD3 ^ cs.k as u64).map(|v| v.max(0.0));

    let got = conv::backward_direct(&dy, &x, &w, g).expect("backward");
    let want = conv::backward_reference(&dy, &x, &w, g).expect("oracle backward");
    let errs = got.iter().zip(&want).map(|(a, b)| rel_linf(a, b));
    let err = errs.fold(0.0, f64::max);

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
    let cell = cell("backward", name, cs);
    vec![
        cell.ms("fwd_ms", &timed[0][0]),
        cell.ms("bwd_ms", &timed[1][0]),
        cell.ms("dw_ms", &timed[2][0]),
        cell.value("oracle_rel_linf", "ratio", Better::Lower, err),
    ]
}

fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
}

pub fn measure() -> Vec<Row> {
    let reps = if scale() == Scale::Smoke { 5 } else { 30 };

    let mut rows = Vec::new();
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
        // This first pass also charges the direct tier's one-time filter
        // packing to setup — where deployment pays it, on the first pass.
        let ops = tiers.map(|(_, algo)| Conv2dOp::new(cs.stride, cs.pad, algo));
        let outs = ops
            .each_ref()
            .map(|op| op.forward(&inputs).expect("tier forward"));
        let diverged = outs
            .each_ref()
            .map(|out| !out[0].approx_eq(&outs[0][0], 1e-4));

        // All tiers of a cell are subjects of one loop, so slow
        // machine-level noise lands on all of them alike. A sample is at
        // least ~10 MFLOP of calls, so the microsecond-scale tiny cells are
        // not timing the clock.
        let calls = (1e7 / flops).ceil().max(1.0) as usize;
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
        let cell = cell("cases", name, &cs);
        rows.push(cell.value("flops", "flop", Better::None, flops));
        for (i, ((tier, _), [t])) in tiers.iter().zip(&timed).enumerate() {
            let cell = cell.clone().key("tier", *tier);
            rows.push(cell.ms_per("ms", t, calls));
            if i > 0 {
                rows.push(cell.count("diverged", Better::Lower, usize::from(diverged[i])));
            }
        }
    }
    for (name, cs) in backward_cells() {
        rows.extend(backward_rows(name, &cs, reps));
    }
    rows
}

/// `im2col` over `direct` median time per `cases` cell, in file order.
fn speedups(rows: &[Row]) -> Vec<f64> {
    let times = select(rows, "cases", "ms");
    let im2col = times.filter(|r| r.is("tier", "im2col"));
    let speedup = |r: &Row| {
        let direct = select(rows, "cases", "ms")
            .find(|d| d.is("tier", "direct") && d.text("name") == r.text("name"));
        r.median / direct.expect("a direct row per cell").median
    };
    im2col.map(speedup).collect()
}

pub fn cells_timed(rows: &[Row]) -> Verdict {
    let forward = select(rows, "cases", "flops").count();
    let backward = select(rows, "backward", "bwd_ms").count();
    let mut timings = rows.iter().filter(|r| r.unit == "ms");
    let all_timed = timings.all(|r| r.median > 0.0);
    Verdict::new(
        "cells",
        forward == 13 && backward == 5 && all_timed,
        format!("{forward} forward cells of 13, {backward} backward cells of 5, every timing > 0"),
    )
}

pub fn forward_parity(rows: &[Row]) -> Verdict {
    let diverged = select(rows, "cases", "diverged").filter(|r| r.median > 0.0);
    let diverged = diverged.map(|r| format!("{}/{}", r.text("name"), r.text("tier")));
    let claim = "every tier within l-inf 1e-4 of im2col";
    unless("forward_parity", claim, diverged.collect())
}

pub fn direct_beats_im2col(rows: &[Row]) -> Verdict {
    let (speedups, cells) = (speedups(rows), select(rows, "cases", "flops").count());
    let faster = speedups.iter().filter(|&&s| s > 1.0).count();
    let detail = format!("direct faster on {faster} of {cells} shapes, need 4");
    Verdict::new("direct_beats_im2col", faster >= 4, detail)
}

pub fn direct_2x_wins(rows: &[Row]) -> Verdict {
    let speedups = speedups(rows);
    let wins = speedups.iter().filter(|&&s| s >= 2.0).count();
    Verdict::new(
        "direct_2x_wins",
        wins >= 3,
        format!(
            "direct >= 2x im2col on {wins} of {} shapes, need 3 (was 3x on 1 until the row-copy \
             im2col made the baseline 1.2-1.5x faster); im2col/direct per cell {speedups:.2?}",
            speedups.len()
        ),
    )
}

pub fn backward_parity(rows: &[Row]) -> Verdict {
    let errs = select(rows, "backward", "oracle_rel_linf").map(|r| r.median);
    let worst = errs.fold(0.0f64, f64::max);
    Verdict::new(
        "backward_parity",
        worst <= 1e-4,
        format!("worst oracle rel l-inf {worst:.1e} <= 1e-4"),
    )
}

/// No backward's median CI sits above [`BWD_OVER_FWD_LIMIT`] times its
/// forward's — the CI-separation estimator of EXPERIMENTS E26.
pub fn backward_over_forward(rows: &[Row]) -> Verdict {
    let mut worst = 0.0f64;
    let mut over = Vec::new();
    for bwd in select(rows, "backward", "bwd_ms") {
        let fwd = bwd.sibling(rows, "fwd_ms");
        let ratio = bwd.median / fwd.median;
        worst = worst.max(ratio);
        if bwd.interval().lo > BWD_OVER_FWD_LIMIT * fwd.interval().hi {
            over.push(format!("{} {ratio:.2}x", bwd.text("name")));
        }
    }
    Verdict::new(
        "backward_over_forward",
        over.is_empty(),
        format!(
            "no backward's median CI above {BWD_OVER_FWD_LIMIT} x its forward's (was 6 x the \
             median until forwards fell 2.4x and the dX half did not; worst ratio of medians \
             {worst:.2}); over: {over:?}"
        ),
    )
}
