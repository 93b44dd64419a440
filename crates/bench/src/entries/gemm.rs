//! `gemm` — DeepBench-shape GEMM sweep across the four algorithm tiers.
//!
//! Rows of `results`, keyed `(m, n, k, tier)`: `gflops` per shape and
//! tier (the perf anchor for the packed-microkernel work, EXPERIMENTS.md
//! §E16; `better: higher`, the median's CI mapped through `flops / t`) and,
//! for every tier but `naive`, `rel_linf` against `Naive` (read off the
//! products the timing loop leaves behind). Gates: every tier within
//! relative l-inf 1e-4 of `Naive` (`parity`), and `Packed` — the default
//! everything calls — the fastest tier on every shape (`packed_fastest`).
//!
//! A second table, `cutovers`, holds `gflops` on each side of the two
//! hand-set routing cuts no other row measures: `par::FORK_CUT` (keyed
//! `cut = fork_cut`, `side`, `tier`, `m`, `n`, `k`: a shape pair of one
//! aspect whose `m·n·k` straddles it, on the two tiers that hand row
//! panels to `par`) and `Linear`'s one-row tile against its batched
//! tiles (`cut = linear_gemv`, `side`, `n`, `fin`, `fout`: `n = 1`, the
//! `1 x NR_W` sliver, against `n = 2..8`; at one `fin x fout` a row's
//! cost is `2·fin·fout` over its rate). Both sides run one packed GEMM
//! through one panel driver; the keys keep the names of the GEMV path the
//! one-row tile replaced, so the tracked trajectory stays comparable. No
//! gate reads them yet: they exist so the next routing change has a
//! before-row on both sides of each cut.
//!
//! A third, `linear`, is the kernel layer under the training workloads:
//! `gflops` of `Linear`'s forward (`fwd` over the memoized weight image,
//! `fwd_step` right after a weight update) and of its two backward
//! products (`dx`, `dw`), keyed `model`, `n`, `fin`, `fout`, `pass`, on
//! the distributed MLP's three layers at batch 16 and LeNet's three fully
//! connected layers at batch 32. Ungated, like `cutovers`.
//!
//! Run with: `cargo run --release -p deep500-bench -- gemm`

use crate::rows::{select, unless, Better, Row, Verdict};
use crate::{reruns, time_rounds, Subject};
use deep500::metrics::norms::{linf_diff, nan_max};
use deep500::metrics::stats::Summary;
use deep500::ops::deepbench::GemmSize;
use deep500::ops::gemm::{gemm_into, matmul, matmul_as, Algorithm, Epilogue};
use deep500::ops::linear::LinearOp;
use deep500::ops::par;
use deep500::ops::Operator;
use deep500::prelude::*;
use std::cell::RefCell;
use std::hint::black_box;

const TIERS: [Algorithm; 4] = [
    Algorithm::Naive,
    Algorithm::Blocked,
    Algorithm::Parallel,
    Algorithm::Packed,
];

fn tier_name(algo: Algorithm) -> String {
    format!("{algo:?}").to_lowercase()
}

/// Time `tiers` on one shape over `rounds` interleaved rounds. Returns
/// each tier's summary and the product it left behind.
fn time_tiers(
    g: GemmSize,
    tiers: &[Algorithm],
    rounds: usize,
    rng: &mut Xoshiro256StarStar,
) -> Vec<(Summary, Vec<f32>)> {
    let a = Tensor::rand_uniform([g.m, g.k], -1.0, 1.0, rng);
    let b = Tensor::rand_uniform([g.k, g.n], -1.0, 1.0, rng);
    let outs: Vec<_> = tiers
        .iter()
        .map(|_| RefCell::new(vec![0.0f32; g.m * g.n]))
        .collect();
    let mut subjects: Vec<Subject<1>> = tiers
        .iter()
        .zip(&outs)
        .map(|(&algo, c)| {
            let (a, b) = (&a, &b);
            Subject::wall(move || {
                let mut c = c.borrow_mut();
                c.fill(0.0);
                let (a, b, ep) = (a.data(), b.data(), Epilogue::None);
                gemm_into(algo, g.m, g.n, g.k, a, false, b, false, &mut c, ep);
                black_box(c[0])
            })
        })
        .collect();
    let timed = time_rounds(1, rounds, &mut subjects);
    drop(subjects);
    let outs = outs.into_iter().map(RefCell::into_inner);
    timed.into_iter().map(|[t]| t).zip(outs).collect()
}

/// One row on each side of `par::FORK_CUT`, and `Linear`'s one-row tile
/// against its batched tiles.
fn cutover_rows(rng: &mut Xoshiro256StarStar) -> Vec<Row> {
    let mut rows = Vec::new();
    // Both tiers fork on `m·n·k >= par::FORK_CUT` and more than one row
    // panel — 64 rows for `Parallel`, `mc = 128` at `k = 256` for `Packed`
    // — so a tall shape is one where the cut is what decides for both.
    for m in [248, 264] {
        let g = GemmSize::new(m, 4, 256);
        let side = if m * g.n * g.k >= par::FORK_CUT {
            "above"
        } else {
            "below"
        };
        let tiers = [Algorithm::Parallel, Algorithm::Packed];
        for (&algo, (t, _)) in tiers.iter().zip(time_tiers(g, &tiers, 10 * reruns(), rng)) {
            let cell = Row::of("cutovers").key("cut", "fork_cut").key("side", side);
            let cell = cell.key("tier", tier_name(algo));
            let cell = cell.key("m", g.m).key("n", g.n).key("k", g.k);
            rows.push(cell.rate("gflops", "GFLOP/s", g.flops() / 1e9, &t));
        }
    }
    // `Linear` forward over the memoized transposed weights: one row on
    // the one-row tile, two to eight rows on the batched tiles — the
    // per-row cost of each.
    let (fin, fout) = (512, 512);
    let w = Tensor::rand_uniform([fout, fin], -1.0, 1.0, rng);
    let bias = Tensor::zeros([fout]);
    let op = LinearOp::new(Algorithm::Packed);
    let xs: Vec<Tensor> = (1..=8)
        .map(|n| Tensor::rand_uniform([n, fin], -1.0, 1.0, rng))
        .collect();
    let mut subjects: Vec<Subject<1>> = xs
        .iter()
        .map(|x| {
            let (op, w, bias) = (&op, &w, &bias);
            Subject::wall(move || op.forward(&[x, w, bias]).expect("linear forward"))
        })
        .collect();
    let timed = time_rounds(3, 10 * reruns(), &mut subjects);
    for (x, [t]) in xs.iter().zip(&timed) {
        let n = x.shape().dim(0);
        let side = if n == 1 { "gemv" } else { "gemm" };
        let cell = Row::of("cutovers")
            .key("cut", "linear_gemv")
            .key("side", side);
        let cell = cell.key("n", n).key("fin", fin).key("fout", fout);
        let flops = 2.0 * (n * fin * fout) as f64;
        rows.push(cell.rate("gflops", "GFLOP/s", flops / 1e9, t));
    }
    rows
}

/// `Linear`'s three products on the layers the spine trains: the
/// distributed MLP's (`64 -> 256 -> 128 -> 8`, batch 16) and LeNet's fully
/// connected head (`64 -> 120 -> 84 -> 10` after `lenet(3, 16, 10)`'s
/// convolutions, batch 32). `fwd` is the forward over a memoized weight
/// image, `fwd_step` the forward right after a weight update (the image
/// rebuilt, as every training step pays it), `dx` and `dw` the two
/// backward products as `LinearOp::backward` calls them.
fn linear_rows(rng: &mut Xoshiro256StarStar) -> Vec<Row> {
    let layers = [
        ("dist_mlp", 16, [(64, 256), (256, 128), (128, 8)]),
        ("lenet", 32, [(64, 120), (120, 84), (84, 10)]),
    ];
    let mut rows = Vec::new();
    for (model, n, shapes) in layers {
        for (fin, fout) in shapes {
            let x = Tensor::rand_uniform([n, fin], -1.0, 1.0, rng);
            let w = RefCell::new(Tensor::rand_uniform([fout, fin], -1.0, 1.0, rng));
            let bias = Tensor::rand_uniform([fout], -1.0, 1.0, rng);
            let g = Tensor::rand_uniform([n, fout], -1.0, 1.0, rng);
            let op = LinearOp::new(Algorithm::Packed).with_relu(true);
            let (x, w, bias, g, op) = (&x, &w, &bias, &g, &op);
            let forward = move || op.forward(&[x, &w.borrow(), bias]).expect("linear forward");
            let mut subjects: Vec<Subject<1>> = vec![
                Subject::wall(forward),
                Subject::wall(move || {
                    // Any write re-stamps the weight's version.
                    w.borrow_mut().data_mut()[0] += 0.0;
                    forward()
                }),
                Subject::wall(move || matmul(Algorithm::Packed, g, &w.borrow()).expect("dX")),
                Subject::wall(move || {
                    matmul_as(Algorithm::Packed, g, true, x, false, Epilogue::None).expect("dW")
                }),
            ];
            let timed = time_rounds(3, 20 * reruns(), &mut subjects);
            let flops = 2.0 * (n * fin * fout) as f64;
            for (pass, [t]) in ["fwd", "fwd_step", "dx", "dw"].into_iter().zip(&timed) {
                let cell = Row::of("linear").key("model", model).key("n", n);
                let cell = cell.key("fin", fin).key("fout", fout).key("pass", pass);
                rows.push(cell.rate("gflops", "GFLOP/s", flops / 1e9, t));
            }
        }
    }
    rows
}

pub fn measure() -> Vec<Row> {
    // Shape diversity from the DeepBench training suite (tall-skinny, wide,
    // square) plus the 1024^3 acceptance shape for the packed tier.
    let shapes = [
        GemmSize::new(2560, 64, 2560), // paper's highlighted Fig. 6b shape
        GemmSize::new(4096, 16, 512),
        GemmSize::new(128, 1024, 128),
        GemmSize::new(512, 512, 512),
        GemmSize::new(1024, 1024, 64),
        GemmSize::new(1024, 1024, 1024),
    ];
    let mut rng = Xoshiro256StarStar::seed_from_u64(16);
    let mut rows = Vec::new();
    for g in shapes {
        let timed = time_tiers(g, &TIERS, reruns(), &mut rng);
        let naive = &timed[0].1;
        let magnitude = naive.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        let shape = Row::of("results").key("m", g.m).key("n", g.n).key("k", g.k);
        for (&algo, (t, out)) in TIERS.iter().zip(&timed) {
            let cell = shape.clone().key("tier", tier_name(algo));
            rows.push(cell.rate("gflops", "GFLOP/s", g.flops() / 1e9, t));
            if algo != Algorithm::Naive {
                let err = linf_diff(out, naive) / f64::from(magnitude);
                rows.push(cell.value("rel_linf", "ratio", Better::Lower, err));
            }
        }
    }
    rows.extend(cutover_rows(&mut rng));
    rows.extend(linear_rows(&mut rng));
    rows
}

pub fn parity(rows: &[Row]) -> Verdict {
    let errs = select(rows, "results", "rel_linf").map(|r| r.median);
    let worst = errs.fold(0.0f64, nan_max);
    Verdict::new(
        "parity",
        worst <= 1e-4,
        format!("worst rel l-inf of any tier against Naive {worst:.1e} <= 1e-4"),
    )
}

pub fn packed_fastest(rows: &[Row]) -> Verdict {
    let packed = select(rows, "results", "gflops").filter(|r| r.is("tier", "packed"));
    let not_fastest = packed.filter_map(|p| {
        let shape = |r: &Row| ["m", "n", "k"].map(|k| r.int(k));
        let others = select(rows, "results", "gflops")
            .filter(|r| shape(r) == shape(p) && !r.is("tier", "packed"));
        let mut beaten = others.filter(|r| r.median >= p.median);
        beaten.next().map(|_| {
            let [m, n, k] = shape(p);
            format!("{m}x{n}x{k}")
        })
    });
    let claim = "Packed is the fastest tier on every shape";
    unless("packed_fastest", claim, not_fastest.collect())
}
