//! `gemm` — DeepBench-shape GEMM sweep across the four algorithm tiers.
//!
//! Records GFLOP/s per (shape, tier) — the perf anchor for the
//! packed-microkernel work (EXPERIMENTS.md §E16). Gates: every tier
//! within relative l-inf 1e-4 of `Naive` (`parity`, read off the products
//! the timing loop leaves behind), and `Packed` — the default everything
//! calls — the fastest tier on every shape (`packed_fastest`).
//!
//! A second table, `cutovers`, holds one row on each side of the two
//! hand-set routing cuts no other row measures: `par::FORK_CUT` (a shape
//! pair of one aspect whose `m·n·k` straddles it, on the two tiers that
//! hand row panels to `par`) and `Linear`'s single-row GEMV path (`n = 1` against
//! `n = 2`, per-row time). No gate reads them yet: they exist so the next
//! routing change has a before-row on both sides of each cut.
//!
//! Run with: `cargo run --release -p deep500-bench -- gemm`

use crate::rows::Timing;
use crate::{reruns, time_rounds, Report, Subject};
use deep500::metrics::norms::linf_diff;
use deep500::metrics::Json;
use deep500::ops::deepbench::GemmSize;
use deep500::ops::gemm::{gemm_into, Algorithm};
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

/// Time `tiers` on one shape over `rounds` interleaved rounds. Returns
/// each tier's summary and the product it left behind.
fn time_tiers(
    g: GemmSize,
    tiers: &[Algorithm],
    rounds: usize,
    rng: &mut Xoshiro256StarStar,
) -> Vec<(Timing, Vec<f32>)> {
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
                gemm_into(algo, g.m, g.n, g.k, a.data(), b.data(), &mut c);
                black_box(c[0])
            })
        })
        .collect();
    let timed = time_rounds(1, rounds, &mut subjects);
    drop(subjects);
    let timings = timed.iter().map(|[t]| Timing::of(t));
    timings
        .zip(outs.into_iter().map(RefCell::into_inner))
        .collect()
}

/// GFLOP/s of a `flops`-sized call that took `t`.
fn rate(flops: f64, t: &Timing) -> Json {
    Json::fixed(flops / t.ms / 1e6, 3)
}

/// One row on each side of `par::FORK_CUT` and of the GEMV cut-over.
fn cutover_rows(rng: &mut Xoshiro256StarStar) -> Vec<Json> {
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
        for (algo, (t, _)) in tiers.iter().zip(time_tiers(g, &tiers, 10 * reruns(), rng)) {
            rows.push(Json::obj([
                ("cut", Json::from("fork_cut")),
                ("side", Json::from(side)),
                ("tier", Json::from(format!("{algo:?}").to_lowercase())),
                ("m", Json::from(g.m)),
                ("n", Json::from(g.n)),
                ("k", Json::from(g.k)),
                ("gflops", rate(g.flops(), &t)),
                ("call", t.json()),
            ]));
        }
    }
    // `Linear` forward: one row takes the GEMV over the memoized
    // transposed weights, two rows the packed GEMM.
    let (fin, fout) = (512, 512);
    let w = Tensor::rand_uniform([fout, fin], -1.0, 1.0, rng);
    let bias = Tensor::zeros([fout]);
    let op = LinearOp::new(Algorithm::Packed);
    let xs = [1, 2].map(|n| Tensor::rand_uniform([n, fin], -1.0, 1.0, rng));
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
        let t = Timing::of(t);
        rows.push(Json::obj([
            ("cut", Json::from("linear_gemv")),
            ("side", Json::from(if n == 1 { "gemv" } else { "gemm" })),
            ("n", Json::from(n)),
            ("fin", Json::from(fin)),
            ("fout", Json::from(fout)),
            ("gflops", rate(2.0 * (n * fin * fout) as f64, &t)),
            ("per_row", t.times(1.0 / n as f64).json()),
        ]));
    }
    rows
}

pub fn run(report: &mut Report) {
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
    let (mut worst_err, mut not_fastest) = (0.0f64, Vec::new());
    for g in shapes {
        let timed = time_tiers(g, &TIERS, reruns(), &mut rng);
        let rates: Vec<f64> = timed.iter().map(|(t, _)| g.flops() / t.ms / 1e6).collect();
        let naive = &timed[0].1;
        let magnitude = naive.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (_, out) in &timed[1..] {
            let err = linf_diff(out, naive) / f64::from(magnitude);
            worst_err = worst_err.max(err);
        }
        if rates[..3].iter().any(|&r| r >= rates[3]) {
            not_fastest.push(format!("{}x{}x{}", g.m, g.n, g.k));
        }
        rows.push(Json::obj([
            ("m", Json::from(g.m)),
            ("n", Json::from(g.n)),
            ("k", Json::from(g.k)),
            ("naive", Json::fixed(rates[0], 3)),
            ("blocked", Json::fixed(rates[1], 3)),
            ("parallel", Json::fixed(rates[2], 3)),
            ("packed", Json::fixed(rates[3], 3)),
        ]));
    }
    report
        .field("unit", "GFLOP/s")
        .field("rounds", reruns())
        .rows("results", rows)
        .rows("cutovers", cutover_rows(&mut rng))
        .gate(
            "parity",
            worst_err <= 1e-4,
            format!("worst rel l-inf of any tier against Naive {worst_err:.1e} <= 1e-4"),
        )
        .gate(
            "packed_fastest",
            not_fastest.is_empty(),
            format!("Packed is the fastest tier on every shape; not on: {not_fastest:?}"),
        );
}
