//! Criterion micro-benchmarks of the Level-0 kernels and Level-3
//! collectives — statistical regression tracking for the substrate that
//! all paper figures rest on (GEMM algorithms, convolution algorithms,
//! the D5J decoders, and the allreduce schedules).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deep500::data::codec;
use deep500::dist::collectives::{allreduce_flat, allreduce_ring};
use deep500::dist::comm::{Communicator, ThreadTransport};
use deep500::dist::NetworkModel;
use deep500::metrics::norms::linf_diff;
use deep500::metrics::Json;
use deep500::ops::conv::{Conv2dOp, ConvAlgorithm};
use deep500::ops::deepbench::GemmSize;
use deep500::ops::gemm::{gemm_into, matmul, Algorithm};
use deep500::ops::Operator;
use deep500::prelude::*;
use deep500_bench::{reruns, scale, time_rounds, Report, Scale, Subject};
use std::cell::RefCell;
use std::hint::black_box;

const TIERS: [Algorithm; 4] = [
    Algorithm::Naive,
    Algorithm::Blocked,
    Algorithm::Parallel,
    Algorithm::Packed,
];

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_256");
    group.sample_size(10);
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    let a = Tensor::rand_uniform([256, 256], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform([256, 256], -1.0, 1.0, &mut rng);
    for algo in TIERS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{algo:?}")),
            &algo,
            |bench, &algo| bench.iter(|| matmul(algo, black_box(&a), black_box(&b)).unwrap()),
        );
    }
    group.finish();
}

/// DeepBench-shape GEMM sweep across all four algorithm tiers, recording
/// GFLOP/s per (shape, tier) into `BENCH_gemm.json` at the repo root — the
/// perf anchor for the packed-microkernel work (EXPERIMENTS.md §E16).
/// Gates: every tier within relative l-inf 1e-4 of `Naive` (`parity`), and
/// `Packed` — the default everything calls — the fastest tier on every
/// shape (`packed_fastest`). Timed by the bench harness's loop
/// (criterion's per-sample statistics are overkill at these problem
/// sizes); skipped under `D5_BENCH_SCALE=smoke`, as the CI smoke job runs
/// it.
fn bench_gemm_sweep(_c: &mut Criterion) {
    if scale() == Scale::Smoke {
        println!("gemm_sweep: skipped (D5_BENCH_SCALE=smoke)");
        return;
    }
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
    println!("gemm_sweep: GFLOP/s per tier");
    println!(
        "{:>24} {:>9} {:>9} {:>9} {:>9}",
        "M x N x K", "Naive", "Blocked", "Parallel", "Packed"
    );
    for g in shapes {
        let a = Tensor::rand_uniform([g.m, g.k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([g.k, g.n], -1.0, 1.0, &mut rng);
        // One output per tier, so the products the timing loop leaves
        // behind are also the parity check's.
        let outs = TIERS.map(|_| RefCell::new(vec![0.0f32; g.m * g.n]));
        let mut subjects: Vec<Subject<1>> = TIERS
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
        let rates: Vec<f64> = time_rounds(1, reruns(), &mut subjects)
            .iter()
            .map(|[t]| g.flops() / t.median / 1e9)
            .collect();
        let naive = outs[0].borrow();
        let magnitude = naive.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for out in &outs[1..] {
            let err = linf_diff(&out.borrow(), &naive) / f64::from(magnitude);
            worst_err = worst_err.max(err);
        }
        if rates[..3].iter().any(|&r| r >= rates[3]) {
            not_fastest.push(format!("{}x{}x{}", g.m, g.n, g.k));
        }
        println!(
            "{:>24} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            format!("{} x {} x {}", g.m, g.n, g.k),
            rates[0],
            rates[1],
            rates[2],
            rates[3]
        );
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
    let mut report = Report::new("gemm");
    report
        .field("unit", "GFLOP/s")
        .field("rounds", reruns())
        .rows("results", rows)
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
    // The gates are read from the file (CI's "every gate ok" step); a
    // criterion group function has no exit code to turn them into.
    let _ = report.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_2x8x32x32_k3");
    group.sample_size(10);
    let mut rng = Xoshiro256StarStar::seed_from_u64(2);
    let x = Tensor::rand_uniform([2, 8, 32, 32], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform([16, 8, 3, 3], -0.5, 0.5, &mut rng);
    let bias = Tensor::zeros([16]);
    for algo in [ConvAlgorithm::Direct, ConvAlgorithm::Im2col] {
        let op = Conv2dOp::new(1, 1, algo);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{algo:?}")),
            &op,
            |bench, op| bench.iter(|| op.forward(black_box(&[&x, &w, &bias])).unwrap()),
        );
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("d5j_decode_3x64x64");
    group.sample_size(10);
    let src = SyntheticDataset::cifar10_like(1, 3);
    let (pix, _) = src.sample_u8(0);
    // Upscale to a 64x64 plane set by tiling the 32x32 sample.
    let mut big = vec![0u8; 3 * 64 * 64];
    for (i, v) in big.iter_mut().enumerate() {
        *v = pix[i % pix.len()];
    }
    let img = codec::RawImage::new(3, 64, 64, big).unwrap();
    let bytes = codec::encode(&img, 85).unwrap();
    group.bench_function("scalar (PIL-like)", |b| {
        b.iter(|| codec::decode_scalar(black_box(&bytes)).unwrap())
    });
    group.bench_function("turbo (libjpeg-turbo-like)", |b| {
        b.iter(|| codec::decode_turbo(black_box(&bytes)).unwrap())
    });
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce_4ranks_16k");
    group.sample_size(10);
    for (name, ring) in [("ring", true), ("flat", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let comms = ThreadTransport::create(4, NetworkModel::instant());
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|mut comm| {
                        std::thread::spawn(move || {
                            let mut buf = vec![comm.rank() as f32; 16 * 1024];
                            if ring {
                                allreduce_ring(&mut comm, &mut buf).unwrap();
                            } else {
                                allreduce_flat(&mut comm, &mut buf).unwrap();
                            }
                            buf[0]
                        })
                    })
                    .collect();
                for h in handles {
                    black_box(h.join().unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_sweep,
    bench_conv,
    bench_codec,
    bench_collectives
);
criterion_main!(benches);
