//! The serial reference loop vs. the level-parallel plan interpreter on a
//! wide, multi-level model.
//!
//! The model has `BRANCHES` independent `Linear -> Relu` towers fanning out
//! of a shared input and merging in a `Concat -> MseLoss` head, so the
//! level partition contains two levels of width `BRANCHES` — the shape
//! the level scheduler is built for. Each executor is benched on a full
//! `inference_and_backprop` pass at 1, 2 and max worker threads
//! (`0` = one slot per rayon worker); the plan interpreter additionally
//! reuses its plan slots and gradient pool across passes, so it can win
//! even at a single thread once warm.
//!
//! Run with `cargo bench --bench executor_parallel`. Thread counts beyond
//! the machine's core count time-slice rather than speed up; record the
//! host's `nproc` next to any numbers you keep.

use criterion::{criterion_group, criterion_main, Criterion};
use deep500::graph::{Engine, ExecutorKind, Network};
use deep500::ops::registry::Attributes;
use deep500::tensor::{Tensor, Xoshiro256StarStar};

const BRANCHES: usize = 8;
const FEATURES: usize = 96;
const BATCH: usize = 16;

/// `BRANCHES` independent Linear->Relu towers over a shared input,
/// concatenated (axis 0) and reduced to a scalar MSE loss.
fn wide_net() -> Network {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed);
    let mut net = Network::new("wide");
    net.add_input("x");
    net.add_input("target");
    let mut towers: Vec<String> = Vec::new();
    for i in 0..BRANCHES {
        let (w, b, h, r) = (
            format!("w{i}"),
            format!("b{i}"),
            format!("h{i}"),
            format!("r{i}"),
        );
        net.add_parameter(
            &w,
            Tensor::rand_normal([FEATURES, FEATURES], 0.0, 0.05, &mut rng),
        );
        net.add_parameter(&b, Tensor::zeros([FEATURES]));
        net.add_node(
            format!("fc{i}"),
            "Linear",
            Attributes::new(),
            &["x", &w, &b],
            &[&h],
        )
        .unwrap();
        net.add_node(format!("act{i}"), "Relu", Attributes::new(), &[&h], &[&r])
            .unwrap();
        towers.push(r);
    }
    let tower_refs: Vec<&str> = towers.iter().map(String::as_str).collect();
    let cat = Attributes::new().with_int("num_inputs", BRANCHES as i64);
    net.add_node("merge", "Concat", cat, &tower_refs, &["y"])
        .unwrap();
    net.add_node(
        "mse",
        "MseLoss",
        Attributes::new(),
        &["y", "target"],
        &["loss"],
    )
    .unwrap();
    net.add_output("loss");
    net
}

fn feeds() -> Vec<(&'static str, Tensor)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    vec![
        (
            "x",
            Tensor::rand_uniform([BATCH, FEATURES], -1.0, 1.0, &mut rng),
        ),
        ("target", Tensor::zeros([BRANCHES * BATCH, FEATURES])),
    ]
}

fn bench_executors(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("executor/wide{BRANCHES}x{FEATURES}b{BATCH}"));
    group.sample_size(10);
    let feeds = feeds();

    group.bench_function("reference", |b| {
        let engine = Engine::builder(wide_net()).build().unwrap();
        let mut ex = engine.lock();
        b.iter(|| criterion::black_box(ex.inference_and_backprop(&feeds, "loss").unwrap()));
    });

    for threads in [1usize, 2, 0] {
        let label = if threads == 0 {
            "planned/max".to_string()
        } else {
            format!("planned/{threads}")
        };
        group.bench_function(&label, |b| {
            let engine = Engine::builder(wide_net())
                .executor(ExecutorKind::Wavefront)
                .threads(threads)
                .build()
                .unwrap();
            let mut ex = engine.lock();
            // Build the plan and warm its buffers: steady state is measured.
            ex.inference_and_backprop(&feeds, "loss").unwrap();
            b.iter(|| criterion::black_box(ex.inference_and_backprop(&feeds, "loss").unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
