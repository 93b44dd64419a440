//! `plan` — the graph compile pipeline benchmark.
//!
//! For every model in the zoo slice below, this harness:
//!
//! 1. **Parity** — compiles the network (constant folding, CSE,
//!    elementwise fusion, GEMM-epilogue fusion) and checks the
//!    `PlannedExecutor` on the compiled graph against the
//!    `ReferenceExecutor` on the original graph, *bitwise*: inference
//!    outputs and — under the training-safe pass set — every parameter
//!    gradient.
//! 2. **Speed** — times the compiled graph against the uncompiled graph,
//!    both on the one level-parallel tier (`PlannedExecutor`: static
//!    memory plan, frozen dispatch lists, integer-indexed environment),
//!    and reports the median-over-median speedup. The row measures what
//!    the rewrites buy; the gate is that compiling never costs speed
//!    (speedup ≥ 0.95 on every model).
//! 3. **Memory** — compares the compiled plan's static bytes against the
//!    verifier's interference lower bound (must be ≥) and the uncompiled
//!    run's observed `peak_memory()` (must be ≤).
//!
//! Emits `BENCH_plan.json` at the repo root and exits non-zero if any
//! parity, memory-bound, or speed criterion fails.
//!
//! Run with: `cargo run --release -p deep500-bench --bin plan`

use deep500::graph::compile;
use deep500::prelude::*;
use deep500::tensor::rng::Xoshiro256StarStar;

struct Case {
    name: &'static str,
    net: Network,
    feed_shape: Vec<usize>,
    classes: usize,
    /// Timed passes (parity always runs; heavy conv models time fewer).
    reps: usize,
}

fn zoo() -> Vec<Case> {
    vec![
        Case {
            name: "mlp-small",
            net: models::mlp(16, &[32, 24], 4, 11).expect("mlp-small"),
            feed_shape: vec![4, 16],
            classes: 4,
            reps: 400,
        },
        Case {
            name: "mlp-wide",
            net: models::mlp(64, &[128, 96, 64], 8, 3).expect("mlp-wide"),
            feed_shape: vec![16, 64],
            classes: 8,
            reps: 200,
        },
        Case {
            name: "lenet",
            net: models::lenet(1, 28, 10, 2).expect("lenet"),
            feed_shape: vec![4, 1, 28, 28],
            classes: 10,
            reps: 20,
        },
    ]
}

fn feeds_for(case: &Case, seed: u64) -> Vec<(String, Tensor)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let batch = case.feed_shape[0];
    let x = Tensor::rand_uniform(Shape::new(&case.feed_shape), -1.0, 1.0, &mut rng);
    let labels: Vec<f32> = (0..batch).map(|i| (i % case.classes) as f32).collect();
    vec![
        ("x".to_string(), x),
        ("labels".to_string(), Tensor::from_slice(&labels)),
    ]
}

fn as_refs(feeds: &[(String, Tensor)]) -> Vec<(&str, Tensor)> {
    feeds.iter().map(|(n, t)| (n.as_str(), t.clone())).collect()
}

fn input_shapes(case: &Case) -> Vec<(&str, Shape)> {
    vec![
        ("x", Shape::new(&case.feed_shape)),
        ("labels", Shape::new(&[case.feed_shape[0]])),
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

struct Row {
    name: &'static str,
    nodes_before: usize,
    nodes_after: usize,
    fused_epilogues: usize,
    rewrites: usize,
    parity: bool,
    backprop_parity: bool,
    compiled_ms: f64,
    uncompiled_ms: f64,
    speedup: f64,
    plan_bytes: usize,
    pool_lower_bound: usize,
    observed_peak: usize,
}

fn run_case(case: &Case) -> Row {
    let feeds = feeds_for(case, 1234);
    let feeds = as_refs(&feeds);
    let shapes = input_shapes(case);

    // ---- Inference parity: compiled+planned vs uncompiled reference ----
    let mut compiled = case.net.clone_structure();
    let report = compile::compile(&mut compiled, &shapes, &CompileOptions::inference())
        .expect("compile (inference)");
    let reference_engine = Engine::builder(case.net.clone_structure())
        .build()
        .expect("reference");
    let mut reference = reference_engine.lock();
    // `plan()` (memory-plan introspection below) lives on the concrete
    // executor, not the `GraphExecutor` trait, so unwrap and downcast.
    let mut planned_boxed = Engine::builder(compiled)
        .executor(ExecutorKind::Planned)
        .build()
        .expect("planned")
        .into_inner()
        .expect("sole handle");
    let planned = planned_boxed
        .as_any_mut()
        .downcast_mut::<deep500::graph::PlannedExecutor>()
        .expect("planned engine holds a PlannedExecutor");
    let expect = reference.inference(&feeds).expect("reference pass");
    let mut parity = true;
    // Two passes so slot reuse is exercised, not just first-touch buffers.
    for _ in 0..2 {
        let got = planned.inference(&feeds).expect("planned pass");
        for (name, t) in &expect {
            if bits(&got[name]) != bits(t) {
                eprintln!("plan: {} output '{name}' diverged bitwise", case.name);
                parity = false;
            }
        }
    }

    // ---- Backprop parity under the training-safe pass set -------------
    let mut train_compiled = case.net.clone_structure();
    compile::compile(&mut train_compiled, &shapes, &CompileOptions::training())
        .expect("compile (training)");
    let tref_engine = Engine::builder(case.net.clone_structure())
        .build()
        .expect("reference");
    let mut tref = tref_engine.lock();
    let tplan_engine = Engine::builder(train_compiled)
        .executor(ExecutorKind::Planned)
        .build()
        .expect("planned");
    let mut tplan = tplan_engine.lock();
    let r_out = tref
        .inference_and_backprop(&feeds, "loss")
        .expect("reference backprop");
    let p_out = tplan
        .inference_and_backprop(&feeds, "loss")
        .expect("planned backprop");
    let mut backprop_parity = bits(&r_out["loss"]) == bits(&p_out["loss"]);
    for p in tref.network().get_params().to_vec() {
        let g = deep500::graph::grad_name(&p);
        let rg = tref.network().fetch_tensor(&g).expect("reference grad");
        let pg = tplan.network().fetch_tensor(&g).expect("planned grad");
        if bits(rg) != bits(pg) {
            eprintln!("plan: {} gradient of '{p}' diverged bitwise", case.name);
            backprop_parity = false;
        }
    }

    // ---- Timing: compiled vs original graph, same executor tier -------
    let uncompiled_engine = Engine::builder(case.net.clone_structure())
        .executor(ExecutorKind::Planned)
        .build()
        .expect("uncompiled");
    let mut uncompiled = uncompiled_engine.lock();
    let warmup = (case.reps / 10).max(3);
    for _ in 0..warmup {
        planned.inference(&feeds).expect("compiled warmup");
        uncompiled.inference(&feeds).expect("uncompiled warmup");
    }
    let mut compiled_times = Vec::with_capacity(case.reps);
    let mut uncompiled_times = Vec::with_capacity(case.reps);
    for _ in 0..case.reps {
        let (r, t) = Timer::time(|| planned.inference(&feeds));
        r.expect("compiled timed pass");
        compiled_times.push(t);
        let (r, t) = Timer::time(|| uncompiled.inference(&feeds));
        r.expect("uncompiled timed pass");
        uncompiled_times.push(t);
    }
    let compiled_ms = median(&mut compiled_times) * 1e3;
    let uncompiled_ms = median(&mut uncompiled_times) * 1e3;
    let speedup = if compiled_ms > 0.0 {
        uncompiled_ms / compiled_ms
    } else {
        1.0
    };

    // ---- Memory: static plan vs lower bound vs observed peak ----------
    let plan = planned.plan().expect("plan built by passes above");
    Row {
        name: case.name,
        nodes_before: report.nodes_before,
        nodes_after: report.nodes_after,
        fused_epilogues: report.fused_epilogues,
        rewrites: report.rewrites(),
        parity,
        backprop_parity,
        compiled_ms,
        uncompiled_ms,
        speedup,
        plan_bytes: plan.memory.total_bytes,
        pool_lower_bound: plan.memory.pool_lower_bound,
        observed_peak: uncompiled.peak_memory(),
    }
}

/// Compiling must never cost speed; 5 % absorbs timing noise.
const SPEEDUP_FLOOR: f64 = 0.95;

fn main() {
    let rows: Vec<Row> = zoo().iter().map(run_case).collect();

    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>11} {:>10} {:>8} {:>12} {:>12} {:>12}",
        "model",
        "nodes",
        "after",
        "fused",
        "compiled_ms",
        "uncomp_ms",
        "speedup",
        "plan_B",
        "bound_B",
        "peak_B"
    );
    for r in &rows {
        println!(
            "{:<10} {:>6} {:>6} {:>6} {:>11.4} {:>10.4} {:>7.2}x {:>12} {:>12} {:>12}",
            r.name,
            r.nodes_before,
            r.nodes_after,
            r.fused_epilogues,
            r.compiled_ms,
            r.uncompiled_ms,
            r.speedup,
            r.plan_bytes,
            r.pool_lower_bound,
            r.observed_peak
        );
    }

    let mut failures = Vec::new();
    for r in &rows {
        if !r.parity {
            failures.push(format!("{}: inference outputs diverged bitwise", r.name));
        }
        if !r.backprop_parity {
            failures.push(format!("{}: gradients diverged bitwise", r.name));
        }
        if r.plan_bytes < r.pool_lower_bound {
            failures.push(format!(
                "{}: plan bytes {} below interference lower bound {}",
                r.name, r.plan_bytes, r.pool_lower_bound
            ));
        }
        if r.plan_bytes > r.observed_peak {
            failures.push(format!(
                "{}: plan bytes {} exceed observed peak {}",
                r.name, r.plan_bytes, r.observed_peak
            ));
        }
        if r.speedup < SPEEDUP_FLOOR {
            failures.push(format!(
                "{}: compiled graph slower than uncompiled ({:.2}x < {SPEEDUP_FLOOR}x)",
                r.name, r.speedup
            ));
        }
    }
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);

    let model_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"model\": \"{}\", \"nodes_before\": {}, \"nodes_after\": {}, \
                 \"fused_epilogues\": {}, \"rewrites\": {}, \"parity_bitwise\": {}, \
                 \"backprop_parity_bitwise\": {}, \"compiled_ms\": {:.6}, \
                 \"uncompiled_ms\": {:.6}, \"speedup\": {:.4}, \"plan_bytes\": {}, \
                 \"pool_lower_bound_bytes\": {}, \"observed_peak_bytes\": {}, \
                 \"plan_within_peak\": {}}}",
                r.name,
                r.nodes_before,
                r.nodes_after,
                r.fused_epilogues,
                r.rewrites,
                r.parity,
                r.backprop_parity,
                r.compiled_ms,
                r.uncompiled_ms,
                r.speedup,
                r.plan_bytes,
                r.pool_lower_bound,
                r.observed_peak,
                r.plan_bytes <= r.observed_peak
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"plan\",\n  \"speedup_floor\": {SPEEDUP_FLOOR},\n  \
         \"min_speedup\": {min_speedup:.4},\n  \"compiled_not_slower\": {},\n  \
         \"models\": [\n{}\n  ]\n}}\n",
        min_speedup >= SPEEDUP_FLOOR,
        model_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan.json");
    std::fs::write(path, &json).expect("write BENCH_plan.json");
    println!("plan: wrote {path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("plan: FAIL {f}");
        }
        std::process::exit(1);
    }
    println!(
        "plan: all models bit-identical; min compiled-vs-uncompiled speedup {min_speedup:.2}x \
         (floor {SPEEDUP_FLOOR}x)"
    );
}
