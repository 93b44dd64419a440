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
//!    both on the one level-parallel tier (`PlannedExecutor`: frozen
//!    dispatch lists, integer-indexed environment, pooled buffers),
//!    and reports the median-over-median speedup. The row measures what
//!    the rewrites buy; the gate is that compiling never costs speed
//!    (speedup ≥ 0.95 on every model).
//! 3. **Memory** — the verifier's interference lower bound on the
//!    compiled graph's pool bytes must not exceed the uncompiled run's
//!    observed `peak_memory()` — the verifier-vs-runtime check
//!    `crates/graph/tests/verify_models.rs` makes on the zoo.
//!
//! 4. **Executors** — the serial reference loop against the plan
//!    interpreter on two wide multi-level models, one on each side of the
//!    fork decision (`deep500_ops::par`): eight 96-wide towers whose
//!    levels sit below the cut, so the interpreter must run them inline
//!    and be no slower than the serial loop (gate
//!    `small_levels_run_inline`), and eight 256-wide towers whose `Linear`
//!    level forks (rows only: what a fork buys depends on the host's
//!    cores, so read them next to `env.cores`).
//!
//! Writes `BENCH_plan.json`; every parity, memory-bound and speed
//! criterion is a gate.
//!
//! Run with: `cargo run --release -p deep500-bench -- plan`

use crate::rows::{claims, no_slower, select, text, Timing, Verdict};
use crate::{time_rounds, Report, Subject};
use deep500::graph::compile;
use deep500::graph::models::{feed_refs, zoo, ZooCase};
use deep500::metrics::Json;
use deep500::prelude::*;

/// The zoo slice the speed floor is gated on: one tiny and one wide
/// dispatch-bound MLP, one conv-bound CNN.
const MODELS: [&str; 3] = ["mlp_small", "mlp_wide", "lenet"];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// What the gates read, plus the model's report row.
struct Row {
    name: &'static str,
    parity: bool,
    backprop_parity: bool,
    speedup: f64,
    pool_bound_below_peak: bool,
    json: Json,
}

fn run_case(case: &ZooCase) -> Row {
    let feeds = case.feeds(1234);
    let feeds = feed_refs(&feeds);
    let shapes = case.input_shapes();

    // ---- Inference parity: compiled+planned vs uncompiled reference ----
    let mut compiled = case.net.clone_structure();
    let report = compile::compile(&mut compiled, &shapes, &CompileOptions::inference())
        .expect("compile (inference)");
    let reference_engine = Engine::builder(case.net.clone_structure())
        .build()
        .expect("reference");
    let mut reference = reference_engine.lock();
    // `verify_aliasing` (the memory bound below) lives on the concrete
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
    // Two passes so pool reuse is exercised, not just first-touch buffers.
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
    let tplan_engine = Engine::builder(train_compiled)
        .executor(ExecutorKind::Planned)
        .build()
        .expect("planned");
    let mut tplan = tplan_engine.lock();
    let r_out = reference
        .inference_and_backprop(&feeds, "loss")
        .expect("reference backprop");
    let p_out = tplan
        .inference_and_backprop(&feeds, "loss")
        .expect("planned backprop");
    let mut backprop_parity = bits(&r_out["loss"]) == bits(&p_out["loss"]);
    for p in reference.network().get_params().to_vec() {
        let g = deep500::graph::grad_name(&p);
        let rg = reference
            .network()
            .fetch_tensor(&g)
            .expect("reference grad");
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
    // Heavy conv models time fewer rounds than the microsecond MLPs.
    let rounds = if case.x.rank() > 2 { 20 } else { 200 };
    let timed = time_rounds(
        (rounds / 10).max(3),
        rounds,
        &mut [
            Subject::wall(|| planned.inference(&feeds).expect("compiled pass")),
            Subject::wall(|| uncompiled.inference(&feeds).expect("uncompiled pass")),
        ],
    );
    let (compiled_ms, uncompiled_ms) = (timed[0][0].median * 1e3, timed[1][0].median * 1e3);
    let speedup = if compiled_ms > 0.0 {
        uncompiled_ms / compiled_ms
    } else {
        1.0
    };

    // ---- Memory: verifier's lower bound vs observed peak ---------------
    let lower_bound = planned
        .verify_aliasing(&shapes)
        .expect("compiled level partition is pool-safe")
        .pool_lower_bound;
    let observed_peak = uncompiled.peak_memory();
    Row {
        name: case.name,
        parity,
        backprop_parity,
        speedup,
        pool_bound_below_peak: lower_bound <= observed_peak,
        json: Json::obj([
            ("model", Json::from(case.name)),
            ("nodes_before", Json::from(report.nodes_before)),
            ("nodes_after", Json::from(report.nodes_after)),
            ("fused_epilogues", Json::from(report.fused_epilogues)),
            ("rewrites", Json::from(report.rewrites())),
            ("compiled_ms", Json::fixed(compiled_ms, 6)),
            ("uncompiled_ms", Json::fixed(uncompiled_ms, 6)),
            ("speedup", Json::fixed(speedup, 4)),
            ("pool_lower_bound_bytes", Json::from(lower_bound)),
            ("observed_peak_bytes", Json::from(observed_peak)),
        ]),
    }
}

const BRANCHES: usize = 8;
const BATCH: usize = 16;
/// Tower widths of the two `executors` models: at [`BATCH`] rows a 96-wide
/// `Linear` is 147 k multiply-adds, below `par::FORK_CUT` (262 k), and a
/// 256-wide one 1 M, above it.
const SMALL: usize = 96;
const LARGE: usize = 256;

fn wide_name(features: usize) -> String {
    format!("wide{BRANCHES}x{features}b{BATCH}")
}

/// `BRANCHES` independent `Linear -> Relu` towers of width `features`
/// over a shared input, concatenated (axis 0) and reduced to a scalar MSE
/// loss: the level partition has two levels of width `BRANCHES`, the shape
/// the level scheduler is built for.
fn wide_net(features: usize) -> Network {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5eed);
    let mut net = Network::new("wide");
    net.add_input("x");
    net.add_input("target");
    let mut towers: Vec<String> = Vec::new();
    for i in 0..BRANCHES {
        let [w, b, h, r] = ["w", "b", "h", "r"].map(|p| format!("{p}{i}"));
        let init = Tensor::rand_normal([features, features], 0.0, 0.05, &mut rng);
        net.add_parameter(&w, init);
        net.add_parameter(&b, Tensor::zeros([features]));
        net.add_node(
            format!("fc{i}"),
            "Linear",
            Attributes::new(),
            &["x", &w, &b],
            &[&h],
        )
        .expect("tower linear");
        net.add_node(format!("act{i}"), "Relu", Attributes::new(), &[&h], &[&r])
            .expect("tower relu");
        towers.push(r);
    }
    let tower_refs: Vec<&str> = towers.iter().map(String::as_str).collect();
    let cat = Attributes::new().with_int("num_inputs", BRANCHES as i64);
    net.add_node("merge", "Concat", cat, &tower_refs, &["y"])
        .expect("merge");
    net.add_node(
        "mse",
        "MseLoss",
        Attributes::new(),
        &["y", "target"],
        &["loss"],
    )
    .expect("loss");
    net.add_output("loss");
    net
}

/// One full `inference_and_backprop` pass of [`wide_net`] per width and
/// executor, the two executors of a width interleaved; the plan
/// interpreter reuses its pooled buffers across passes, so it can win
/// without forking once warm.
fn executor_rows() -> Vec<Json> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let mut rows = Vec::new();
    for features in [SMALL, LARGE] {
        let x = Tensor::rand_uniform([BATCH, features], -1.0, 1.0, &mut rng);
        let feeds = [
            ("x", x),
            ("target", Tensor::zeros([BRANCHES * BATCH, features])),
        ];
        let kinds = [ExecutorKind::Reference, ExecutorKind::Planned];
        let engines = kinds.map(|kind| {
            let builder = Engine::builder(wide_net(features)).executor(kind);
            builder.build().expect("wide engine")
        });
        let mut subjects: Vec<Subject<1>> = engines
            .iter()
            .map(|engine| {
                let feeds = &feeds;
                Subject::wall(move || {
                    let mut ex = engine.lock();
                    ex.inference_and_backprop(feeds, "loss").expect("wide pass")
                })
            })
            .collect();
        let timed = time_rounds(3, 30, &mut subjects);
        rows.extend(kinds.iter().zip(&timed).map(|(kind, [t])| {
            Json::obj([
                ("model", Json::from(wide_name(features))),
                ("executor", Json::from(format!("{kind:?}").to_lowercase())),
                ("pass", Timing::of(t).json()),
            ])
        }));
    }
    rows
}

/// Levels whose steps sit below the fork cut run inline: on the small
/// wide model the plan interpreter is no slower than the serial loop.
/// (When every level of two or more nodes was handed to the pool it read
/// 0.71 ms against 0.35.)
pub fn small_levels_run_inline(executors: &[Json]) -> Verdict {
    let model = wide_name(SMALL);
    let pass = |executor: &str| {
        let row = select(executors, "model", &model)
            .find(|row| text(row, "executor") == executor)
            .unwrap_or_else(|| panic!("no {executor} row of {model}"));
        Timing::read(row, "pass")
    };
    no_slower(
        "small_levels_run_inline",
        "planned is no slower than reference where no level clears the fork cut",
        [(model.clone(), pass("planned"), pass("reference"))],
    )
}

/// Compiling must never cost speed; 5 % absorbs timing noise.
const SPEEDUP_FLOOR: f64 = 0.95;

pub fn run(report: &mut Report) {
    let rows: Vec<Row> = zoo()
        .iter()
        .filter(|case| MODELS.contains(&case.name))
        .map(run_case)
        .collect();

    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let executors = executor_rows();
    let inline = small_levels_run_inline(&executors);
    report
        .field("min_speedup", Json::fixed(min_speedup, 4))
        .rows("models", rows.iter().map(|r| r.json.clone()).collect())
        .rows("executors", executors)
        .gate(
            "models_benchmarked",
            rows.len() == MODELS.len(),
            format!("{} of {}", rows.len(), MODELS.len()),
        );
    // One gate per criterion; the detail names the models that miss it.
    let mut gate = |name: &str, holds: &dyn Fn(&Row) -> bool, what: &str| {
        let failing: Vec<&str> = rows.iter().filter(|r| !holds(r)).map(|r| r.name).collect();
        report.gate(
            name,
            failing.is_empty(),
            format!("{what}; failing: {failing:?}"),
        );
    };
    gate(
        "parity_bitwise",
        &|r| r.parity,
        "compiled inference outputs == reference, bitwise",
    );
    gate(
        "backprop_parity_bitwise",
        &|r| r.backprop_parity,
        "training-compiled loss and gradients == reference, bitwise",
    );
    gate(
        "pool_bound_below_peak",
        &|r| r.pool_bound_below_peak,
        "interference lower bound <= observed peak",
    );
    gate(
        "compiled_not_slower",
        &|r| r.speedup >= SPEEDUP_FLOOR,
        &format!("speedup >= {SPEEDUP_FLOOR} on every model (min {min_speedup:.2})"),
    );
    claims(report, [inline]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{interval, Span};

    #[test]
    fn an_inline_small_model_passes_and_a_forked_one_fails() {
        let rows = |reference: Span, planned: Span| {
            [("reference", reference), ("planned", planned)].map(|(executor, pass)| {
                Json::obj([
                    ("model", Json::from(wide_name(SMALL))),
                    ("executor", Json::from(executor)),
                    ("pass", interval(pass)),
                ])
            })
        };
        assert!(small_levels_run_inline(&rows((0.33, 0.36), (0.26, 0.29))).ok);
        // Overlapping intervals do not contradict the claim.
        assert!(small_levels_run_inline(&rows((0.33, 0.36), (0.35, 0.39))).ok);
        // What forking every level read at the parent commit.
        let v = small_levels_run_inline(&rows((0.33, 0.36), (0.70, 0.73)));
        assert!(!v.ok && v.detail.contains("0.700"), "{}", v.detail);
    }
}
