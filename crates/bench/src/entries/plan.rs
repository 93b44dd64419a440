//! `plan` — the graph compile pipeline benchmark.
//!
//! For every model in the zoo slice below, this harness writes `models`
//! rows keyed by `model`:
//!
//! 1. **Parity** — compiles the network (GEMM-epilogue fusion) and checks
//!    the `PlannedExecutor` on the compiled graph against the
//!    `ReferenceExecutor` on the original graph, *bitwise*: inference
//!    outputs and every parameter gradient (`inference_mismatches`,
//!    `backprop_mismatches`: tensors that differ in any bit).
//! 2. **Speed** — times the compiled graph against the uncompiled graph,
//!    both on the one level-parallel tier (`PlannedExecutor`: frozen
//!    dispatch lists, integer-indexed environment, pooled buffers):
//!    `compiled_ms` and `uncompiled_ms`. Their ratio measures what the
//!    rewrites buy; the gate is that compiling never costs speed (speedup
//!    ≥ 0.95 on every model).
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
//!    cores, so read them next to `env.cores`). `executors` rows are keyed
//!    by `model` and `executor`.
//!
//! Writes `BENCH_plan.json`; every parity, memory-bound and speed
//! criterion is a gate.
//!
//! Run with: `cargo run --release -p deep500-bench -- plan`

use crate::rows::{no_slower, select, unless, Better, Row, Verdict};
use crate::{engine, time_rounds, Subject};
use deep500::graph::compile;
use deep500::graph::models::{feed_refs, zoo, ZooCase};
use deep500::prelude::*;

/// The zoo slice the speed floor is gated on: one tiny and one wide
/// dispatch-bound MLP, one conv-bound CNN.
const MODELS: [&str; 3] = ["mlp_small", "mlp_wide", "lenet"];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The `models` rows of one zoo case.
fn run_case(case: &ZooCase) -> Vec<Row> {
    let feeds = case.feeds(1234);
    let feeds = feed_refs(&feeds);
    let shapes = case.input_shapes();

    // ---- Inference parity: compiled+planned vs uncompiled reference ----
    let mut compiled = case.net.clone_structure();
    let report =
        compile::compile(&mut compiled, &shapes, &CompileOptions::default()).expect("compile");
    // Backprop runs on an engine of its own, so the timed one below has
    // only ever run inference.
    let tplan_engine = engine(compiled.clone_structure(), ExecutorKind::Planned);
    let reference_engine = engine(case.net.clone_structure(), ExecutorKind::Reference);
    let mut reference = reference_engine.lock();
    let planned_engine = engine(compiled, ExecutorKind::Planned);
    let mut planned = planned_engine.lock();
    let expect = reference.inference(&feeds).expect("reference pass");
    let mut inference_mismatches = 0;
    // Two passes so pool reuse is exercised, not just first-touch buffers.
    for _ in 0..2 {
        let got = planned.inference(&feeds).expect("planned pass");
        for (name, t) in &expect {
            if bits(&got[name]) != bits(t) {
                eprintln!("plan: {} output '{name}' diverged bitwise", case.name);
                inference_mismatches += 1;
            }
        }
    }

    // ---- Backprop parity: compiled+planned vs uncompiled reference -----
    let mut tplan = tplan_engine.lock();
    let r_out = reference
        .inference_and_backprop(&feeds, "loss")
        .expect("reference backprop");
    let p_out = tplan
        .inference_and_backprop(&feeds, "loss")
        .expect("planned backprop");
    let mut backprop_mismatches = usize::from(bits(&r_out["loss"]) != bits(&p_out["loss"]));
    for p in reference.network().get_params().to_vec() {
        let g = deep500::graph::grad_name(&p);
        let rg = reference
            .network()
            .fetch_tensor(&g)
            .expect("reference grad");
        let pg = tplan.network().fetch_tensor(&g).expect("planned grad");
        if bits(rg) != bits(pg) {
            eprintln!("plan: {} gradient of '{p}' diverged bitwise", case.name);
            backprop_mismatches += 1;
        }
    }

    // ---- Timing: compiled vs original graph, same executor tier -------
    let uncompiled_engine = engine(case.net.clone_structure(), ExecutorKind::Planned);
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

    // ---- Memory: verifier's lower bound vs observed peak ---------------
    let verified =
        deep500::verify::Verifier::new().check_with_inputs(&planned.network().to_ir(), &shapes);
    assert!(
        verified.passes(),
        "plan: {} compiled level partition is not pool-safe:\n{}",
        case.name,
        verified.render(true)
    );
    let lower_bound = verified.pool_lower_bound.expect("aliasing pass ran");
    let observed_peak = uncompiled.peak_memory();
    let model = Row::of("models").key("model", case.name);
    let count = |metric, v| model.count(metric, Better::None, v);
    vec![
        count("nodes_before", report.nodes_before),
        count("nodes_after", report.nodes_after),
        count("fused_epilogues", report.fused_epilogues),
        model.count("inference_mismatches", Better::Lower, inference_mismatches),
        model.count("backprop_mismatches", Better::Lower, backprop_mismatches),
        model.ms("compiled_ms", &timed[0][0]),
        model.ms("uncompiled_ms", &timed[1][0]),
        model.bytes("pool_lower_bound_bytes", Better::Lower, lower_bound),
        model.bytes("observed_peak_bytes", Better::Lower, observed_peak),
    ]
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
fn executor_rows() -> Vec<Row> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let mut rows = Vec::new();
    for features in [SMALL, LARGE] {
        let x = Tensor::rand_uniform([BATCH, features], -1.0, 1.0, &mut rng);
        let feeds = [
            ("x", x),
            ("target", Tensor::zeros([BRANCHES * BATCH, features])),
        ];
        let kinds = [ExecutorKind::Reference, ExecutorKind::Planned];
        let engines = kinds.map(|kind| engine(wide_net(features), kind));
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
            Row::of("executors")
                .key("model", wide_name(features))
                .key("executor", format!("{kind:?}").to_lowercase())
                .ms("pass", t)
        }));
    }
    rows
}

/// Levels whose steps sit below the fork cut run inline: on the small
/// wide model the plan interpreter is no slower than the serial loop.
/// (When every level of two or more nodes was handed to the pool it read
/// 0.71 ms against 0.35.)
pub fn small_levels_run_inline(rows: &[Row]) -> Verdict {
    let model = wide_name(SMALL);
    let pass = |executor: &str| {
        let row = select(rows, "executors", "pass")
            .find(|row| row.text("model") == model && row.is("executor", executor))
            .unwrap_or_else(|| panic!("no {executor} row of {model}"));
        row.interval()
    };
    no_slower(
        "small_levels_run_inline",
        "planned is no slower than reference where no level clears the fork cut",
        [(model.clone(), pass("planned"), pass("reference"))],
    )
}

/// Compiling must never cost speed; 5 % absorbs timing noise.
const SPEEDUP_FLOOR: f64 = 0.95;

pub fn measure() -> Vec<Row> {
    let cases = zoo().into_iter().filter(|case| MODELS.contains(&case.name));
    let mut rows: Vec<Row> = cases.flat_map(|case| run_case(&case)).collect();
    rows.extend(executor_rows());
    rows
}

pub fn models_benchmarked(rows: &[Row]) -> Verdict {
    let benchmarked = select(rows, "models", "compiled_ms").count();
    Verdict::new(
        "models_benchmarked",
        benchmarked == MODELS.len(),
        format!("{benchmarked} of {}", MODELS.len()),
    )
}

/// The models whose `metric` row reads non-zero.
fn mismatched(rows: &[Row], metric: &str) -> Vec<String> {
    let failing = select(rows, "models", metric).filter(|r| r.median > 0.0);
    failing.map(|r| r.text("model").to_string()).collect()
}

pub fn parity_bitwise(rows: &[Row]) -> Verdict {
    unless(
        "parity_bitwise",
        "compiled inference outputs == reference, bitwise",
        mismatched(rows, "inference_mismatches"),
    )
}

pub fn backprop_parity_bitwise(rows: &[Row]) -> Verdict {
    unless(
        "backprop_parity_bitwise",
        "compiled loss and gradients == reference, bitwise",
        mismatched(rows, "backprop_mismatches"),
    )
}

pub fn pool_bound_below_peak(rows: &[Row]) -> Verdict {
    let bounds = select(rows, "models", "pool_lower_bound_bytes");
    let over = bounds.filter(|b| b.median > b.sibling(rows, "observed_peak_bytes").median);
    unless(
        "pool_bound_below_peak",
        "interference lower bound <= observed peak",
        over.map(|r| r.text("model").to_string()).collect(),
    )
}

pub fn compiled_not_slower(rows: &[Row]) -> Verdict {
    let compiled = select(rows, "models", "compiled_ms");
    let speedups: Vec<(&str, f64)> = compiled
        .map(|c| {
            (
                c.text("model"),
                c.median_of(rows, "uncompiled_ms") / c.median,
            )
        })
        .collect();
    let min = speedups.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    let each: Vec<String> = speedups
        .iter()
        .map(|(m, s)| format!("{m} {s:.2}"))
        .collect();
    let claim = format!(
        "uncompiled/compiled median >= {SPEEDUP_FLOOR} on every model (min {min:.2}; {each:?})"
    );
    let slower = speedups.iter().filter(|s| s.1 < SPEEDUP_FLOOR);
    unless(
        "compiled_not_slower",
        &claim,
        slower.map(|s| s.0.to_string()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_inline_small_model_passes_and_a_forked_one_fails() {
        let rows = |reference: (f64, f64), planned: (f64, f64)| {
            [("reference", reference), ("planned", planned)].map(|(executor, (lo, hi))| {
                let row = Row::of("executors")
                    .key("model", wide_name(SMALL))
                    .key("executor", executor);
                row.measured(
                    "pass",
                    "ms",
                    Better::Lower,
                    (lo + hi) / 2.0,
                    Some((lo, hi)),
                    30,
                )
            })
        };
        assert!(small_levels_run_inline(&rows((0.33, 0.36), (0.26, 0.29))).ok);
        // Overlapping intervals do not contradict the claim.
        assert!(small_levels_run_inline(&rows((0.33, 0.36), (0.35, 0.39))).ok);
        // What forking every level read at the parent commit.
        let v = small_levels_run_inline(&rows((0.33, 0.36), (0.70, 0.73)));
        assert!(!v.ok && v.detail.contains("0.700"), "{}", v.detail);
    }

    #[test]
    fn compiling_may_not_cost_speed_or_bits() {
        let rows = |compiled: f64, mismatches: usize| {
            let model = Row::of("models").key("model", "lenet");
            let ms =
                |metric, v: f64| model.measured(metric, "ms", Better::Lower, v, Some((v, v)), 20);
            [
                ms("compiled_ms", compiled),
                ms("uncompiled_ms", 1.0),
                model.count("inference_mismatches", Better::Lower, mismatches),
            ]
        };
        assert!(compiled_not_slower(&rows(1.05, 0)).ok);
        let v = compiled_not_slower(&rows(1.10, 0));
        assert!(!v.ok && v.detail.contains("min 0.91"), "{}", v.detail);
        assert!(parity_bitwise(&rows(1.0, 0)).ok);
        assert!(!parity_bitwise(&rows(1.0, 2)).ok);
    }
}
