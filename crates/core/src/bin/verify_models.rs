//! `deep500-verify` — verify the bundled model zoo (or report why not).
//!
//! CI runs this binary and fails the build on any Deny lint. Usage:
//!
//! ```text
//! deep500-verify [--explain]
//! ```
//!
//! For every bundled model the full pipeline runs: dataflow/liveness,
//! static shape & dtype inference at a concrete batch, symbolic-batch
//! propagation, and wavefront buffer-aliasing analysis with the pool
//! lower bound. Then every model × batch size × {raw, compiled-inference,
//! compiled-training} execution plan is lowered to [`PlanIr`] and run
//! through the plan-soundness analysis (`V017`–`V020`). Exit status 1 if
//! any model produces a Deny lint.

use deep500::graph::compile::{compile, CompileOptions, ExecutionPlan};
use deep500::graph::models::zoo;
use deep500::graph::network::Network;
use deep500::tensor::Shape;
use deep500::verify::{check_plan, PlanIr, SymShape, Verifier};

/// Lower a network's frozen execution plan at the given feed shapes and
/// return its [`PlanIr`], or exit-worthy text on failure.
fn lower_plan(net: &Network, shapes: &[(&str, Shape)]) -> Result<PlanIr, String> {
    let plan = ExecutionPlan::freeze(net, shapes).map_err(|e| format!("freeze: {e}"))?;
    let ops = net.instantiate_ops().map_err(|e| format!("ops: {e}"))?;
    Ok(plan.to_plan_ir(net, &ops, &[]))
}

/// Verify one lowered plan variant, returning its deny count.
fn check_variant(label: &str, plan: Result<PlanIr, String>, explain: bool) -> usize {
    let ir = match plan {
        Ok(ir) => ir,
        Err(e) => {
            eprintln!("  plan '{label}': lowering failed: {e}");
            return 1;
        }
    };
    let report = check_plan(&ir);
    if report.passes() {
        println!("  plan '{label}': sound ({} steps)", ir.steps.len());
    } else {
        println!("  plan '{label}': {} deny", report.deny_count());
        println!("{}", report.render(explain));
    }
    report.deny_count()
}

/// Plan-soundness sweep: each zoo model at several batch sizes, in raw,
/// compiled-inference, and compiled-training form.
fn verify_plans(explain: bool) -> usize {
    let mut denies = 0usize;
    for case in zoo() {
        for batch in [1usize, case.batch(), 8] {
            let shapes = case.at_batch(batch).input_shapes();
            println!("model '{}' @ batch {batch}:", case.name);
            denies += check_variant("raw", lower_plan(&case.net, &shapes), explain);

            let mut inf = case.net.clone_structure();
            denies += match compile(&mut inf, &shapes, &CompileOptions::inference()) {
                // compile() already ran the gate; re-check the lowered IR
                // so the binary reports through one code path.
                Ok(_) => check_variant("compiled-inference", lower_plan(&inf, &shapes), explain),
                Err(e) => {
                    eprintln!("  plan 'compiled-inference': compile denied: {e}");
                    1
                }
            };

            let mut train = case.net.clone_structure();
            denies += match compile(&mut train, &shapes, &CompileOptions::training()) {
                Ok(_) => check_variant("compiled-training", lower_plan(&train, &shapes), explain),
                Err(e) => {
                    eprintln!("  plan 'compiled-training': compile denied: {e}");
                    1
                }
            };
        }
    }
    denies
}

fn main() {
    let explain = std::env::args().any(|a| a == "--explain");
    let mut denies = 0usize;
    for case in zoo() {
        let ir = case.net.to_ir();
        let report = Verifier::new().check_with_inputs(&ir, &case.input_shapes());
        // Symbolic pass rides along so batch-pinned constructs surface
        // as warnings in the same run.
        let (sym_report, _) = Verifier::new().check_symbolic(
            &ir,
            &[
                ("x", SymShape::batched(&case.x.dims()[1..])),
                ("labels", SymShape::batched(&[])),
            ],
        );
        let mut merged = report;
        merged.merge(sym_report);
        println!(
            "model '{}': {} deny, {} warn{}",
            case.name,
            merged.deny_count(),
            merged.warn_count(),
            merged
                .pool_lower_bound
                .map(|b| format!(", pool lower bound {b} B"))
                .unwrap_or_default(),
        );
        if !merged.lints.is_empty() {
            println!("{}", merged.render(explain));
        }
        denies += merged.deny_count();
    }
    denies += verify_plans(explain);
    if denies > 0 {
        eprintln!("deep500-verify: {denies} deny lint(s) across the model zoo");
        std::process::exit(1);
    }
    println!("deep500-verify: model zoo and execution plans verify clean");
}
