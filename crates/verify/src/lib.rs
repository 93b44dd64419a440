//! `deep500-verify` — static analysis over Level-1 graphs, run *before*
//! execution.
//!
//! Deep500 validates executors dynamically (ℓ∞ comparison against the
//! reference, §IV of the paper); this crate adds the missing *static* tier:
//! an nGraph-style IR verifier that catches shape, dtype, and dataflow
//! defects before any kernel runs, plus a buffer-aliasing proof for the
//! plan interpreter's pooled concurrency and a safety harness for graph
//! transforms. Diagnostics are a typed lint stream ([`Lint`]) with
//! rustc-style severities and `--explain` renderings — a lint engine for
//! models, not a boolean check.
//!
//! The pipeline runs over a plain-data [`GraphIr`] so the graph crate can
//! depend on this one (and gate every executor entry point) without a
//! dependency cycle; `Network::to_ir()` does the lowering.
//!
//! ```
//! use deep500_verify::{GraphIr, Verifier};
//! use deep500_ops::registry::Attributes;
//!
//! let ir = GraphIr::new("g")
//!     .input("x")
//!     .node("relu", "Relu", Attributes::new(), &["x"], &["y"])
//!     .output("y");
//! assert!(Verifier::new().check(&ir).passes());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aliasing;
pub mod batch_contract;
pub mod dataflow;
pub mod ir;
pub mod lint;
pub mod plan_check;
pub mod shape_pass;
pub mod transform_safety;

pub use aliasing::{AliasReport, LiveRange};
pub use batch_contract::{batch_contract, BatchContract, BatchRole};
pub use ir::{GraphIr, NodeIr};
pub use lint::{Lint, LintCode, Severity, VerifyReport};
pub use plan_check::{check_plan, PlanIr, PlanStepIr, PlanValueIr};
pub use shape_pass::{SymDim, SymShape};
pub use transform_safety::TransformDiff;

use deep500_tensor::{DataType, Error, Result, Shape};

/// Pipeline driver: entry points for the structural, shape-aware, and
/// symbolic variants of the pipeline, each reporting lints at their
/// default severities.
#[derive(Debug, Clone, Default)]
pub struct Verifier;

impl Verifier {
    pub fn new() -> Verifier {
        Verifier
    }

    /// Structural pipeline: dataflow/liveness only. Needs no input shapes,
    /// so this is what executor constructors gate on.
    pub fn check(&self, ir: &GraphIr) -> VerifyReport {
        let mut lints = Vec::new();
        dataflow::run(ir, &mut lints);
        VerifyReport {
            lints,
            ..VerifyReport::default()
        }
    }

    /// Full pipeline: dataflow, concrete shape & dtype inference from the
    /// given graph-input shapes, and the aliasing analysis over
    /// [`aliasing::compute_levels`] — the partition both of the graph
    /// crate's execution loops walk.
    pub fn check_with_inputs(&self, ir: &GraphIr, input_shapes: &[(&str, Shape)]) -> VerifyReport {
        self.check_with_inputs_and_dtypes(ir, input_shapes, &[])
    }

    /// [`Self::check_with_inputs`] with explicit input dtypes (defaults to
    /// `f32` for unlisted inputs).
    pub fn check_with_inputs_and_dtypes(
        &self,
        ir: &GraphIr,
        input_shapes: &[(&str, Shape)],
        input_dtypes: &[(&str, DataType)],
    ) -> VerifyReport {
        let mut lints = Vec::new();
        dataflow::run(ir, &mut lints);
        let shapes = shape_pass::infer(ir, input_shapes, input_dtypes, &mut lints);
        let alias = aliasing::analyze(ir, &aliasing::compute_levels(ir), &shapes, &mut lints);
        VerifyReport {
            lints,
            shapes: shapes
                .iter()
                .map(|(k, v)| (k.clone(), v.to_string()))
                .collect(),
            pool_lower_bound: Some(alias.pool_lower_bound),
        }
    }

    /// Symbolic pipeline: dataflow plus dual-evaluation symbolic shape
    /// inference. Returns the report and the symbolic shape environment.
    pub fn check_symbolic(
        &self,
        ir: &GraphIr,
        input_shapes: &[(&str, SymShape)],
    ) -> (VerifyReport, std::collections::HashMap<String, SymShape>) {
        let mut lints = Vec::new();
        dataflow::run(ir, &mut lints);
        let sym = shape_pass::infer_symbolic(ir, input_shapes, &mut lints);
        let report = VerifyReport {
            lints,
            shapes: sym
                .iter()
                .map(|(k, v)| (k.clone(), v.to_string()))
                .collect(),
            ..VerifyReport::default()
        };
        (report, sym)
    }
}

/// Structural check with default severities — the common entry point.
pub fn check(ir: &GraphIr) -> VerifyReport {
    Verifier::new().check(ir)
}

/// Gate: structural check, turned into `Err(Error::Validation)` carrying
/// the rendered lints when any `Deny` lint fires. Executor constructors and
/// transforms call this.
pub fn gate(ir: &GraphIr) -> Result<VerifyReport> {
    let report = check(ir);
    deny_to_error(&ir.name, report)
}

/// Gate over the full shape-aware pipeline.
pub fn gate_with_inputs(ir: &GraphIr, input_shapes: &[(&str, Shape)]) -> Result<VerifyReport> {
    let report = Verifier::new().check_with_inputs(ir, input_shapes);
    deny_to_error(&ir.name, report)
}

/// Gate over the plan-soundness lint ([`plan_check::check_plan`]): the
/// plan interpreter calls this on its lowered [`PlanIr`] when it is built,
/// before any pass runs the plan.
pub fn gate_plan(plan: &PlanIr) -> Result<VerifyReport> {
    let report = check_plan(plan);
    deny_to_error(&plan.name, report)
}

fn deny_to_error(graph: &str, report: VerifyReport) -> Result<VerifyReport> {
    if report.passes() {
        Ok(report)
    } else {
        Err(Error::Validation(format!(
            "graph '{}' denied by deep500-verify ({} deny lints):\n{}",
            graph,
            report.deny_count(),
            report.render(false)
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_ops::registry::Attributes;

    #[test]
    fn clean_graph_passes_and_renders() {
        let ir = GraphIr::new("clean")
            .input("x")
            .node("relu", "Relu", Attributes::new(), &["x"], &["y"])
            .output("y");
        let report = check(&ir);
        assert!(report.passes(), "{}", report.render(true));
        assert_eq!(report.deny_count(), 0);
        assert!(report.render(false).contains("0 deny"));
    }

    #[test]
    fn explain_rendering_mentions_the_code() {
        let ir = GraphIr::new("ubd").node("relu", "Relu", Attributes::new(), &["ghost"], &["y"]);
        let report = check(&ir);
        let rendered = report.render(true);
        assert!(rendered.contains("V001"), "{rendered}");
        assert!(rendered.contains("explain(V001)"), "{rendered}");
    }
}
