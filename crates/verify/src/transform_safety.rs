//! Transform-safety harness: re-verify a graph after a transformation and
//! diff the inferred shapes against the pre-transform graph.
//!
//! A graph transform (fusion, micro-batching, ...) may rewrite nodes freely,
//! but the *observable contract* must hold: the declared interface (graph
//! inputs/outputs) is unchanged, parameters keep their names and shapes, and
//! every tensor name that survives the rewrite keeps its inferred shape.
//! Violations surface as [`LintCode::InterfaceDrift`], [`LintCode::ParamDrift`],
//! and [`LintCode::ShapeDrift`] lints; the post-transform graph is also run
//! through the full dataflow + shape pipeline so a transform cannot smuggle
//! in a defect the constructor gate would have denied.

use crate::ir::GraphIr;
use crate::lint::{Lint, LintCode, VerifyReport};
use crate::{dataflow, shape_pass};
use deep500_tensor::Shape;
use std::collections::BTreeSet;

/// Shape-level diff of one surviving tensor.
#[derive(Debug, Clone)]
pub struct ShapeDrift {
    pub tensor: String,
    pub before: Shape,
    pub after: Shape,
}

/// Result of the harness: the post-transform verification report plus the
/// tensor-level drift list.
#[derive(Debug, Clone, Default)]
pub struct TransformDiff {
    pub report: VerifyReport,
    /// Surviving tensors whose inferred shape changed.
    pub drifted: Vec<ShapeDrift>,
    /// Tensor names only the pre-transform graph defines.
    pub removed: Vec<String>,
    /// Tensor names only the post-transform graph defines.
    pub added: Vec<String>,
}

impl TransformDiff {
    /// True when the transform preserved the observable contract.
    pub fn passes(&self) -> bool {
        self.report.passes()
    }
}

/// Verify `after` and diff its inferred shapes against `before` under the
/// same graph-input shapes.
pub fn diff(before: &GraphIr, after: &GraphIr, input_shapes: &[(&str, Shape)]) -> TransformDiff {
    let mut lints = Vec::new();

    // Interface must be preserved (order-insensitive: executors feed and
    // fetch by name).
    let b_in: BTreeSet<&String> = before.inputs.iter().collect();
    let a_in: BTreeSet<&String> = after.inputs.iter().collect();
    if b_in != a_in {
        lints.push(Lint::new(
            LintCode::InterfaceDrift,
            format!("graph inputs changed: {b_in:?} -> {a_in:?}"),
        ));
    }
    let b_out: BTreeSet<&String> = before.outputs.iter().collect();
    let a_out: BTreeSet<&String> = after.outputs.iter().collect();
    if b_out != a_out {
        lints.push(Lint::new(
            LintCode::InterfaceDrift,
            format!("graph outputs changed: {b_out:?} -> {a_out:?}"),
        ));
    }

    // Parameters keep their names and shapes.
    for (name, shape) in &before.params {
        match after.params.get(name) {
            None => lints.push(
                Lint::new(
                    LintCode::ParamDrift,
                    format!("parameter '{name}' dropped by the transform"),
                )
                .with_tensor(name.as_str()),
            ),
            Some(s) if s != shape => lints.push(
                Lint::new(
                    LintCode::ParamDrift,
                    format!("parameter '{name}' reshaped by the transform: {shape} -> {s}"),
                )
                .with_tensor(name.as_str()),
            ),
            Some(_) => {}
        }
    }

    // Full pipeline on the post-transform graph.
    dataflow::run(after, &mut lints);
    let shapes_after = shape_pass::infer(after, input_shapes, &[], &mut lints);

    // Shape diff over surviving tensors (pre-transform lints are the
    // caller's baseline; only `before`'s inferred shapes are needed here).
    let mut before_lints = Vec::new();
    let shapes_before = shape_pass::infer(before, input_shapes, &[], &mut before_lints);

    let mut drifted = Vec::new();
    let mut removed = Vec::new();
    for (name, b) in &shapes_before {
        match shapes_after.get(name) {
            Some(a) if a != b => {
                lints.push(
                    Lint::new(
                        LintCode::ShapeDrift,
                        format!("tensor '{name}' changed shape across the transform: {b} -> {a}"),
                    )
                    .with_tensor(name.as_str()),
                );
                drifted.push(ShapeDrift {
                    tensor: name.clone(),
                    before: b.clone(),
                    after: a.clone(),
                });
            }
            Some(_) => {}
            None => removed.push(name.clone()),
        }
    }
    let mut added: Vec<String> = shapes_after
        .keys()
        .filter(|n| !shapes_before.contains_key(*n))
        .cloned()
        .collect();
    removed.sort_unstable();
    added.sort_unstable();
    drifted.sort_by(|a, b| a.tensor.cmp(&b.tensor));

    let report = VerifyReport {
        lints,
        shapes: shapes_after
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect(),
        pool_lower_bound: None,
    };
    TransformDiff {
        report,
        drifted,
        removed,
        added,
    }
}
