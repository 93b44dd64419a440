//! Batch-dimension contract: which tensors of a graph's interface scale
//! per-sample with the batch size, and which are batch aggregates.
//!
//! Dynamic batching (deep500-serve) coalesces independent single-request
//! feeds into one batched execution and splits the results back out. That
//! is only sound for tensors whose leading dimension is *exactly* the
//! symbolic batch `N` — row `i` of the batched tensor is request `i`'s
//! tensor, untouched by the others. The contract classifies every declared
//! graph input and output by that criterion, using the verifier's
//! dual-probe symbolic shape engine ([`crate::shape_pass::infer_symbolic`]):
//!
//! * [`BatchRole::PerSample`] — shape is `[N, rest...]` with constant
//!   `rest`: concatenable along dim 0 (inputs) and splittable back into
//!   per-request rows (outputs).
//! * [`BatchRole::Fixed`] — shape is independent of `N`. As an input it is
//!   shared state that must be identical across coalesced requests; as an
//!   output it is a batch *aggregate* (e.g. a mean loss) that cannot be
//!   attributed to any single request and is therefore excluded from
//!   per-request splitting.
//! * [`BatchRole::Entangled`] — everything else: batch-dependent in a
//!   non-leading dimension, non-unit scale (`2N`), an offset (`N+1`), or a
//!   shape the dual probe could not agree on (batch-pinned reshapes). Any
//!   entangled interface tensor makes the model ineligible for dynamic
//!   batching.

use crate::ir::GraphIr;
use crate::lint::Lint;
use crate::shape_pass::{infer_symbolic, SymDim, SymShape};
use std::collections::HashMap;

/// How one interface tensor relates to the symbolic batch size `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchRole {
    /// `[N, rest...]`: row `i` belongs to sample `i` alone.
    PerSample,
    /// Constant shape: shared input, or aggregate output.
    Fixed,
    /// Batch-dependent in a way that rows cannot be attributed to samples.
    Entangled,
}

/// The batch contract of a graph's interface: every declared input and
/// output classified by [`BatchRole`], plus the symbolic shapes and any
/// lints the probe produced.
#[derive(Debug, Clone)]
pub struct BatchContract {
    /// Declared graph inputs in declaration order.
    pub inputs: Vec<(String, BatchRole)>,
    /// Declared graph outputs in declaration order.
    pub outputs: Vec<(String, BatchRole)>,
    /// Symbolic shapes of every tensor both probes agreed on.
    pub shapes: HashMap<String, SymShape>,
    /// Findings from symbolic inference (non-affine dims, probe splits).
    pub lints: Vec<Lint>,
}

impl BatchContract {
    /// The role of a declared interface tensor, `None` if not declared.
    pub fn role(&self, tensor: &str) -> Option<BatchRole> {
        self.inputs
            .iter()
            .chain(&self.outputs)
            .find(|(n, _)| n == tensor)
            .map(|(_, r)| *r)
    }

    /// Whether dynamic batching is sound for this graph: no entangled
    /// interface tensor, at least one per-sample input to concatenate
    /// along, and at least one per-sample output to hand back per request.
    pub fn batchable(&self) -> bool {
        let no_entangled = self
            .inputs
            .iter()
            .chain(&self.outputs)
            .all(|(_, r)| *r != BatchRole::Entangled);
        no_entangled
            && self.inputs.iter().any(|(_, r)| *r == BatchRole::PerSample)
            && self.outputs.iter().any(|(_, r)| *r == BatchRole::PerSample)
    }

    /// Inputs that concatenate along dim 0 when requests are coalesced.
    pub fn per_sample_inputs(&self) -> Vec<&str> {
        Self::with_role(&self.inputs, BatchRole::PerSample)
    }

    /// Outputs that split back into per-request rows.
    pub fn per_sample_outputs(&self) -> Vec<&str> {
        Self::with_role(&self.outputs, BatchRole::PerSample)
    }

    fn with_role(side: &[(String, BatchRole)], role: BatchRole) -> Vec<&str> {
        side.iter()
            .filter(|(_, r)| *r == role)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Classify a symbolic shape; `None` (the probes disagreed) is entangled.
fn classify(shape: Option<&SymShape>) -> BatchRole {
    let Some(s) = shape else {
        return BatchRole::Entangled;
    };
    if !s.is_batch_dependent() {
        return BatchRole::Fixed;
    }
    let mut dims = s.dims.iter();
    let leading_is_n = matches!(
        dims.next(),
        Some(SymDim::Affine {
            scale: 1,
            offset: 0
        })
    );
    if leading_is_n && dims.all(|d| matches!(d, SymDim::Const(_))) {
        BatchRole::PerSample
    } else {
        BatchRole::Entangled
    }
}

/// Derive the batch contract of `ir` under the given symbolic input
/// shapes. Inputs whose shape the caller did not provide are entangled
/// (nothing is known about their batch behaviour).
pub fn batch_contract(ir: &GraphIr, input_shapes: &[(&str, SymShape)]) -> BatchContract {
    let mut lints = Vec::new();
    let shapes = infer_symbolic(ir, input_shapes, &mut lints);
    let inputs = ir
        .inputs
        .iter()
        .map(|n| (n.clone(), classify(shapes.get(n))))
        .collect();
    let outputs = ir
        .outputs
        .iter()
        .map(|n| (n.clone(), classify(shapes.get(n))))
        .collect();
    BatchContract {
        inputs,
        outputs,
        shapes,
        lints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_ops::registry::Attributes;

    fn mlp_like() -> GraphIr {
        // x[N,4] -> Linear(W[3,4],b[3]) -> relu -> pred[N,3];
        // loss = MseLoss(pred, target[N,3]) is a batch aggregate.
        let mut ir = GraphIr::new("mlp-like")
            .input("x")
            .input("target")
            .node("fc", "Linear", Attributes::new(), &["x", "W", "b"], &["h"])
            .node("act", "Relu", Attributes::new(), &["h"], &["pred"])
            .node(
                "mse",
                "MseLoss",
                Attributes::new(),
                &["pred", "target"],
                &["loss"],
            )
            .output("pred")
            .output("loss");
        ir.params
            .insert("W".into(), deep500_tensor::Shape::new(&[3, 4]));
        ir.params
            .insert("b".into(), deep500_tensor::Shape::new(&[3]));
        ir
    }

    #[test]
    fn per_sample_outputs_split_and_aggregates_do_not() {
        let contract = batch_contract(
            &mlp_like(),
            &[
                ("x", SymShape::batched(&[4])),
                ("target", SymShape::batched(&[3])),
            ],
        );
        assert_eq!(contract.role("x"), Some(BatchRole::PerSample));
        assert_eq!(contract.role("target"), Some(BatchRole::PerSample));
        assert_eq!(contract.role("pred"), Some(BatchRole::PerSample));
        assert_eq!(contract.role("loss"), Some(BatchRole::Fixed));
        assert_eq!(contract.per_sample_outputs(), vec!["pred"]);
        assert_eq!(
            BatchContract::with_role(&contract.outputs, BatchRole::Fixed),
            vec!["loss"]
        );
        assert!(contract.batchable());
    }

    #[test]
    fn fixed_inputs_are_shared_not_per_sample() {
        // A constant-shaped input is shareable but cannot carry the batch.
        let ir = GraphIr::new("fixed-in")
            .input("x")
            .node("act", "Relu", Attributes::new(), &["x"], &["y"])
            .output("y");
        let contract = batch_contract(&ir, &[("x", SymShape::fixed(&[8, 8]))]);
        assert_eq!(contract.role("x"), Some(BatchRole::Fixed));
        assert_eq!(contract.role("y"), Some(BatchRole::Fixed));
        assert!(!contract.batchable(), "nothing carries the batch dim");
    }

    #[test]
    fn batch_pinned_reshape_entangles_the_output() {
        // Reshape to a fixed element count only works at one probe size, so
        // the dual probe cannot agree on a symbolic shape downstream.
        let ir = GraphIr::new("pinned")
            .input("x")
            .node(
                "rs",
                "Reshape",
                Attributes::new().with_ints("shape", &[2, 8]),
                &["x"],
                &["y"],
            )
            .output("y");
        let contract = batch_contract(&ir, &[("x", SymShape::batched(&[4]))]);
        assert_eq!(contract.role("y"), Some(BatchRole::Entangled));
        assert!(!contract.batchable());
        assert!(!contract.lints.is_empty(), "the probe split is reported");
    }

    #[test]
    fn undeclared_input_shape_is_entangled() {
        let ir = GraphIr::new("unknown")
            .input("x")
            .node("act", "Relu", Attributes::new(), &["x"], &["y"])
            .output("y");
        let contract = batch_contract(&ir, &[]);
        assert_eq!(contract.role("x"), Some(BatchRole::Entangled));
        assert!(!contract.batchable());
    }
}
