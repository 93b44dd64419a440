//! The `Operator` trait — Deep500's Level-0 `CustomOperator` interface.
//!
//! An operator is a pure function from input tensors to output tensors with
//! a matching vector-Jacobian product (`backward`). Parameters (weights,
//! biases) are ordinary inputs, as in ONNX — `Conv(X, W, B)` — so gradient
//! flow to parameters needs no special casing in graph executors.

use deep500_tensor::{Result, Shape, Tensor};

/// A Deep500 Level-0 operator.
///
/// Mirrors the paper's `CustomOperator` with its two methods:
/// `forward(inputs)` and
/// `backward(grad_inputs, fwd_inputs, fwd_outputs)`.
pub trait Operator: Send + Sync {
    /// Operator type name (e.g. `"Conv2d"`, `"MedianPool2d"`), used by the
    /// registry, the d5nx format, and reports.
    fn name(&self) -> &str;

    /// Number of input tensors (including parameter inputs).
    fn num_inputs(&self) -> usize;

    /// Number of output tensors.
    fn num_outputs(&self) -> usize {
        1
    }

    /// Output shapes for the given input shapes; errors on invalid shapes.
    fn output_shapes(&self, input_shapes: &[&Shape]) -> Result<Vec<Shape>>;

    /// Inference: compute outputs from inputs.
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>>;

    /// Backpropagation: given gradients w.r.t. outputs plus the forward
    /// inputs and outputs, return gradients w.r.t. each input (same order
    /// and count as `inputs`). Non-differentiable inputs (e.g. integer
    /// labels) get zero tensors.
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>>;

    /// [`Operator::backward`] for a caller that consumes only some of the
    /// input gradients: `wanted[i]` is false when nobody reads the gradient
    /// of input `i` (a fed tensor, not a parameter and not another node's
    /// output), and the operator may return `None` there instead of
    /// computing it. A returned `Some` must hold exactly what `backward`
    /// would have produced. The default computes everything.
    fn backward_wanted(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
        wanted: &[bool],
    ) -> Result<Vec<Option<Tensor>>> {
        let _ = wanted;
        let grads = self.backward(grad_outputs, inputs, outputs)?;
        Ok(grads.into_iter().map(Some).collect())
    }

    /// Analytical floating-point operation count of `forward` for the given
    /// input shapes (0 for ops we do not model).
    fn flops(&self, input_shapes: &[&Shape]) -> f64 {
        let _ = input_shapes;
        0.0
    }

    /// Whether input `i` participates in differentiation. Defaults to all.
    fn input_differentiable(&self, i: usize) -> bool {
        let _ = i;
        true
    }

    /// Scratch ("workspace") bytes the operator needs beyond inputs and
    /// outputs — e.g. the im2col lowering buffer of a convolution. Used by
    /// executor memory accountants; 0 by default.
    fn workspace_bytes(&self, input_shapes: &[&Shape]) -> usize {
        let _ = input_shapes;
        0
    }

    /// Short human-readable note on *how* this operator will execute for
    /// the given input shapes — e.g. the convolution tier
    /// ([`ConvAlgorithm`](crate::conv::ConvAlgorithm)) — surfaced in
    /// trace span args and the per-op attribution table so profiles show
    /// which code path actually ran. `None` (the default) when there is
    /// nothing interesting to report.
    fn annotation(&self, input_shapes: &[&Shape]) -> Option<String> {
        let _ = input_shapes;
        None
    }

    /// Bytes moved by one `forward` call — inputs read plus outputs
    /// written, at `f32` storage — the denominator of Level-0 arithmetic
    /// intensity and the "bytes moved" column of per-operator attribution.
    /// The default derives it from the input shapes and
    /// [`Operator::output_shapes`] (0 when shapes cannot be inferred);
    /// ops with sparser access patterns can override.
    fn bytes_moved(&self, input_shapes: &[&Shape]) -> u64 {
        let read: usize = input_shapes.iter().map(|s| s.numel()).sum();
        let written: usize = self
            .output_shapes(input_shapes)
            .map(|outs| outs.iter().map(Shape::numel).sum())
            .unwrap_or(0);
        ((read + written) * std::mem::size_of::<f32>()) as u64
    }
}

/// Unwrap the result of a [`Operator::backward_wanted`] call that asked for
/// every gradient — how an operator implementing `backward_wanted`
/// natively derives its plain `backward`.
pub(crate) fn all_wanted(grads: Vec<Option<Tensor>>) -> Vec<Tensor> {
    grads
        .into_iter()
        .map(|g| g.expect("every gradient was requested"))
        .collect()
}

/// Run an operator's forward pass with shape checking, as executors do.
///
/// Public for: §IV-C, running one operator (a custom one included) outside
/// a graph with the arity check an executor applies.
pub fn checked_forward(op: &dyn Operator, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
    if inputs.len() != op.num_inputs() {
        return Err(deep500_tensor::Error::Invalid(format!(
            "{} expects {} inputs, got {}",
            op.name(),
            op.num_inputs(),
            inputs.len()
        )));
    }
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let expected = op.output_shapes(&shapes)?;
    let outputs = op.forward(inputs)?;
    if outputs.len() != expected.len() {
        return Err(deep500_tensor::Error::Invalid(format!(
            "{} produced {} outputs, declared {}",
            op.name(),
            outputs.len(),
            expected.len()
        )));
    }
    for (o, e) in outputs.iter().zip(&expected) {
        if o.shape() != e {
            return Err(deep500_tensor::Error::ShapeMismatch(format!(
                "{} output shape {} vs declared {}",
                op.name(),
                o.shape(),
                e
            )));
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_tensor::Error;

    /// A trivial doubling operator used to exercise the trait machinery.
    struct Double;
    impl Operator for Double {
        fn name(&self) -> &str {
            "Double"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
            Ok(vec![s[0].clone()])
        }
        fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
            Ok(vec![inputs[0].scale(2.0)])
        }
        fn backward(
            &self,
            grad_outputs: &[&Tensor],
            _inputs: &[&Tensor],
            _outputs: &[&Tensor],
        ) -> Result<Vec<Tensor>> {
            Ok(vec![grad_outputs[0].scale(2.0)])
        }
        fn flops(&self, s: &[&Shape]) -> f64 {
            s[0].numel() as f64
        }
    }

    #[test]
    fn checked_forward_validates_arity_and_shape() {
        let op = Double;
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let out = checked_forward(&op, &[&x]).unwrap();
        assert_eq!(out[0].data(), &[2.0, 4.0]);
        let err = checked_forward(&op, &[&x, &x]).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    #[test]
    fn backward_is_linear_here() {
        let op = Double;
        let x = Tensor::from_slice(&[1.0]);
        let y = op.forward(&[&x]).unwrap();
        let g = Tensor::from_slice(&[1.0]);
        let gi = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert_eq!(gi[0].data(), &[2.0]);
    }

    #[test]
    fn defaults() {
        let op = Double;
        assert_eq!(op.num_outputs(), 1);
        assert!(op.input_differentiable(0));
        assert_eq!(op.flops(&[&Shape::new(&[4])]), 4.0);
        // 4 floats read + 4 written, 4 bytes each.
        assert_eq!(op.bytes_moved(&[&Shape::new(&[4])]), 32);
    }
}
