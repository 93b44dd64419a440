//! Activation operators: ReLU, Sigmoid, Tanh, Softmax.

use crate::operator::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};

/// Elementwise activation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Sigmoid,
    Tanh,
}

/// An elementwise activation operator.
#[derive(Debug, Clone)]
pub struct ActivationOp {
    pub kind: Activation,
}

impl ActivationOp {
    pub fn relu() -> Self {
        ActivationOp {
            kind: Activation::Relu,
        }
    }
    pub fn sigmoid() -> Self {
        ActivationOp {
            kind: Activation::Sigmoid,
        }
    }
    pub fn tanh() -> Self {
        ActivationOp {
            kind: Activation::Tanh,
        }
    }

    #[inline]
    fn apply(&self, x: f32) -> f32 {
        match self.kind {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative in terms of input `x` and output `y` (whichever is
    /// cheaper for the activation).
    #[inline]
    fn derivative(&self, x: f32, y: f32) -> f32 {
        match self.kind {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

impl Operator for ActivationOp {
    fn name(&self) -> &str {
        match self.kind {
            Activation::Relu => "Relu",
            Activation::Sigmoid => "Sigmoid",
            Activation::Tanh => "Tanh",
        }
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        Ok(vec![inputs[0].map(|v| self.apply(v))])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        let g = grad_outputs[0];
        let x = inputs[0];
        let y = outputs[0];
        let mut dx = Tensor::zeros(x.shape().clone());
        // Slices bound once: `data_mut` stamps a fresh content version
        // (a global atomic) on every call.
        let inputs = g.data().iter().zip(x.data()).zip(y.data());
        for (d, ((&gv, &xv), &yv)) in dx.data_mut().iter_mut().zip(inputs) {
            *d = gv * self.derivative(xv, yv);
        }
        Ok(vec![dx])
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        deep500_metrics::flops::counts::elementwise(s[0].numel(), 2)
    }
}

/// Row-wise softmax over the last axis of a rank-2 tensor (logits →
/// probabilities), numerically stabilized by max subtraction.
#[derive(Debug, Clone, Default)]
pub struct SoftmaxOp;

impl SoftmaxOp {
    /// Row-wise softmax of a `[rows, cols]` tensor.
    pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
        if x.shape().rank() != 2 {
            return Err(Error::ShapeMismatch(format!(
                "Softmax requires rank-2 input, got {}",
                x.shape()
            )));
        }
        let (rows, cols) = (x.shape().dim(0), x.shape().dim(1));
        let mut out = Tensor::zeros(x.shape().clone());
        for r in 0..rows {
            let row = &x.data()[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let orow = &mut out.data_mut()[r * cols..(r + 1) * cols];
            let mut sum = 0.0f32;
            for (o, &v) in orow.iter_mut().zip(row) {
                *o = (v - m).exp();
                sum += *o;
            }
            for o in orow.iter_mut() {
                *o /= sum;
            }
        }
        Ok(out)
    }
}

impl Operator for SoftmaxOp {
    fn name(&self) -> &str {
        "Softmax"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        if s[0].rank() != 2 {
            return Err(Error::ShapeMismatch("Softmax requires rank-2".into()));
        }
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        Ok(vec![Self::softmax_rows(inputs[0])?])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        _inputs: &[&Tensor],
        outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        // dx_i = y_i * (g_i - sum_j g_j y_j), row-wise.
        let g = grad_outputs[0];
        let y = outputs[0];
        let (rows, cols) = (y.shape().dim(0), y.shape().dim(1));
        let mut dx = Tensor::zeros(y.shape().clone());
        for r in 0..rows {
            let yrow = &y.data()[r * cols..(r + 1) * cols];
            let grow = &g.data()[r * cols..(r + 1) * cols];
            let dot: f32 = yrow.iter().zip(grow).map(|(&a, &b)| a * b).sum();
            let drow = &mut dx.data_mut()[r * cols..(r + 1) * cols];
            for i in 0..cols {
                drow[i] = yrow[i] * (grow[i] - dot);
            }
        }
        Ok(vec![dx])
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        deep500_metrics::flops::counts::elementwise(s[0].numel(), 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = ActivationOp::relu().forward(&[&x]).unwrap();
        assert_eq!(y[0].data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let op = ActivationOp::relu();
        let x = Tensor::from_slice(&[-1.0, 3.0]);
        let y = op.forward(&[&x]).unwrap();
        let g = Tensor::from_slice(&[5.0, 5.0]);
        let dx = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert_eq!(dx[0].data(), &[0.0, 5.0]);
    }

    #[test]
    fn sigmoid_at_zero() {
        let x = Tensor::from_slice(&[0.0]);
        let op = ActivationOp::sigmoid();
        let y = op.forward(&[&x]).unwrap();
        assert!((y[0].data()[0] - 0.5).abs() < 1e-6);
        // derivative at 0 is 0.25
        let g = Tensor::from_slice(&[1.0]);
        let dx = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert!((dx[0].data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_matches_std() {
        let x = Tensor::from_slice(&[0.5, -0.5]);
        let y = ActivationOp::tanh().forward(&[&x]).unwrap();
        assert!((y[0].data()[0] - 0.5f32.tanh()).abs() < 1e-6);
        assert!((y[0].data()[1] + 0.5f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]).unwrap();
        let y = SoftmaxOp::softmax_rows(&x).unwrap();
        let row0: f32 = y.data()[..3].iter().sum();
        let row1: f32 = y.data()[3..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        assert!((row1 - 1.0).abs() < 1e-6);
        assert!(y.data()[2] > y.data()[1] && y.data()[1] > y.data()[0]);
        assert!((y.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = a.map(|v| v + 100.0);
        let ya = SoftmaxOp::softmax_rows(&a).unwrap();
        let yb = SoftmaxOp::softmax_rows(&b).unwrap();
        assert!(ya.approx_eq(&yb, 1e-5));
    }

    #[test]
    fn softmax_backward_of_uniform_grad_is_zero() {
        // If g is constant across a row, dx must be zero (softmax is
        // shift-invariant).
        let op = SoftmaxOp;
        let x = Tensor::from_vec([1, 4], vec![0.3, -1.0, 2.0, 0.0]).unwrap();
        let y = op.forward(&[&x]).unwrap();
        let g = Tensor::full([1, 4], 3.0);
        let dx = op.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert!(dx[0].data().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn softmax_rejects_rank1() {
        assert!(SoftmaxOp::softmax_rows(&Tensor::from_slice(&[1.0])).is_err());
    }
}
