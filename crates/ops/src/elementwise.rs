//! Elementwise binary/unary operators (Add, Sub, Mul, Scale, AddConstant).
//!
//! These are the "general tensor operators" of the paper's TensorFlow/Adam
//! use case: a framework without fused update kernels composes its
//! optimizer from sequences of these small operators, paying per-operator
//! dispatch overhead — the phenomenon `deep500-frameworks` reproduces.

use crate::operator::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};

/// Elementwise binary operations on same-shaped tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinaryKind {
    Add,
    Sub,
    Mul,
    Div,
}

/// An elementwise binary operator.
#[derive(Debug, Clone)]
pub struct BinaryOp {
    kind: BinaryKind,
}

impl BinaryOp {
    pub fn add() -> Self {
        BinaryOp {
            kind: BinaryKind::Add,
        }
    }
    pub fn sub() -> Self {
        BinaryOp {
            kind: BinaryKind::Sub,
        }
    }
    pub fn mul() -> Self {
        BinaryOp {
            kind: BinaryKind::Mul,
        }
    }
    pub fn div() -> Self {
        BinaryOp {
            kind: BinaryKind::Div,
        }
    }
}

impl Operator for BinaryOp {
    fn name(&self) -> &str {
        match self.kind {
            BinaryKind::Add => "Add",
            BinaryKind::Sub => "Sub",
            BinaryKind::Mul => "Mul",
            BinaryKind::Div => "Div",
        }
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        if s[0] != s[1] {
            return Err(Error::ShapeMismatch(format!(
                "{}: {} vs {}",
                self.name(),
                s[0],
                s[1]
            )));
        }
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let (a, b) = (inputs[0], inputs[1]);
        let out = match self.kind {
            BinaryKind::Add => a.add(b)?,
            BinaryKind::Sub => a.sub(b)?,
            BinaryKind::Mul => a.mul(b)?,
            BinaryKind::Div => a.div(b)?,
        };
        Ok(vec![out])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        _outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        let g = grad_outputs[0];
        let (a, b) = (inputs[0], inputs[1]);
        Ok(match self.kind {
            BinaryKind::Add => vec![g.clone(), g.clone()],
            BinaryKind::Sub => vec![g.clone(), g.scale(-1.0)],
            BinaryKind::Mul => vec![g.mul(b)?, g.mul(a)?],
            BinaryKind::Div => {
                // d/da (a/b) = 1/b ; d/db (a/b) = -a/b^2
                let da = g.div(b)?;
                let db = g.mul(a)?.div(&b.mul(b)?)?.scale(-1.0);
                vec![da, db]
            }
        })
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        deep500_metrics::flops::counts::elementwise(s[0].numel(), 1)
    }
}

/// `y = alpha * x + beta` — affine elementwise scaling (unary).
#[derive(Debug, Clone)]
pub struct ScaleOp {
    pub alpha: f32,
    pub beta: f32,
}

impl ScaleOp {
    pub fn new(alpha: f32, beta: f32) -> Self {
        ScaleOp { alpha, beta }
    }
}

impl Operator for ScaleOp {
    fn name(&self) -> &str {
        "Scale"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        Ok(vec![inputs[0].map(|v| self.alpha * v + self.beta)])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        _inputs: &[&Tensor],
        _outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        Ok(vec![grad_outputs[0].scale(self.alpha)])
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        deep500_metrics::flops::counts::elementwise(s[0].numel(), 2)
    }
}

/// Elementwise square root (used by composed Adam/AdaGrad updates).
#[derive(Debug, Clone, Default)]
pub struct SqrtOp;

impl Operator for SqrtOp {
    fn name(&self) -> &str {
        "Sqrt"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        Ok(vec![s[0].clone()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        Ok(vec![inputs[0].map(|v| v.sqrt())])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        _inputs: &[&Tensor],
        outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        // d sqrt(x)/dx = 1 / (2 sqrt(x)) = 1 / (2 y)
        Ok(vec![grad_outputs[0].zip(outputs[0], |g, y| g / (2.0 * y))?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_forward_values() {
        let a = Tensor::from_slice(&[4.0, 9.0]);
        let b = Tensor::from_slice(&[2.0, 3.0]);
        assert_eq!(
            BinaryOp::add().forward(&[&a, &b]).unwrap()[0].data(),
            &[6.0, 12.0]
        );
        assert_eq!(
            BinaryOp::sub().forward(&[&a, &b]).unwrap()[0].data(),
            &[2.0, 6.0]
        );
        assert_eq!(
            BinaryOp::mul().forward(&[&a, &b]).unwrap()[0].data(),
            &[8.0, 27.0]
        );
        assert_eq!(
            BinaryOp::div().forward(&[&a, &b]).unwrap()[0].data(),
            &[2.0, 3.0]
        );
    }

    #[test]
    fn binary_backward_values() {
        let a = Tensor::from_slice(&[4.0]);
        let b = Tensor::from_slice(&[2.0]);
        let g = Tensor::from_slice(&[1.0]);
        let y = BinaryOp::div().forward(&[&a, &b]).unwrap();
        let grads = BinaryOp::div()
            .backward(&[&g], &[&a, &b], &[&y[0]])
            .unwrap();
        assert_eq!(grads[0].data(), &[0.5]); // 1/b
        assert_eq!(grads[1].data(), &[-1.0]); // -a/b^2

        let grads = BinaryOp::mul()
            .backward(&[&g], &[&a, &b], &[&y[0]])
            .unwrap();
        assert_eq!(grads[0].data(), &[2.0]);
        assert_eq!(grads[1].data(), &[4.0]);

        let grads = BinaryOp::sub()
            .backward(&[&g], &[&a, &b], &[&y[0]])
            .unwrap();
        assert_eq!(grads[1].data(), &[-1.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Shape::new(&[2]);
        let b = Shape::new(&[3]);
        assert!(BinaryOp::add().output_shapes(&[&a, &b]).is_err());
    }

    #[test]
    fn scale_affine() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let op = ScaleOp::new(3.0, 1.0);
        assert_eq!(op.forward(&[&x]).unwrap()[0].data(), &[4.0, 7.0]);
        let g = Tensor::from_slice(&[1.0, 1.0]);
        assert_eq!(
            op.backward(&[&g], &[&x], &[]).unwrap()[0].data(),
            &[3.0, 3.0]
        );
    }

    #[test]
    fn sqrt_forward_backward() {
        let x = Tensor::from_slice(&[4.0, 16.0]);
        let y = SqrtOp.forward(&[&x]).unwrap();
        assert_eq!(y[0].data(), &[2.0, 4.0]);
        let g = Tensor::from_slice(&[1.0, 1.0]);
        let dx = SqrtOp.backward(&[&g], &[&x], &[&y[0]]).unwrap();
        assert_eq!(dx[0].data(), &[0.25, 0.125]);
    }
}
