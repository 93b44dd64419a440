//! Loss operators.
//!
//! Losses close the training graph (the paper extends ONNX "with new
//! operations for computing loss functions"). Labels arrive as a rank-1
//! tensor of class indices stored as `f32` (the tensor substrate is
//! single-typed); label inputs are marked non-differentiable.

use crate::activation::SoftmaxOp;
use crate::operator::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};

/// Softmax + cross-entropy, fused for numerical stability (the standard
/// classification loss). Inputs: logits `[N, K]`, labels `[N]`. Output:
/// scalar mean loss.
#[derive(Debug, Clone, Default)]
pub struct SoftmaxCrossEntropyOp;

impl SoftmaxCrossEntropyOp {
    fn check(&self, s: &[&Shape]) -> Result<(usize, usize)> {
        if s[0].rank() != 2 || s[1].rank() != 1 || s[0].dim(0) != s[1].dim(0) {
            return Err(Error::ShapeMismatch(format!(
                "SoftmaxCrossEntropy: logits {} labels {}",
                s[0], s[1]
            )));
        }
        Ok((s[0].dim(0), s[0].dim(1)))
    }
}

impl Operator for SoftmaxCrossEntropyOp {
    fn name(&self) -> &str {
        "SoftmaxCrossEntropy"
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        self.check(s)?;
        Ok(vec![Shape::scalar()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let (logits, labels) = (inputs[0], inputs[1]);
        let (n, k) = self.check(&[logits.shape(), labels.shape()])?;
        let mut loss = 0.0f64;
        for r in 0..n {
            let row = &logits.data()[r * k..(r + 1) * k];
            let label = labels.data()[r] as usize;
            if label >= k {
                return Err(Error::Invalid(format!(
                    "label {label} out of range for {k} classes"
                )));
            }
            // The label's `softmax_rows` probability, float for float,
            // without the `[N, K]` temporary: inside an executor's pool
            // scope that was one buffer drawn and dropped per pass.
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for &v in row {
                sum += (v - m).exp();
            }
            let p = ((row[label] - m).exp() / sum).max(1e-12);
            loss -= (p as f64).ln();
        }
        Ok(vec![Tensor::scalar((loss / n as f64) as f32)])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        _outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        let (logits, labels) = (inputs[0], inputs[1]);
        let (n, k) = self.check(&[logits.shape(), labels.shape()])?;
        let upstream = grad_outputs[0].data()[0];
        // dL/dlogits = (softmax - onehot) / N
        let mut dx = SoftmaxOp::softmax_rows(logits)?;
        let dxd = dx.data_mut();
        for r in 0..n {
            let label = labels.data()[r] as usize;
            dxd[r * k + label] -= 1.0;
        }
        let scale = upstream / n as f32;
        for v in dxd.iter_mut() {
            *v *= scale;
        }
        // Labels are not differentiable.
        Ok(vec![dx, Tensor::zeros(labels.shape().clone())])
    }
    fn input_differentiable(&self, i: usize) -> bool {
        i == 0
    }
    fn flops(&self, s: &[&Shape]) -> f64 {
        deep500_metrics::flops::counts::elementwise(s[0].numel(), 5)
    }
}

/// Mean-squared-error loss: inputs prediction and target of equal shape,
/// output scalar `mean((a-b)^2)`.
#[derive(Debug, Clone, Default)]
pub struct MseLossOp;

impl Operator for MseLossOp {
    fn name(&self) -> &str {
        "MseLoss"
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn output_shapes(&self, s: &[&Shape]) -> Result<Vec<Shape>> {
        if s[0] != s[1] {
            return Err(Error::ShapeMismatch(format!(
                "MseLoss: {} vs {}",
                s[0], s[1]
            )));
        }
        Ok(vec![Shape::scalar()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
        let d = inputs[0].sub(inputs[1])?;
        let mse =
            d.data().iter().map(|&v| v as f64 * v as f64).sum::<f64>() / d.numel().max(1) as f64;
        Ok(vec![Tensor::scalar(mse as f32)])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        _outputs: &[&Tensor],
    ) -> Result<Vec<Tensor>> {
        let upstream = grad_outputs[0].data()[0];
        let n = inputs[0].numel() as f32;
        let d = inputs[0].sub(inputs[1])?;
        let da = d.scale(2.0 * upstream / n);
        let db = da.scale(-1.0);
        Ok(vec![da, db])
    }
    fn input_differentiable(&self, _i: usize) -> bool {
        true
    }
}

/// Classification accuracy of logits `[N, K]` against labels `[N]` — not an
/// operator but the helper behind the Level-2 accuracy metrics.
pub fn accuracy(logits: &Tensor, labels: &Tensor) -> Result<f64> {
    let preds = logits.argmax_rows()?;
    if preds.len() != labels.numel() {
        return Err(Error::ShapeMismatch(format!(
            "accuracy: {} predictions vs {} labels",
            preds.len(),
            labels.numel()
        )));
    }
    let correct = preds
        .iter()
        .zip(labels.data())
        .filter(|&(&p, &l)| p == l as usize)
        .count();
    Ok(correct as f64 / preds.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec([2, 3], vec![10.0, 0.0, 0.0, 0.0, 10.0, 0.0]).unwrap();
        let labels = Tensor::from_slice(&[0.0, 1.0]);
        let loss = SoftmaxCrossEntropyOp.forward(&[&logits, &labels]).unwrap();
        assert!(loss[0].data()[0] < 1e-3);
    }

    #[test]
    fn forward_is_bitwise_the_mean_log_of_softmax_rows() {
        let data = (0..12).map(|i| (i * 7 % 5) as f32 * 0.37).collect();
        let logits = Tensor::from_vec([3, 4], data).unwrap();
        let labels = Tensor::from_slice(&[3.0, 0.0, 2.0]);
        let probs = SoftmaxOp::softmax_rows(&logits).unwrap();
        let picked = [probs.data()[3], probs.data()[4], probs.data()[10]];
        let want = -picked.iter().map(|&p| f64::from(p).ln()).sum::<f64>() / 3.0;
        let loss = SoftmaxCrossEntropyOp.forward(&[&logits, &labels]).unwrap();
        assert_eq!(loss[0].data()[0].to_bits(), (want as f32).to_bits());
    }

    #[test]
    fn uniform_logits_give_ln_k() {
        let logits = Tensor::zeros([1, 4]);
        let labels = Tensor::from_slice(&[2.0]);
        let loss = SoftmaxCrossEntropyOp.forward(&[&logits, &labels]).unwrap();
        assert!((loss[0].data()[0] - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn xent_gradient_is_probs_minus_onehot() {
        let logits = Tensor::zeros([1, 2]);
        let labels = Tensor::from_slice(&[0.0]);
        let op = SoftmaxCrossEntropyOp;
        let out = op.forward(&[&logits, &labels]).unwrap();
        let g = Tensor::scalar(1.0);
        let grads = op.backward(&[&g], &[&logits, &labels], &[&out[0]]).unwrap();
        // softmax = [.5, .5]; onehot = [1, 0]; /N=1
        assert!((grads[0].data()[0] + 0.5).abs() < 1e-6);
        assert!((grads[0].data()[1] - 0.5).abs() < 1e-6);
        // labels non-differentiable
        assert!(grads[1].data().iter().all(|&v| v == 0.0));
        assert!(op.input_differentiable(0));
        assert!(!op.input_differentiable(1));
    }

    #[test]
    fn out_of_range_label_rejected() {
        let logits = Tensor::zeros([1, 2]);
        let labels = Tensor::from_slice(&[5.0]);
        assert!(SoftmaxCrossEntropyOp.forward(&[&logits, &labels]).is_err());
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[0.0, 0.0]);
        let out = MseLossOp.forward(&[&a, &b]).unwrap();
        assert!((out[0].data()[0] - 2.5).abs() < 1e-6);
        let g = Tensor::scalar(1.0);
        let grads = MseLossOp.backward(&[&g], &[&a, &b], &[&out[0]]).unwrap();
        assert_eq!(grads[0].data(), &[1.0, 2.0]); // 2*(a-b)/2
        assert_eq!(grads[1].data(), &[-1.0, -2.0]);
    }

    #[test]
    fn accuracy_counts_correct() {
        let logits = Tensor::from_vec([3, 2], vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]).unwrap();
        let labels = Tensor::from_slice(&[0.0, 1.0, 1.0]);
        let acc = accuracy(&logits, &labels).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }
}
