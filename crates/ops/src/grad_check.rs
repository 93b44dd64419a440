//! Numerical gradient checking — the paper's `test_gradient`.
//!
//! "We provide gradient validation through numerical differentiation
//! (Jacobian matrix evaluation using finite differences)" (§IV-C). For each
//! differentiable input element we perturb by ±ε, re-run the forward pass,
//! and compare the centered difference of a scalar projection of the
//! outputs against the operator's analytical `backward`.
//!
//! The projection trick: instead of the full Jacobian we check the
//! vector-Jacobian product against a fixed random cotangent `g`, i.e.
//! `d⟨g, f(x)⟩/dx == backward(g)`. This validates exactly what
//! backpropagation computes, in O(numel) forward passes.

use crate::operator::Operator;
use deep500_tensor::{Result, Tensor, Xoshiro256StarStar};

/// Report from one gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Maximum relative error across all checked input elements.
    pub max_rel_error: f64,
    /// Index (input, element) of the worst element.
    pub worst: (usize, usize),
    /// Number of elements checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether the check passed at tolerance `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_error <= tol
    }
}

/// Scalar projection `⟨g, outputs⟩` used for directional finite differences.
fn project(outputs: &[Tensor], cotangents: &[Tensor]) -> f64 {
    outputs
        .iter()
        .zip(cotangents)
        .map(|(o, g)| {
            o.data()
                .iter()
                .zip(g.data())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum::<f64>()
        })
        .sum()
}

/// Check the analytical `backward` of `op` against central finite
/// differences at the point `inputs`, with step `epsilon`. At most
/// `max_elements_per_input` elements per input are perturbed (deterministic
/// stride subsampling) to bound cost on large tensors.
pub fn test_gradient(
    op: &dyn Operator,
    inputs: &[&Tensor],
    epsilon: f64,
    max_elements_per_input: usize,
) -> Result<GradCheckReport> {
    // Fixed random cotangent per output.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x0D50_06AD);
    let outputs = op.forward(inputs)?;
    let cotangents: Vec<Tensor> = outputs
        .iter()
        .map(|o| Tensor::rand_uniform(o.shape().clone(), -1.0, 1.0, &mut rng))
        .collect();

    // Analytical VJP.
    let cot_refs: Vec<&Tensor> = cotangents.iter().collect();
    let out_refs: Vec<&Tensor> = outputs.iter().collect();
    let analytic = op.backward(&cot_refs, inputs, &out_refs)?;

    let mut max_rel = 0.0f64;
    let mut worst = (0usize, 0usize);
    let mut checked = 0usize;

    for (ii, &input) in inputs.iter().enumerate() {
        if !op.input_differentiable(ii) {
            continue;
        }
        let n = input.numel();
        let stride = n.div_ceil(max_elements_per_input).max(1);
        for e in (0..n).step_by(stride) {
            let orig = input.data()[e];
            let mut perturbed: Vec<Tensor> = inputs.iter().map(|&t| t.clone()).collect();

            perturbed[ii].data_mut()[e] = orig + epsilon as f32;
            let refs: Vec<&Tensor> = perturbed.iter().collect();
            let plus = project(&op.forward(&refs)?, &cotangents);

            perturbed[ii].data_mut()[e] = orig - epsilon as f32;
            let refs: Vec<&Tensor> = perturbed.iter().collect();
            let minus = project(&op.forward(&refs)?, &cotangents);

            let numeric = (plus - minus) / (2.0 * epsilon);
            let analytic_v = analytic[ii].data()[e] as f64;
            let scale = numeric.abs().max(analytic_v.abs()).max(1.0);
            let rel = (numeric - analytic_v).abs() / scale;
            if rel > max_rel {
                max_rel = rel;
                worst = (ii, e);
            }
            checked += 1;
        }
    }
    Ok(GradCheckReport {
        max_rel_error: max_rel,
        worst,
        checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{ActivationOp, SoftmaxOp};
    use crate::conv::{Conv2dOp, ConvAlgorithm};
    use crate::elementwise::BinaryOp;
    use crate::gemm::MatMulOp;
    use crate::linear::LinearOp;
    use crate::loss::{MseLossOp, SoftmaxCrossEntropyOp};
    use crate::norm_ops::BatchNormOp;
    use crate::pool::Pool2dOp;

    const TOL: f64 = 5e-3;
    const EPS: f64 = 1e-3;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(12345)
    }

    #[test]
    fn matmul_gradient() {
        let mut r = rng();
        let a = Tensor::rand_uniform([3, 4], -1.0, 1.0, &mut r);
        let b = Tensor::rand_uniform([4, 2], -1.0, 1.0, &mut r);
        let report = test_gradient(&MatMulOp::default(), &[&a, &b], EPS, 100).unwrap();
        assert!(report.passes(TOL), "max rel {}", report.max_rel_error);
        assert!(report.checked > 0);
    }

    #[test]
    fn linear_gradient() {
        let mut r = rng();
        let x = Tensor::rand_uniform([2, 5], -1.0, 1.0, &mut r);
        let w = Tensor::rand_uniform([3, 5], -1.0, 1.0, &mut r);
        let b = Tensor::rand_uniform([3], -1.0, 1.0, &mut r);
        let report = test_gradient(&LinearOp::default(), &[&x, &w, &b], EPS, 100).unwrap();
        assert!(report.passes(TOL), "max rel {}", report.max_rel_error);
    }

    #[test]
    fn conv_gradient_all_algorithms() {
        let mut r = rng();
        let x = Tensor::rand_uniform([1, 2, 5, 5], -1.0, 1.0, &mut r);
        let w = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, &mut r);
        let b = Tensor::rand_uniform([3], -0.1, 0.1, &mut r);
        for algo in [ConvAlgorithm::Direct, ConvAlgorithm::Im2col] {
            let op = Conv2dOp::new(1, 1, algo);
            let report = test_gradient(&op, &[&x, &w, &b], EPS, 60).unwrap();
            assert!(
                report.passes(TOL),
                "{algo:?}: max rel {} at {:?}",
                report.max_rel_error,
                report.worst
            );
        }
    }

    #[test]
    fn conv_gradient_strided_and_padded() {
        // Stride and padding exercise the blocked backward lowering's
        // analytic row copy / row add bounds on a non-square image.
        let mut r = rng();
        let x = Tensor::rand_uniform([2, 3, 7, 6], -1.0, 1.0, &mut r);
        let w = Tensor::rand_uniform([4, 3, 3, 3], -0.5, 0.5, &mut r);
        let b = Tensor::rand_uniform([4], -0.1, 0.1, &mut r);
        for (stride, pad) in [(2, 1), (3, 2), (2, 0)] {
            let op = Conv2dOp::new(stride, pad, ConvAlgorithm::Im2col);
            let report = test_gradient(&op, &[&x, &w, &b], EPS, 60).unwrap();
            assert!(
                report.passes(TOL),
                "s{stride} p{pad}: max rel {} at {:?}",
                report.max_rel_error,
                report.worst
            );
        }
    }

    #[test]
    fn activation_gradients() {
        let mut r = rng();
        // Keep away from ReLU's kink at 0 by shifting.
        let x = Tensor::rand_uniform([20], 0.1, 1.0, &mut r);
        for op in [
            ActivationOp::relu(),
            ActivationOp::sigmoid(),
            ActivationOp::tanh(),
        ] {
            let report = test_gradient(&op, &[&x], EPS, 50).unwrap();
            assert!(
                report.passes(TOL),
                "{}: {}",
                op.name(),
                report.max_rel_error
            );
        }
    }

    #[test]
    fn softmax_gradient() {
        let mut r = rng();
        let x = Tensor::rand_uniform([3, 5], -2.0, 2.0, &mut r);
        let report = test_gradient(&SoftmaxOp, &[&x], EPS, 50).unwrap();
        assert!(report.passes(TOL), "{}", report.max_rel_error);
    }

    #[test]
    fn pooling_gradients() {
        let mut r = rng();
        let x = Tensor::rand_uniform([1, 2, 6, 6], -1.0, 1.0, &mut r);
        for op in [
            Pool2dOp::max(2, 2),
            Pool2dOp::average(2, 2),
            Pool2dOp::median(3, 3),
        ] {
            let report = test_gradient(&op, &[&x], 1e-4, 80).unwrap();
            assert!(
                report.passes(TOL),
                "{}: {}",
                op.name(),
                report.max_rel_error
            );
        }
    }

    #[test]
    fn batchnorm_gradient() {
        let mut r = rng();
        let x = Tensor::rand_uniform([3, 2, 3, 3], -1.0, 1.0, &mut r);
        let gamma = Tensor::rand_uniform([2], 0.5, 1.5, &mut r);
        let beta = Tensor::rand_uniform([2], -0.5, 0.5, &mut r);
        let report = test_gradient(&BatchNormOp::default(), &[&x, &gamma, &beta], EPS, 60).unwrap();
        assert!(report.passes(1e-2), "max rel {}", report.max_rel_error);
    }

    #[test]
    fn loss_gradients() {
        let mut r = rng();
        let logits = Tensor::rand_uniform([4, 3], -1.0, 1.0, &mut r);
        let labels = Tensor::from_slice(&[0.0, 2.0, 1.0, 1.0]);
        let report = test_gradient(&SoftmaxCrossEntropyOp, &[&logits, &labels], EPS, 50).unwrap();
        assert!(report.passes(TOL), "xent: {}", report.max_rel_error);

        let a = Tensor::rand_uniform([10], -1.0, 1.0, &mut r);
        let b = Tensor::rand_uniform([10], -1.0, 1.0, &mut r);
        let report = test_gradient(&MseLossOp, &[&a, &b], EPS, 50).unwrap();
        assert!(report.passes(TOL), "mse: {}", report.max_rel_error);
    }

    #[test]
    fn binary_op_gradients() {
        let mut r = rng();
        let a = Tensor::rand_uniform([12], 0.5, 2.0, &mut r);
        let b = Tensor::rand_uniform([12], 0.5, 2.0, &mut r);
        for op in [
            BinaryOp::add(),
            BinaryOp::sub(),
            BinaryOp::mul(),
            BinaryOp::div(),
        ] {
            let report = test_gradient(&op, &[&a, &b], EPS, 30).unwrap();
            assert!(
                report.passes(TOL),
                "{}: {}",
                op.name(),
                report.max_rel_error
            );
        }
    }

    #[test]
    fn a_wrong_gradient_is_caught() {
        /// Deliberately wrong backward: returns 3x the correct gradient.
        struct WrongDouble;
        impl Operator for WrongDouble {
            fn name(&self) -> &str {
                "WrongDouble"
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn output_shapes(
                &self,
                s: &[&deep500_tensor::Shape],
            ) -> Result<Vec<deep500_tensor::Shape>> {
                Ok(vec![s[0].clone()])
            }
            fn forward(&self, inputs: &[&Tensor]) -> Result<Vec<Tensor>> {
                Ok(vec![inputs[0].scale(2.0)])
            }
            fn backward(
                &self,
                g: &[&Tensor],
                _i: &[&Tensor],
                _o: &[&Tensor],
            ) -> Result<Vec<Tensor>> {
                Ok(vec![g[0].scale(6.0)]) // should be 2.0
            }
        }
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let report = test_gradient(&WrongDouble, &[&x], EPS, 10).unwrap();
        assert!(!report.passes(TOL), "wrong gradient must fail the check");
    }
}
