//! RMSProp (Tieleman & Hinton): exponentially-weighted squared-gradient
//! normalization.

use crate::optimizer::ThreeStepOptimizer;
use deep500_tensor::{Result, Tensor};
use std::collections::HashMap;

/// RMSProp: `s ← ρ·s + (1−ρ)·g²`, `w ← w − lr · g / (sqrt(s) + eps)`.
pub struct RmsProp {
    pub lr: f32,
    pub rho: f32,
    pub eps: f32,
    mean_square: HashMap<String, Tensor>,
}

impl RmsProp {
    pub fn new(lr: f32) -> Self {
        RmsProp {
            lr,
            rho: 0.9,
            eps: 1e-8,
            mean_square: HashMap::new(),
        }
    }
}

impl ThreeStepOptimizer for RmsProp {
    fn name(&self) -> &str {
        "RmsProp"
    }
    fn update_rule(&mut self, grad: &Tensor, old_param: &Tensor, name: &str) -> Result<Tensor> {
        let s = self
            .mean_square
            .entry(name.to_string())
            .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
        let new_s = s
            .scale(self.rho)
            .add(&grad.mul(grad)?.scale(1.0 - self.rho))?;
        *s = new_s.clone();
        let eps = self.eps;
        let denom = new_s.map(|x| x.sqrt() + eps);
        old_param.sub(&grad.div(&denom)?.scale(self.lr))
    }
    fn reset(&mut self) {
        self.mean_square.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::norms;

    #[test]
    fn first_step_is_amplified_by_leakage() {
        // s = 0.1 g^2 after one step, so step ~ lr / sqrt(0.1).
        let mut o = RmsProp::new(0.1);
        let w = Tensor::from_slice(&[0.0]);
        let g = Tensor::from_slice(&[5.0]);
        let w2 = o.update_rule(&g, &w, "w").unwrap();
        let expected = 0.1 / (0.1f32.sqrt());
        assert!((w2.data()[0] + expected).abs() < 1e-4, "{}", w2.data()[0]);
    }

    #[test]
    fn steady_state_step_approaches_lr() {
        let mut o = RmsProp::new(0.01);
        let g = Tensor::from_slice(&[2.0]);
        let mut w = Tensor::from_slice(&[0.0]);
        let mut last_step = 0.0f32;
        for _ in 0..200 {
            let w2 = o.update_rule(&g, &w, "w").unwrap();
            last_step = (w.data()[0] - w2.data()[0]).abs();
            w = w2;
        }
        assert!((last_step - 0.01).abs() < 1e-3, "step {last_step}");
    }

    #[test]
    fn converges_on_quadratic() {
        let mut o = RmsProp::new(0.05);
        let mut w = Tensor::from_slice(&[3.0, -1.0]);
        for _ in 0..400 {
            let g = w.scale(2.0);
            w = o.update_rule(&g, &w, "w").unwrap();
        }
        assert!(norms::l2(w.data()) < 0.05, "norm {}", norms::l2(w.data()));
        o.reset();
    }
}
