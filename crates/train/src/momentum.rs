//! SGD with (Nesterov) momentum.

use crate::optimizer::ThreeStepOptimizer;
use deep500_tensor::{Result, Tensor};
use std::collections::HashMap;

/// Momentum SGD: `v ← µ·v + g`, `w ← w − lr·v` (or the Nesterov variant
/// `w ← w − lr·(g + µ·v)`).
pub struct Momentum {
    pub lr: f32,
    pub mu: f32,
    pub nesterov: bool,
    velocity: HashMap<String, Tensor>,
}

impl Momentum {
    /// Classical momentum.
    pub fn new(lr: f32, mu: f32) -> Self {
        Momentum {
            lr,
            mu,
            nesterov: false,
            velocity: HashMap::new(),
        }
    }
}

impl ThreeStepOptimizer for Momentum {
    fn name(&self) -> &str {
        if self.nesterov {
            "NesterovMomentum"
        } else {
            "Momentum"
        }
    }
    fn update_rule(&mut self, grad: &Tensor, old_param: &Tensor, name: &str) -> Result<Tensor> {
        let v = self
            .velocity
            .entry(name.to_string())
            .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
        // v = mu * v + g
        let new_v = v.scale(self.mu).add(grad)?;
        *v = new_v.clone();
        if self.nesterov {
            // w - lr * (g + mu * v)
            old_param.sub(&grad.add(&new_v.scale(self.mu))?.scale(self.lr))
        } else {
            old_param.sub(&new_v.scale(self.lr))
        }
    }
    fn reset(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_momentum_equals_sgd() {
        let mut m = Momentum::new(0.1, 0.0);
        let w = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[2.0]);
        let w2 = m.update_rule(&g, &w, "w").unwrap();
        assert!((w2.data()[0] - 0.8).abs() < 1e-7);
    }

    #[test]
    fn velocity_accumulates() {
        let mut m = Momentum::new(1.0, 0.5);
        let w = Tensor::from_slice(&[0.0]);
        let g = Tensor::from_slice(&[1.0]);
        let w1 = m.update_rule(&g, &w, "w").unwrap(); // v=1, w=-1
        assert_eq!(w1.data(), &[-1.0]);
        let w2 = m.update_rule(&g, &w1, "w").unwrap(); // v=1.5, w=-2.5
        assert_eq!(w2.data(), &[-2.5]);
        m.reset();
        let w3 = m.update_rule(&g, &w, "w").unwrap();
        assert_eq!(w3.data(), &[-1.0], "reset clears velocity");
    }

    #[test]
    fn per_parameter_state_is_independent() {
        let mut m = Momentum::new(1.0, 0.9);
        let w = Tensor::from_slice(&[0.0]);
        let g = Tensor::from_slice(&[1.0]);
        m.update_rule(&g, &w, "a").unwrap();
        let b1 = m.update_rule(&g, &w, "b").unwrap();
        assert_eq!(b1.data(), &[-1.0], "b has fresh velocity");
    }

    #[test]
    fn nesterov_looks_ahead() {
        let mut m = Momentum::new(1.0, 0.5);
        m.nesterov = true;
        let w = Tensor::from_slice(&[0.0]);
        let g = Tensor::from_slice(&[1.0]);
        // v = 1; update = g + mu*v = 1.5
        let w1 = m.update_rule(&g, &w, "w").unwrap();
        assert_eq!(w1.data(), &[-1.5]);
        assert_eq!(m.name(), "NesterovMomentum");
    }

    #[test]
    fn converges_on_quadratic() {
        let mut m = Momentum::new(0.05, 0.9);
        let mut w = Tensor::from_slice(&[5.0, -3.0]);
        for _ in 0..200 {
            let g = w.scale(2.0);
            w = m.update_rule(&g, &w, "w").unwrap();
        }
        assert!(w.l2_norm() < 1e-4, "norm {}", w.l2_norm());
    }
}
