//! AdaGrad (Duchi et al.): per-coordinate learning rates from the
//! accumulated squared gradient.

use crate::optimizer::ThreeStepOptimizer;
use deep500_tensor::{Result, Tensor};
use std::collections::HashMap;

/// AdaGrad: `G ← G + g²`, `w ← w − lr · g / (sqrt(G) + eps)`.
pub struct AdaGrad {
    pub lr: f32,
    pub eps: f32,
    accum: HashMap<String, Tensor>,
}

impl AdaGrad {
    pub fn new(lr: f32) -> Self {
        AdaGrad {
            lr,
            eps: 1e-8,
            accum: HashMap::new(),
        }
    }
}

impl ThreeStepOptimizer for AdaGrad {
    fn name(&self) -> &str {
        "AdaGrad"
    }
    fn update_rule(&mut self, grad: &Tensor, old_param: &Tensor, name: &str) -> Result<Tensor> {
        let acc = self
            .accum
            .entry(name.to_string())
            .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
        let new_acc = acc.add(&grad.mul(grad)?)?;
        *acc = new_acc.clone();
        let eps = self.eps;
        let denom = new_acc.map(|x| x.sqrt() + eps);
        old_param.sub(&grad.div(&denom)?.scale(self.lr))
    }
    fn reset(&mut self) {
        self.accum.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::norms;

    #[test]
    fn first_step_is_lr_in_sign_direction() {
        let mut o = AdaGrad::new(0.5);
        let w = Tensor::from_slice(&[0.0, 0.0]);
        let g = Tensor::from_slice(&[4.0, -9.0]);
        let w2 = o.update_rule(&g, &w, "w").unwrap();
        // g / sqrt(g^2) = sign(g)
        assert!((w2.data()[0] + 0.5).abs() < 1e-5);
        assert!((w2.data()[1] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn step_size_decays_over_time() {
        let mut o = AdaGrad::new(1.0);
        let g = Tensor::from_slice(&[1.0]);
        let mut w = Tensor::from_slice(&[0.0]);
        let mut prev_step = f32::INFINITY;
        for _ in 0..5 {
            let w2 = o.update_rule(&g, &w, "w").unwrap();
            let step = (w.data()[0] - w2.data()[0]).abs();
            assert!(step < prev_step, "steps must shrink");
            prev_step = step;
            w = w2;
        }
    }

    #[test]
    fn converges_on_quadratic() {
        let mut o = AdaGrad::new(1.0);
        let mut w = Tensor::from_slice(&[3.0, -4.0]);
        for _ in 0..500 {
            let g = w.scale(2.0);
            w = o.update_rule(&g, &w, "w").unwrap();
        }
        assert!(norms::l2(w.data()) < 0.05, "norm {}", norms::l2(w.data()));
    }
}
