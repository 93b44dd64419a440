//! Adam (Kingma & Ba, ICLR'15), "directly translated from the original
//! algorithm" — the paper notes this faithful-but-unfused reference runs
//! ≈5× slower than native fused kernels while reaching the same accuracy.

use crate::optimizer::ThreeStepOptimizer;
use deep500_tensor::{Result, Tensor};
use std::collections::HashMap;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy)]
struct AdamConfig {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// The reference Adam optimizer (whole-tensor expression per update).
pub struct Adam {
    cfg: AdamConfig,
    m: HashMap<String, Tensor>,
    v: HashMap<String, Tensor>,
    t: HashMap<String, u32>,
}

impl Adam {
    /// Adam with the given learning rate and default betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            cfg: AdamConfig {
                lr,
                ..Default::default()
            },
            m: HashMap::new(),
            v: HashMap::new(),
            t: HashMap::new(),
        }
    }
}

impl ThreeStepOptimizer for Adam {
    fn name(&self) -> &str {
        "Adam"
    }
    fn update_rule(&mut self, grad: &Tensor, old_param: &Tensor, name: &str) -> Result<Tensor> {
        let c = self.cfg;
        let t = self.t.entry(name.to_string()).or_insert(0);
        *t += 1;
        let tf = *t as i32;
        let m = self
            .m
            .entry(name.to_string())
            .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
        // m = b1*m + (1-b1)*g           (allocating, reference style)
        let new_m = m.scale(c.beta1).add(&grad.scale(1.0 - c.beta1))?;
        *m = new_m.clone();
        let v = self
            .v
            .entry(name.to_string())
            .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
        // v = b2*v + (1-b2)*g^2
        let g2 = grad.mul(grad)?;
        let new_v = v.scale(c.beta2).add(&g2.scale(1.0 - c.beta2))?;
        *v = new_v.clone();
        // Bias correction.
        let mhat = new_m.scale(1.0 / (1.0 - c.beta1.powi(tf)));
        let vhat = new_v.scale(1.0 / (1.0 - c.beta2.powi(tf)));
        // w = w - lr * mhat / (sqrt(vhat) + eps)
        let denom = vhat.map(|x| x.sqrt() + c.eps);
        old_param.sub(&mhat.div(&denom)?.scale(c.lr))
    }
    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_size_is_lr() {
        // At t=1 with any nonzero constant gradient, Adam steps by ~lr in
        // the negative gradient direction (bias corrections cancel).
        let mut a = Adam::new(0.1);
        let w = Tensor::from_slice(&[1.0, -1.0]);
        let g = Tensor::from_slice(&[3.0, -7.0]);
        let w2 = a.update_rule(&g, &w, "w").unwrap();
        assert!((w2.data()[0] - 0.9).abs() < 1e-4, "{}", w2.data()[0]);
        assert!((w2.data()[1] + 0.9).abs() < 1e-4);
    }

    #[test]
    fn converges_on_quadratic() {
        let mut a = Adam::new(0.1);
        let mut w = Tensor::from_slice(&[3.0, -2.0, 1.0]);
        for _ in 0..500 {
            let g = w.scale(2.0);
            w = a.update_rule(&g, &w, "w").unwrap();
        }
        assert!(w.l2_norm() < 1e-2, "norm {}", w.l2_norm());
    }

    #[test]
    fn step_counter_is_per_parameter() {
        let mut a = Adam::new(0.1);
        let w = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[1.0]);
        for _ in 0..5 {
            a.update_rule(&g, &w, "a").unwrap();
        }
        // Parameter "b" still behaves like t=1.
        let w2 = a.update_rule(&g, &w, "b").unwrap();
        assert!((w2.data()[0] - 0.9).abs() < 1e-4);
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let mut a = Adam::new(0.1);
        let w = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[1.0]);
        let first = a.update_rule(&g, &w, "w").unwrap();
        a.update_rule(&g, &first, "w").unwrap();
        a.reset();
        let again = a.update_rule(&g, &w, "w").unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn adaptive_scaling_shrinks_large_gradient_dims() {
        // After many steps with wildly different per-dim gradients, the
        // effective steps are comparable (Adam normalizes by RMS).
        let mut a = Adam::new(0.01);
        let mut w = Tensor::from_slice(&[1.0, 1.0]);
        for _ in 0..10 {
            let g = Tensor::from_slice(&[100.0, 0.01]);
            w = a.update_rule(&g, &w, "w").unwrap();
        }
        let step0 = 1.0 - w.data()[0];
        let step1 = 1.0 - w.data()[1];
        assert!(step0 > 0.0 && step1 > 0.0);
        assert!(step0 / step1 < 2.0, "steps {step0} vs {step1}");
    }
}
