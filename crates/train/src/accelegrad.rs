//! AcceleGrad (Levy, Yurtsever & Cevher, 2018) — the paper's Listing 7.
//!
//! AcceleGrad is the paper's showcase of the `ThreeStepOptimizer`
//! abstraction: a state-of-the-art adaptive accelerated method whose
//! implementation "retains its algorithmic form". It maintains two
//! sequences `y` (gradient step) and `z` (aggressively extrapolated step),
//! feeds their interpolation `τ_t·z + (1−τ_t)·y` as the iterate
//! (`prepare_param` — step ·), and updates both sequences with an adaptive
//! step size in `update_rule` (step ¸). This is the one provided optimizer
//! that genuinely *needs* all three steps.

use crate::optimizer::ThreeStepOptimizer;
use deep500_metrics::norms::l2;
use deep500_tensor::{Result, Tensor};
use std::collections::HashMap;

/// AcceleGrad hyperparameters (notation follows the original paper).
#[derive(Debug, Clone, Copy)]
pub struct AcceleGradConfig {
    /// Diameter bound `D` of the feasible set.
    pub d: f32,
    /// Gradient-norm bound `G`.
    pub g: f32,
    /// Auxiliary learning rate for the returned iterate.
    pub lr: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl Default for AcceleGradConfig {
    fn default() -> Self {
        AcceleGradConfig {
            d: 1.0,
            g: 1.0,
            lr: 0.01,
            eps: 1e-8,
        }
    }
}

/// The AcceleGrad optimizer (direct translation of the paper's Listing 7).
pub struct AcceleGrad {
    cfg: AcceleGradConfig,
    t: u64,
    alpha_t: f32,
    tau_t: f32,
    y: HashMap<String, Tensor>,
    z: HashMap<String, Tensor>,
    squares: HashMap<String, f64>,
}

impl AcceleGrad {
    pub fn new(cfg: AcceleGradConfig) -> Self {
        AcceleGrad {
            cfg,
            t: 0,
            alpha_t: 1.0,
            tau_t: 1.0,
            y: HashMap::new(),
            z: HashMap::new(),
            squares: HashMap::new(),
        }
    }
}

impl ThreeStepOptimizer for AcceleGrad {
    fn name(&self) -> &str {
        "AcceleGrad"
    }

    // Listing 7, `new_input`: advance t and the alpha/tau coefficients.
    fn new_input(&mut self) {
        self.t += 1;
        self.alpha_t = if self.t <= 2 {
            1.0
        } else {
            0.25 * (self.t + 1) as f32
        };
        self.tau_t = 1.0 / self.alpha_t;
    }

    // Listing 7, `prepare_param`: feed tau*z + (1-tau)*y as the iterate.
    fn prepare_param(&mut self, name: &str, param: &Tensor) -> Option<Tensor> {
        if !self.y.contains_key(name) {
            self.y.insert(name.to_string(), param.clone());
            self.z.insert(name.to_string(), param.clone());
            self.squares.insert(name.to_string(), 0.0);
        }
        let y = &self.y[name];
        let z = &self.z[name];
        let interp = z
            .scale(self.tau_t)
            .add(&y.scale(1.0 - self.tau_t))
            .expect("y/z shapes match param");
        Some(interp)
    }

    // Listing 7, `update_rule`.
    fn update_rule(&mut self, grad: &Tensor, old_param: &Tensor, name: &str) -> Result<Tensor> {
        let c = self.cfg;
        let squared = self.squares.entry(name.to_string()).or_insert(0.0);
        let gnorm = l2(grad.data());
        *squared += (self.alpha_t as f64).powi(2) * gnorm * gnorm;
        let eta_t = (2.0 * c.d as f64 / (c.g as f64 * c.g as f64 + *squared).sqrt()) as f32;

        let z_t = self.z.get(name).expect("prepared").clone();
        let z_t2 = z_t.sub(&grad.scale(self.alpha_t * eta_t))?;
        let y_t2 = old_param.sub(&grad.scale(eta_t))?;
        self.z.insert(name.to_string(), z_t2);
        self.y.insert(name.to_string(), y_t2);

        let adjusted_lr = (c.lr as f64 / (c.eps as f64 + squared.sqrt())) as f32;
        old_param.sub(&grad.scale(adjusted_lr))
    }

    fn reset(&mut self) {
        self.t = 0;
        self.alpha_t = 1.0;
        self.tau_t = 1.0;
        self.y.clear();
        self.z.clear();
        self.squares.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::norms;

    #[test]
    fn alpha_schedule_matches_listing() {
        let mut a = AcceleGrad::new(AcceleGradConfig::default());
        a.new_input(); // t = 1
        assert_eq!(a.alpha_t, 1.0);
        a.new_input(); // t = 2
        assert_eq!(a.alpha_t, 1.0);
        a.new_input(); // t = 3 -> (t+1)/4 = 1.0
        assert_eq!(a.alpha_t, 1.0);
        a.new_input(); // t = 4 -> 1.25
        assert_eq!(a.alpha_t, 1.25);
        assert!((a.tau_t - 0.8).abs() < 1e-7);
    }

    #[test]
    fn prepare_param_interpolates_y_and_z() {
        let mut a = AcceleGrad::new(AcceleGradConfig::default());
        a.new_input();
        let w = Tensor::from_slice(&[2.0]);
        // First call initializes y = z = w, so the interpolation is w.
        let fed = a.prepare_param("w", &w).unwrap();
        assert_eq!(fed, w);
    }

    #[test]
    fn step_moves_against_gradient() {
        let mut a = AcceleGrad::new(AcceleGradConfig {
            lr: 0.1,
            ..Default::default()
        });
        a.new_input();
        let w = Tensor::from_slice(&[1.0]);
        a.prepare_param("w", &w);
        let g = Tensor::from_slice(&[1.0]);
        let w2 = a.update_rule(&g, &w, "w").unwrap();
        assert!(w2.data()[0] < 1.0);
    }

    #[test]
    fn converges_on_quadratic() {
        let cfg = AcceleGradConfig {
            d: 5.0,
            g: 10.0,
            lr: 0.5,
            eps: 1e-8,
        };
        let mut a = AcceleGrad::new(cfg);
        let mut w = Tensor::from_slice(&[3.0, -2.0]);
        for _ in 0..300 {
            a.new_input();
            let fed = a.prepare_param("w", &w).unwrap();
            let g = fed.scale(2.0); // gradient at the fed iterate
            w = a.update_rule(&g, &fed, "w").unwrap();
        }
        assert!(norms::l2(w.data()) < 0.5, "norm {}", norms::l2(w.data()));
    }

    #[test]
    fn reset_clears_sequences() {
        let mut a = AcceleGrad::new(AcceleGradConfig::default());
        a.new_input();
        let w = Tensor::from_slice(&[1.0]);
        a.prepare_param("w", &w);
        a.reset();
        assert_eq!(a.tau_t, 1.0);
        let fed = a.prepare_param("w", &w).unwrap();
        assert_eq!(fed, w);
    }
}
