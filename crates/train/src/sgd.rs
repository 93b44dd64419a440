//! Gradient descent with a learning-rate schedule.

use crate::lr_schedule::LrSchedule;
use crate::optimizer::ThreeStepOptimizer;
use deep500_tensor::{Result, Tensor};

/// Plain (minibatch) stochastic gradient descent:
/// `w ← w − lr(t) · g` (Algorithm 1 with `U = −lr·g`).
pub struct GradientDescent {
    schedule: LrSchedule,
    t: usize,
}

impl GradientDescent {
    /// Constant learning rate.
    pub fn new(lr: f32) -> Self {
        Self::with_schedule(LrSchedule::Constant(lr))
    }

    /// Scheduled learning rate.
    fn with_schedule(schedule: LrSchedule) -> Self {
        GradientDescent { schedule, t: 0 }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.schedule.at(self.t)
    }
}

impl ThreeStepOptimizer for GradientDescent {
    fn name(&self) -> &str {
        "GradientDescent"
    }
    fn new_input(&mut self) {
        self.t += 1;
    }
    fn update_rule(&mut self, grad: &Tensor, old_param: &Tensor, _name: &str) -> Result<Tensor> {
        let lr = self.schedule.at(self.t.saturating_sub(1));
        // Reference style: whole-tensor expression (allocates), as a direct
        // translation of the algorithm.
        old_param.sub(&grad.scale(lr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::norms;

    #[test]
    fn one_step_matches_formula() {
        let mut o = GradientDescent::new(0.1);
        o.new_input();
        let w = Tensor::from_slice(&[1.0, -2.0]);
        let g = Tensor::from_slice(&[10.0, 10.0]);
        let w2 = o.update_rule(&g, &w, "w").unwrap();
        assert_eq!(w2.data(), &[0.0, -3.0]);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize ||w||^2: grad = 2w; w must shrink geometrically.
        let mut o = GradientDescent::new(0.25);
        let mut w = Tensor::from_slice(&[4.0, -8.0]);
        for _ in 0..50 {
            o.new_input();
            let g = w.scale(2.0);
            w = o.update_rule(&g, &w, "w").unwrap();
        }
        assert!(norms::l2(w.data()) < 1e-6, "norm {}", norms::l2(w.data()));
    }

    #[test]
    fn schedule_is_applied() {
        let mut o = GradientDescent::with_schedule(LrSchedule::StepDecay {
            lr: 1.0,
            gamma: 0.5,
            step_every: 1,
        });
        let w = Tensor::from_slice(&[0.0]);
        let g = Tensor::from_slice(&[1.0]);
        o.new_input(); // t=1, lr at t-1=0 -> 1.0
        let w1 = o.update_rule(&g, &w, "w").unwrap();
        assert_eq!(w1.data(), &[-1.0]);
        o.new_input(); // lr at 1 -> 0.5
        let w2 = o.update_rule(&g, &w1, "w").unwrap();
        assert_eq!(w2.data(), &[-1.5]);
        assert!((o.lr() - 0.25).abs() < 1e-7);
    }
}
