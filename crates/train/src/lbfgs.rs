//! Stochastic L-BFGS — the paper's Use Case 3.
//!
//! "Implementing a second-order optimization, such as Stochastic
//! L-BFGS, requires a training loop that is vastly different than that in
//! Algorithm 1, which is the basis of many frameworks. … An infrastructure
//! for combining the best of different DL frameworks would be advantageous
//! in such cases." (§III-A). The `ThreeStepOptimizer` interface handles it
//! without touching any framework internals: the curvature-pair history
//! lives in the optimizer, the two-loop recursion runs inside
//! `update_rule`, and the training loop stays Algorithm 1.
//!
//! This is the classic limited-memory BFGS two-loop recursion over
//! per-parameter histories of `(s, y)` pairs (`s = wₖ₊₁−wₖ`,
//! `y = gₖ₊₁−gₖ`), with stochastic-setting safeguards: pairs with
//! non-positive curvature `sᵀy` are skipped (Powell-style damping would
//! also work), and the first step falls back to scaled gradient descent.

use crate::optimizer::ThreeStepOptimizer;
use deep500_tensor::{Result, Tensor};
use std::collections::HashMap;

/// Per-parameter curvature history.
#[derive(Default)]
struct History {
    /// `s = w_{k+1} - w_k` pairs, newest last.
    s: Vec<Vec<f32>>,
    /// `y = g_{k+1} - g_k` pairs, newest last.
    y: Vec<Vec<f32>>,
    prev_w: Option<Vec<f32>>,
    prev_g: Option<Vec<f32>>,
}

/// Stochastic L-BFGS optimizer.
///
/// Public for: Use Case 3, a second-order optimizer through the three-step
/// interface.
pub struct StochasticLbfgs {
    /// Step size applied to the two-loop direction.
    pub lr: f32,
    /// History length `m` (pairs kept per parameter).
    pub memory: usize,
    /// Curvature threshold: pairs with `sᵀy <= eps·‖s‖‖y‖` are rejected.
    pub curvature_eps: f64,
    hist: HashMap<String, History>,
}

impl StochasticLbfgs {
    /// L-BFGS with history length `memory` (typically 5–20).
    pub fn new(lr: f32, memory: usize) -> Self {
        StochasticLbfgs {
            lr,
            memory: memory.max(1),
            curvature_eps: 1e-10,
            hist: HashMap::new(),
        }
    }

    /// Number of stored curvature pairs for a parameter (test hook).
    pub fn pairs(&self, name: &str) -> usize {
        self.hist.get(name).map(|h| h.s.len()).unwrap_or(0)
    }

    /// The two-loop recursion: approximate `H·g` from the pair history.
    fn two_loop(&self, name: &str, grad: &[f32]) -> Vec<f32> {
        let hist = match self.hist.get(name) {
            Some(h) if !h.s.is_empty() => h,
            _ => return grad.to_vec(), // no curvature info: plain gradient
        };
        let k = hist.s.len();
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
        };
        let mut q: Vec<f64> = grad.iter().map(|&v| v as f64).collect();
        let mut alphas = vec![0.0f64; k];
        let mut rhos = vec![0.0f64; k];
        for i in (0..k).rev() {
            let sy = dot(&hist.s[i], &hist.y[i]);
            rhos[i] = 1.0 / sy;
            let sq: f64 = hist.s[i]
                .iter()
                .zip(&q)
                .map(|(&s, &qv)| s as f64 * qv)
                .sum();
            alphas[i] = rhos[i] * sq;
            for (qv, &yv) in q.iter_mut().zip(&hist.y[i]) {
                *qv -= alphas[i] * yv as f64;
            }
        }
        // Initial Hessian scaling: gamma = s'y / y'y of the newest pair.
        let yy = dot(&hist.y[k - 1], &hist.y[k - 1]);
        let sy = dot(&hist.s[k - 1], &hist.y[k - 1]);
        let gamma = if yy > 0.0 { sy / yy } else { 1.0 };
        for qv in q.iter_mut() {
            *qv *= gamma;
        }
        for i in 0..k {
            let yq: f64 = hist.y[i]
                .iter()
                .zip(&q)
                .map(|(&y, &qv)| y as f64 * qv)
                .sum();
            let beta = rhos[i] * yq;
            for (qv, &sv) in q.iter_mut().zip(&hist.s[i]) {
                *qv += (alphas[i] - beta) * sv as f64;
            }
        }
        q.into_iter().map(|v| v as f32).collect()
    }
}

impl ThreeStepOptimizer for StochasticLbfgs {
    fn name(&self) -> &str {
        "StochasticLbfgs"
    }
    fn update_rule(&mut self, grad: &Tensor, old_param: &Tensor, name: &str) -> Result<Tensor> {
        // Direction from the current history.
        let direction = self.two_loop(name, grad.data());
        let mut new_w = old_param.clone();
        for (w, d) in new_w.data_mut().iter_mut().zip(&direction) {
            *w -= self.lr * d;
        }

        // Update the curvature history from (w, g) deltas.
        let hist = self.hist.entry(name.to_string()).or_default();
        if let (Some(pw), Some(pg)) = (&hist.prev_w, &hist.prev_g) {
            let s: Vec<f32> = old_param
                .data()
                .iter()
                .zip(pw)
                .map(|(&a, &b)| a - b)
                .collect();
            let y: Vec<f32> = grad.data().iter().zip(pg).map(|(&a, &b)| a - b).collect();
            let sy: f64 = s.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
            let sn: f64 = s.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
            let yn: f64 = y.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
            // Stochastic safeguard: only accept positive-curvature pairs.
            if sy > self.curvature_eps * sn * yn && sy.is_finite() {
                hist.s.push(s);
                hist.y.push(y);
                if hist.s.len() > self.memory {
                    hist.s.remove(0);
                    hist.y.remove(0);
                }
            }
        }
        hist.prev_w = Some(old_param.data().to_vec());
        hist.prev_g = Some(grad.data().to_vec());
        Ok(new_w)
    }
    fn reset(&mut self) {
        self.hist.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_metrics::norms;

    /// Quadratic f(w) = 0.5 wᵀ A w with ill-conditioned diagonal A: L-BFGS
    /// must converge much faster than gradient descent at the same lr.
    fn quad_grad(w: &Tensor, scales: &[f32]) -> Tensor {
        let mut g = w.clone();
        for (gv, &s) in g.data_mut().iter_mut().zip(scales) {
            *gv *= s;
        }
        g
    }

    #[test]
    fn first_step_is_gradient_descent() {
        let mut o = StochasticLbfgs::new(0.1, 5);
        let w = Tensor::from_slice(&[1.0, -2.0]);
        let g = Tensor::from_slice(&[2.0, 2.0]);
        let w2 = o.update_rule(&g, &w, "w").unwrap();
        assert!((w2.data()[0] - 0.8).abs() < 1e-6);
        assert_eq!(o.pairs("w"), 0, "no curvature yet");
    }

    #[test]
    fn curvature_pairs_accumulate_and_cap() {
        let mut o = StochasticLbfgs::new(0.05, 3);
        let scales = [1.0f32, 10.0];
        let mut w = Tensor::from_slice(&[5.0, 5.0]);
        for _ in 0..10 {
            let g = quad_grad(&w, &scales);
            w = o.update_rule(&g, &w, "w").unwrap();
        }
        assert!(o.pairs("w") <= 3, "history capped at m");
        assert!(o.pairs("w") >= 1, "positive-curvature pairs accepted");
        o.reset();
        assert_eq!(o.pairs("w"), 0);
    }

    #[test]
    fn beats_gradient_descent_on_ill_conditioned_quadratic() {
        // Condition number 100: GD is stability-capped at lr < 2/L = 0.02
        // and crawls along the flat direction; L-BFGS's two-loop direction
        // approximates the Newton step, so it tolerates a near-unit step
        // size — the whole point of second-order methods.
        let scales = [1.0f32, 100.0];
        let steps = 60;

        let mut gd_w = Tensor::from_slice(&[10.0, 10.0]);
        let mut sgd = crate::sgd::GradientDescent::new(0.009); // max stable
        for _ in 0..steps {
            let g = quad_grad(&gd_w, &scales);
            gd_w = sgd.update_rule(&g, &gd_w, "w").unwrap();
        }

        let mut lb_w = Tensor::from_slice(&[10.0, 10.0]);
        let mut lbfgs = StochasticLbfgs::new(0.5, 10);
        for _ in 0..steps {
            let g = quad_grad(&lb_w, &scales);
            lb_w = lbfgs.update_rule(&g, &lb_w, "w").unwrap();
        }
        assert!(
            norms::l2(lb_w.data()) < norms::l2(gd_w.data()) * 0.1,
            "lbfgs {} vs gd {}",
            norms::l2(lb_w.data()),
            norms::l2(gd_w.data())
        );
    }

    #[test]
    fn negative_curvature_pairs_are_rejected() {
        let mut o = StochasticLbfgs::new(0.1, 5);
        let w = Tensor::from_slice(&[1.0]);
        // Adversarial gradient sequence: g flips sign with w moving the
        // same way -> s'y < 0 for the manufactured pair.
        let w1 = o.update_rule(&Tensor::from_slice(&[1.0]), &w, "w").unwrap();
        let _w2 = o
            .update_rule(&Tensor::from_slice(&[2.0]), &w1, "w")
            .unwrap();
        // s = w1 - w = -0.1 ; y = 2 - 1 = 1 ; s'y = -0.1 < 0 -> rejected.
        assert_eq!(o.pairs("w"), 0);
    }

    #[test]
    fn trains_a_network_end_to_end() {
        use crate::optimizer::train_step;
        use deep500_data::Minibatch;
        use deep500_graph::{models, Engine};
        let net = models::mlp(8, &[16], 3, 21).unwrap();
        let engine = Engine::builder(net).build().unwrap();
        let mut ex = engine.lock();
        let mut o = StochasticLbfgs::new(0.05, 8);
        let mut x = Tensor::zeros([6, 8]);
        for i in 0..6 {
            x.data_mut()[i * 8 + (i % 8)] = 1.0;
        }
        let mb = Minibatch {
            x,
            labels: Tensor::from_slice(&[0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
        };
        let first = train_step(&mut o, &mut *ex, &mb).unwrap().loss;
        let mut last = first;
        for _ in 0..30 {
            last = train_step(&mut o, &mut *ex, &mb).unwrap().loss;
        }
        assert!(last < first * 0.5, "L-BFGS training: {first} -> {last}");
    }
}
