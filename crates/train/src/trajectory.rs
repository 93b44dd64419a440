//! Optimizer-trajectory divergence analysis (the paper's Fig. 11).
//!
//! Two optimizers start from identical parameters and receive identical
//! minibatch streams; after every iteration we record the per-parameter
//! ℓ2 and ℓ∞ distance between their parameter vectors. A faithful
//! reimplementation matches exactly for one step, then drifts chaotically —
//! "a single step of TensorFlow is faithful to the original algorithm,
//! however, continuing training increases divergence, where some
//! parameters diverge faster than others".

use crate::optimizer::{train_step, ThreeStepOptimizer};
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_metrics::norms::{l2_diff, linf_diff, nan_max};
use deep500_tensor::Result;

/// Divergence series for one parameter.
///
/// Public for: Fig. 11, an element of `DivergenceLog::per_param`.
#[derive(Debug, Clone)]
pub struct ParamDivergence {
    pub name: String,
    /// ℓ2 distance after each recorded iteration.
    pub l2: Vec<f64>,
    /// ℓ∞ distance after each recorded iteration.
    pub linf: Vec<f64>,
}

/// The full divergence log.
///
/// Public for: Fig. 11, returned by `compare_trajectories`.
#[derive(Debug, Clone)]
pub struct DivergenceLog {
    pub per_param: Vec<ParamDivergence>,
    /// Sum of per-parameter ℓ2 distances per iteration ("total" curve).
    pub total_l2: Vec<f64>,
    /// Max of per-parameter ℓ∞ distances per iteration.
    pub total_linf: Vec<f64>,
}

impl DivergenceLog {
    /// Whether the two trajectories stayed within `tol` throughout.
    pub fn within(&self, tol: f64) -> bool {
        self.total_linf.iter().all(|&v| v <= tol)
    }
}

/// Step both (executor, optimizer) pairs through the same minibatches and
/// record parameter divergence after every step. Both executors must hold
/// networks with identical parameter names and initial values.
pub fn compare_trajectories(
    exec_a: &mut dyn GraphExecutor,
    opt_a: &mut dyn ThreeStepOptimizer,
    exec_b: &mut dyn GraphExecutor,
    opt_b: &mut dyn ThreeStepOptimizer,
    batches: &[Minibatch],
) -> Result<DivergenceLog> {
    let params: Vec<String> = exec_a.network().get_params().to_vec();
    let mut per_param: Vec<ParamDivergence> = params
        .iter()
        .map(|p| ParamDivergence {
            name: p.clone(),
            l2: Vec::new(),
            linf: Vec::new(),
        })
        .collect();
    let mut total_l2 = Vec::with_capacity(batches.len());
    let mut total_linf = Vec::with_capacity(batches.len());

    for batch in batches {
        train_step(opt_a, exec_a, batch)?;
        train_step(opt_b, exec_b, batch)?;
        let mut sum_l2 = 0.0f64;
        let mut max_linf = 0.0f64;
        for (i, p) in params.iter().enumerate() {
            let ta = exec_a.network().fetch_tensor(p)?;
            let tb = exec_b.network().fetch_tensor(p)?;
            let l2v = l2_diff(ta.data(), tb.data());
            let linfv = linf_diff(ta.data(), tb.data());
            per_param[i].l2.push(l2v);
            per_param[i].linf.push(linfv);
            sum_l2 += l2v;
            max_linf = nan_max(max_linf, linfv);
        }
        total_l2.push(sum_l2);
        total_linf.push(max_linf);
    }
    Ok(DivergenceLog {
        per_param,
        total_l2,
        total_linf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Adam;
    use crate::sgd::GradientDescent;
    use deep500_data::sampler::{DatasetSampler, ShuffleSampler};
    use deep500_data::synthetic::SyntheticDataset;
    use deep500_graph::{models, Engine, GraphExecutor};
    use std::sync::Arc;

    fn batches(n: usize, seed: u64) -> Vec<Minibatch> {
        let ds: Arc<dyn deep500_data::Dataset> = Arc::new(SyntheticDataset::new(
            "t",
            deep500_tensor::Shape::new(&[8]),
            3,
            64,
            0.3,
            seed,
        ));
        let mut s = ShuffleSampler::new(ds, 8, seed);
        let mut out = Vec::new();
        while out.len() < n {
            match s.next_batch().unwrap() {
                Some(b) => out.push(b),
                None => s.reset_epoch(),
            }
        }
        out
    }

    fn execs(seed: u64) -> (Box<dyn GraphExecutor>, Box<dyn GraphExecutor>) {
        let net = models::mlp(8, &[8], 3, seed).unwrap();
        let build = |n| Engine::builder(n).build().unwrap().into_inner().unwrap();
        (build(net.clone_structure()), build(net))
    }

    #[test]
    fn identical_optimizers_never_diverge() {
        let (mut ea, mut eb) = execs(1);
        let mut oa = GradientDescent::new(0.05);
        let mut ob = GradientDescent::new(0.05);
        let log =
            compare_trajectories(&mut *ea, &mut oa, &mut *eb, &mut ob, &batches(5, 1)).unwrap();
        assert!(log.within(0.0), "bitwise identical trajectories");
        assert_eq!(log.total_l2.len(), 5);
    }

    #[test]
    fn different_optimizers_diverge_and_grow() {
        let (mut ea, mut eb) = execs(2);
        let mut oa = GradientDescent::new(0.05);
        let mut ob = Adam::new(0.05);
        let log =
            compare_trajectories(&mut *ea, &mut oa, &mut *eb, &mut ob, &batches(10, 2)).unwrap();
        assert!(log.total_l2[9] > 0.0);
        // Divergence at the end exceeds divergence after step 1 (chaotic
        // growth, Fig. 11's qualitative shape).
        assert!(log.total_l2[9] > log.total_l2[0]);
        assert!(!log.within(1e-12));
        // Per-parameter series exist for every parameter.
        assert_eq!(log.per_param.len(), 4); // 2 layers x (w, b)
        assert!(log.per_param.iter().all(|p| p.l2.len() == 10));
    }

    #[test]
    fn slightly_perturbed_lr_diverges_slowly() {
        let (mut ea, mut eb) = execs(3);
        let mut oa = GradientDescent::new(0.0500);
        let mut ob = GradientDescent::new(0.0501);
        let log =
            compare_trajectories(&mut *ea, &mut oa, &mut *eb, &mut ob, &batches(5, 3)).unwrap();
        assert!(log.total_l2[4] > 0.0);
        assert!(log.total_l2[4] < 1.0, "small perturbation, small drift");
    }
}
