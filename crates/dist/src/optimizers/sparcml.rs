//! SparCML: top-k sparse gradient allreduce.
//!
//! "The custom distributed communication scheme SparCML, written as a
//! custom Deep500 operator" (§V-E): gradients are sparsified to their
//! top-k entries, exchanged with the recursive-doubling sparse allreduce,
//! and the merged (denser) result is applied. The paper observes up to 2×
//! volume reduction at 8 nodes, eroding as the vectors densify with node
//! count — both effects emerge from the real [`sparse_allreduce`] here.

use super::{Scheme, SchemeCore};
use crate::comm::Communicator;
use crate::sparse::{sparse_allreduce, SparseVector};
use deep500_data::Minibatch;
use deep500_graph::GraphExecutor;
use deep500_tensor::{Result, Tensor};
use deep500_train::optimizer::StepResult;
use deep500_train::ThreeStepOptimizer;

/// Sparse-allreduce data-parallel SGD.
pub struct SparseDecentralized {
    core: SchemeCore,
    /// Fraction of gradient entries kept (top-k by magnitude).
    pub density: f64,
    /// Density of the merged vector observed in the last step, per
    /// parameter (diagnostics for the densification analysis).
    pub last_merged_density: Vec<(String, f64)>,
}

impl SparseDecentralized {
    pub fn new(
        base: Box<dyn ThreeStepOptimizer>,
        comm: Box<dyn Communicator>,
        density: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&density) && density > 0.0,
            "density must be in (0, 1]"
        );
        SparseDecentralized {
            core: SchemeCore::new(base, comm),
            density,
            last_merged_density: Vec::new(),
        }
    }
}

impl Scheme for SparseDecentralized {
    fn name(&self) -> &str {
        "SparCML"
    }

    fn train_step(
        &mut self,
        executor: &mut dyn GraphExecutor,
        batch: &Minibatch,
    ) -> Result<StepResult> {
        let result = self.core.backprop(executor, batch)?;
        self.last_merged_density.clear();
        let grad_pairs: Vec<(String, String)> = executor.network().gradient();
        for (pname, gname) in grad_pairs {
            let grad = executor.network().fetch_tensor(&gname)?.clone();
            // Sparsify: the "filter the dense gradient to the sparse
            // representation" cost the paper mentions is the top-k select.
            let k = ((grad.numel() as f64 * self.density).ceil() as usize).max(1);
            let local = SparseVector::top_k(grad.data(), k);
            let merged = sparse_allreduce(self.core.comm.as_mut(), local)?;
            self.last_merged_density
                .push((pname.clone(), merged.density()));
            let mut dense = merged.to_dense();
            let inv = 1.0 / self.core.comm.world() as f32;
            dense.iter_mut().for_each(|v| *v *= inv);
            let sparse_grad = Tensor::from_vec(grad.shape().clone(), dense)?;
            self.core.apply_update(executor, &pname, &sparse_grad)?;
        }
        Ok(result)
    }

    fn core(&self) -> &SchemeCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SchemeCore {
        &mut self.core
    }
}
