//! Fig. 11 — trajectory divergence between a native optimizer and the
//! Deep500 reference.
//!
//! The paper's analysis: run native (fused) Adam and the reference Adam
//! from identical parameters through identical minibatch streams (an MLP
//! on synthetic MNIST-shaped data, as in the paper's setup), recording
//! per-layer ℓ2 and ℓ∞ distances per iteration. Seeded and bit-identical
//! across thread counts, so the rows are deterministic. `fig11_divergence`
//! rows are keyed by `iteration` (every tenth of the run, and the last):
//! the ℓ2 distance of each parameter (keyed by `param` as well; the
//! total, weight and bias distances are their sums) and the largest ℓ∞
//! distance of any (`total_linf`).
//!
//! Expected shapes (paper) — "a single step … is faithful to the original
//! algorithm, however, continuing training increases divergence, where
//! some parameters (e.g., fully connected) diverge faster than others
//! (additive bias)" — each clause a gate:
//! * `one_step_is_faithful`: after one step the two parameter sets are
//!   within [`ONE_STEP_L2`] in total ℓ2 — under 2 % of the ≈0.46 that one
//!   Adam step at lr 0.002 moves the 52 k parameters;
//! * `divergence_grows_with_training`;
//! * `weights_diverge_faster_than_biases`.

use crate::rows::{select, Better, Row, Verdict};
use crate::{engine, scale, Scale};
use deep500::frameworks::fused_optim::FusedAdam;
use deep500::prelude::*;
use deep500::train::trajectory::compare_trajectories;
use std::sync::Arc;

/// Total ℓ2 distance after one step that still counts as "faithful".
const ONE_STEP_L2: f64 = 1e-2;

/// The sum of the per-parameter ℓ2 distances at `iteration` over the
/// parameters whose name ends in `suffix` (every one for `""`).
fn l2(rows: &[Row], iteration: i64, suffix: &str) -> f64 {
    let at = select(rows, "fig11_divergence", "l2").filter(|r| r.int("iteration") == iteration);
    let params = at.filter(|r| r.text("param").ends_with(suffix));
    params.map(|r| r.median).sum()
}

/// The first and last iterations of the table: one `total_linf` row each.
fn ends(rows: &[Row]) -> (i64, i64) {
    let mut iterations = select(rows, "fig11_divergence", "total_linf").map(|r| r.int("iteration"));
    let first = iterations.next().expect("rows");
    (first, iterations.last().unwrap_or(first))
}

pub fn one_step_is_faithful(rows: &[Row]) -> Verdict {
    let first = l2(rows, ends(rows).0, "");
    Verdict::new(
        "one_step_is_faithful",
        first <= ONE_STEP_L2,
        format!("total l2 after one step {first:.2e} <= {ONE_STEP_L2:.0e}"),
    )
}

pub fn divergence_grows_with_training(rows: &[Row]) -> Verdict {
    let (first, last) = ends(rows);
    let (start, end) = (l2(rows, first, ""), l2(rows, last, ""));
    Verdict::new(
        "divergence_grows_with_training",
        end > start,
        format!(
            "total l2 {start:.2e} at iteration {first} -> {end:.2e} at {last} ({:.0}x)",
            end / start.max(1e-30)
        ),
    )
}

pub fn weights_diverge_faster_than_biases(rows: &[Row]) -> Verdict {
    let last = ends(rows).1;
    let (weights, biases) = (l2(rows, last, ".w"), l2(rows, last, ".b"));
    Verdict::new(
        "weights_diverge_faster_than_biases",
        weights > biases,
        format!("at the last iteration: weight matrices {weights:.2e} > bias vectors {biases:.2e}"),
    )
}

pub fn section() -> Vec<Row> {
    let iterations = if scale() == Scale::Full { 900 } else { 150 };
    let ds: Arc<dyn Dataset> = Arc::new(SyntheticDataset::mnist_like(1024, 42));
    let mut sampler = ShuffleSampler::new(ds, 32, 4);
    let mut batches = Vec::with_capacity(iterations);
    while batches.len() < iterations {
        match sampler.next_batch().expect("batch") {
            // The MLP input is flat; flatten the image batches.
            Some(mut b) => {
                let n = b.labels.numel();
                b.x.reshape(&[n, 28 * 28]).expect("flatten");
                batches.push(b);
            }
            None => sampler.reset_epoch(),
        }
    }
    let net = models::mlp(28 * 28, &[64, 32], 10, 11).expect("mlp");
    let engine_a = engine(net.clone_structure(), ExecutorKind::Reference);
    let engine_b = engine(net, ExecutorKind::Reference);
    let log = compare_trajectories(
        &mut *engine_a.lock(),
        &mut FusedAdam::new(0.002),
        &mut *engine_b.lock(),
        &mut Adam::new(0.002),
        &batches,
    )
    .expect("trajectories");

    let sampled = (0..iterations).step_by((iterations / 10).max(1));
    let mut rows = Vec::new();
    for it in sampled.chain([iterations - 1]) {
        let row = Row::of("fig11_divergence").key("iteration", it);
        for p in &log.per_param {
            let param = row.clone().key("param", p.name.as_str());
            rows.push(param.value("l2", "abs", Better::Lower, p.l2[it]));
        }
        rows.push(row.value("total_linf", "abs", Better::Lower, log.total_linf[it]));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(iteration: usize, weights: f64, biases: f64) -> Vec<Row> {
        let row = Row::of("fig11_divergence").key("iteration", iteration);
        let mut rows: Vec<Row> = [("fc1.w", weights), ("fc1.b", biases)]
            .map(|(param, l2)| {
                row.clone()
                    .key("param", param)
                    .value("l2", "abs", Better::Lower, l2)
            })
            .to_vec();
        rows.push(row.value("total_linf", "abs", Better::Lower, weights));
        rows
    }

    #[test]
    fn the_three_clauses_are_three_gates() {
        let agreeing = [rows(0, 2.1e-3, 4.7e-6), rows(149, 6.3e-2, 2.0e-3)].concat();
        assert!(one_step_is_faithful(&agreeing).ok);
        let v = divergence_grows_with_training(&agreeing);
        assert!(
            v.ok && v.detail.contains("at iteration 0 ->"),
            "{}",
            v.detail
        );
        assert!(weights_diverge_faster_than_biases(&agreeing).ok);

        // An unfaithful first step, a trajectory that converges back, and
        // biases that drift further than the weight matrices.
        let contradicting = [rows(0, 0.2, 0.1), rows(149, 0.04, 0.06)].concat();
        assert!(!one_step_is_faithful(&contradicting).ok);
        assert!(!divergence_grows_with_training(&contradicting).ok);
        assert!(!weights_diverge_faster_than_biases(&contradicting).ok);
    }
}
