//! Fig. 11 — trajectory divergence between a native optimizer and the
//! Deep500 reference.
//!
//! The paper's analysis: run native (fused) Adam and the reference Adam
//! from identical parameters through identical minibatch streams (an MLP
//! on synthetic MNIST-shaped data, as in the paper's setup), recording
//! per-layer ℓ2 and ℓ∞ distances per iteration. Seeded and bit-identical
//! across thread counts, so the rows are deterministic.
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

use crate::rows::{claims, num, Verdict};
use crate::{scale, Report, Scale};
use deep500::frameworks::fused_optim::FusedAdam;
use deep500::metrics::Json;
use deep500::prelude::*;
use deep500::train::trajectory::compare_trajectories;
use std::sync::Arc;

/// Total ℓ2 distance after one step that still counts as "faithful".
const ONE_STEP_L2: f64 = 1e-2;

fn ends(rows: &[Json]) -> (&Json, &Json) {
    (rows.first().expect("rows"), rows.last().expect("rows"))
}

pub fn one_step_is_faithful(rows: &[Json]) -> Verdict {
    let first = num(ends(rows).0, "total_l2");
    Verdict::new(
        "one_step_is_faithful",
        first <= ONE_STEP_L2,
        format!("total l2 after one step {first:.2e} <= {ONE_STEP_L2:.0e}"),
    )
}

pub fn divergence_grows_with_training(rows: &[Json]) -> Verdict {
    let (first, last) = ends(rows);
    let (start, end) = (num(first, "total_l2"), num(last, "total_l2"));
    Verdict::new(
        "divergence_grows_with_training",
        end > start,
        format!(
            "total l2 {start:.2e} at iteration {} -> {end:.2e} at {} ({:.0}x)",
            num(first, "iteration"),
            num(last, "iteration"),
            end / start.max(1e-30)
        ),
    )
}

pub fn weights_diverge_faster_than_biases(rows: &[Json]) -> Verdict {
    let last = ends(rows).1;
    let (weights, biases) = (num(last, "weights_l2"), num(last, "biases_l2"));
    Verdict::new(
        "weights_diverge_faster_than_biases",
        weights > biases,
        format!("at the last iteration: weight matrices {weights:.2e} > bias vectors {biases:.2e}"),
    )
}

pub fn section(report: &mut Report) {
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
    let engine_a = Engine::builder(net.clone_structure())
        .build()
        .expect("engine");
    let engine_b = Engine::builder(net).build().expect("engine");
    let log = compare_trajectories(
        &mut *engine_a.lock(),
        &mut FusedAdam::new(0.002),
        &mut *engine_b.lock(),
        &mut Adam::new(0.002),
        &batches,
    )
    .expect("trajectories");

    let value = |v: f64| Json::fixed(v, 12);
    let sampled = (0..iterations).step_by((iterations / 10).max(1));
    let rows: Vec<Json> = sampled
        .chain([iterations - 1])
        .map(|it| {
            let sum_of = |suffix: &str| -> f64 {
                let matching = log.per_param.iter().filter(|p| p.name.ends_with(suffix));
                matching.map(|p| p.l2[it]).sum()
            };
            Json::obj([
                ("iteration", Json::from(it)),
                ("total_l2", value(log.total_l2[it])),
                ("total_linf", value(log.total_linf[it])),
                ("weights_l2", value(sum_of(".w"))),
                ("biases_l2", value(sum_of(".b"))),
                (
                    "l2",
                    Json::obj(
                        log.per_param
                            .iter()
                            .map(|p| (p.name.as_str(), value(p.l2[it]))),
                    ),
                ),
            ])
        })
        .collect();
    let verdicts = [
        one_step_is_faithful(&rows),
        divergence_grows_with_training(&rows),
        weights_diverge_faster_than_biases(&rows),
    ];
    claims(report, verdicts);
    report.rows("fig11_divergence", rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(iteration: usize, total: f64, weights: f64, biases: f64) -> Json {
        Json::obj([
            ("iteration", Json::from(iteration)),
            ("total_l2", Json::from(total)),
            ("weights_l2", Json::from(weights)),
            ("biases_l2", Json::from(biases)),
        ])
    }

    #[test]
    fn the_three_clauses_are_three_gates() {
        let agreeing = [
            row(0, 2.1e-3, 2.1e-3, 4.7e-6),
            row(149, 6.5e-2, 6.3e-2, 2.0e-3),
        ];
        assert!(one_step_is_faithful(&agreeing).ok);
        assert!(divergence_grows_with_training(&agreeing).ok);
        assert!(weights_diverge_faster_than_biases(&agreeing).ok);

        // An unfaithful first step, a trajectory that converges back, and
        // biases that drift further than the weight matrices.
        let contradicting = [row(0, 0.3, 0.2, 0.1), row(149, 0.1, 0.04, 0.06)];
        assert!(!one_step_is_faithful(&contradicting).ok);
        assert!(!divergence_grows_with_training(&contradicting).ok);
        assert!(!weights_diverge_faster_than_biases(&contradicting).ok);
    }
}
