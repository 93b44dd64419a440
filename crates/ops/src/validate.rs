//! Operator forward validation — the paper's `test_forward`.
//!
//! `test_forward` "tests operator correctness and performance": it runs an
//! operator repeatedly against a reference output, collecting difference
//! norms (ℓ1/ℓ2/ℓ∞), an error-localization heatmap, an output-variance map
//! (repeatability), and a wallclock summary with nonparametric 95% CIs.

use crate::operator::Operator;
use deep500_metrics::norms::DiffNorms;
use deep500_metrics::stats::Summary;
use deep500_metrics::{Heatmap, Timer, VarianceMap};
use deep500_tensor::{Error, Result, Tensor};

/// The result of a `test_forward` validation run.
///
/// Public for: returned by `test_forward`.
#[derive(Debug, Clone)]
pub struct ForwardReport {
    /// Difference norms vs the reference, one entry per output tensor.
    pub norms: Vec<DiffNorms>,
    /// Maximum output variance across re-runs (repeatability; 0 for
    /// deterministic operators).
    pub max_variance: f64,
    /// Wallclock summary over the re-runs.
    pub time: Summary,
    /// Error heatmap of the first output (2-D projection).
    pub heatmap: Heatmap,
}

impl ForwardReport {
    /// Pass criterion: every output within `tol` in ℓ∞ and repeatable.
    pub fn passes(&self, tol: f64) -> bool {
        self.norms.iter().all(|n| n.within(tol)) && self.max_variance <= tol
    }
}

/// Project the first output to 2-D for the heatmap: rank-2 stays as-is,
/// higher ranks collapse leading dims, rank-0/1 become a single row.
fn heatmap_dims(t: &Tensor) -> (usize, usize) {
    let s = t.shape();
    match s.rank() {
        0 | 1 => (1, t.numel().max(1)),
        2 => (s.dim(0), s.dim(1)),
        r => {
            let cols = s.dim(r - 1);
            (t.numel() / cols, cols)
        }
    }
}

/// Run `op.forward(inputs)` `reruns` times, comparing against
/// `reference_outputs`, and report correctness + performance.
pub fn test_forward(
    op: &dyn Operator,
    inputs: &[&Tensor],
    reference_outputs: &[&Tensor],
    reruns: usize,
) -> Result<ForwardReport> {
    if reruns == 0 {
        return Err(Error::Invalid("test_forward requires reruns >= 1".into()));
    }
    let mut times = Vec::with_capacity(reruns);
    let mut variance: Option<VarianceMap> = None;
    let mut last: Vec<Tensor> = Vec::new();
    for _ in 0..reruns {
        let (outputs, secs) = Timer::time(|| op.forward(inputs));
        let outputs = outputs?;
        times.push(secs);
        let v = variance.get_or_insert_with(|| VarianceMap::new(outputs[0].numel()));
        v.update(outputs[0].data());
        last = outputs;
    }
    if last.len() != reference_outputs.len() {
        return Err(Error::Validation(format!(
            "{} produced {} outputs but {} references were given",
            op.name(),
            last.len(),
            reference_outputs.len()
        )));
    }
    let norms: Vec<DiffNorms> = last
        .iter()
        .zip(reference_outputs)
        .map(|(o, r)| {
            if o.shape() != r.shape() {
                return Err(Error::ShapeMismatch(format!(
                    "output {} vs reference {}",
                    o.shape(),
                    r.shape()
                )));
            }
            Ok(DiffNorms::of(o.data(), r.data()))
        })
        .collect::<Result<_>>()?;
    let (rows, cols) = heatmap_dims(&last[0]);
    let heatmap = Heatmap::abs_diff(rows, cols, last[0].data(), reference_outputs[0].data());
    Ok(ForwardReport {
        norms,
        max_variance: variance.map(|v| v.max_variance()).unwrap_or(0.0),
        time: Summary::of(&times),
        heatmap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ActivationOp;
    use crate::conv::{Conv2dOp, ConvAlgorithm};
    use deep500_tensor::Xoshiro256StarStar;

    #[test]
    fn identical_implementations_pass() {
        let mut r = Xoshiro256StarStar::seed_from_u64(1);
        let x = Tensor::rand_uniform([1, 2, 6, 6], -1.0, 1.0, &mut r);
        let w = Tensor::rand_uniform([2, 2, 3, 3], -0.5, 0.5, &mut r);
        let b = Tensor::zeros([2]);
        let op = Conv2dOp::new(1, 1, ConvAlgorithm::Direct);
        let reference = op.forward(&[&x, &w, &b]).unwrap();
        let refs: Vec<&Tensor> = reference.iter().collect();
        let report = test_forward(&op, &[&x, &w, &b], &refs, 5).unwrap();
        assert!(report.passes(1e-12));
        assert_eq!(report.time.n, 5);
    }

    #[test]
    fn an_all_nan_output_fails() {
        let op = ActivationOp::sigmoid();
        let x = Tensor::full([2, 3], f32::NAN);
        let reference = Tensor::full([2, 3], 0.5);
        let report = test_forward(&op, &[&x], &[&reference], 3).unwrap();
        assert!(report.norms[0].linf.is_nan());
        assert!(!report.passes(f64::INFINITY));
    }

    #[test]
    fn cross_algorithm_comparison_within_float_tolerance() {
        let mut r = Xoshiro256StarStar::seed_from_u64(2);
        let x = Tensor::rand_uniform([2, 3, 8, 8], -1.0, 1.0, &mut r);
        let w = Tensor::rand_uniform([4, 3, 3, 3], -0.5, 0.5, &mut r);
        let b = Tensor::zeros([4]);
        let reference = Conv2dOp::new(1, 1, ConvAlgorithm::Direct)
            .forward(&[&x, &w, &b])
            .unwrap();
        let refs: Vec<&Tensor> = reference.iter().collect();
        let im2col = Conv2dOp::new(1, 1, ConvAlgorithm::Im2col);
        let report = test_forward(&im2col, &[&x, &w, &b], &refs, 3).unwrap();
        // Different summation grouping: small but typically nonzero error,
        // still within fp32 tolerance — the paper's ~7e-4 regime.
        assert!(report.passes(1e-3), "linf {}", report.norms[0].linf);
        // Deterministic: repeatable across reruns.
        assert_eq!(report.max_variance, 0.0);
    }

    #[test]
    fn wrong_reference_fails() {
        let op = crate::elementwise::ScaleOp::new(2.0, 0.0);
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let wrong = Tensor::from_slice(&[9.0, 9.0]);
        let report = test_forward(&op, &[&x], &[&wrong], 2).unwrap();
        assert!(!report.passes(1e-3));
        assert!(report.heatmap.range().1 > 1.0);
    }

    #[test]
    fn zero_reruns_rejected() {
        let op = crate::elementwise::ScaleOp::new(1.0, 0.0);
        let x = Tensor::from_slice(&[1.0]);
        assert!(test_forward(&op, &[&x], &[&x], 0).is_err());
    }

    #[test]
    fn heatmap_dims_projection() {
        assert_eq!(heatmap_dims(&Tensor::scalar(1.0)), (1, 1));
        assert_eq!(heatmap_dims(&Tensor::zeros([5])), (1, 5));
        assert_eq!(heatmap_dims(&Tensor::zeros([2, 3])), (2, 3));
        assert_eq!(heatmap_dims(&Tensor::zeros([2, 3, 4])), (6, 4));
    }
}
