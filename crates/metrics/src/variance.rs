//! Per-element output variance across re-runs.
//!
//! The paper validates *repeatability* "via a map of output variance":
//! the same computation is repeated and the elementwise variance of its
//! outputs is collected. A deterministic operator yields an all-zero map;
//! nonzero entries localize nondeterminism (e.g. atomically-reduced sums).
//!
//! Implemented with Welford's online algorithm so buffers of any number of
//! re-runs can be folded in without storing them all.

use crate::heatmap::Heatmap;
use crate::norms::nan_max;

/// Online elementwise mean/variance accumulator over repeated output buffers.
#[derive(Debug, Clone)]
pub struct VarianceMap {
    n: usize,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl VarianceMap {
    /// Accumulator for buffers of `len` elements.
    pub fn new(len: usize) -> VarianceMap {
        VarianceMap {
            n: 0,
            mean: vec![0.0; len],
            m2: vec![0.0; len],
        }
    }

    /// Fold in one output buffer (must match the configured length).
    pub fn update(&mut self, buf: &[f32]) {
        assert_eq!(buf.len(), self.mean.len(), "buffer length mismatch");
        self.n += 1;
        let n = self.n as f64;
        for ((&b, mean), m2) in buf.iter().zip(&mut self.mean).zip(&mut self.m2) {
            let x = b as f64;
            let delta = x - *mean;
            *mean += delta / n;
            *m2 += delta * (x - *mean);
        }
    }

    /// Number of buffers folded in.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Elementwise sample variance (unbiased); zeros if fewer than 2 runs.
    pub fn variance(&self) -> Vec<f64> {
        if self.n < 2 {
            return vec![0.0; self.m2.len()];
        }
        let denom = (self.n - 1) as f64;
        self.m2.iter().map(|&m| m / denom).collect()
    }

    /// Elementwise mean over runs.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Maximum variance across elements — the scalar repeatability check.
    /// NaN when any element's variance is NaN.
    pub fn max_variance(&self) -> f64 {
        self.variance().into_iter().fold(0.0, nan_max)
    }

    /// Variance map as a [`Heatmap`] of the given shape.
    pub fn heatmap(&self, rows: usize, cols: usize) -> Heatmap {
        Heatmap::new(rows, cols, self.variance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_buffers_have_zero_variance() {
        let mut v = VarianceMap::new(4);
        for _ in 0..5 {
            v.update(&[1.0, 2.0, 3.0, 4.0]);
        }
        assert_eq!(v.count(), 5);
        assert_eq!(v.max_variance(), 0.0);
        assert_eq!(v.mean()[2], 3.0);
    }

    #[test]
    fn variance_matches_closed_form() {
        let mut v = VarianceMap::new(1);
        for x in [1.0f32, 2.0, 3.0, 4.0, 5.0] {
            v.update(&[x]);
        }
        // sample variance of 1..5 is 2.5
        assert!((v.variance()[0] - 2.5).abs() < 1e-12);
        assert_eq!(v.max_variance(), v.variance()[0]);
    }

    #[test]
    fn a_nan_element_makes_max_variance_nan() {
        let mut v = VarianceMap::new(3);
        v.update(&[1.0, f32::NAN, 3.0]);
        v.update(&[1.0, 2.0, 5.0]);
        assert!(v.max_variance().is_nan());
    }

    #[test]
    fn single_run_reports_zero() {
        let mut v = VarianceMap::new(2);
        v.update(&[7.0, 8.0]);
        assert_eq!(v.variance(), vec![0.0, 0.0]);
    }

    #[test]
    fn heatmap_of_variance() {
        let mut v = VarianceMap::new(4);
        v.update(&[0.0, 0.0, 0.0, 0.0]);
        v.update(&[0.0, 0.0, 2.0, 0.0]);
        let h = v.heatmap(2, 2);
        assert!(h.get(1, 0) > 0.0);
        assert_eq!(h.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_length_panics() {
        let mut v = VarianceMap::new(2);
        v.update(&[1.0]);
    }
}
