//! 2-D heatmaps "to highlight regions of interest" (paper §III-E).
//!
//! A [`Heatmap`] is built from a flat buffer interpreted as `rows x cols`
//! and summarizes as a [`MetricValue::Matrix`]; it can be mean-pooled
//! down for display.

use crate::{MetricValue, TestMetric};

/// A dense row-major 2-D map of `f64` intensities.
#[derive(Debug, Clone)]
pub struct Heatmap {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Heatmap {
    /// Build from row-major data; `data.len()` must equal `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Heatmap {
        assert_eq!(data.len(), rows * cols, "heatmap data/shape mismatch");
        Heatmap { rows, cols, data }
    }

    /// Absolute elementwise difference map of two buffers — the paper's
    /// error-localization heatmap.
    pub fn abs_diff(rows: usize, cols: usize, a: &[f32], b: &[f32]) -> Heatmap {
        assert_eq!(a.len(), b.len());
        let data = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .collect();
        Heatmap::new(rows, cols, data)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }
    pub fn cols(&self) -> usize {
        self.cols
    }
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Value at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Minimum and maximum intensity.
    pub fn range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Mean-pool down to at most `max_rows x max_cols` for display.
    pub fn downsample(&self, max_rows: usize, max_cols: usize) -> Heatmap {
        assert!(max_rows > 0 && max_cols > 0);
        let out_r = self.rows.min(max_rows);
        let out_c = self.cols.min(max_cols);
        let mut out = vec![0.0; out_r * out_c];
        let mut counts = vec![0usize; out_r * out_c];
        for r in 0..self.rows {
            let tr = r * out_r / self.rows;
            for c in 0..self.cols {
                let tc = c * out_c / self.cols;
                out[tr * out_c + tc] += self.get(r, c);
                counts[tr * out_c + tc] += 1;
            }
        }
        for (v, &n) in out.iter_mut().zip(&counts) {
            if n > 0 {
                *v /= n as f64;
            }
        }
        Heatmap::new(out_r, out_c, out)
    }
}

impl TestMetric for Heatmap {
    fn name(&self) -> &str {
        "heatmap"
    }
    fn observe(&mut self, _value: f64) {
        // Heatmaps are built from full buffers, not scalar observations.
    }
    fn summarize(&self) -> MetricValue {
        MetricValue::Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }
    fn reset(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let h = Heatmap::new(2, 3, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(h.get(1, 2), 5.0);
        assert_eq!(h.range(), (0.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_shape_panics() {
        Heatmap::new(2, 2, vec![1.0]);
    }

    #[test]
    fn abs_diff_localizes_errors() {
        let a = [0.0f32, 0.0, 0.0, 0.0];
        let b = [0.0f32, 0.0, 9.0, 0.0];
        let h = Heatmap::abs_diff(2, 2, &a, &b);
        assert_eq!(h.get(1, 0), 9.0);
        assert_eq!(h.get(0, 0), 0.0);
    }

    #[test]
    fn downsample_preserves_mean() {
        let h = Heatmap::new(4, 4, vec![1.0; 16]);
        let d = h.downsample(2, 2);
        assert_eq!(d.rows(), 2);
        assert_eq!(d.cols(), 2);
        assert!(d.data().iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }
}
