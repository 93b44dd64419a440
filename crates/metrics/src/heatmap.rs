//! 2-D heatmaps "to highlight regions of interest" (paper §III-E).
//!
//! A [`Heatmap`] is built from a flat buffer interpreted as `rows x cols`
//! and read back through its dimensions, data and intensity range.

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
}
