//! Robust statistics for benchmark summaries.
//!
//! The paper's evaluation methodology runs each non-distributed experiment
//! 30 times and reports medians with nonparametric 95% confidence intervals.
//! This module implements exactly those estimators. The CI of the median uses
//! order statistics: for a sample of size `n`, the interval
//! `[x_(l), x_(u)]` covers the true median with ≥95% probability where `l`
//! and `u` are chosen from the binomial(n, 0.5) distribution.

/// A two-sided confidence interval `[lo, hi]` with its nominal level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    pub lo: f64,
    pub hi: f64,
    /// Achieved coverage level (≥ the requested one), e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether `v` lies inside the interval (inclusive).
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Whether two intervals overlap — the paper's criterion for declaring
    /// two runtime distributions statistically indistinguishable.
    pub fn overlaps(&self, other: &ConfidenceInterval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// Summary statistics over a sample: the quantities used by the paper's
/// violin/box plots (median, quartiles, min/max) plus mean and stddev.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
    pub mean: f64,
    pub stddev: f64,
    /// Nonparametric 95% CI of the median (degenerate for tiny samples).
    pub median_ci: ConfidenceInterval,
}

impl Summary {
    /// Compute a summary of `data`. Panics on an empty sample; use
    /// [`Summary::try_of`] for a typed path.
    pub fn of(data: &[f64]) -> Summary {
        Summary::try_of(data).expect("Summary::of requires a non-empty sample")
    }

    /// Compute a summary of `data`, or `None` for an empty sample — the
    /// typed alternative to [`Summary::of`]'s panic, so callers handle
    /// "no measurements" explicitly instead of leaking NaN into reports.
    pub fn try_of(data: &[f64]) -> Option<Summary> {
        if data.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Some(Summary {
            n,
            min: sorted[0],
            p25: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.5),
            p75: percentile_sorted(&sorted, 0.75),
            max: sorted[n - 1],
            mean,
            stddev: var.sqrt(),
            median_ci: median_ci_sorted(&sorted, 0.95),
        })
    }

    /// One-line rendering like `median 1.234 [1.1, 1.4] (n=30)`.
    pub fn render(&self) -> String {
        format!(
            "median {:.6} [{:.6}, {:.6}] (n={})",
            self.median, self.median_ci.lo, self.median_ci.hi, self.n
        )
    }
}

/// Median of a (possibly unsorted) sample. Panics on empty input.
pub fn median(data: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    percentile_sorted(&sorted, 0.5)
}

/// Linear-interpolation percentile of a **sorted** sample, `q` in `[0, 1]`.
/// Panics on an empty sample or out-of-range `q`; use
/// [`try_percentile_sorted`] for a typed path.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    try_percentile_sorted(sorted, q).expect("percentile of empty sample or q outside [0, 1]")
}

/// Linear-interpolation percentile of a **sorted** sample, or `None` for an
/// empty sample or `q` outside `[0, 1]`.
pub fn try_percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Percentile of an unsorted sample.
pub fn percentile(data: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    percentile_sorted(&sorted, q)
}

/// Nonparametric CI of the median from order statistics of a **sorted**
/// sample. For `n < 6` no nontrivial 95% interval exists, so the full range
/// is returned with its actual (lower) coverage.
pub fn median_ci_sorted(sorted: &[f64], level: f64) -> ConfidenceInterval {
    let n = sorted.len();
    assert!(n >= 1);
    if n < 6 {
        // P(min <= med <= max) = 1 - 2 * 0.5^n
        let coverage = 1.0 - 2.0 * 0.5_f64.powi(n as i32);
        return ConfidenceInterval {
            lo: sorted[0],
            hi: sorted[n - 1],
            level: coverage.max(0.0),
        };
    }
    // Find the largest k such that P(Binom(n,1/2) < k) <= (1-level)/2;
    // the interval [x_(k+1), x_(n-k)] (1-indexed) then has coverage
    // >= level. Uses an exact binomial CDF in log space for stability.
    let alpha = (1.0 - level) / 2.0;
    let mut k = 0usize;
    let mut cdf = binom_pmf(n, 0); // P(X = 0)
                                   // k counts how many order statistics we may discard from each side.
    while k + 1 < n / 2 {
        let next = cdf + binom_pmf(n, k + 1);
        if next > alpha {
            break;
        }
        cdf = next;
        k += 1;
    }
    let coverage = 1.0 - 2.0 * cdf;
    ConfidenceInterval {
        lo: sorted[k],         // x_(k+1) in 1-indexed notation
        hi: sorted[n - 1 - k], // x_(n-k)
        level: coverage,
    }
}

/// Binomial(n, 1/2) probability mass at `k`, computed in log space.
fn binom_pmf(n: usize, k: usize) -> f64 {
    (ln_choose(n, k) - n as f64 * std::f64::consts::LN_2).exp()
}

/// `ln(n choose k)` via log-gamma (Stirling/Lanczos-free: product form,
/// exact enough for the small n used in benchmarking).
fn ln_choose(n: usize, k: usize) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert!((percentile(&s, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_fields_consistent() {
        let data: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let s = Summary::of(&data);
        assert_eq!(s.n, 30);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 30.0);
        assert!((s.median - 15.5).abs() < 1e-12);
        assert!((s.mean - 15.5).abs() < 1e-12);
        assert!(s.p25 < s.median && s.median < s.p75);
        assert!(s.median_ci.contains(s.median));
        assert!(s.median_ci.level >= 0.95);
    }

    #[test]
    fn ci_for_n30_matches_order_statistics() {
        // For n=30 the standard nonparametric 95% CI is [x_(10), x_(21)]
        // (1-indexed), coverage ~0.957.
        let data: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let ci = median_ci_sorted(&data, 0.95);
        assert_eq!(ci.lo, 10.0);
        assert_eq!(ci.hi, 21.0);
        assert!(ci.level > 0.95 && ci.level < 0.97);
    }

    #[test]
    fn tiny_samples_fall_back_to_range() {
        let ci = median_ci_sorted(&[1.0, 2.0, 3.0], 0.95);
        assert_eq!((ci.lo, ci.hi), (1.0, 3.0));
        assert!(ci.level < 0.95);
    }

    #[test]
    fn ci_overlap() {
        let a = ConfidenceInterval {
            lo: 1.0,
            hi: 2.0,
            level: 0.95,
        };
        let b = ConfidenceInterval {
            lo: 1.5,
            hi: 3.0,
            level: 0.95,
        };
        let c = ConfidenceInterval {
            lo: 2.5,
            hi: 3.0,
            level: 0.95,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn ln_choose_symmetry() {
        assert!((ln_choose(10, 3) - ln_choose(10, 7)).abs() < 1e-9);
        assert!((ln_choose(5, 0)).abs() < 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn binom_pmf_sums_to_one() {
        let total: f64 = (0..=20).map(|k| binom_pmf(20, k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
