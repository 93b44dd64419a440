//! Accuracy metrics based on vector norms.
//!
//! Deep500 validates correctness "in the form of ℓ1, ℓ2, ℓ∞ norms" of the
//! difference between a candidate output and a reference output (§III-E).
//! These functions operate on flat `f32` slices — the canonical tensor
//! storage — and compute in `f64` for stable accumulation.
//!
//! A NaN anywhere in either operand makes every norm NaN, so a NaN output
//! never passes a `<= tol` check; equal elements (matching infinities
//! included) differ by exactly `0`.

/// The larger of `a` and `b`, NaN when either is NaN. `f64::max` returns
/// the other operand instead, so a fold over it drops NaN.
pub fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// `|x - y|` in `f64`: `0` when `x == y` (so `inf` against `inf` agrees),
/// NaN when either is NaN.
pub fn abs_diff(x: f32, y: f32) -> f64 {
    if x == y {
        0.0
    } else {
        (x as f64 - y as f64).abs()
    }
}

/// ℓ1 norm of `a - b` (sum of absolute differences).
fn l1_diff(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "norm operands must match in length");
    a.iter().zip(b).map(|(&x, &y)| abs_diff(x, y)).sum()
}

/// ℓ2 norm of `a - b` (Euclidean distance).
pub fn l2_diff(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "norm operands must match in length");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = abs_diff(x, y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// ℓ∞ norm of `a - b` (maximum absolute difference) — the statistic the
/// paper reports for framework-vs-reference operator correctness (≈7e-4).
pub fn linf_diff(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "norm operands must match in length");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| abs_diff(x, y))
        .fold(0.0, nan_max)
}

/// ℓ2 norm of a single vector.
pub fn l2(a: &[f32]) -> f64 {
    a.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt()
}

/// All three difference norms at once, as reported by `test_forward`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffNorms {
    pub l1: f64,
    pub l2: f64,
    pub linf: f64,
}

impl DiffNorms {
    /// Compute all norms of `a - b`.
    pub fn of(a: &[f32], b: &[f32]) -> DiffNorms {
        DiffNorms {
            l1: l1_diff(a, b),
            l2: l2_diff(a, b),
            linf: linf_diff(a, b),
        }
    }

    /// True if `linf <= tol` — the pass criterion used by validation.
    pub fn within(&self, tol: f64) -> bool {
        self.linf <= tol
    }
}

impl std::fmt::Display for DiffNorms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "l1={:.3e} l2={:.3e} linf={:.3e}",
            self.l1, self.l2, self.linf
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_zero_norms() {
        let a = [1.0f32, -2.0, 3.0];
        let d = DiffNorms::of(&a, &a);
        assert_eq!((d.l1, d.l2, d.linf), (0.0, 0.0, 0.0));
        assert!(d.within(0.0));
    }

    #[test]
    fn known_values() {
        let a = [0.0f32, 0.0, 0.0];
        let b = [3.0f32, -4.0, 0.0];
        assert_eq!(l1_diff(&a, &b), 7.0);
        assert_eq!(l2_diff(&a, &b), 5.0);
        assert_eq!(linf_diff(&a, &b), 4.0);
        assert_eq!(l2(&b), 5.0);
    }

    #[test]
    fn a_nan_makes_every_norm_nan_and_fails_within() {
        for (a, b) in [
            ([f32::NAN, 1.0], [0.0f32, 1.0]),
            ([0.0, 1.0], [0.0, f32::NAN]),
            ([f32::NAN, f32::NAN], [f32::NAN, f32::NAN]),
        ] {
            let d = DiffNorms::of(&a, &b);
            assert!(d.l1.is_nan() && d.l2.is_nan() && d.linf.is_nan(), "{d}");
            assert!(!d.within(f64::INFINITY), "{d}");
        }
    }

    #[test]
    fn matching_infinities_agree_and_mismatched_ones_do_not() {
        let inf = [f32::INFINITY, f32::NEG_INFINITY, 2.0];
        let d = DiffNorms::of(&inf, &inf);
        assert_eq!((d.l1, d.l2, d.linf), (0.0, 0.0, 0.0));
        assert!(d.within(0.0));
        let d = DiffNorms::of(&[f32::INFINITY], &[1.0]);
        assert_eq!(d.linf, f64::INFINITY);
        assert!(!d.within(1e30));
    }

    #[test]
    fn nan_max_propagates_from_either_side() {
        assert!(nan_max(f64::NAN, 1.0).is_nan());
        assert!(nan_max(1.0, f64::NAN).is_nan());
        assert!([0.5, f64::NAN, 2.0].into_iter().fold(0.0, nan_max).is_nan());
        assert_eq!(nan_max(-1.0, 3.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn length_mismatch_panics() {
        l1_diff(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn display_renders() {
        let d = DiffNorms {
            l1: 1.0,
            l2: 2.0,
            linf: 3.0,
        };
        let s = format!("{d}");
        assert!(s.contains("linf=3.000e0"));
    }
}
