//! Order statistics and the regression-bound arithmetic.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_SAMPLES`] samples beyond it, so a "p99" is never one
//! or two outliers of a short run: with fewer than 1 000 samples the tail
//! percentile is lowered (and the lowered figure is what gets printed).

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A sorted sample set.
pub struct Sorted(Vec<f64>);

/// The tail of a distribution as far out as the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at `percentile`.
    pub value: f64,
    /// The percentile actually reported (≤ the one asked for).
    pub percentile: f64,
}

impl Sorted {
    /// Sort `values` (which must be finite).
    pub fn new(mut values: Vec<f64>) -> Sorted {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Sorted(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank value with `floor(n · percent / 100)` samples below it;
    /// 0.0 for an empty set (callers gate on [`Sorted::len`]).
    pub fn percentile(&self, percent: usize) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n => self.0[(n * percent / 100).min(n - 1)],
        }
    }

    pub fn median(&self) -> f64 {
        self.percentile(50)
    }

    /// The percentile `wanted` (0–100) if at least [`TAIL_SAMPLES`] samples
    /// lie beyond it, else the highest percentile for which they do. With
    /// `n ≤ TAIL_SAMPLES` samples the tail degenerates to the minimum's
    /// rank, i.e. there is no supported tail and percentile 0 is reported.
    pub fn tail(&self, wanted: usize) -> Tail {
        let n = self.0.len();
        if n == 0 {
            return Tail {
                value: 0.0,
                percentile: 0.0,
            };
        }
        let wanted_idx = n * wanted / 100;
        let idx = wanted_idx.min(n.saturating_sub(TAIL_SAMPLES + 1));
        Tail {
            value: self.0[idx],
            percentile: if idx == wanted_idx {
                wanted as f64
            } else {
                100.0 * idx as f64 / n as f64
            },
        }
    }
}

/// Median of an unsorted slice (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Sorted::new(values.to_vec()).median()
}

/// The value at the *quiet quartile* of repeated measurements of one
/// quantity: the first quartile of durations, the third of rates.
///
/// Interference on this host only ever makes a measurement worse (see
/// [`Windowed`]), so — like the minimum of repeated timings, but less
/// extreme — the quiet quartile estimates what the program does when left
/// alone. It does not move unless more than three quarters of the repeats
/// are disturbed, while anything the program itself does to ≥ 1 % of its
/// operations shows in every repeat and moves it.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    Sorted::new(values.to_vec()).percentile(match better {
        Better::Lower => 25,
        Better::Higher => 75,
    })
}

/// One run summarised session by session.
///
/// Every workload keeps both cores of this two-core VM busy with more
/// threads than cores. Two things then decide how fast the next seconds go
/// that have nothing to do with the program: how the guest scheduler happens
/// to place the threads (on `serve-small-closed` one placement lasts
/// 10–30 s and differs by ±15 % from the next, so a 20 s run on one set of
/// threads measures one placement), and bursts of steal time in which a
/// neighbour holds a core (a minute with 10 % steal halves throughput). So
/// the timed region is cut into *sessions*, each on freshly spawned threads
/// that re-roll the placement; every figure is computed inside each session
/// and the [`quiet_quartile`] over the sessions is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Operations (× weight) per second of session.
    pub rate: f64,
    /// The session's median latency.
    pub p50: f64,
    /// The session's tail latency ([`Sorted::tail`]).
    pub tail: f64,
    /// The lowest percentile any session's tail had to be lowered to.
    pub tail_percentile: f64,
    /// Samples in all sessions together.
    pub samples: usize,
    pub sessions: usize,
}

/// Summarise `(session seconds, latencies in the session)` pairs; `weight`
/// is what one operation counts for in the rate (1 request, 32 samples).
pub fn windowed(windows: Vec<(f64, Vec<f64>)>, weight: f64) -> Windowed {
    let samples = windows.iter().map(|(_, w)| w.len()).sum();
    let count = windows.len();
    let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let mut tail_percentile = 99.0f64;
    for (seconds, latencies) in windows {
        rates.push(latencies.len() as f64 * weight / seconds);
        let sorted = Sorted::new(latencies);
        let tail = sorted.tail(99);
        p50s.push(sorted.median());
        tails.push(tail.value);
        tail_percentile = tail_percentile.min(tail.percentile);
    }
    Windowed {
        rate: quiet_quartile(&rates, Better::Higher),
        p50: quiet_quartile(&p50s, Better::Lower),
        tail: quiet_quartile(&tails, Better::Lower),
        tail_percentile,
        samples,
        sessions: count,
    }
}

/// Which direction of change is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// By what share of `base` did `new` get worse (negative = got better)?
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// True when `new` is worse than `base` by more than `bound` (a share of
/// `base`).
pub fn exceeds_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) > bound
}

/// `(failed + rejected + incorrect) / attempted`: a refused or wrong reply
/// misses every latency limit, so all three count the same.
pub fn failed_share(attempted: u64, failed: u64, rejected: u64, incorrect: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    (failed + rejected + incorrect) as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sorted {
        Sorted::new((0..n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond_it() {
        let s = ramp(2000);
        let t = s.tail(99);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(s.len() - 1 - 1980, 19, "19 samples beyond");
    }

    #[test]
    fn p99_is_lowered_when_the_sample_is_too_small() {
        let s = ramp(512);
        let t = s.tail(99);
        // index 501 leaves exactly ten samples (502..=511) beyond it.
        assert_eq!(t.value, 501.0);
        assert!((t.percentile - 100.0 * 501.0 / 512.0).abs() < 1e-12);
        assert!(t.percentile < 99.0);
    }

    #[test]
    fn exactly_enough_samples_keeps_the_wanted_percentile() {
        // n = 1100: p99 index 1089, samples beyond = 10.
        let t = ramp(1100).tail(99);
        assert_eq!((t.value, t.percentile), (1089.0, 99.0));
    }

    #[test]
    fn tiny_and_empty_sets_do_not_panic() {
        assert_eq!(ramp(0).tail(99).value, 0.0);
        assert_eq!(ramp(0).median(), 0.0);
        let t = ramp(5).tail(99);
        assert_eq!((t.value, t.percentile), (0.0, 0.0));
        assert_eq!(ramp(1).median(), 0.0);
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn quiet_quartile_takes_the_good_side() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quiet_quartile(&v, Better::Lower), 3.0);
        assert_eq!(quiet_quartile(&v, Better::Higher), 7.0);
        assert_eq!(quiet_quartile(&[], Better::Lower), 0.0);
    }

    #[test]
    fn session_figures_ignore_a_disturbed_majority_of_sessions() {
        // Eight 1 s sessions of 2000 operations at 1 ms; in five of them a
        // burst halves the rate and triples every latency.
        let quiet = || (1.0, vec![1.0; 2000]);
        let disturbed = || (1.0, vec![3.0; 1000]);
        let mut sessions: Vec<_> = (0..5).map(|_| disturbed()).collect();
        sessions.extend((0..3).map(|_| quiet()));
        let w = windowed(sessions, 32.0);
        assert_eq!((w.rate, w.p50, w.tail), (64_000.0, 1.0, 1.0));
        // (The 1000-sample sessions can only support p98.9.)
        assert_eq!(
            (w.samples, w.sessions, w.tail_percentile),
            (11_000, 8, 98.9)
        );
        // What the program does in every session does move the figures.
        let w = windowed((0..8).map(|_| disturbed()).collect(), 32.0);
        assert_eq!((w.rate, w.p50, w.tail), (32_000.0, 3.0, 3.0));
        // A session too small for p99 lowers the reported percentile.
        let w = windowed(vec![(1.0, (0..200).map(f64::from).collect())], 1.0);
        assert_eq!((w.tail, w.tail_percentile), (189.0, 94.5));
    }

    #[test]
    fn bound_arithmetic_respects_direction() {
        // Latency 10 → 10.9 is +9 %: inside a 10 % bound, outside 5 %.
        assert!(!exceeds_bound(10.0, 10.9, Better::Lower, 0.10));
        assert!(exceeds_bound(10.0, 10.9, Better::Lower, 0.05));
        // Throughput 100 → 94 is −6 %.
        assert!(exceeds_bound(100.0, 94.0, Better::Higher, 0.05));
        assert!(!exceeds_bound(100.0, 94.0, Better::Higher, 0.07));
        // Improvements never trip a bound.
        assert!(!exceeds_bound(10.0, 5.0, Better::Lower, 0.0));
        assert!(!exceeds_bound(100.0, 200.0, Better::Higher, 0.0));
        assert!((worsening(100.0, 94.0, Better::Higher) - 0.06).abs() < 1e-12);
    }

    #[test]
    fn failed_share_counts_refused_and_incorrect_alike() {
        assert_eq!(failed_share(100, 0, 0, 0), 0.0);
        assert_eq!(failed_share(100, 1, 2, 3), 0.06);
        assert_eq!(failed_share(0, 0, 0, 0), 0.0);
    }
}
