//! # deep500-bench — the one bench harness
//!
//! Each `benches/figN_*.rs` target regenerates one table or figure of the
//! paper's evaluation and each `src/bin/*.rs` writes one tracked
//! `BENCH_<name>.json` (see `DESIGN.md` §17 and `EXPERIMENTS.md`). All of
//! them measure and report through the three things in this library:
//!
//! * [`scale`] — the one environment switch, `D5_BENCH_SCALE`
//!   (`smoke` | default | `full`);
//! * [`time_rounds`] — the one timing loop: warm-up, then round-robin
//!   interleaved rounds over any number of [`Subject`]s, each sample
//!   summarized as median + nonparametric CI ([`Summary`], minimum kept as
//!   a field);
//! * [`Report`] — the one report writer: fields, row tables and named
//!   gates, rendered to `BENCH_<name>.json` with a non-zero exit code when
//!   a gate failed.

use deep500::metrics::stats::Summary;
use deep500::metrics::Timer;

pub mod bricks;
mod report;

pub use report::{repo_path, Report};

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: every code path, few repetitions, long sweeps skipped.
    Smoke,
    /// Reduced problem sizes that finish in minutes on one core.
    Default,
    /// Paper-scale problem sizes and the paper's 30 re-runs.
    Full,
}

impl Scale {
    /// The value as `D5_BENCH_SCALE` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }
}

/// Read `D5_BENCH_SCALE` — the bench layer's only environment switch.
pub fn scale() -> Scale {
    match std::env::var("D5_BENCH_SCALE").as_deref() {
        Ok("smoke") => Scale::Smoke,
        Ok("full") => Scale::Full,
        _ => Scale::Default,
    }
}

/// Measured rounds per subject: the paper's 30 at full scale, 7 otherwise
/// (still enough for a nonparametric CI), 5 under smoke.
pub fn reruns() -> usize {
    match scale() {
        Scale::Smoke => 5,
        Scale::Default => 7,
        Scale::Full => 30,
    }
}

/// One closure under measurement: each call returns that round's `N`
/// samples, in seconds.
pub struct Subject<'a, const N: usize>(Box<dyn FnMut() -> [f64; N] + 'a>);

impl<'a> Subject<'a, 1> {
    /// The wall time of each call to `f`.
    pub fn wall<T>(mut f: impl FnMut() -> T + 'a) -> Self {
        Subject(Box::new(move || {
            [Timer::time(|| std::hint::black_box(f())).1]
        }))
    }
}

impl<'a, const N: usize> Subject<'a, N> {
    /// A subject that measures itself: `f` returns operator-span or phase
    /// deltas read off a recorder.
    pub fn spans(f: impl FnMut() -> [f64; N] + 'a) -> Self {
        Subject(Box::new(f))
    }
}

/// The one timing loop. Every subject is called `warmup + rounds` times in
/// round-robin order — subject 0, 1, …, n-1, then again — so slow
/// machine-level drift (a frequency excursion, a noisy neighbour) lands on
/// one round of every subject rather than on every round of one. The first
/// `warmup` rounds are discarded. Returns, per subject, one [`Summary`] per
/// sample it returns.
pub fn time_rounds<const N: usize>(
    warmup: usize,
    rounds: usize,
    subjects: &mut [Subject<N>],
) -> Vec<[Summary; N]> {
    let mut samples: Vec<[Vec<f64>; N]> = subjects
        .iter()
        .map(|_| std::array::from_fn(|_| Vec::new()))
        .collect();
    for round in 0..warmup + rounds.max(1) {
        for (subject, channels) in subjects.iter_mut().zip(&mut samples) {
            let sample = (subject.0)();
            if round >= warmup {
                for (channel, v) in channels.iter_mut().zip(sample) {
                    channel.push(v);
                }
            }
        }
    }
    samples
        .iter()
        .map(|channels| std::array::from_fn(|c| Summary::of(&channels[c])))
        .collect()
}

/// Wall-time summary of one closure: one warm-up call, then `reruns()`
/// measured ones.
pub fn measure<T>(f: impl FnMut() -> T) -> Summary {
    time_rounds(1, reruns(), &mut [Subject::wall(f)])[0][0]
}

/// Format a summary as `median [lo, hi] ms`.
pub fn fmt_ms(s: &Summary) -> String {
    format!(
        "{:8.2} [{:6.2}, {:6.2}]",
        s.median * 1e3,
        s.median_ci.lo * 1e3,
        s.median_ci.hi * 1e3
    )
}

/// Print the standard bench banner.
pub fn banner(figure: &str, what: &str) {
    println!("================================================================");
    println!("Deep500-rs — {figure}");
    println!("{what}");
    println!(
        "scale: {} (D5_BENCH_SCALE=smoke|full) | reruns: {}",
        scale().label(),
        reruns()
    );
    println!("================================================================\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn every_subject_runs_warmup_plus_rounds_times_in_round_robin_order() {
        let log = RefCell::new(Vec::new());
        let mut subjects: Vec<Subject<2>> = (0..3)
            .map(|i| {
                let log = &log;
                Subject::spans(move || {
                    log.borrow_mut().push(i);
                    [i as f64, log.borrow().len() as f64]
                })
            })
            .collect();
        let (warmup, rounds) = (2, 5);
        let out = time_rounds(warmup, rounds, &mut subjects);
        drop(subjects);

        let expect: Vec<usize> = (0..warmup + rounds).flat_map(|_| 0..3).collect();
        assert_eq!(log.into_inner(), expect);
        assert_eq!(out.len(), 3);
        for (i, [own, calls]) in out.iter().enumerate() {
            assert_eq!((own.n, calls.n), (rounds, rounds));
            assert_eq!(own.median, i as f64);
            // Warm-up rounds are not sampled: the first kept call is
            // number `warmup * 3 + i + 1` overall.
            assert_eq!(calls.min, (warmup * 3 + i + 1) as f64);
        }
    }

    #[test]
    fn wall_subjects_time_the_call() {
        let nap = std::time::Duration::from_millis(2);
        let mut subjects = [
            Subject::wall(|| ()),
            Subject::wall(|| std::thread::sleep(nap)),
        ];
        let out = time_rounds(0, 3, &mut subjects);
        assert!(out[1][0].min >= 2e-3 && out[0][0].min < out[1][0].min);
    }

    #[test]
    fn measure_returns_sane_summary() {
        let mut calls = 0;
        let s = measure(|| {
            calls += 1;
            (0..1000u64).sum::<u64>()
        });
        assert_eq!(calls, 1 + reruns());
        assert_eq!(s.n, reruns());
        assert!(s.median_ci.lo <= s.median && s.median <= s.median_ci.hi);
    }

    #[test]
    fn fmt_ms_shape() {
        let s = Summary::of(&[0.001, 0.002, 0.003]);
        let t = fmt_ms(&s);
        assert!(t.contains('['));
    }
}
