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
//!   interleaved rounds over any number of [`Subject`]s, summarized as
//!   median + nonparametric CI ([`Summary`], minimum kept as a field);
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
        self.pick("smoke", "default", "full")
    }

    /// Select by scale.
    pub fn pick<T>(self, smoke: T, default: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Full => full,
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

/// Whether paper-scale problem sizes were asked for.
pub fn full_scale() -> bool {
    scale() == Scale::Full
}

/// Measured rounds per subject: the paper's 30 at full scale, 7 otherwise
/// (still enough for a nonparametric CI), 5 under smoke.
pub fn reruns() -> usize {
    scale().pick(5, 7, 30)
}

/// The loop's stopwatch, handed to every subject call. A subject that
/// wraps bookkeeping around its measured work (reading span totals before
/// and after a pass) times just the work with [`Lap::time`]; otherwise the
/// whole call counts.
#[derive(Default)]
pub struct Lap(Option<f64>);

impl Lap {
    /// Run `f` on the clock.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, seconds) = Timer::time(f);
        self.0 = Some(self.0.unwrap_or(0.0) + seconds);
        out
    }
}

/// One closure under measurement. The loop takes the wall time of every
/// call; a subject that measures itself (operator-span or phase deltas
/// read off a recorder) returns those seconds as further channels.
pub struct Subject<'a>(Box<SubjectFn<'a>>);
type SubjectFn<'a> = dyn FnMut(&mut Lap) -> Vec<f64> + 'a;

impl<'a> Subject<'a> {
    /// Wall time only.
    pub fn wall<T>(mut f: impl FnMut() -> T + 'a) -> Self {
        Subject(Box::new(move |_| {
            std::hint::black_box(f());
            Vec::new()
        }))
    }

    /// Wall time plus the samples `f` returns, one channel per element
    /// (the same number on every call).
    pub fn spans(f: impl FnMut(&mut Lap) -> Vec<f64> + 'a) -> Self {
        Subject(Box::new(f))
    }
}

/// The one timing loop. Every subject is called `warmup + rounds` times in
/// round-robin order — subject 0, 1, …, n-1, then again — so slow
/// machine-level drift (a frequency excursion, a noisy neighbour) lands on
/// one round of every subject rather than on every round of one. The first
/// `warmup` rounds are discarded. Returns, per subject, one [`Summary`]
/// per channel: channel 0 is the call's wall time, channels 1.. are what
/// the subject returned.
pub fn time_rounds(warmup: usize, rounds: usize, subjects: &mut [Subject]) -> Vec<Vec<Summary>> {
    let mut samples: Vec<Vec<Vec<f64>>> = vec![Vec::new(); subjects.len()];
    for round in 0..warmup + rounds.max(1) {
        for (subject, channels) in subjects.iter_mut().zip(&mut samples) {
            let mut lap = Lap::default();
            let (own, whole_call) = Timer::time(|| (subject.0)(&mut lap));
            if round < warmup {
                continue;
            }
            let wall = lap.0.unwrap_or(whole_call);
            channels.resize(1 + own.len(), Vec::new());
            for (channel, v) in channels.iter_mut().zip(std::iter::once(wall).chain(own)) {
                channel.push(v);
            }
        }
    }
    samples
        .iter()
        .map(|channels| channels.iter().map(|s| Summary::of(s)).collect())
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
        let mut subjects: Vec<Subject> = (0..3)
            .map(|i| {
                let log = &log;
                Subject::spans(move |lap| {
                    log.borrow_mut().push(i);
                    // Only the lap counts as wall time, not the sleep.
                    lap.time(|| ());
                    std::thread::sleep(std::time::Duration::from_millis(i as u64));
                    vec![i as f64]
                })
            })
            .collect();
        let (warmup, rounds) = (2, 5);
        let out = time_rounds(warmup, rounds, &mut subjects);
        drop(subjects);

        let expect: Vec<usize> = (0..warmup + rounds).flat_map(|_| 0..3).collect();
        assert_eq!(log.into_inner(), expect);
        assert_eq!(out.len(), 3);
        for (i, channels) in out.iter().enumerate() {
            assert_eq!(channels.len(), 2, "wall + one own channel");
            for s in channels {
                assert_eq!(s.n, rounds, "warm-up rounds are not sampled");
                assert!(s.min <= s.median && s.median <= s.max);
            }
            assert!(channels[0].max < 1e-3, "wall is the lap, not the call");
            assert_eq!(channels[1].median, i as f64);
        }
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
