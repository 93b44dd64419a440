//! # deep500-bench — the one bench harness
//!
//! One binary, `deep500-bench <name>… | all`, over one table,
//! [`BENCHES`]: every entry fills one [`Report`] that is written to the
//! tracked `BENCH_<name>.json`, and the process exit code is non-zero iff
//! some gate of some report failed (see `DESIGN.md` §17 and
//! `EXPERIMENTS.md`). Everything is measured and reported through the
//! three things in this library:
//!
//! * [`scale`] — the one environment switch, `D5_BENCH_SCALE`
//!   (`smoke` | default | `full`);
//! * [`time_rounds`] — the one timing loop: warm-up, then round-robin
//!   interleaved rounds over any number of [`Subject`]s, each sample
//!   summarized as median + nonparametric CI ([`Summary`], minimum kept as
//!   a field);
//! * [`Report`] — the one report writer: fields, row tables and named
//!   gates, rendered to `BENCH_<name>.json`.

use deep500::metrics::stats::Summary;
use deep500::metrics::Timer;

pub mod bricks;
mod entries;
mod paper;
mod report;
mod rows;

pub use report::{repo_path, report_dir, Report};
use std::path::Path;
use std::process::ExitCode;

/// One bench: its name — the positional argument, and the `<name>` of the
/// `BENCH_<name>.json` it fills — and the function that fills the report.
pub type Entry = (&'static str, fn(&mut Report));

/// Every bench there is, in the order `all` runs them: kernels first,
/// then executor, whole-run and serving reports, then the paper's own
/// evaluation and this reproduction's ablations.
pub const BENCHES: &[Entry] = &[
    ("gemm", entries::gemm::run),
    ("conv", entries::conv::run),
    ("plan", entries::plan::run),
    ("bricks", entries::bricks::run),
    ("profile", entries::profile::run),
    ("serve", entries::serve::run),
    ("paper", paper::run),
    ("ablations", entries::ablations::run),
];

/// Run the entries of `table` that `names` selects (`all` = every one,
/// once, in table order), each into `dir/BENCH_<name>.json`. The exit code
/// is the OR over the reports: `FAILURE` iff some gate of some report
/// failed. A missing or unknown name runs nothing and exits 2.
pub fn run(table: &[Entry], names: &[String], dir: &Path) -> ExitCode {
    let selected: Option<Vec<&Entry>> = if names.iter().any(|n| n == "all") {
        Some(table.iter().collect())
    } else {
        let find = |n: &String| table.iter().find(|(name, _)| name == n);
        names.iter().map(find).collect()
    };
    let Some(selected) = selected.filter(|entries| !entries.is_empty()) else {
        let known: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: deep500-bench <name>... | all   (names: {known:?})");
        return ExitCode::from(2);
    };
    let mut red = Vec::new();
    for (name, fill) in selected {
        let started = std::time::Instant::now();
        let mut report = Report::at(dir.join(format!("BENCH_{name}.json")), name);
        fill(&mut report);
        if report.finish() != ExitCode::SUCCESS {
            red.push(*name);
        }
        eprintln!("{name}: {:.1} s", started.elapsed().as_secs_f64());
    }
    if red.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("reports with a failed gate: {red:?}");
        ExitCode::FAILURE
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: every code path and every gate, fewer repetitions.
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
/// round-robin order, so slow machine-level drift (a frequency excursion, a
/// noisy neighbour) lands on one round of every subject rather than on
/// every round of one. Round `r` starts at subject `r % n` — r, r+1, …,
/// n-1, 0, …, r-1 — so over `n` rounds each subject runs once in each
/// position, and running first (or last) in a round is no subject's
/// standing advantage. The first `warmup` rounds are discarded.
/// Returns, per subject, one [`Summary`] per sample it returns.
pub fn time_rounds<const N: usize>(
    warmup: usize,
    rounds: usize,
    subjects: &mut [Subject<N>],
) -> Vec<[Summary; N]> {
    let mut samples: Vec<[Vec<f64>; N]> = subjects
        .iter()
        .map(|_| std::array::from_fn(|_| Vec::new()))
        .collect();
    let n = subjects.len();
    for round in 0..warmup + rounds.max(1) {
        for i in (round..round + n).map(|i| i % n) {
            let sample = (subjects[i].0)();
            let channels = &mut samples[i];
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
        let (warmup, rounds) = (2, 6);
        let out = time_rounds(warmup, rounds, &mut subjects);
        drop(subjects);

        // Round `r` starts at subject `r % 3` and wraps around.
        let log = log.into_inner();
        let expect: Vec<usize> = (0..warmup + rounds)
            .flat_map(|r| (r..r + 3).map(|i| i % 3))
            .collect();
        assert_eq!(log, expect);
        // Over the measured rounds each subject holds each position equally
        // often.
        let mut positions = [[0usize; 3]; 3];
        for (k, &i) in log[warmup * 3..].iter().enumerate() {
            positions[i][k % 3] += 1;
        }
        assert_eq!(positions, [[rounds / 3; 3]; 3]);
        assert_eq!(out.len(), 3);
        for (i, [own, calls]) in out.iter().enumerate() {
            assert_eq!((own.n, calls.n), (rounds, rounds));
            assert_eq!(own.median, i as f64);
            // Warm-up rounds are not sampled: the first kept call is in
            // round `warmup`, which starts at subject `warmup % 3`.
            let first = warmup * 3 + (i + 3 - warmup % 3) % 3 + 1;
            assert_eq!(calls.min, first as f64);
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("d5_bench_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    fn green(report: &mut Report) {
        report.gate("holds", true, "fine");
    }

    fn red(report: &mut Report) {
        report
            .gate("holds", true, "fine")
            .gate("floor", false, "0.4 < 0.5");
    }

    #[test]
    fn bench_names_are_unique_and_paper_and_the_six_trajectories_are_registered() {
        let mut names: Vec<&str> = BENCHES.iter().map(|(name, _)| *name).collect();
        for tracked in [
            "bricks", "conv", "gemm", "paper", "plan", "profile", "serve",
        ] {
            assert!(names.contains(&tracked), "{tracked} is not an entry");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BENCHES.len());
        assert!(!names.contains(&"all"), "`all` is the driver's own word");
    }

    #[test]
    fn all_visits_each_entry_once_and_every_entry_writes_the_report_named_after_it() {
        let dir = scratch_dir("all");
        let table: &[Entry] = &[("stub_a", green), ("stub_b", green)];
        assert_eq!(run(table, &args(&["all"]), &dir), ExitCode::SUCCESS);
        let mut written: Vec<_> = std::fs::read_dir(&dir)
            .expect("reports were written")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        assert_eq!(written, ["BENCH_stub_a.json", "BENCH_stub_b.json"]);
        for name in ["stub_a", "stub_b"] {
            let text = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json"))).unwrap();
            let report = deep500::metrics::Json::parse(&text).expect("valid JSON");
            let benchmark = report.get("benchmark").and_then(|b| b.as_str());
            assert_eq!(benchmark, Some(name));
            // `all` ran the entry exactly once: one `holds` gate.
            assert_eq!(
                report
                    .get("gates")
                    .and_then(|g| g.as_array())
                    .unwrap()
                    .len(),
                1
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_red_gate_in_any_one_entry_fails_the_whole_run() {
        let dir = scratch_dir("red");
        for table in [
            &[("stub_a", red as fn(&mut Report)), ("stub_b", green)],
            &[("stub_a", green as fn(&mut Report)), ("stub_b", red)],
        ] {
            assert_eq!(run(table, &args(&["all"]), &dir), ExitCode::FAILURE);
            // The entry after a red one still ran and wrote its report.
            assert!(dir.join("BENCH_stub_b.json").exists());
            std::fs::remove_file(dir.join("BENCH_stub_b.json")).unwrap();
        }
        // Named runs report only what they ran.
        let table: &[Entry] = &[("stub_a", red), ("stub_b", green)];
        assert_eq!(run(table, &args(&["stub_b"]), &dir), ExitCode::SUCCESS);
        assert_eq!(
            run(table, &args(&["stub_b", "stub_a"]), &dir),
            ExitCode::FAILURE
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_or_unknown_name_runs_nothing() {
        let dir = scratch_dir("usage");
        let table: &[Entry] = &[("stub_a", green)];
        assert_eq!(run(table, &[], &dir), ExitCode::from(2));
        assert_eq!(
            run(table, &args(&["stub_a", "nope"]), &dir),
            ExitCode::from(2)
        );
        assert!(!dir.exists(), "nothing was written");
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
}
