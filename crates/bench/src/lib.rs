//! # deep500-bench — the one bench harness
//!
//! One binary, `deep500-bench <name>… | all`, over one table,
//! [`BENCHES`]: every entry measures a list of [`Row`]s, one [`Report`]
//! writes them to the tracked `BENCH_<name>.json` and evaluates the
//! entry's gates — functions of the rows, listed beside it — on what it
//! wrote, and the process exit code is non-zero iff some gate of some
//! report failed (see `DESIGN.md` §17 and `EXPERIMENTS.md`). Everything
//! is measured and reported through the three things in this library:
//!
//! * [`scale`] — the one environment switch, `D5_BENCH_SCALE`
//!   (`smoke` | default | `full`);
//! * [`time_rounds`] — the one timing loop: warm-up, then round-robin
//!   interleaved rounds over any number of [`Subject`]s, each sample
//!   summarized as median + nonparametric CI ([`Summary`], minimum kept as
//!   a field);
//! * [`Report`] — the one report writer: `benchmark`, `env`, `rows` and
//!   `gates`, rendered to `BENCH_<name>.json` (the row schema is
//!   `rows`'s).

use deep500::graph::Engine;
use deep500::metrics::stats::Summary;
use deep500::metrics::Timer;

pub mod bricks;
mod entries;
mod paper;
mod report;
mod rows;

use entries::{ablations, bricks as brick, conv, gemm, plan, profile, serve};
use paper::{
    fig10_frameworks as fig10, fig11_divergence as fig11, fig12_scaling as fig12,
    fig6_operators as fig6, fig7_microbatch as fig7, fig8_dataset_latency as fig8,
    fig9_optimizers as fig9, level2_overhead as level2, table3_decode as table3,
};
pub use report::{repo_path, report_dir, root_of, Report};
pub use rows::{Better, Gate, Row, Verdict};
use std::path::Path;
use std::process::ExitCode;

/// One bench: its name — the positional argument, and the `<name>` of the
/// `BENCH_<name>.json` it fills — the function that measures its rows,
/// and the gates evaluated on them, in report order.
pub struct Entry {
    pub name: &'static str,
    pub measure: fn() -> Vec<Row>,
    pub gates: &'static [Gate],
}

/// Every bench there is, in the order `all` runs them: kernels first,
/// then executor, whole-run and serving reports, then the paper's own
/// evaluation and this reproduction's ablations.
pub const BENCHES: &[Entry] = &[
    Entry {
        name: "gemm",
        measure: gemm::measure,
        gates: &[gemm::parity, gemm::packed_fastest],
    },
    Entry {
        name: "conv",
        measure: conv::measure,
        gates: &[
            conv::cells_timed,
            conv::forward_parity,
            conv::direct_beats_im2col,
            conv::direct_2x_wins,
            conv::backward_parity,
            conv::backward_over_forward,
        ],
    },
    Entry {
        name: "plan",
        measure: plan::measure,
        gates: &[
            plan::models_benchmarked,
            plan::parity_bitwise,
            plan::backprop_parity_bitwise,
            plan::pool_bound_below_peak,
            plan::compiled_not_slower,
            plan::small_levels_run_inline,
        ],
    },
    Entry {
        name: "bricks",
        measure: brick::measure,
        gates: &[
            brick::dedup_ratio,
            brick::geomean_rel_err,
            brick::zoo_size,
            brick::rows_measured,
        ],
    },
    Entry {
        name: "profile",
        measure: profile::measure,
        gates: &[
            profile::chrome_trace_validates,
            profile::attribution_coverage,
            profile::operators_attributed,
            profile::training_phases_traced,
            profile::sampling_wait_hidden,
            profile::sync_costs_less_than_a_step,
            profile::planned_dp2_step_beats_reference,
            profile::pass_breakdown_within_the_pass,
        ],
    },
    Entry {
        name: "serve",
        measure: serve::measure,
        gates: &[
            serve::cells_distinct,
            serve::all_requests_accounted,
            serve::percentiles_ordered,
            serve::throughput_positive,
            serve::dynamic_batching_coalesces,
            serve::dynamic_not_worse_than_single,
            serve::handoff_costs_less_than_two_passes,
        ],
    },
    Entry {
        name: "paper",
        measure: paper::measure,
        gates: &[
            fig6::deepbench_fastest,
            fig6::tensorflow_slowest,
            fig6::wrapped_matches_native,
            fig6::operators_within_paper_linf,
            fig7::microbatching_removes_the_oom,
            fig7::microbatching_slows_tensorflow,
            fig7::plans_are_remainder_then_equal_pieces,
            fig8::small_datasets_load_faster_than_synthesis,
            fig8::synthetic_beats_imagenet_decode,
            fig8::sharding_wins_only_at_scale,
            table3::turbo_beats_scalar,
            table3::record_pipeline_wins_at_minibatch,
            table3::record_barely_hurt_by_shuffling,
            table3::tar_pays_seeks_when_shuffled,
            fig9::optimizers_reach_comparable_accuracy,
            fig9::reference_matches_fused_accuracy,
            fig9::reference_slower_than_fused,
            fig10::frameworks_reach_comparable_accuracy,
            fig10::tensorflow_executor_slowest,
            fig10::reference_costs_no_less_than_native,
            fig11::one_step_is_faithful,
            fig11::divergence_grows_with_training,
            fig11::weights_diverge_faster_than_biases,
            fig12::cdsgd_far_ahead_of_ref_dsgd,
            fig12::decentralized_beats_centralized_at_scale,
            fig12::asgd_degrades_with_nodes,
            fig12::dpsgd_volume_constant,
            fig12::sparcml_densifies_with_nodes,
            fig12::tfps_crashes_and_horovod_diverges_at_256,
            level2::instrumentation_within_ci_of_bare,
        ],
    },
    Entry {
        name: "ablations",
        measure: ablations::measure,
        gates: &[
            ablations::ring_advantage_grows,
            ablations::displacement_grows_with_the_buffer,
            ablations::zero_drop_plans_inject_nothing,
            ablations::retries_absorb_moderate_drops,
            ablations::runs_finish_or_abort_together,
            ablations::crash_survivors_stay_consistent,
            ablations::drops_slow_every_scheme_and_only_the_ps_aborts,
        ],
    },
];

/// Run the entries of `table` that `names` selects (`all` = every one,
/// once, in table order), each into `dir/BENCH_<name>.json`. The exit code
/// is the OR over the reports: `FAILURE` iff some gate of some report
/// failed. A missing or unknown name runs nothing and exits 2.
pub fn run(table: &[Entry], names: &[String], dir: &Path) -> ExitCode {
    let selected: Option<Vec<&Entry>> = if names.iter().any(|n| n == "all") {
        Some(table.iter().collect())
    } else {
        let find = |n: &String| table.iter().find(|entry| entry.name == n);
        names.iter().map(find).collect()
    };
    let Some(selected) = selected.filter(|entries| !entries.is_empty()) else {
        let known: Vec<&str> = table.iter().map(|entry| entry.name).collect();
        eprintln!("usage: deep500-bench <name>... | all   (names: {known:?})");
        return ExitCode::from(2);
    };
    let mut red = Vec::new();
    for entry in selected {
        let started = std::time::Instant::now();
        let report = Report::new(entry.name, (entry.measure)());
        let path = dir.join(format!("BENCH_{}.json", entry.name));
        if report.finish(entry.gates, &path) != ExitCode::SUCCESS {
            red.push(entry.name);
        }
        eprintln!("{}: {:.1} s", entry.name, started.elapsed().as_secs_f64());
    }
    if red.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("reports with a failed gate: {red:?}");
        ExitCode::FAILURE
    }
}

/// An engine of `kind` over `net`: a network the harness built that does
/// not build is a bug in the harness.
pub fn engine(net: deep500::graph::Network, kind: deep500::graph::ExecutorKind) -> Engine {
    let built = Engine::builder(net).executor(kind).build();
    built.unwrap_or_else(|e| panic!("engine: {e}"))
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
    use rows::verdict_of;
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

    fn one_row() -> Vec<Row> {
        vec![Row::of("t").count("calls", Better::None, 1)]
    }

    fn holds(rows: &[Row]) -> Verdict {
        Verdict::new("holds", rows.len() == 1, "fine".to_string())
    }

    fn floor(_: &[Row]) -> Verdict {
        Verdict::new("floor", false, "0.4 < 0.5".to_string())
    }

    const fn stub(name: &'static str, gates: &'static [Gate]) -> Entry {
        Entry {
            name,
            measure: one_row,
            gates,
        }
    }

    const GREEN: &[Gate] = &[holds];
    const RED: &[Gate] = &[holds, floor];

    /// The repository root, where the tracked reports live.
    fn tracked_root() -> &'static Path {
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        crate_dir
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the root")
    }

    /// `(name, text)` of every `BENCH_*.json` at the repository root.
    fn tracked_reports() -> Vec<(String, String)> {
        let mut reports: Vec<(String, String)> = std::fs::read_dir(tracked_root())
            .expect("the root is readable")
            .filter_map(|entry| {
                let file = entry.ok()?.file_name().into_string().ok()?;
                let name = file
                    .strip_prefix("BENCH_")?
                    .strip_suffix(".json")?
                    .to_string();
                let text = std::fs::read_to_string(tracked_root().join(&file)).ok()?;
                Some((name, text))
            })
            .collect();
        reports.sort();
        reports
    }

    #[test]
    fn the_entries_are_unique_and_are_the_tracked_reports() {
        let mut names: Vec<&str> = BENCHES.iter().map(|entry| entry.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BENCHES.len(), "entry names are unique");
        let tracked: Vec<String> = tracked_reports()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(
            names, tracked,
            "one entry per BENCH_*.json at the root, and no other"
        );
        assert!(!names.contains(&"all"), "`all` is the driver's own word");
    }

    #[test]
    fn every_committed_report_keeps_the_one_schema() {
        for (name, text) in tracked_reports() {
            let report = Report::parse(&text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
            assert_eq!(report.benchmark, name);
            assert!(!report.rows.is_empty(), "BENCH_{name}.json has rows");
        }
    }

    #[test]
    fn every_gate_reproduces_its_verdict_from_the_committed_rows() {
        let mut gates = 0;
        for (name, text) in tracked_reports() {
            let report = Report::parse(&text).expect("the schema holds");
            let entry = BENCHES.iter().find(|e| e.name == name).expect("an entry");
            let verdicts: Vec<Verdict> = entry
                .gates
                .iter()
                .map(|&g| verdict_of(g, &report.rows))
                .collect();
            assert_eq!(verdicts, report.gates, "BENCH_{name}.json");
            gates += verdicts.len();
        }
        assert_eq!(gates, 70);
    }

    #[test]
    fn all_visits_each_entry_once_and_every_entry_writes_the_report_named_after_it() {
        let dir = scratch_dir("all");
        let table = [stub("stub_a", GREEN), stub("stub_b", GREEN)];
        assert_eq!(run(&table, &args(&["all"]), &dir), ExitCode::SUCCESS);
        let mut written: Vec<_> = std::fs::read_dir(&dir)
            .expect("reports were written")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        assert_eq!(written, ["BENCH_stub_a.json", "BENCH_stub_b.json"]);
        for name in ["stub_a", "stub_b"] {
            let text = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json"))).unwrap();
            let report = Report::parse(&text).expect("valid report");
            assert_eq!(report.benchmark, name);
            // `all` ran the entry exactly once: one row, one `holds` gate.
            assert_eq!((report.rows.len(), report.gates.len()), (1, 1));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_red_gate_in_any_one_entry_fails_the_whole_run() {
        let dir = scratch_dir("red");
        for table in [
            [stub("stub_a", RED), stub("stub_b", GREEN)],
            [stub("stub_a", GREEN), stub("stub_b", RED)],
        ] {
            assert_eq!(run(&table, &args(&["all"]), &dir), ExitCode::FAILURE);
            // The entry after a red one still ran and wrote its report.
            assert!(dir.join("BENCH_stub_b.json").exists());
            std::fs::remove_file(dir.join("BENCH_stub_b.json")).unwrap();
        }
        // Named runs report only what they ran.
        let table = [stub("stub_a", RED), stub("stub_b", GREEN)];
        assert_eq!(run(&table, &args(&["stub_b"]), &dir), ExitCode::SUCCESS);
        assert_eq!(
            run(&table, &args(&["stub_b", "stub_a"]), &dir),
            ExitCode::FAILURE
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_or_unknown_name_runs_nothing() {
        let dir = scratch_dir("usage");
        let table = [stub("stub_a", GREEN)];
        assert_eq!(run(&table, &[], &dir), ExitCode::from(2));
        assert_eq!(
            run(&table, &args(&["stub_a", "nope"]), &dir),
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
