//! `spine` — the one end-to-end + per-layer benchmark every later
//! performance claim in this repository is measured with.
//!
//! ```text
//! spine --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! spine aa [--seed <u64>] [--seconds <n>]   # same build twice, against the bounds
//! spine manifest                            # print BENCHMARK.json
//! spine golden                              # print golden_seed1.json
//! ```
//!
//! A run prints every metric of its mode by name with its unit, checks the
//! outputs, and ends with one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones
//! (tracing off); with `--trace 1` the per-layer ones, plus a Chrome trace
//! under `$CARGO_TARGET_DIR/spine/`. See `README.md` next to `Cargo.toml`.

mod awake;
mod consts;
mod dist;
mod loadgen;
mod model;
mod oracle;
mod probes;
mod report;
mod serve;
mod span;
mod stats;
mod train;

use loadgen::Tally;
use report::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use span::{Trace, Track};
use std::process::{Command, ExitCode};

/// Seconds one run measures; `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;

/// The four workloads and, in one line each, why they are here.
const WORKLOAD_TABLE: [(&str, &str); 4] = [
    (
        "serve-small-closed",
        "A microsecond-scale MLP pass behind the server, 2 closed-loop clients: serve \
         admission/wake-up and graph per-pass dispatch are almost all of the time, kernels the \
         minority",
    ),
    (
        "serve-conv-open",
        "ResNet-like convs under seeded Poisson arrivals (open loop) with dynamic batching: \
         ops::conv does most of the work, and queueing, batching and the plan cache are exercised",
    ),
    (
        "train-cnn",
        "TrainingRunner over LeNet with Adam on the pooled wavefront executor: backward kernels, \
         weights that change every step (memo invalidation), data, optimizer and buffer pool",
    ),
    (
        "dist-mlp-dp2",
        "Two-rank CDSGD over the thread transport on the reference executor: gradient exchange \
         and rank sync are a large share of each step, small-model backward dispatch the rest",
    ),
];

/// The workload names.
pub fn workloads() -> impl Iterator<Item = &'static str> {
    WORKLOAD_TABLE.iter().map(|(name, _)| *name)
}

/// The metrics of these names are exact counts: two runs of one build must
/// agree on them to the last digit.
const EXACT_COUNTS: [&str; 4] = [
    "dist.bytes_per_step",
    "dist.msgs_per_step",
    "ops.flops_per_pass",
    "graph.rewrites",
];

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Checks that are not per-operation (rank consistency, enough steps).
    pub checks_ok: bool,
    /// Values compared with `golden_seed1.json` when `--seed 1`.
    pub golden: Vec<f32>,
    pub tracks: Vec<Track>,
    pub notes: Vec<String>,
}

pub fn manifest() -> String {
    report::manifest(RUN_SECONDS, &WORKLOAD_TABLE)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "serve-small-closed" => serve::run_small(args),
        "serve-conv-open" => serve::run_conv(args),
        "train-cnn" => train::run(args),
        "dist-mlp-dp2" => dist::run(args),
        _ => return None,
    })
}

/// Where traced runs leave their Chrome trace.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("spine")
        .join(format!("{workload}.trace.json"))
}

/// The levels a served request passes through, outermost first.
const SERVE_CHAIN: [&str; 5] = [
    "client.request",
    "serve.total",
    "serve.run",
    "graph.infer",
    "ops.kernels",
];
/// The levels of a training step (the `dist.*` and solo levels exist on
/// `dist-mlp-dp2` only).
const TRAIN_CHAIN: [&str; 7] = [
    "dist.step",
    "dist.train_step",
    "spine.solo_step",
    "train.step",
    "train.train_step",
    "graph.backprop",
    "ops.kernels_fwd_bwd",
];

/// Mean duration of each level of the workload's chain, with the part of
/// each level its successor does not account for.
fn print_waterfall(trace: &Trace) {
    let times = trace.layer_times();
    let chain: &[&str] = if times.contains_key("graph.backprop") {
        &TRAIN_CHAIN
    } else {
        &SERVE_CHAIN
    };
    let mean_us = |name: &str| {
        times
            .get(name)
            .filter(|l| l.calls > 0)
            .map(|l| l.total_ns as f64 / l.calls as f64 / 1e3)
    };
    println!("waterfall (mean us per call; residual = level minus the next):");
    let levels: Vec<(&str, f64)> = chain
        .iter()
        .filter_map(|&n| mean_us(n).map(|v| (n, v)))
        .collect();
    for (i, (name, v)) in levels.iter().enumerate() {
        match levels.get(i + 1) {
            Some((_, next)) => println!("  {name:<24} {v:>11.2}   residual {:>10.2}", v - next),
            None => println!("  {name:<24} {v:>11.2}"),
        }
    }
}

fn print_human(workload: &str, values: &[(&'static MetricDef, f64)], outcome: &Outcome) {
    println!("== spine: {workload} ==");
    for note in &outcome.notes {
        println!("{note}");
    }
    for (d, v) in values {
        println!("  {:<34} {:>16.4} {}", d.name, v, d.unit);
    }
}

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run_command(args: &[String]) -> Result<(), String> {
    let workload = arg_value(args, "--workload").ok_or("missing --workload <name>")?;
    let parse = |flag: &str, default: &str| -> Result<f64, String> {
        arg_value(args, flag)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = arg_value(args, "--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = parse("--seconds", &RUN_SECONDS.to_string())?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let run = RunArgs {
        seed,
        seconds,
        trace: parse("--trace", "0")? != 0.0,
    };
    let outcome = run_workload(workload, &run).ok_or_else(|| {
        format!(
            "unknown workload '{workload}'; one of {}",
            workloads().collect::<Vec<_>>().join(", ")
        )
    })?;

    let defs = if run.trace { PER_LAYER } else { END_TO_END };
    let values = outcome.metrics.complete(defs);
    print_human(workload, &values, &outcome);
    if run.trace {
        let trace = Trace {
            tracks: outcome.tracks,
        };
        println!("layer self time (span minus the part its children cover):");
        for (name, l) in trace.layer_times() {
            println!(
                "  {name:<24} calls {:>8}  total {:>12.3} ms  self {:>12.3} ms",
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
        print_waterfall(&trace);
        let path = trace_path(workload);
        let json = trace.chrome_json();
        deep500::metrics::trace::validate_chrome_trace(&json)
            .map_err(|e| format!("trace does not validate: {e}"))?;
        std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
            .and_then(|()| std::fs::write(&path, json))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: {} spans -> {}", trace.span_count(), path.display());
    }

    let golden_ok = oracle::golden_matches(workload, run.seed, &outcome.golden);
    if !golden_ok {
        println!("golden values differ: got {:?}", outcome.golden);
    }
    if let Some((d, v)) = values
        .iter()
        .find(|(_, v)| !v.is_finite() || (!run.trace && *v <= 0.0))
    {
        return Err(format!("metric {} has the unusable value {v}", d.name));
    }
    let correct = outcome.tally.bad() == 0 && outcome.checks_ok && golden_ok;
    println!(
        "failed_share {} ({} failed + {} rejected + {} incorrect of {} attempted)",
        outcome.tally.failed_share(),
        outcome.tally.failed,
        outcome.tally.rejected,
        outcome.tally.incorrect,
        outcome.tally.attempted
    );
    println!(
        "{}",
        report::result_line(
            correct,
            outcome.tally.attempted.max(1),
            outcome.tally.bad(),
            &values
        )
    );
    Ok(())
}

/// The value of metric `name` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Run this binary once more and return its result line.
fn child_result(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success()
        || !line.contains("\"correct\": true")
        || !line.contains("\"failed\": 0,")
    {
        return Err(format!(
            "{workload} seed {seed} trace {trace}: run failed or incorrect: {line}\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(line)
}

/// A/A: every workload twice on this build; each end-to-end metric's change
/// next to its bound, and the exact counts compared digit for digit.
fn aa_command(args: &[String]) -> Result<(), String> {
    let seed = arg_value(args, "--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| e.to_string())?;
    let seconds = arg_value(args, "--seconds")
        .map_or(Ok(RUN_SECONDS), str::parse)
        .map_err(|e| e.to_string())?;
    let mut exceeded = Vec::new();
    for workload in workloads() {
        let a = child_result(workload, seed, seconds, false)?;
        let b = child_result(workload, seed, seconds, false)?;
        println!("{workload} (seed {seed}, {seconds} s):");
        for d in END_TO_END {
            let (va, vb) = (
                metric_in(&a, d.name).ok_or("metric missing")?,
                metric_in(&b, d.name).ok_or("metric missing")?,
            );
            let change = stats::worsening(va, vb, d.better);
            let over = stats::exceeds_bound(va, vb, d.better, d.bound);
            println!(
                "  {:<18} {:>14.4} -> {:>14.4} {:<4} worse by {:>+7.2} %  (bound {:>5.1} %){}",
                d.name,
                va,
                vb,
                d.unit,
                100.0 * change,
                100.0 * d.bound,
                if over { "  EXCEEDED" } else { "" }
            );
            if over {
                exceeded.push(format!("{workload}/{}", d.name));
            }
        }
        let ta = child_result(workload, seed, seconds, true)?;
        let tb = child_result(workload, seed, seconds, true)?;
        for name in EXACT_COUNTS {
            let (va, vb) = (metric_in(&ta, name), metric_in(&tb, name));
            println!("  {name:<18} {va:?} == {vb:?}");
            if va != vb {
                exceeded.push(format!("{workload}/{name} (exact count differs)"));
            }
        }
    }
    if exceeded.is_empty() {
        println!("aa: every end-to-end metric within its bound, exact counts identical");
        Ok(())
    } else {
        Err(format!("aa: out of bounds: {}", exceeded.join(", ")))
    }
}

/// Recompute the golden values (reference tier only; no timing).
fn golden_command() -> Result<(), String> {
    let args = RunArgs {
        seed: oracle::GOLDEN_SEED,
        seconds: 1.0,
        trace: false,
    };
    let rows: Vec<String> = workloads()
        .map(|w| {
            let outcome = run_workload(w, &args).expect("known workload");
            oracle::golden_line(w, &outcome.golden)
        })
        .collect();
    println!("{{\n{}\n}}", rows.join(",\n"));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("aa") => aa_command(&args),
        Some("manifest") => {
            print!("{}", manifest());
            Ok(())
        }
        Some("golden") => golden_command(),
        _ => run_command(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        m.set("latency_p50_ms", 1.25e-3);
        let line = report::result_line(true, 10, 0, &m.complete(END_TO_END));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(&line, "latency_p50_ms"), Some(0.00125));
        assert_eq!(metric_in(&line, "no_such_metric"), None);
    }

    #[test]
    fn workload_whys_fit_the_manifest() {
        for (name, why) in WORKLOAD_TABLE {
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}"
            );
        }
        assert!(EXACT_COUNTS
            .iter()
            .all(|n| PER_LAYER.iter().any(|d| d.name == *n)));
    }
}
