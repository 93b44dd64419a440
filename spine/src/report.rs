//! The metric vocabulary: every name the spine may print, its unit, which
//! direction is better and (for end-to-end metrics) the regression bound.
//! `BENCHMARK.json` is generated from these tables (`spine manifest`).

use crate::stats::Better::{self, Higher, Lower};
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees; measured with tracing off, defined on
/// every workload. "Operation" is a request on the serve workloads and a
/// training step on `train-cnn` / `dist-mlp-dp2`; throughput counts
/// requests/s and (global) samples/s respectively.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Single-layer numbers from the traced run; reported, never gated. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // serve
    layer("serve.queue_p50_us", "us", Lower),
    layer("serve.queue_p99_us", "us", Lower),
    layer("serve.run_p50_us", "us", Lower),
    layer("serve.overhead_p50_us", "us", Lower),
    layer("serve.client_overhead_p50_us", "us", Lower),
    layer("serve.mean_batch_rows", "rows", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.backlog_end", "count", Lower),
    layer("serve.rate_r1_p99_ms", "ms", Lower),
    layer("serve.rate_r2_p99_ms", "ms", Lower),
    layer("serve.rate_r3_p99_ms", "ms", Lower),
    layer("serve.rate_r4_p99_ms", "ms", Lower),
    layer("serve.slo_rate_rps", "1/s", Higher),
    layer("serve.gen_lateness_p99_us", "us", Lower),
    // graph + verify: set-up
    layer("graph.decode_s", "s", Lower),
    layer("verify.gate_s", "s", Lower),
    layer("verify.plan_gate_s", "s", Lower),
    layer("verify.lints", "count", Lower),
    layer("graph.engine_build_s", "s", Lower),
    layer("graph.compile_s", "s", Lower),
    layer("graph.rewrites", "count", Higher),
    layer("graph.filters_packed", "count", Higher),
    // graph: passes
    layer("graph.infer_p50_us", "us", Lower),
    layer("graph.backprop_p50_us", "us", Lower),
    layer("graph.compiled_infer_p50_us", "us", Lower),
    layer("graph.dispatch_per_node_us", "us", Lower),
    layer("ops.kernel_share", "ratio", Higher),
    layer("graph.plan_cache_hits", "count", Higher),
    layer("graph.plan_cache_misses", "count", Lower),
    layer("graph.plan_bytes", "bytes", Lower),
    layer("graph.peak_memory_bytes", "bytes", Lower),
    // ops: raw kernels on the model's own shapes, and the machine roofline
    layer("ops.conv_fwd_us", "us", Lower),
    layer("ops.conv_bwd_us", "us", Lower),
    layer("ops.gemm_us", "us", Lower),
    layer("ops.gemv_us", "us", Lower),
    layer("ops.flops_per_pass", "flop", Lower),
    layer("ops.bytes_per_pass", "bytes", Lower),
    layer("ops.conv_gflops", "GFLOP/s", Higher),
    layer("ops.gemm_gflops", "GFLOP/s", Higher),
    layer("ops.peak_fma_gflops", "GFLOP/s", Higher),
    layer("ops.stream_gbs", "GB/s", Higher),
    layer("ops.conv_pct_peak", "%", Higher),
    layer("ops.gemm_pct_peak", "%", Higher),
    // tensor, data, train
    layer("tensor.pool_hit_ratio", "ratio", Higher),
    layer("tensor.pool_held_bytes", "bytes", Lower),
    layer("data.batch_fetch_p50_us", "us", Lower),
    layer("data.wait_share", "ratio", Lower),
    layer("train.fwd_us", "us", Lower),
    layer("train.bwd_us", "us", Lower),
    layer("train.opt_update_us", "us", Lower),
    layer("train.runner_overhead_share", "ratio", Lower),
    // dist
    layer("dist.bytes_per_step", "bytes", Lower),
    layer("dist.msgs_per_step", "count", Lower),
    layer("dist.allreduce_us", "us", Lower),
    layer("dist.comm_share", "ratio", Lower),
    layer("dist.rank_skew_us", "us", Lower),
    // cost of observing
    layer("metrics.recorder_overhead_share", "ratio", Lower),
    layer("spine.trace_overhead_share", "ratio", Lower),
    // the traced run's own view of the end-to-end figures
    layer("spine.traced_throughput_per_s", "1/s", Higher),
    layer("spine.traced_latency_p50_ms", "ms", Lower),
    layer("spine.latency_samples", "count", Higher),
    layer("spine.tail_percentile", "%", Higher),
];

/// Metric values of one run, by registered name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Value for every metric of `defs`, 0 where the run set none.
    pub fn complete(&self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        defs.iter()
            .map(|d| (d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}

/// The result line the driver parses: one JSON object, every metric of
/// `defs` present, values printed with all their digits.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&'static MetricDef, f64)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn better_str(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// `BENCHMARK.json`, generated so it cannot drift from the tables above.
pub fn manifest(run_seconds: u64, workloads: &[(&str, &str)]) -> String {
    let w: Vec<String> = workloads
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better_str(d.better),
                d.bound
            )
        })
        .collect();
    let l: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better_str(d.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"spine/Cargo.toml\", \"--\"],\n  \"paths\": [\"spine\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        w.join(",\n"),
        e.join(",\n"),
        l.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn vocabulary_obeys_the_manifest_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "names are used once");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "set-up time carries the largest bound"
        );
    }

    #[test]
    fn result_line_carries_every_metric_and_unset_ones_read_zero() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        let line = result_line(true, 1000, 0, &m.complete(END_TO_END));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(line.contains("\"latency_p99_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, crate::manifest());
    }
}
