//! `serve` — load-generation benchmark for the deep500-serve front-end.
//!
//! Drives the mlp and lenet zoo models behind the serving layer with both
//! load-generator shapes at two batching policies each:
//!
//! * closed loop — C clients, one request in flight each: the
//!   latency-vs-concurrency probe;
//! * open loop — Poisson arrivals at a fixed offered rate (seeded, so
//!   reproducible): exposes queueing delay and typed `QueueFull`
//!   back-pressure.
//!
//! Writes `BENCH_serve.json` with p50/p95/p99 latency, throughput,
//! rejection counts, mean assembled batch size and why the shard closed
//! each batch (`fired`: full / quiet / deadline / closed) per (model,
//! loadgen, policy) cell; gates: every request accounted for, latency percentiles
//! ordered, and dynamic batching coalesces under the closed-loop burst.
//!
//! Run with: `cargo run --release -p deep500-bench -- serve`
//! (`D5_BENCH_SCALE=smoke` for the fast CI-sized run).

use crate::{scale, Report, Scale};
use deep500::graph::models::{zoo, ZooCase};
use deep500::metrics::Json;
use deep500::prelude::*;
use deep500::serve::{closed_loop, open_loop, LoadSummary, ShardStats};
use std::time::Duration;

struct Cell {
    model: &'static str,
    loadgen: &'static str,
    policy_label: String,
    summary: LoadSummary,
    stats: ShardStats,
}

/// The zoo models served: the microsecond MLP and the conv-bound CNN.
const MODELS: [&str; 2] = ["mlp_small", "lenet"];

fn build_server(model: &ZooCase, policy: BatchPolicy, workers: usize) -> Server {
    let config = ModelConfig::new(model.net.clone_structure())
        .executor(ExecutorKind::Planned)
        .policy(policy)
        .workers(workers)
        .queue_capacity(256)
        .batched_input("x", &model.x.dims()[1..])
        .batched_input("labels", &[]);
    Server::builder()
        .model(model.name, config)
        .build()
        .expect("server build")
}

pub fn run(report: &mut Report) {
    let (clients, per_client, open_total, open_rate) = if scale() == Scale::Smoke {
        (4, 16, 96, 300.0)
    } else {
        (8, 64, 512, 600.0)
    };
    let policies = [
        BatchPolicy::Single,
        BatchPolicy::Dynamic {
            max_batch: 16,
            max_delay: Duration::from_millis(2),
        },
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for model in zoo().iter().filter(|case| MODELS.contains(&case.name)) {
        // One request is one row: request `i` feeds the case's seed-`i` row.
        let model = model.at_batch(1);
        let feeds_fn = |i: usize| model.feeds(i as u64);
        for policy in policies {
            for loadgen in ["closed", "open"] {
                // A fresh server per cell: no warm queues carried over.
                let server = build_server(&model, policy, 2);
                let summary = if loadgen == "closed" {
                    closed_loop(&server, model.name, clients, per_client, feeds_fn)
                } else {
                    open_loop(&server, model.name, open_rate, open_total, 0xD5, feeds_fn)
                };
                let stats = server.stats(model.name).expect("model registered");
                server.shutdown();
                cells.push(Cell {
                    model: model.name,
                    loadgen,
                    policy_label: policy.label(),
                    summary,
                    stats,
                });
            }
        }
    }

    let rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            let s = &c.summary;
            Json::obj([
                ("model", Json::from(c.model)),
                ("loadgen", Json::from(c.loadgen)),
                ("policy", Json::from(c.policy_label.as_str())),
                ("sent", Json::from(s.sent)),
                ("completed", Json::from(s.completed)),
                ("rejected", Json::from(s.rejected)),
                ("failed", Json::from(s.failed)),
                ("duration_s", Json::fixed(s.duration_s, 4)),
                ("throughput_rps", Json::fixed(s.throughput_rps, 2)),
                ("p50_ms", Json::fixed(s.p50_ms, 4)),
                ("p95_ms", Json::fixed(s.p95_ms, 4)),
                ("p99_ms", Json::fixed(s.p99_ms, 4)),
                ("mean_batch_rows", Json::fixed(s.mean_batch_rows, 3)),
                (
                    "fired",
                    Json::obj([
                        ("full", Json::from(c.stats.fired_full)),
                        ("quiet", Json::from(c.stats.fired_quiet)),
                        ("deadline", Json::from(c.stats.fired_deadline)),
                        ("closed", Json::from(c.stats.fired_closed)),
                    ]),
                ),
            ])
        })
        .collect();

    // One gate per criterion; the detail names the cells that miss it.
    let label = |c: &Cell| format!("{} {} {}", c.model, c.loadgen, c.policy_label);
    let failing = |holds: &dyn Fn(&LoadSummary) -> bool| -> Vec<String> {
        let missing = cells.iter().filter(|c| !holds(&c.summary));
        missing.map(label).collect()
    };
    let lost = failing(&|s| s.failed == 0 && s.completed + s.rejected == s.sent);
    let unordered = failing(&|s| s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
    let idle = failing(&|s| s.throughput_rps > 0.0);
    let expected_cells = MODELS.len() * policies.len() * 2;
    let distinct: std::collections::HashSet<String> = cells.iter().map(label).collect();
    let coalesced = cells.iter().any(|c| {
        c.loadgen == "closed"
            && c.policy_label.starts_with("dynamic")
            && c.summary.mean_batch_rows > 1.0
    });
    report
        .field("clients", clients)
        .field("open_rate_rps", open_rate)
        .rows("cases", rows)
        .gate(
            "cells",
            distinct.len() == expected_cells,
            format!(
                "{} distinct (model, loadgen, policy) cells of {expected_cells}",
                distinct.len()
            ),
        )
        .gate(
            "all_requests_accounted",
            lost.is_empty(),
            format!("failed == 0 and completed + rejected == sent; failing: {lost:?}"),
        )
        .gate(
            "percentiles_ordered",
            unordered.is_empty(),
            format!("p50 <= p95 <= p99; failing: {unordered:?}"),
        )
        .gate(
            "throughput_positive",
            idle.is_empty(),
            format!("failing: {idle:?}"),
        )
        .gate(
            "dynamic_batching_coalesces",
            coalesced,
            "mean batch rows > 1 on a closed-loop dynamic cell",
        );
}
