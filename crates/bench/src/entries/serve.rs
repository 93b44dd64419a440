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
//! each batch (`fired`: full / quiet) per (model, loadgen, policy) cell;
//! gates: every request accounted for, latency percentiles ordered, dynamic
//! batching coalesces under the closed-loop burst, and closed-loop dynamic
//! throughput is not worse than single's on any model.
//!
//! A second table, `handoff`, prices the serving layer itself: one client's
//! `Server::infer` against the solo `Session::infer` of the same feed, and
//! the gate `handoff_costs_less_than_two_passes` on the two.
//!
//! Run with: `cargo run --release -p deep500-bench -- serve`
//! (`D5_BENCH_SCALE=smoke` for the fast CI-sized run).

use crate::rows::{claims, num, select, text, unless, Timing, Verdict};
use crate::{scale, time_rounds, Report, Scale, Subject};
use deep500::graph::models::{feed_refs, zoo, ZooCase};
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

/// Handing a request to a worker and its reply back costs less than two
/// passes of the model: one client's request (CI upper bound) is under
/// three solo passes (CI lower bound). Two wake-ups of a parked thread
/// cost that much on their own on a virtualised host (EXPERIMENTS E32).
pub fn handoff_costs_less_than_two_passes(rows: &[Json]) -> Verdict {
    let costly = rows.iter().filter_map(|row| {
        let (request, pass) = (
            Timing::read(row, "request_ms"),
            Timing::read(row, "pass_ms"),
        );
        (request.hi >= 3.0 * pass.lo).then(|| {
            format!(
                "request [{:.4}, {:.4}] ms vs a pass of [{:.4}, {:.4}] ms",
                request.lo, request.hi, pass.lo, pass.hi
            )
        })
    });
    unless(
        "handoff_costs_less_than_two_passes",
        "a one-client request (CI upper bound) costs less than three solo passes of its model \
         (CI lower bound)",
        costly.collect(),
    )
}

/// ROADMAP item 9's headline: a closed-loop `dynamic` cell serves at
/// least 0.9 × the throughput of the `single` cell of its model. The
/// detail names the cells that miss it.
pub fn dynamic_not_worse_than_single(rows: &[Json]) -> Verdict {
    let closed: Vec<&Json> = select(rows, "loadgen", "closed").collect();
    let dynamic = closed
        .iter()
        .filter(|r| text(r, "policy").starts_with("dynamic"));
    let slower = dynamic.filter_map(|cell| {
        let (model, policy) = (text(cell, "model"), text(cell, "policy"));
        let single = closed
            .iter()
            .find(|r| text(r, "model") == model && text(r, "policy") == "single")?;
        let (d, s) = (num(cell, "throughput_rps"), num(single, "throughput_rps"));
        (d < 0.9 * s).then(|| format!("{model} closed {policy}: {d:.0} rps vs single {s:.0} rps"))
    });
    unless(
        "dynamic_not_worse_than_single",
        "closed-loop dynamic throughput >= 0.9 x single's on every model",
        slower.collect(),
    )
}

/// Pin the calling thread to `cpu`; false where the host refuses (a
/// single vCPU, another OS). Threads it spawns afterwards inherit the pin.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16]; // a `cpu_set_t`: 1 024 CPUs
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call, which reads `size_of_val(&mask)`
    // bytes of it and changes only the calling thread's affinity (pid 0).
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) -> bool {
    false
}

/// `mlp_small` at batch 1: one closed-loop client's `Server::infer` under
/// `single` with two workers, and `Session::infer` of the same feed on an
/// engine of the same tier. One subject per `time_rounds`: a worker that
/// parked while the other subject ran would be woken at every switch.
///
/// The workers run on vCPU 0 and the client on vCPU 1, as the spine's
/// threads usually sit. Left to this host's scheduler, which places a
/// thread only when it starts or wakes and never rebalances, all of them
/// stay on the vCPU of the thread that made them, and a hand-off is a
/// context switch instead of a wake-up of another vCPU (E32). `pinned`
/// says whether the host let the row choose.
fn handoff_row(model: &ZooCase) -> Json {
    let calls = if scale() == Scale::Smoke {
        2_000
    } else {
        20_000
    };
    let feeds = model.feeds(0);
    let refs = feed_refs(&feeds);
    // Start the kernel pool unpinned: a pool first touched from a pinned
    // thread would inherit the pin and size itself to one vCPU.
    rayon::current_num_threads();
    let (workers_pinned, server) = on_cpu(0, || build_server(model, BatchPolicy::Single, 2));
    let (client_pinned, request) = on_cpu(1, || {
        let served = Subject::wall(|| server.infer(model.name, &refs).expect("request"));
        let [request] = time_rounds(calls / 8, calls, &mut [served])[0];
        request
    });
    server.shutdown();
    // Now and then one engine instance runs this pass ~50 % slower than
    // the others (E32): the fastest of three is the model's pass.
    let solo = || {
        on_cpu(0, || {
            let engine = Engine::builder(model.net.clone_structure())
                .executor(ExecutorKind::Planned)
                .build()
                .expect("solo engine");
            let session = engine.session();
            let solo = Subject::wall(|| session.infer(&refs).expect("solo pass"));
            let [pass] = time_rounds(calls / 8, calls, &mut [solo])[0];
            pass
        })
        .1
    };
    let pass = [solo(), solo(), solo()]
        .into_iter()
        .min_by(|a, b| a.median.total_cmp(&b.median))
        .expect("three engines");
    Json::obj([
        ("model", Json::from(model.name)),
        ("policy", Json::from(BatchPolicy::Single.label().as_str())),
        ("workers", Json::from(2usize)),
        ("clients", Json::from(1usize)),
        ("pinned", Json::from(workers_pinned && client_pinned)),
        ("request_ms", Timing::of(&request).json()),
        ("pass_ms", Timing::of(&pass).json()),
    ])
}

/// `f` on a thread of its own pinned to `cpu`, and whether the pin held.
fn on_cpu<T: Send>(cpu: usize, f: impl FnOnce() -> T + Send) -> (bool, T) {
    std::thread::scope(|s| {
        let pinned = s.spawn(|| (pin_to(cpu), f()));
        pinned.join().expect("pinned thread")
    })
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
    let frontier = dynamic_not_worse_than_single(&rows);
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

    let mlp = zoo().into_iter().find(|case| case.name == MODELS[0]);
    let rows = vec![handoff_row(
        &mlp.expect("mlp_small is in the zoo").at_batch(1),
    )];
    claims(
        report,
        [frontier, handoff_costs_less_than_two_passes(&rows)],
    );
    report.rows("handoff", rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{interval, Span};

    #[test]
    fn a_cheap_handoff_passes_and_one_dearer_than_two_passes_fails() {
        let rows = |request: Span, pass: Span| {
            [Json::obj([
                ("request_ms", interval(request)),
                ("pass_ms", interval(pass)),
            ])]
        };
        // Polled hand-offs: 9.0–10.4 µs against a 4.4 µs pass.
        assert!(handoff_costs_less_than_two_passes(&rows((0.0090, 0.0104), (0.0044, 0.0046))).ok);
        // Both sides park: 19–23 µs.
        let v = handoff_costs_less_than_two_passes(&rows((0.0190, 0.0230), (0.0044, 0.0058)));
        assert!(!v.ok && v.detail.contains("0.0230"), "{}", v.detail);
        // Under three passes at the medians, but the intervals do not show it.
        assert!(!handoff_costs_less_than_two_passes(&rows((0.0110, 0.0140), (0.0044, 0.0046))).ok);
    }

    #[test]
    fn dynamic_at_single_speed_passes_and_a_slower_dynamic_cell_fails() {
        let cell = |model: &str, loadgen: &str, policy: &str, rps: f64| {
            Json::obj([
                ("model", Json::from(model)),
                ("loadgen", Json::from(loadgen)),
                ("policy", Json::from(policy)),
                ("throughput_rps", Json::from(rps)),
            ])
        };
        let dynamic = "dynamic(b16,2000us)";
        let rows = |mlp_dynamic: f64| {
            [
                cell("mlp_small", "closed", "single", 90_897.0),
                cell("mlp_small", "closed", dynamic, mlp_dynamic),
                // Open-loop cells are paced by the generator: not judged.
                cell("mlp_small", "open", "single", 527.0),
                cell("mlp_small", "open", dynamic, 100.0),
                cell("lenet", "closed", "single", 33_759.0),
                cell("lenet", "closed", dynamic, 42_349.0),
            ]
        };
        // Work-conserving: 120 054 rps; a tenth under single still passes.
        assert!(dynamic_not_worse_than_single(&rows(120_054.0)).ok);
        assert!(dynamic_not_worse_than_single(&rows(82_000.0)).ok);
        // A grace window per batch: 4 329 rps.
        let v = dynamic_not_worse_than_single(&rows(4_329.0));
        assert!(
            !v.ok && v.detail.contains("mlp_small closed"),
            "{}",
            v.detail
        );
        assert!(!v.detail.contains("lenet"), "{}", v.detail);
    }
}
