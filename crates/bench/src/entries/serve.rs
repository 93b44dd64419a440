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
//! Writes `BENCH_serve.json`: `cases` rows keyed by `model`, `loadgen`,
//! `policy` and the load (`clients` closed loop, `rate_rps` open loop)
//! with request counts, throughput, p50/p95/p99 latency and mean
//! assembled batch size — each from one load run, so `n = 1` — and, keyed
//! by `fired` as well, how many batches the shard closed `full` or
//! `quiet`; gates: every request accounted for, latency percentiles
//! ordered, dynamic batching coalesces under the closed-loop burst, and
//! closed-loop dynamic throughput is not worse than single's on any model.
//!
//! A second table, `handoff`, prices the serving layer itself: one client's
//! `Server::infer` against the solo `Session::infer` of the same feed, and
//! the gate `handoff_costs_less_than_two_passes` on the two.
//!
//! Run with: `cargo run --release -p deep500-bench -- serve`
//! (`D5_BENCH_SCALE=smoke` for the fast CI-sized run).

use crate::rows::{select, unless, Better, Row, Verdict};
use crate::{engine, scale, time_rounds, Scale, Subject};
use deep500::graph::models::{feed_refs, zoo, ZooCase};
use deep500::prelude::*;
use deep500::serve::{closed_loop, open_loop};
use std::collections::HashSet;
use std::time::Duration;

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
pub fn handoff_costs_less_than_two_passes(rows: &[Row]) -> Verdict {
    let costly = select(rows, "handoff", "request_ms").filter_map(|row| {
        let (request, pass) = (row.interval(), row.sibling(rows, "pass_ms").interval());
        let detail = format!("request {request:.4} ms vs a pass of {pass:.4} ms");
        (request.hi >= 3.0 * pass.lo).then_some(detail)
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
pub fn dynamic_not_worse_than_single(rows: &[Row]) -> Verdict {
    let closed: Vec<&Row> = cells(rows).filter(|r| r.is("loadgen", "closed")).collect();
    let dynamic = closed
        .iter()
        .filter(|r| r.text("policy").starts_with("dynamic"));
    let slower = dynamic.filter_map(|cell| {
        let (model, policy) = (cell.text("model"), cell.text("policy"));
        let single = |r: &&&Row| r.is("model", model) && r.is("policy", "single");
        let single = closed.iter().find(single)?;
        let (d, s) = (cell.median, single.median);
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
fn handoff_rows(model: &ZooCase) -> Vec<Row> {
    let calls = if scale() == Scale::Smoke { 2000 } else { 20000 };
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
            let engine = engine(model.net.clone_structure(), ExecutorKind::Planned);
            let session = engine.session();
            let solo = Subject::wall(|| session.infer(&refs).expect("solo pass"));
            let [pass] = time_rounds(calls / 8, calls, &mut [solo])[0];
            pass
        })
        .1
    };
    let passes = [solo(), solo(), solo()].into_iter();
    let pass = passes
        .min_by(|a, b| a.median.total_cmp(&b.median))
        .expect("three engines");
    let pinned = if workers_pinned && client_pinned {
        "yes"
    } else {
        "no"
    };
    let row = Row::of("handoff").key("model", model.name);
    let row = row
        .key("policy", BatchPolicy::Single.label())
        .key("workers", 2usize);
    let row = row.key("clients", 1usize).key("pinned", pinned);
    vec![row.ms("request_ms", &request), row.ms("pass_ms", &pass)]
}

/// `f` on a thread of its own pinned to `cpu`, and whether the pin held.
fn on_cpu<T: Send>(cpu: usize, f: impl FnOnce() -> T + Send) -> (bool, T) {
    std::thread::scope(|s| {
        let pinned = s.spawn(|| (pin_to(cpu), f()));
        pinned.join().expect("pinned thread")
    })
}

pub fn measure() -> Vec<Row> {
    let (clients, per_client, open_total, open_rate) = if scale() == Scale::Smoke {
        (4, 16, 96, 300usize)
    } else {
        (8, 64, 512, 600)
    };
    let policies = [
        BatchPolicy::Single,
        BatchPolicy::Dynamic {
            max_batch: 16,
            max_delay: Duration::from_millis(2),
        },
    ];

    let mut rows = Vec::new();
    for model in zoo().iter().filter(|case| MODELS.contains(&case.name)) {
        // One request is one row: request `i` feeds the case's seed-`i` row.
        let model = model.at_batch(1);
        let feeds_fn = |i: usize| model.feeds(i as u64);
        for policy in policies {
            for loadgen in ["closed", "open"] {
                // A fresh server per cell: no warm queues carried over.
                let server = build_server(&model, policy, 2);
                let cell = Row::of("cases")
                    .key("model", model.name)
                    .key("loadgen", loadgen);
                let cell = cell.key("policy", policy.label());
                let (cell, s) = if loadgen == "closed" {
                    let s = closed_loop(&server, model.name, clients, per_client, feeds_fn);
                    (cell.key("clients", clients), s)
                } else {
                    let rate = open_rate as f64;
                    let s = open_loop(&server, model.name, rate, open_total, 0xD5, feeds_fn);
                    (cell.key("rate_rps", open_rate), s)
                };
                let stats = server.stats(model.name).expect("model registered");
                server.shutdown();
                let ms = |metric, v| cell.value(metric, "ms", Better::Lower, v);
                rows.extend([
                    cell.count("sent", Better::None, s.sent),
                    cell.count("completed", Better::None, s.completed),
                    cell.count("rejected", Better::Lower, s.rejected),
                    cell.count("failed", Better::Lower, s.failed),
                    cell.value("throughput_rps", "1/s", Better::Higher, s.throughput_rps),
                    ms("p50_ms", s.p50_ms),
                    ms("p95_ms", s.p95_ms),
                    ms("p99_ms", s.p99_ms),
                    cell.value("mean_batch_rows", "rows", Better::None, s.mean_batch_rows),
                ]);
                for (fired, batches) in [("full", stats.fired_full), ("quiet", stats.fired_quiet)] {
                    let fired = cell.clone().key("fired", fired);
                    rows.push(fired.count("batches", Better::None, batches));
                }
            }
        }
    }

    let mlp = zoo()
        .into_iter()
        .find(|case| case.name == MODELS[0])
        .expect("mlp_small");
    rows.extend(handoff_rows(&mlp.at_batch(1)));
    rows
}

/// The load-run cells of `cases`: one per `throughput_rps` row.
fn cells(rows: &[Row]) -> impl Iterator<Item = &Row> {
    select(rows, "cases", "throughput_rps")
}

/// The labels of the cells for which `holds` is false.
fn failing(rows: &[Row], holds: impl Fn(&dyn Fn(&str) -> f64) -> bool) -> Vec<String> {
    let cells = cells(rows).filter(|c| !holds(&|metric| c.sibling(rows, metric).median));
    cells.map(Row::label).collect()
}

/// (model, loadgen, policy) cells, and how many there must be.
const EXPECTED_CELLS: usize = MODELS.len() * 2 * 2;

pub fn cells_distinct(rows: &[Row]) -> Verdict {
    let cell = |r: &Row| [r.text("model"), r.text("loadgen"), r.text("policy")].map(String::from);
    let distinct = cells(rows).map(cell).collect::<HashSet<_>>().len();
    let detail = format!("{distinct} distinct (model, loadgen, policy) cells of {EXPECTED_CELLS}");
    Verdict::new("cells", distinct == EXPECTED_CELLS, detail)
}

pub fn all_requests_accounted(rows: &[Row]) -> Verdict {
    let lost = failing(rows, |v| {
        v("failed") == 0.0 && v("completed") + v("rejected") == v("sent")
    });
    let claim = "failed == 0 and completed + rejected == sent";
    unless("all_requests_accounted", claim, lost)
}

pub fn percentiles_ordered(rows: &[Row]) -> Verdict {
    let unordered = failing(rows, |v| {
        v("p50_ms") <= v("p95_ms") && v("p95_ms") <= v("p99_ms")
    });
    unless("percentiles_ordered", "p50 <= p95 <= p99", unordered)
}

pub fn throughput_positive(rows: &[Row]) -> Verdict {
    let idle = failing(rows, |v| v("throughput_rps") > 0.0);
    unless("throughput_positive", "throughput > 0 on every cell", idle)
}

pub fn dynamic_batching_coalesces(rows: &[Row]) -> Verdict {
    let coalesced = cells(rows).any(|c| {
        c.is("loadgen", "closed")
            && c.text("policy").starts_with("dynamic")
            && c.sibling(rows, "mean_batch_rows").median > 1.0
    });
    Verdict::new(
        "dynamic_batching_coalesces",
        coalesced,
        "mean batch rows > 1 on a closed-loop dynamic cell".to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cheap_handoff_passes_and_one_dearer_than_two_passes_fails() {
        let rows = |request: (f64, f64), pass: (f64, f64)| {
            let row = Row::of("handoff").key("model", "mlp_small");
            [("request_ms", request), ("pass_ms", pass)].map(|(metric, (lo, hi))| {
                row.measured(
                    metric,
                    "ms",
                    Better::Lower,
                    (lo + hi) / 2.0,
                    Some((lo, hi)),
                    9,
                )
            })
        };
        // Polled hand-offs: 9.0–10.4 µs against a 4.4 µs pass.
        assert!(handoff_costs_less_than_two_passes(&rows((0.0090, 0.0104), (0.0044, 0.0046))).ok);
        // Both sides park: 19–23 µs.
        let v = handoff_costs_less_than_two_passes(&rows((0.0190, 0.0230), (0.0044, 0.0058)));
        assert!(!v.ok && v.detail.contains("0.0230"), "{}", v.detail);
        // Under three passes at the medians, but the intervals do not show it.
        assert!(!handoff_costs_less_than_two_passes(&rows((0.0110, 0.0140), (0.0044, 0.0046))).ok);
    }

    /// The rows of one load-run cell.
    fn cell(model: &str, loadgen: &str, policy: &str, rps: f64, p: [f64; 3]) -> Vec<Row> {
        let row = Row::of("cases")
            .key("model", model)
            .key("loadgen", loadgen)
            .key("policy", policy);
        let ms = |metric, v| row.value(metric, "ms", Better::Lower, v);
        vec![
            row.count("sent", Better::None, 512),
            row.count("completed", Better::None, 512),
            row.count("rejected", Better::Lower, 0),
            row.count("failed", Better::Lower, 0),
            row.value("throughput_rps", "1/s", Better::Higher, rps),
            ms("p50_ms", p[0]),
            ms("p95_ms", p[1]),
            ms("p99_ms", p[2]),
            row.value("mean_batch_rows", "rows", Better::None, 1.0),
        ]
    }

    #[test]
    fn dynamic_at_single_speed_passes_and_a_slower_dynamic_cell_fails() {
        let dynamic = "dynamic(b16,2000us)";
        let p = [0.03, 0.05, 0.08];
        let rows = |mlp_dynamic: f64| -> Vec<Row> {
            [
                cell("mlp_small", "closed", "single", 90_897.0, p),
                cell("mlp_small", "closed", dynamic, mlp_dynamic, p),
                // Open-loop cells are paced by the generator: not judged.
                cell("mlp_small", "open", "single", 527.0, p),
                cell("mlp_small", "open", dynamic, 100.0, p),
                cell("lenet", "closed", "single", 33_759.0, p),
                cell("lenet", "closed", dynamic, 42_349.0, p),
            ]
            .concat()
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
        assert!(all_requests_accounted(&rows(1.0)).ok && percentiles_ordered(&rows(1.0)).ok);
        assert!(!cells_distinct(&rows(1.0)).ok, "six cells of eight");
    }

    #[test]
    fn unordered_percentiles_and_lost_requests_are_named() {
        let mut rows = cell("lenet", "open", "single", 500.0, [0.3, 0.2, 0.4]);
        let v = percentiles_ordered(&rows);
        assert!(
            !v.ok && v.detail.contains("lenet open single"),
            "{}",
            v.detail
        );
        rows[1].median = 500.0; // 12 of 512 requests neither completed nor rejected
        assert!(!all_requests_accounted(&rows).ok);
    }
}
