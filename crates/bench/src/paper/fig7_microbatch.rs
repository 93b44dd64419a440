//! Fig. 7 / §V-C — the micro-batch convolution transformation.
//!
//! The Level-1 experiment: an AlexNet-style convolution at growing
//! minibatch sizes on a memory-capped device, untransformed and
//! micro-batched (each piece's workspace fits a quarter of the device),
//! per framework profile; the cells of one minibatch that run are timed
//! interleaved. The convolution is 3 → 8 channels, 3×3, on `hw × hw`
//! images. `fig7_microbatch` rows are keyed by `hw`, `batch`,
//! `framework`, the device's `capacity_bytes` and the `graph` (`native`,
//! or `microbatched` with its `plan`, the micro-batch sizes joined by `+`,
//! `none` when the workspace already fits): `oom` (1 when the device ran
//! out of memory) and, for a cell that ran, its `pass`.
//!
//! Expected shapes (paper), each a gate:
//! * the *PyTorch-like* backend runs out of memory at large minibatches;
//!   the transformation eliminates the OOM and lets it run —
//!   `microbatching_removes_the_oom`;
//! * the *TensorFlow-like* backend survives untransformed (bigger memory
//!   headroom in the paper's setup) but gets **slower** when transformed,
//!   because its Split/Concat nodes incur additional memory copies —
//!   `microbatching_slows_tensorflow`;
//! * the transformation picks micro-batch sizes `[rem, k, k, …]`, exactly
//!   like the paper's ILP — `plans_are_remainder_then_equal_pieces`.

use crate::rows::{no_slower, select, unless, Better, Interval, Row, Verdict};
use crate::{reruns, scale, time_rounds, Scale, Subject};
use deep500::graph::transforms::microbatch::microbatch_convolutions;
use deep500::prelude::*;
use deep500::tensor::Error;

/// One AlexNet-style conv on im2col, the tier whose lowering buffer grows
/// with the minibatch — the workspace the transformation exists to cap.
fn conv_net(seed: u64) -> Network {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut net = Network::new("alex-conv");
    net.add_input("x");
    net.add_parameter("w", Tensor::rand_uniform([8, 3, 3, 3], -0.3, 0.3, &mut rng));
    net.add_parameter("b", Tensor::zeros([8]));
    let attrs = Attributes::new()
        .with_int("stride", 1)
        .with_int("pad", 1)
        .with_str("algorithm", "im2col");
    net.add_node("conv", "Conv2d", attrs, &["x", "w", "b"], &["y"])
        .expect("conv node");
    net.add_output("y");
    net
}

/// An executor for `net` under `cap` bytes that survived one pass on `x`,
/// or `None` when the device ran out of memory.
fn runnable(
    net: &Network,
    profile: &FrameworkProfile,
    cap: usize,
    x: &Tensor,
) -> Option<FrameworkExecutor> {
    let mut ex = FrameworkExecutor::with_memory_limit(net, profile.clone(), cap).expect("executor");
    match ex.inference(&[("x", x.clone())]) {
        Ok(_) => Some(ex),
        Err(Error::OutOfMemory { .. }) => None,
        Err(e) => panic!("fig7 inference: {e}"),
    }
}

/// The `oom` rows of `framework`'s `graph` cells, in file order.
fn cells<'a>(rows: &'a [Row], framework: &'a str, graph: &'a str) -> impl Iterator<Item = &'a Row> {
    let oom = select(rows, "fig7_microbatch", "oom");
    oom.filter(move |r| r.is("framework", framework) && r.is("graph", graph))
}

/// The micro-batch sizes of a `microbatched` cell; empty when untransformed.
fn plan(cell: &Row) -> Vec<i64> {
    let plan = cell.text("plan");
    let sizes = plan.split('+').filter(|_| plan != "none");
    sizes
        .map(|p| p.parse().expect("plan sizes are integers"))
        .collect()
}

pub fn microbatching_removes_the_oom(rows: &[Row]) -> Verdict {
    let native: Vec<&Row> = cells(rows, "pytorch", "native").collect();
    let ran_out = native.iter().filter(|r| r.median > 0.0).count();
    let still_out = cells(rows, "pytorch", "microbatched").filter(|r| r.median > 0.0);
    let still_out: Vec<i64> = still_out.map(|r| r.int("batch")).collect();
    Verdict::new(
        "microbatching_removes_the_oom",
        ran_out > 0 && still_out.is_empty(),
        format!(
            "PyTorch-like: {ran_out} of {} minibatches OOM untransformed (need >= 1), \
             micro-batched still OOM at: {still_out:?}",
            native.len()
        ),
    )
}

pub fn microbatching_slows_tensorflow(rows: &[Row]) -> Verdict {
    let oom = cells(rows, "tensorflow", "native").any(|r| r.median > 0.0);
    let pass = |cell: &Row| cell.try_sibling(rows, "pass").map(Row::interval);
    // An untransformed cell (the workspace already fits) runs the same
    // graph twice: only transformed minibatches are evidence.
    let transformed = cells(rows, "tensorflow", "microbatched").filter(|r| !plan(r).is_empty());
    let pairs: Vec<(String, Interval, Interval)> = transformed
        .filter_map(|m| {
            let batch = m.int("batch");
            let native = cells(rows, "tensorflow", "native").find(|r| r.int("batch") == batch)?;
            let label = format!("batch {batch}, native vs micro-batched");
            Some((label, pass(native)?, pass(m)?))
        })
        .collect();
    let ratios: Vec<String> = pairs
        .iter()
        .map(|(_, n, m)| format!("{:.2}x", m.median / n.median))
        .collect();
    let verdict = no_slower(
        "microbatching_slows_tensorflow",
        "TF-like survives untransformed and its native CI is never above the micro-batched one",
        pairs,
    );
    Verdict {
        ok: verdict.ok && !oom && !ratios.is_empty(),
        ..verdict.with(format!(
            "OOM untransformed: {oom}; micro-batched/native {ratios:?} (need >= 1)"
        ))
    }
}

pub fn plans_are_remainder_then_equal_pieces(rows: &[Row]) -> Verdict {
    let microbatched =
        select(rows, "fig7_microbatch", "oom").filter(|r| r.is("graph", "microbatched"));
    let malformed = microbatched.filter(|cell| {
        let sizes = plan(cell);
        let Some((rem, pieces)) = sizes.split_first() else {
            return false; // untransformed: the workspace already fits
        };
        let k = pieces.first().copied().unwrap_or(*rem);
        sizes.iter().sum::<i64>() != cell.int("batch") || *rem > k || pieces.iter().any(|p| *p != k)
    });
    let malformed =
        malformed.map(|cell| format!("batch {}: {}", cell.int("batch"), cell.text("plan")));
    unless(
        "plans_are_remainder_then_equal_pieces",
        "every plan is [rem, k, k, ...] with rem <= k and sums to its minibatch",
        malformed.collect(),
    )
}

pub fn section() -> Vec<Row> {
    let (hw, batches, capacity): (usize, Vec<usize>, usize) = if scale() == Scale::Full {
        (224, vec![64, 128, 256, 468, 512], 1_500_000_000)
    } else {
        (32, vec![48, 96, 160, 256], 16_000_000)
    };
    // The TF-like device has more headroom (the paper's TF run survives
    // untransformed at B=468 while PyTorch OOMs).
    let devices = [
        (FrameworkProfile::pytorch(), capacity),
        (FrameworkProfile::tensorflow(), capacity * 4),
    ];
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let mut rows = Vec::new();
    for &batch in &batches {
        let shape = Shape::new(&[batch, 3, hw, hw]);
        let x = Tensor::rand_uniform(shape.clone(), -1.0, 1.0, &mut rng);
        // (native, micro-batched) per device, each with its row; `None` =
        // out of memory.
        let mut cells = Vec::new();
        for (profile, cap) in &devices {
            let mut transformed = conv_net(1);
            let reports =
                microbatch_convolutions(&mut transformed, &[("x", shape.clone())], cap / 4)
                    .expect("microbatch transform");
            let sizes = reports.first().map_or(Vec::new(), |r| r.plan.sizes.clone());
            let sizes: Vec<String> = sizes.iter().map(usize::to_string).collect();
            let plan = if sizes.is_empty() {
                "none".into()
            } else {
                sizes.join("+")
            };
            let device = Row::of("fig7_microbatch").key("hw", hw).key("batch", batch);
            let device = device
                .key("framework", profile.name)
                .key("capacity_bytes", *cap);
            let native = device.clone().key("graph", "native");
            let microbatched = device.key("graph", "microbatched").key("plan", plan);
            cells.push((native, runnable(&conv_net(1), profile, *cap, &x)));
            cells.push((microbatched, runnable(&transformed, profile, *cap, &x)));
        }
        let mut subjects: Vec<Subject<1>> = cells
            .iter_mut()
            .filter_map(|(_, ex)| ex.as_mut())
            .map(|ex| {
                let x = &x;
                Subject::wall(move || ex.inference(&[("x", x.clone())]).expect("timed pass"))
            })
            .collect();
        let mut timed = time_rounds(1, reruns(), &mut subjects).into_iter();
        drop(subjects);
        for (row, ex) in &cells {
            rows.push(row.count("oom", Better::None, usize::from(ex.is_none())));
            if ex.is_some() {
                let [t] = timed.next().expect("one timing per runnable cell");
                rows.push(row.ms("pass", &t));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    type Span = (f64, f64);

    /// The rows of `framework`'s two cells at `batch`: native and
    /// micro-batched timings (`None` = OOM) and the plan.
    fn cells(framework: &str, batch: usize, cells: [Option<Span>; 2], plan: &[usize]) -> Vec<Row> {
        let sizes: Vec<String> = plan.iter().map(usize::to_string).collect();
        let plan = if plan.is_empty() {
            "none".to_string()
        } else {
            sizes.join("+")
        };
        let device = Row::of("fig7_microbatch")
            .key("batch", batch)
            .key("framework", framework);
        let graphs = [
            device.clone().key("graph", "native"),
            device.key("graph", "microbatched").key("plan", plan),
        ];
        let mut rows = Vec::new();
        for (row, cell) in graphs.iter().zip(cells) {
            rows.push(row.count("oom", Better::None, usize::from(cell.is_none())));
            if let Some((lo, hi)) = cell {
                rows.push(row.measured(
                    "pass",
                    "ms",
                    Better::Lower,
                    (lo + hi) / 2.0,
                    Some((lo, hi)),
                    7,
                ));
            }
        }
        rows
    }

    #[test]
    fn the_oom_gate_needs_an_oom_and_its_removal() {
        let small = cells(
            "pytorch",
            48,
            [Some((1.0, 2.0)), Some((1.0, 2.0))],
            &[12, 36],
        );
        let cured = cells("pytorch", 256, [None, Some((30.0, 40.0))], &[4, 36, 36]);
        assert!(microbatching_removes_the_oom(&[small.clone(), cured].concat()).ok);
        // Never reaching the OOM regime proves nothing ...
        assert!(!microbatching_removes_the_oom(&small).ok);
        // ... and an OOM the transformation leaves in place contradicts.
        let stuck = cells("pytorch", 256, [None, None], &[4, 36, 36]);
        assert!(!microbatching_removes_the_oom(&[small, stuck].concat()).ok);
    }

    #[test]
    fn the_tensorflow_gate_is_red_on_a_measurable_speedup_or_an_oom() {
        let untransformed = cells("tensorflow", 48, [Some((2.0, 2.4)), Some((1.0, 1.1))], &[]);
        let slower = cells(
            "tensorflow",
            256,
            [Some((9.0, 11.0)), Some((10.0, 25.0))],
            &[4, 36],
        );
        assert!(
            microbatching_slows_tensorflow(&[untransformed.clone(), slower.clone()].concat()).ok
        );
        // Only transformed minibatches are evidence.
        assert!(!microbatching_slows_tensorflow(&untransformed).ok);
        let faster = cells(
            "tensorflow",
            96,
            [Some((3.0, 3.5)), Some((2.0, 2.5))],
            &[24, 36, 36],
        );
        assert!(!microbatching_slows_tensorflow(&[faster, slower.clone()].concat()).ok);
        let oom = cells("tensorflow", 512, [None, Some((20.0, 25.0))], &[4, 36]);
        assert!(!microbatching_slows_tensorflow(&[oom, slower].concat()).ok);
    }

    #[test]
    fn the_plan_gate_reads_the_shape_of_each_plan() {
        let ran = [Some((1.0, 2.0)); 2];
        let good = [
            cells("pytorch", 160, ran, &[16, 36, 36, 36, 36]),
            cells("pytorch", 8, ran, &[]),
            cells("pytorch", 72, ran, &[36, 36]),
        ];
        assert!(plans_are_remainder_then_equal_pieces(&good.concat()).ok);
        for bad in [
            &[36, 16, 36, 36, 36][..],
            &[16, 36, 36, 36],
            &[40, 36, 36, 48],
        ] {
            let rows = cells("pytorch", 160, ran, bad);
            assert!(!plans_are_remainder_then_equal_pieces(&rows).ok, "{bad:?}");
        }
    }
}
