//! Fig. 7 / §V-C — the micro-batch convolution transformation.
//!
//! The Level-1 experiment: an AlexNet-style convolution at growing
//! minibatch sizes on a memory-capped device, untransformed and
//! micro-batched (each piece's workspace fits a quarter of the device),
//! per framework profile; the cells of one minibatch that run are timed
//! interleaved.
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

use crate::rows::{claims, field, no_slower, num, select, unless, Timing, Verdict};
use crate::{reruns, scale, time_rounds, Report, Scale, Subject};
use deep500::graph::transforms::microbatch::microbatch_convolutions;
use deep500::metrics::Json;
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

pub fn microbatching_removes_the_oom(rows: &[Json]) -> Verdict {
    let oom = |row: &&Json, key: &str| Timing::read_opt(row, key).is_none();
    let pytorch: Vec<&Json> = select(rows, "framework", "pytorch").collect();
    let ran_out = pytorch.iter().filter(|r| oom(r, "native")).count();
    let still_out = pytorch.iter().filter(|r| oom(r, "microbatched"));
    let still_out: Vec<f64> = still_out.map(|r| num(r, "batch")).collect();
    Verdict::new(
        "microbatching_removes_the_oom",
        ran_out > 0 && still_out.is_empty(),
        format!(
            "PyTorch-like: {ran_out} of {} minibatches OOM untransformed (need >= 1), \
             micro-batched still OOM at: {still_out:?}",
            pytorch.len()
        ),
    )
}

pub fn microbatching_slows_tensorflow(rows: &[Json]) -> Verdict {
    let tensorflow: Vec<&Json> = select(rows, "framework", "tensorflow").collect();
    let oom = tensorflow
        .iter()
        .any(|r| Timing::read_opt(r, "native").is_none());
    // An untransformed row (the workspace already fits) runs the same
    // graph twice: only transformed minibatches are evidence.
    let transformed = tensorflow
        .iter()
        .filter(|r| field(r, "plan").as_array().is_some_and(|p| !p.is_empty()));
    let pairs: Vec<(String, Timing, Timing)> = transformed
        .filter_map(|r| {
            let label = format!("batch {}, native vs micro-batched", num(r, "batch"));
            Some((
                label,
                Timing::read_opt(r, "native")?,
                Timing::read_opt(r, "microbatched")?,
            ))
        })
        .collect();
    let ratios: Vec<String> = pairs
        .iter()
        .map(|(_, n, m)| format!("{:.2}x", m.ms / n.ms))
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

pub fn plans_are_remainder_then_equal_pieces(rows: &[Json]) -> Verdict {
    let malformed = rows.iter().filter(|row| {
        let plan = field(row, "plan").as_array().expect("plan is an array");
        let sizes: Vec<f64> = plan.iter().filter_map(Json::as_f64).collect();
        let Some((rem, pieces)) = sizes.split_first() else {
            return false; // untransformed: the workspace already fits
        };
        let k = pieces.first().copied().unwrap_or(*rem);
        sizes.iter().sum::<f64>() != num(row, "batch") || *rem > k || pieces.iter().any(|p| *p != k)
    });
    let malformed = malformed.map(|row| {
        format!(
            "batch {}: {}",
            num(row, "batch"),
            field(row, "plan").render()
        )
    });
    unless(
        "plans_are_remainder_then_equal_pieces",
        "every plan is [rem, k, k, ...] with rem <= k and sums to its minibatch",
        malformed.collect(),
    )
}

pub fn section(report: &mut Report) {
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
        // (native, micro-batched) per device; `None` = out of memory.
        let mut cells = Vec::new();
        let mut plans = Vec::new();
        for (profile, cap) in &devices {
            let mut transformed = conv_net(1);
            let reports =
                microbatch_convolutions(&mut transformed, &[("x", shape.clone())], cap / 4)
                    .expect("microbatch transform");
            plans.push(reports.first().map_or(Vec::new(), |r| r.plan.sizes.clone()));
            cells.push(runnable(&conv_net(1), profile, *cap, &x));
            cells.push(runnable(&transformed, profile, *cap, &x));
        }
        let mut subjects: Vec<Subject<1>> = cells
            .iter_mut()
            .flatten()
            .map(|ex| {
                let x = &x;
                Subject::wall(move || ex.inference(&[("x", x.clone())]).expect("timed pass"))
            })
            .collect();
        let mut timed = time_rounds(1, reruns(), &mut subjects).into_iter();
        drop(subjects);
        let mut cell_json = cells.iter().map(|cell| match cell {
            Some(_) => Timing::of(&timed.next().expect("one timing per runnable cell")[0]).json(),
            None => Json::Null,
        });
        for ((profile, cap), plan) in devices.iter().zip(plans) {
            rows.push(Json::obj([
                ("batch", Json::from(batch)),
                ("framework", Json::from(profile.name)),
                ("capacity_bytes", Json::from(*cap)),
                ("native", cell_json.next().expect("native cell")),
                (
                    "microbatched",
                    cell_json.next().expect("micro-batched cell"),
                ),
                (
                    "plan",
                    Json::from(plan.into_iter().map(Json::from).collect::<Vec<_>>()),
                ),
            ]));
        }
    }
    let verdicts = [
        microbatching_removes_the_oom(&rows),
        microbatching_slows_tensorflow(&rows),
        plans_are_remainder_then_equal_pieces(&rows),
    ];
    claims(report, verdicts);
    report
        .field("fig7_conv", format!("Cin=3 HxW={hw}x{hw} Cout=8 3x3"))
        .rows("fig7_microbatch", rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{interval, Span};

    fn row(framework: &str, batch: usize, cells: [Option<Span>; 2], plan: &[usize]) -> Json {
        let cell = |c: Option<Span>| c.map_or(Json::Null, interval);
        Json::obj([
            ("batch", Json::from(batch)),
            ("framework", Json::from(framework)),
            ("native", cell(cells[0])),
            ("microbatched", cell(cells[1])),
            (
                "plan",
                Json::from(plan.iter().map(|&p| Json::from(p)).collect::<Vec<_>>()),
            ),
        ])
    }

    #[test]
    fn the_oom_gate_needs_an_oom_and_its_removal() {
        let small = row(
            "pytorch",
            48,
            [Some((1.0, 2.0)), Some((1.0, 2.0))],
            &[12, 36],
        );
        let cured = row("pytorch", 256, [None, Some((30.0, 40.0))], &[4, 36, 36]);
        assert!(microbatching_removes_the_oom(&[small.clone(), cured]).ok);
        // Never reaching the OOM regime proves nothing ...
        assert!(!microbatching_removes_the_oom(std::slice::from_ref(&small)).ok);
        // ... and an OOM the transformation leaves in place contradicts.
        let stuck = row("pytorch", 256, [None, None], &[4, 36, 36]);
        assert!(!microbatching_removes_the_oom(&[small, stuck]).ok);
    }

    #[test]
    fn the_tensorflow_gate_is_red_on_a_measurable_speedup_or_an_oom() {
        let untransformed = row("tensorflow", 48, [Some((2.0, 2.4)), Some((1.0, 1.1))], &[]);
        let slower = row(
            "tensorflow",
            256,
            [Some((9.0, 11.0)), Some((10.0, 25.0))],
            &[4, 36],
        );
        assert!(microbatching_slows_tensorflow(&[untransformed.clone(), slower.clone()]).ok);
        // Only transformed minibatches are evidence.
        assert!(!microbatching_slows_tensorflow(&[untransformed]).ok);
        let faster = row(
            "tensorflow",
            96,
            [Some((3.0, 3.5)), Some((2.0, 2.5))],
            &[24, 36, 36],
        );
        assert!(!microbatching_slows_tensorflow(&[faster, slower.clone()]).ok);
        let oom = row("tensorflow", 512, [None, Some((20.0, 25.0))], &[4, 36]);
        assert!(!microbatching_slows_tensorflow(&[oom, slower]).ok);
    }

    #[test]
    fn the_plan_gate_reads_the_shape_of_each_plan() {
        let cells = [Some((1.0, 2.0)); 2];
        let good = [
            row("pytorch", 160, cells, &[16, 36, 36, 36, 36]),
            row("pytorch", 8, cells, &[]),
            row("pytorch", 72, cells, &[36, 36]),
        ];
        assert!(plans_are_remainder_then_equal_pieces(&good).ok);
        for bad in [
            &[36, 16, 36, 36, 36][..],
            &[16, 36, 36, 36],
            &[40, 36, 36, 48],
        ] {
            let rows = [row("pytorch", 160, cells, bad)];
            assert!(!plans_are_remainder_then_equal_pieces(&rows).ok, "{bad:?}");
        }
    }
}
