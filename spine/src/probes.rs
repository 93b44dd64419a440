//! Per-layer probes shared by all workloads: each times public calls into
//! one layer on the workload's own model and shapes, from outside.
//!
//! * set-up: `format::decode`, `verify::gate_with_inputs` / `gate_plan`,
//!   `compile()`, `Engine::builder().build()`;
//! * passes: the workload's feeds replayed through `Session::infer` /
//!   `infer_and_backprop` on an identically built engine (and an
//!   ahead-of-time compiled one), with the executor's own per-op totals
//!   giving the kernel share and the per-node dispatch residual;
//! * raw kernels (the paper's "DeepBench" baseline): `ops::conv` and
//!   `ops::gemm` called directly on the tensors each Conv2d / Linear node
//!   actually sees;
//! * the machine roofline: an FMA loop and a STREAM triad in this process.

use crate::model::{Feed, Model};
use crate::report::Metrics;
use crate::span::Track;
use crate::stats::median;
use deep500::graph::{
    compile, CompileOptions, Engine, ExecutionPlan, ExecutorKind, Network, PlannedExecutor,
};
use deep500::ops::conv::{self, ConvGeometry};
use deep500::ops::gemm::{self, Algorithm};
use deep500::ops::linear::LinearOp;
use deep500::ops::Operator;
use deep500::tensor::Tensor;
use deep500::verify;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `f` over `reps` calls (after one untimed call).
fn median_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Time every set-up step of `model` at `rows` rows per pass.
pub fn setup_layers(model: &Model, kind: ExecutorKind, rows: usize, m: &mut Metrics) {
    const REPS: usize = 9;
    let shapes = model.input_shapes(rows);
    m.set("graph.decode_s", median_s(REPS, || model.decode()));
    let net = model.decode();
    let ir = net.to_ir();
    m.set(
        "verify.gate_s",
        median_s(REPS, || {
            verify::gate_with_inputs(&ir, &shapes).expect("gate")
        }),
    );
    let plan_ir = || {
        let plan = ExecutionPlan::freeze(&net, &shapes).expect("plan freezes");
        let ops = net.instantiate_ops().expect("ops instantiate");
        plan.to_plan_ir(&net, &ops, &[])
    };
    let lowered = plan_ir();
    m.set(
        "verify.plan_gate_s",
        median_s(REPS, || verify::gate_plan(&lowered).expect("plan gate")),
    );
    let lints = verify::gate_with_inputs(&ir, &shapes)
        .expect("gate")
        .lints
        .len()
        + verify::gate_plan(&lowered).expect("plan gate").lints.len();
    m.set("verify.lints", lints as f64);

    let mut build_s = Vec::with_capacity(REPS);
    let mut compile_s = Vec::with_capacity(REPS);
    let mut report = None;
    for _ in 0..REPS {
        let copy = net.clone_structure();
        let t = Instant::now();
        black_box(
            Engine::builder(copy)
                .executor(kind)
                .build()
                .expect("engine"),
        );
        build_s.push(t.elapsed().as_secs_f64());
        let mut copy = net.clone_structure();
        let t = Instant::now();
        report = Some(compile(&mut copy, &shapes, &CompileOptions::inference()).expect("compile"));
        compile_s.push(t.elapsed().as_secs_f64());
    }
    m.set("graph.engine_build_s", median(&build_s));
    m.set("graph.compile_s", median(&compile_s));
    let report = report.expect("REPS > 0");
    m.set("graph.rewrites", report.rewrites() as f64);
    m.set("graph.filters_packed", report.filters_packed as f64);
}

/// Wall-clock budget of one probe replay; a replay also ends after
/// [`MAX_PASSES`] passes.
const REPLAY_BUDGET_S: f64 = 0.4;
const MAX_PASSES: usize = 2000;

/// Median microseconds of `pass` over `feeds`, cycled until the budget or
/// the pass limit is reached (at least four passes).
fn replay(feeds: &[Feed], mut pass: impl FnMut(&Feed)) -> f64 {
    let begin = Instant::now();
    let mut samples = Vec::new();
    for feed in feeds.iter().cycle().take(MAX_PASSES) {
        let t = Instant::now();
        pass(feed);
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= 4 && begin.elapsed().as_secs_f64() > REPLAY_BUDGET_S {
            break;
        }
    }
    median(&samples) * 1e6
}

/// Σ per-op forward (and, with `backward`, backward) seconds the executor
/// has accounted so far — its own always-on totals, read from outside.
fn kernel_seconds(engine: &Engine, backward: bool) -> f64 {
    engine
        .lock()
        .op_totals()
        .values()
        .map(|t| t.forward_s + if backward { t.backward_s } else { 0.0 })
        .sum()
}

/// Replay `feeds` through `pass` on `engine`, one `span` per pass on
/// `track` with the executor-reported kernel time as its `ops.kernels`
/// child. Returns per-pass seconds and the kernel seconds they contained.
fn traced_replay(
    engine: &Engine,
    feeds: &[Feed],
    (span, kernels_span): (&'static str, &'static str),
    backward: bool,
    track: &mut Track,
    mut pass: impl FnMut(&Feed),
) -> (Vec<f64>, f64) {
    replay(&feeds[..feeds.len().min(8)], &mut pass);
    let begin = Instant::now();
    let mut samples = Vec::new();
    let mut kernels_s = 0.0;
    for (id, feed) in feeds.iter().cycle().take(MAX_PASSES).enumerate() {
        let k0 = kernel_seconds(engine, backward);
        let t0 = Instant::now();
        pass(feed);
        let t1 = Instant::now();
        let kernels = kernel_seconds(engine, backward) - k0;
        samples.push((t1 - t0).as_secs_f64());
        kernels_s += kernels;
        if let Some(root) = track.push(span, id as u64, t0, t1, None) {
            let start_ns = track.spans[root as usize].start_ns;
            let end_ns = start_ns + (kernels * 1e9) as u64;
            track.push_ns(kernels_span, id as u64, start_ns, end_ns, Some(root));
        }
        if samples.len() >= 4 && begin.elapsed().as_secs_f64() > REPLAY_BUDGET_S {
            break;
        }
    }
    (samples, kernels_s)
}

/// Replay `feeds` (all of the same row count) through engines built like
/// the workload's, recording `graph.*` pass metrics, the kernel share and
/// the per-node dispatch residual. The share and the residual describe the
/// workload's own kind of pass: forward for serving, forward + backward
/// (`backward`) for training.
pub fn pass_layers(
    model: &Model,
    kind: ExecutorKind,
    feeds: &[Feed],
    mixed_rows: Option<&[Feed]>,
    backward: bool,
    track: &mut Track,
    m: &mut Metrics,
) {
    let rows = feeds[0][1].1.numel();
    let engine = Engine::builder(model.decode())
        .executor(kind)
        .build()
        .expect("probe engine");
    let session = engine.session();
    let (samples, mut kernels_s) = traced_replay(
        &engine,
        feeds,
        ("graph.infer", "ops.kernels"),
        false,
        track,
        |f| {
            session.infer(f).expect("probe pass");
        },
    );
    let mut passes_s: f64 = samples.iter().sum();
    let mut passes = samples.len();
    m.set("graph.infer_p50_us", median(&samples) * 1e6);
    {
        let guard = engine.lock();
        let totals = guard.op_totals();
        m.set(
            "ops.flops_per_pass",
            totals.values().map(|t| t.flops_per_call).sum(),
        );
        m.set(
            "ops.bytes_per_pass",
            totals.values().map(|t| t.bytes_per_call as f64).sum(),
        );
        m.set("graph.peak_memory_bytes", guard.peak_memory() as f64);
    }

    // Varying batch sizes exercise the per-shape plan cache.
    if let Some(mixed) = mixed_rows {
        replay(mixed, |f| {
            session.infer(f).expect("probe pass");
        });
    }
    {
        let guard = engine.lock();
        if let Some(planned) = guard.as_any().downcast_ref::<PlannedExecutor>() {
            let stats = planned.plan_cache_stats();
            m.set("graph.plan_cache_hits", stats.hits as f64);
            m.set("graph.plan_cache_misses", stats.builds as f64);
        }
        m.set(
            "graph.plan_bytes",
            guard.static_plan_bytes().unwrap_or(0) as f64,
        );
    }

    if backward {
        let trainer = Engine::builder(model.decode())
            .executor(kind)
            .build()
            .expect("probe engine");
        let session = trainer.session();
        let (samples, kernels) = traced_replay(
            &trainer,
            feeds,
            ("graph.backprop", "ops.kernels_fwd_bwd"),
            true,
            track,
            |f| {
                session.infer_and_backprop(f, "loss").expect("probe pass");
            },
        );
        m.set("graph.backprop_p50_us", median(&samples) * 1e6);
        (passes_s, passes, kernels_s) = (samples.iter().sum(), samples.len(), kernels);
    }
    let nodes = engine.lock().network().num_nodes();
    m.set("ops.kernel_share", kernels_s / passes_s);
    m.set(
        "graph.dispatch_per_node_us",
        (passes_s - kernels_s).max(0.0) / passes as f64 / nodes as f64 * 1e6,
    );

    let mut builder = Engine::builder(model.decode())
        .executor(ExecutorKind::Planned)
        .compile(CompileOptions::inference());
    for (name, shape) in model.input_shapes(rows) {
        builder = builder.input_shape(name, shape);
    }
    let compiled = builder.build().expect("compiled probe engine");
    let session = compiled.session();
    let pass = |f: &Feed| {
        session.infer(f).expect("probe pass");
    };
    replay(&feeds[..feeds.len().min(8)], pass);
    m.set("graph.compiled_infer_p50_us", replay(feeds, pass));
}

/// The tensors one node's kernel sees in a real pass.
struct NodeIo {
    x: Tensor,
    w: Tensor,
    b: Tensor,
    geometry: Option<ConvGeometry>,
}

/// Run one reference pass with every Conv2d / Linear input exposed as a
/// graph output, and collect each such node's actual operands.
fn kernel_operands(net: &Network, feed: &Feed) -> Vec<NodeIo> {
    let mut probe = net.clone_structure();
    let targets: Vec<(String, String, String, Option<ConvGeometry>)> = net
        .nodes()
        .filter(|(_, n)| n.op_type == "Conv2d" || n.op_type == "Linear")
        .map(|(_, n)| {
            let geometry = (n.op_type == "Conv2d").then(|| ConvGeometry {
                stride: n.attrs.int_or("stride", 1) as usize,
                pad: n.attrs.int_or("pad", 0) as usize,
            });
            (
                n.inputs[0].clone(),
                n.inputs[1].clone(),
                n.inputs[2].clone(),
                geometry,
            )
        })
        .collect();
    for (x, ..) in &targets {
        if !probe.graph_outputs().contains(x) && !probe.graph_inputs().contains(x) {
            probe.add_output(x.clone());
        }
    }
    let engine = Engine::builder(probe)
        .build()
        .expect("operand probe engine");
    let outputs = engine.session().infer(feed).expect("operand probe pass");
    targets
        .into_iter()
        .map(|(x, w, b, geometry)| NodeIo {
            x: outputs
                .get(&x)
                .cloned()
                .unwrap_or_else(|| feed[0].1.clone()),
            w: net.fetch_tensor(&w).expect("weight").clone(),
            b: net.fetch_tensor(&b).expect("bias").clone(),
            geometry,
        })
        .collect()
}

/// Raw-kernel baseline on the model's exact node shapes. FLOPs are computed
/// from the shapes, not counted. The convolution backward kernel is timed
/// only for the workloads that run it (`backward`).
pub fn kernel_layers(model: &Model, feed: &Feed, backward: bool, m: &mut Metrics) {
    const REPS: usize = 15;
    let net = model.decode();
    let (mut conv_fwd, mut conv_bwd, mut conv_flops) = (0.0, 0.0, 0.0);
    let (mut gemm_s, mut gemv_s, mut gemm_flops) = (0.0, 0.0, 0.0);
    for io in kernel_operands(&net, feed) {
        match io.geometry {
            Some(g) => {
                let y = conv::forward_direct(&io.x, &io.w, &io.b, g).expect("conv forward");
                conv_fwd += median_s(REPS, || conv::forward_direct(&io.x, &io.w, &io.b, g));
                if backward {
                    // The backward kernel skips zero gradients; every conv of
                    // the training models feeds a ReLU, so mask like one.
                    let dy = y.map(|v| v.max(0.0));
                    conv_bwd += median_s(REPS, || conv::backward_direct(&dy, &io.x, &io.w, g));
                }
                let per_output = 2 * io.w.numel() / io.w.shape().dim(0);
                conv_flops += (y.numel() * per_output) as f64;
            }
            None => {
                gemm_s += median_s(REPS, || gemm::matmul_a_bt(&io.x, &io.w));
                gemm_flops += (2 * io.x.numel() * io.w.shape().dim(0)) as f64;
                let row = io.x.slice_axis0(0, 1).expect("first row");
                let op = LinearOp::new(Algorithm::Packed);
                gemv_s += median_s(REPS, || op.forward(&[&row, &io.w, &io.b]));
            }
        }
    }
    m.set("ops.conv_fwd_us", conv_fwd * 1e6);
    m.set("ops.conv_bwd_us", conv_bwd * 1e6);
    m.set("ops.gemm_us", gemm_s * 1e6);
    m.set("ops.gemv_us", gemv_s * 1e6);
    if conv_fwd > 0.0 {
        m.set("ops.conv_gflops", conv_flops / conv_fwd / 1e9);
    }
    if gemm_s > 0.0 {
        m.set("ops.gemm_gflops", gemm_flops / gemm_s / 1e9);
    }
}

// ------------------------------------------------------------------ roofline

/// Independent accumulators: ten vector registers' worth at either width,
/// enough chains to cover the FMA latency of two pipes.
const LANES: usize = 160;

#[inline(always)]
fn fma_body(iters: u64) -> f32 {
    let mut acc = [0.5f32; LANES];
    let (a, b) = (black_box(0.999_9f32), black_box(1e-4f32));
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = v.mul_add(a, b);
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_avx512(iters: u64) -> f32 {
    fma_body(iters)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_avx2(iters: u64) -> f32 {
    fma_body(iters)
}

/// Without hardware FMA `mul_add` is a library call; time `a*b + c`.
fn fma_portable(iters: u64) -> f32 {
    let mut acc = [0.5f32; LANES];
    let (a, b) = (black_box(0.999_9f32), black_box(1e-4f32));
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = *v * a + b;
        }
    }
    acc.iter().sum()
}

fn fma_dispatch(iters: u64) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU reports AVX-512F, the only feature
            // `fma_avx512` is compiled to require.
            return unsafe { fma_avx512(iters) };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU reports AVX2 and FMA, the features
            // `fma_avx2` is compiled to require.
            return unsafe { fma_avx2(iters) };
        }
    }
    fma_portable(iters)
}

/// Peak single-precision FMA rate over `threads` threads, GFLOP/s.
pub fn peak_fma_gflops(threads: usize) -> f64 {
    const ITERS: u64 = 50_000_000;
    let run = || {
        let t = Instant::now();
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| black_box(fma_dispatch(black_box(ITERS)))))
                .collect();
            hs.into_iter().for_each(|h| {
                h.join().expect("fma thread");
            });
        });
        t.elapsed().as_secs_f64()
    };
    run();
    let best = (0..3).map(|_| run()).fold(f64::INFINITY, f64::min);
    (2 * LANES as u64 * ITERS * threads as u64) as f64 / best / 1e9
}

/// Last-level cache size in bytes as the kernel reports it (0 if unknown).
pub fn llc_bytes() -> usize {
    (0..8)
        .rev()
        .find_map(|i| {
            let s = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            s.trim().strip_suffix('K')?.parse::<usize>().ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// Bytes in the three triad arrays together: four times the LLC, at least
/// 256 MiB and at most 1.25 GiB (this VM reports the host's 260 MiB L3).
pub fn triad_bytes() -> usize {
    (4 * llc_bytes()).clamp(256 << 20, 1280 << 20)
}

/// STREAM triad `a = b + s·c` over `threads` threads; GB/s counting the
/// three arrays once each.
pub fn stream_gbs(threads: usize) -> f64 {
    let n = triad_bytes() / 3 / 4;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let chunk = n.div_ceil(threads);
    let mut pass = || {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + 3.0 * *c;
                    }
                });
            }
        });
        t.elapsed().as_secs_f64()
    };
    pass();
    let best = (0..3).map(|_| pass()).fold(f64::INFINITY, f64::min);
    black_box(&a);
    (3 * 4 * n) as f64 / best / 1e9
}

/// Measure the roofline and express the kernel rows as a share of it.
pub fn roofline(threads: usize, m: &mut Metrics) {
    let peak = peak_fma_gflops(threads);
    m.set("ops.peak_fma_gflops", peak);
    m.set("ops.stream_gbs", stream_gbs(threads));
    for (rate, pct) in [
        ("ops.conv_gflops", "ops.conv_pct_peak"),
        ("ops.gemm_gflops", "ops.gemm_pct_peak"),
    ] {
        if let Some(g) = m.get(rate) {
            m.set(pct, 100.0 * g / peak);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_operands_cover_every_conv_and_linear_node() {
        let model = Model::train_cnn();
        let mut rng = deep500::tensor::Xoshiro256StarStar::seed_from_u64(1);
        let feed = model.feed(&mut rng, 2);
        let ios = kernel_operands(&model.decode(), &feed);
        // lenet: two convolutions, three dense layers.
        assert_eq!(ios.iter().filter(|io| io.geometry.is_some()).count(), 2);
        assert_eq!(ios.iter().filter(|io| io.geometry.is_none()).count(), 3);
        for io in &ios {
            assert_eq!(io.x.shape().dim(0), 2, "operands keep the batch rows");
            assert_eq!(io.b.numel(), io.w.shape().dim(0));
        }
    }

    #[test]
    fn fma_variants_agree_and_time_grows_with_iterations() {
        assert_eq!(fma_dispatch(1000), fma_body(1000));
        let time = |iters| {
            let t = Instant::now();
            black_box(fma_dispatch(black_box(iters)));
            t.elapsed()
        };
        time(100_000);
        assert!(time(2_000_000) > time(100_000) * 4);
    }
}
