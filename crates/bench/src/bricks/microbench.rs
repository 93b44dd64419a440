//! Stage 3: micro-benchmark each unique brick.
//!
//! Every brick is rebuilt as a one-node micro-network and run through the
//! same [`Engine`]/`Session` front door the serving and training layers
//! use — not a bare operator call — so the measured cost includes exactly
//! the per-op work the real executors pay (timer spans, gradient
//! publication for parameter inputs, output routing).
//!
//! Timing discipline: all micro-engines are built up front, warmed up,
//! and then measured in *interleaved best-of-N* rounds — round-robin over
//! the whole brick set, one pass per brick per round, keeping the minimum
//! observed cost. Interleaving decorrelates a brick's samples from
//! transient machine noise (a frequency excursion hits one round of every
//! brick, not every round of one brick), and min-of-N estimates the noise
//! floor that composition should sum.

use super::decompose::BrickInstance;
use super::dedup::BrickSet;
use deep500::graph::{Engine, ExecutorKind, Network};
use deep500::ops::registry::{register_op, Attributes};
use deep500::ops::Operator;
use deep500::tensor::{Result as TensorResult, Shape, Tensor, Xoshiro256StarStar};
use std::sync::Once;

/// Synthetic loss tail for micro-networks: scalar forward, and a backward
/// that seeds the brick with a gradient of controlled density.
///
/// In a real model the gradient arriving at a node is rarely dense — a
/// max-pool upstream (in backprop order) zeroes all but one element per
/// window, a ReLU zeroes clipped positions. When the conv backward still
/// skipped zero gradient elements that made its cost strongly
/// density-dependent (a plain dense MseLoss tail over-measured it ~2x);
/// since the dense GEMM lowering no kernel's cost depends on the mask, and
/// it survives only until the follow-up that removes the density model.
#[derive(Debug)]
struct GradSeedOp {
    /// Nonzero fraction of the emitted gradient, percent.
    pct: u8,
}

impl Operator for GradSeedOp {
    fn name(&self) -> &str {
        "BrickGradSeed"
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn output_shapes(&self, _s: &[&Shape]) -> TensorResult<Vec<Shape>> {
        Ok(vec![Shape::scalar()])
    }
    fn forward(&self, inputs: &[&Tensor]) -> TensorResult<Vec<Tensor>> {
        // Touch the input so the tail genuinely depends on the brick.
        let first = inputs[0].data().first().copied().unwrap_or(0.0);
        Ok(vec![Tensor::scalar(first * 1e-6)])
    }
    fn backward(
        &self,
        grad_outputs: &[&Tensor],
        inputs: &[&Tensor],
        _outputs: &[&Tensor],
    ) -> TensorResult<Vec<Tensor>> {
        let upstream = grad_outputs[0].data().first().copied().unwrap_or(1.0);
        let n = inputs[0].numel().max(1);
        let scale = upstream / n as f32;
        let mut g = Tensor::zeros(inputs[0].shape().clone());
        // Deterministic multiplicative-hash mask spreads the nonzeros
        // evenly, like real pooling/ReLU masks do.
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            if (i.wrapping_mul(2654435761) >> 7) % 100 < self.pct as usize {
                *v = scale;
            }
        }
        Ok(vec![g])
    }
    fn flops(&self, _s: &[&Shape]) -> f64 {
        0.0
    }
}

/// Register the micro-benchmark tail op (idempotent).
fn register_micro_ops() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        register_op("BrickGradSeed", |attrs| {
            let pct = attrs.int_or("density_pct", 100).clamp(0, 100) as u8;
            Ok(Box::new(GradSeedOp { pct }) as _)
        });
    });
}

/// Measured cost of one brick, seconds per single pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrickCost {
    /// Best-of-N forward span time.
    pub forward_s: f64,
    /// Best-of-N backward span time (gradient of the brick itself; the
    /// synthetic loss tail's cost is excluded by reading only the brick's
    /// own attribution row).
    pub backward_s: f64,
}

/// A brick rebuilt as a runnable one-node network.
struct MicroBench {
    engine: Engine,
    feeds: Vec<(String, Tensor)>,
    loss: String,
}

/// All of a brick set's micro-networks, ready to step one interleaved
/// measurement round at a time. Exposing rounds (rather than only the
/// one-shot [`measure`]) lets a caller interleave its own measurements —
/// the `bricks` bin alternates brick rounds with whole-model validation
/// passes so machine-speed drift hits both sides of the comparison
/// equally.
pub struct MicroRunner {
    benches: Vec<MicroBench>,
    costs: Vec<BrickCost>,
}

impl MicroRunner {
    /// Build a micro-network per unique brick in `set`.
    pub fn new(set: &BrickSet) -> Result<Self, String> {
        register_micro_ops();
        let mut benches = Vec::with_capacity(set.len());
        for (i, brick) in set.bricks.iter().enumerate() {
            benches.push(build_micro(&brick.exemplar, 0x5eed + i as u64)?);
        }
        let costs = vec![
            BrickCost {
                forward_s: f64::INFINITY,
                backward_s: f64::INFINITY,
            };
            benches.len()
        ];
        Ok(MicroRunner { benches, costs })
    }

    fn run_one(b: &MicroBench) -> Result<(), String> {
        let feeds: Vec<(&str, Tensor)> = b
            .feeds
            .iter()
            .map(|(n, t)| (n.as_str(), t.clone()))
            .collect();
        b.engine
            .session()
            .infer_and_backprop(&feeds, &b.loss)
            .map(|_| ())
            .map_err(|e| format!("brick pass failed: {e}"))
    }

    /// Run `passes` unmeasured passes over every brick.
    pub fn warmup(&self, passes: usize) -> Result<(), String> {
        for _ in 0..passes.max(1) {
            for b in &self.benches {
                Self::run_one(b)?;
            }
        }
        Ok(())
    }

    /// One interleaved measurement round: every brick gets one unmeasured
    /// re-warming pass (the prediction target is a model's steady-state
    /// hot loop, so a brick must not be charged for the cache eviction
    /// its interleaved neighbours just caused) and one measured pass,
    /// folded into the running best-of-N.
    pub fn round(&mut self) -> Result<(), String> {
        for (i, b) in self.benches.iter().enumerate() {
            Self::run_one(b)?;
            let (f0, b0) = brick_span_totals(&b.engine);
            Self::run_one(b)?;
            let (f1, b1) = brick_span_totals(&b.engine);
            self.costs[i].forward_s = self.costs[i].forward_s.min((f1 - f0).max(0.0));
            self.costs[i].backward_s = self.costs[i].backward_s.min((b1 - b0).max(0.0));
        }
        Ok(())
    }

    /// Best-of-N costs so far, in `set.bricks` order.
    pub fn costs(&self) -> &[BrickCost] {
        &self.costs
    }
}

/// Reconstruct `inst` as a single-node network plus its feeds. Parameter
/// inputs of the parent model become parameters here too (so backward
/// publishes their gradients, as it would in the real model); activation
/// inputs become fed graph inputs — behind a pass-through `Scale` node
/// when a node produced them in the parent model, so the brick owes the
/// same input gradients here as there. A [`GradSeedOp`] tail is appended when
/// the brick's output is not already a scalar, seeding backprop with a
/// gradient of the brick's in-context density without disturbing the
/// brick's own spans.
fn build_micro(inst: &BrickInstance, seed: u64) -> Result<MicroBench, String> {
    let mut net = Network::new(format!("brick::{}", inst.key.render()));
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut feeds = Vec::new();
    let mut names = Vec::with_capacity(inst.inputs.len());

    for (j, input) in inst.inputs.iter().enumerate() {
        let name = format!("in{j}");
        // Loss operators consume class labels, not activations: feed
        // valid indices into the logits' class dimension.
        let data = if inst.key.op_type == "SoftmaxCrossEntropy" && j == 1 {
            let classes = *inst.inputs[0]
                .shape
                .dims()
                .last()
                .ok_or_else(|| "SoftmaxCrossEntropy logits must be ranked".to_string())?;
            let labels: Vec<f32> = (0..input.shape.numel())
                .map(|k| (k % classes.max(1)) as f32)
                .collect();
            Tensor::from_vec(input.shape.clone(), labels)
                .map_err(|e| format!("labels for {}: {e}", inst.key.render()))?
        } else {
            Tensor::rand_uniform(input.shape.clone(), -0.5, 0.5, &mut rng)
        };
        if input.is_param {
            net.add_parameter(&name, data);
        } else if input.produced {
            let fed = format!("fed{j}");
            net.add_input(&fed);
            net.add_node(
                format!("producer{j}"),
                "Scale",
                Attributes::new(),
                &[fed.as_str()],
                &[name.as_str()],
            )
            .map_err(|e| format!("{}: producer: {e}", inst.key.render()))?;
            feeds.push((fed, data));
        } else {
            net.add_input(&name);
            feeds.push((name.clone(), data));
        }
        names.push(name);
    }

    let in_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    net.add_node(
        "brick",
        &inst.key.op_type,
        inst.attrs.clone(),
        &in_refs,
        &["y"],
    )
    .map_err(|e| format!("{}: {e}", inst.key.render()))?;

    let loss = if inst.out_shape.numel() == 1 {
        net.add_output("y");
        "y".to_string()
    } else {
        net.add_node(
            "seed",
            "BrickGradSeed",
            Attributes::new().with_int("density_pct", inst.key.grad_pct as i64),
            &["y"],
            &["loss"],
        )
        .map_err(|e| format!("{}: seed tail: {e}", inst.key.render()))?;
        net.add_output("loss");
        "loss".to_string()
    };

    let engine = Engine::builder(net)
        .executor(ExecutorKind::Reference)
        .build()
        .map_err(|e| format!("{}: engine: {e}", inst.key.render()))?;
    Ok(MicroBench {
        engine,
        feeds,
        loss,
    })
}

/// The brick node's cumulative (forward_s, backward_s) attribution.
fn brick_span_totals(engine: &Engine) -> (f64, f64) {
    engine
        .lock()
        .op_attribution()
        .iter()
        .find(|r| r.name == "brick")
        .map(|r| (r.forward_s, r.backward_s))
        .unwrap_or((0.0, 0.0))
}

/// Benchmark every brick in `set`: `warmup` discarded passes, then
/// `rounds` interleaved measured passes keeping the per-brick minimum.
/// Costs come back in `set.bricks` order.
pub fn measure(set: &BrickSet, warmup: usize, rounds: usize) -> Result<Vec<BrickCost>, String> {
    let mut runner = MicroRunner::new(set)?;
    runner.warmup(warmup)?;
    for _ in 0..rounds.max(1) {
        runner.round()?;
    }
    Ok(runner.costs().to_vec())
}
