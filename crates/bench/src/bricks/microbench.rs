//! Stage 3: micro-benchmark each unique brick.
//!
//! Every brick is rebuilt as a one-node micro-network and run through the
//! same [`Engine`]/`Session` front door the serving and training layers
//! use — not a bare operator call — so the measured cost includes exactly
//! the per-op work the real executors pay (timer spans, gradient
//! publication for parameter inputs, output routing).
//!
//! Timing discipline: all micro-engines are built up front and handed to
//! the crate's one timing loop ([`crate::time_rounds`]) as subjects, so a
//! brick's samples are interleaved with every other brick's — and, in the
//! `bricks` bin, with the whole-model validation passes and the overhead
//! calibration chains. A brick's cost is the *median* over the rounds,
//! like the whole-model side it is compared with.

use super::decompose::BrickInstance;
use super::dedup::BrickSet;
use crate::{time_rounds, Subject};
use deep500::graph::models::feed_refs;
use deep500::graph::{Engine, ExecutorKind, Network};
use deep500::metrics::stats::Summary;
use deep500::ops::registry::Attributes;
use deep500::tensor::{Tensor, Xoshiro256StarStar};

/// Measured cost of one brick, seconds per single pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrickCost {
    /// Forward span time.
    pub forward_s: f64,
    /// Backward span time (gradient of the brick itself; the loss tail's
    /// cost is excluded by reading only the brick's own attribution row).
    pub backward_s: f64,
}

/// A brick rebuilt as a runnable one-node network.
struct MicroBench {
    engine: Engine,
    feeds: Vec<(String, Tensor)>,
    loss: String,
}

/// All of a brick set's micro-networks, ready to be measured.
pub struct MicroRunner {
    benches: Vec<MicroBench>,
}

impl MicroRunner {
    /// Build a micro-network per unique brick in `set`.
    pub fn new(set: &BrickSet) -> Result<Self, String> {
        let benches = set
            .bricks
            .iter()
            .enumerate()
            .map(|(i, brick)| build_micro(&brick.exemplar, 0x5eed + i as u64))
            .collect::<Result<_, _>>()?;
        Ok(MicroRunner { benches })
    }

    fn run_one(b: &MicroBench) {
        let feeds = feed_refs(&b.feeds);
        b.engine
            .session()
            .infer_and_backprop(&feeds, &b.loss)
            .expect("a micro-network that built runs");
    }

    /// One timing-loop subject per brick, in `set.bricks` order. Each call
    /// runs one unmeasured re-warming pass (the prediction target is a
    /// model's steady-state hot loop, so a brick must not be charged for
    /// the cache eviction its interleaved neighbours just caused) and one
    /// measured pass, returning the brick node's `[forward, backward]`
    /// span deltas.
    pub fn subjects(&self) -> Vec<Subject<'_, 2>> {
        self.benches
            .iter()
            .map(|b| {
                Subject::spans(move || {
                    Self::run_one(b);
                    let (f0, b0) = brick_span_totals(&b.engine);
                    Self::run_one(b);
                    let (f1, b1) = brick_span_totals(&b.engine);
                    [(f1 - f0).max(0.0), (b1 - b0).max(0.0)]
                })
            })
            .collect()
    }
}

/// Fold the timing loop's output for [`MicroRunner::subjects`] (one
/// `[forward, backward]` pair per brick) into brick costs.
pub fn costs(summaries: &[[Summary; 2]]) -> Vec<BrickCost> {
    summaries
        .iter()
        .map(|[forward, backward]| BrickCost {
            forward_s: forward.median,
            backward_s: backward.median,
        })
        .collect()
}

/// Reconstruct `inst` as a single-node network plus its feeds. Parameter
/// inputs of the parent model become parameters here too (so backward
/// publishes their gradients, as it would in the real model); activation
/// inputs become fed graph inputs — behind a pass-through `Scale` node
/// when a node produced them in the parent model, so the brick owes the
/// same input gradients here as there. An `MseLoss` tail against a fed
/// target is appended when the brick's output is not already a scalar, so
/// backprop reaches the brick without disturbing its own spans.
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
        net.add_input("target");
        net.add_node(
            "tail",
            "MseLoss",
            Attributes::new(),
            &["y", "target"],
            &["loss"],
        )
        .map_err(|e| format!("{}: loss tail: {e}", inst.key.render()))?;
        let target = Tensor::rand_uniform(inst.out_shape.clone(), -0.5, 0.5, &mut rng);
        feeds.push(("target".to_string(), target));
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

/// Benchmark every brick in `set` on its own: `warmup` discarded rounds,
/// then `rounds` interleaved measured ones. Costs come back in
/// `set.bricks` order.
pub fn measure(set: &BrickSet, warmup: usize, rounds: usize) -> Result<Vec<BrickCost>, String> {
    let runner = MicroRunner::new(set)?;
    let summaries = time_rounds(warmup, rounds, &mut runner.subjects());
    Ok(costs(&summaries))
}
