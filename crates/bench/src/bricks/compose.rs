//! Stage 4: compose brick costs into whole-model runtime predictions.
//!
//! Summing per-brick span times under-predicts a real model: every node
//! also pays a dispatch cost the spans do not cover (topological walk,
//! feed routing, timer bookkeeping). That overhead is *measured*, not
//! assumed: [`Calibration`] runs two Relu-chain networks of different
//! depths through the timing loop, subtracts their operator-span totals
//! from the pass's phase time, and solves the two-point linear system for a
//! fixed-per-pass and a per-node overhead term — separately for
//! forward-only and full training passes, which exercise different
//! amounts of glue.

use super::decompose::{BrickInstance, BrickKey};
use super::microbench::BrickCost;
use crate::{time_rounds, Subject};
use deep500::graph::builder::NetworkBuilder;
use deep500::graph::models::{feed_refs, ZooCase};
use deep500::graph::{Engine, ExecutorKind};
use deep500::metrics::stats::Summary;
use deep500::metrics::{Phase, TraceRecorder};
use deep500::tensor::{Shape, Tensor};
use std::collections::HashMap;

/// Measured dispatch overhead of the execution engine, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overhead {
    /// Fixed cost of one forward pass, independent of node count.
    pub fwd_fixed_s: f64,
    /// Marginal cost per node of a forward pass.
    pub fwd_per_node_s: f64,
    /// Fixed cost of one forward+backward pass.
    pub train_fixed_s: f64,
    /// Marginal cost per node of a forward+backward pass.
    pub train_per_node_s: f64,
}

/// Predicted whole-model runtime, seconds per pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prediction {
    /// One forward pass.
    pub forward_s: f64,
    /// One training step (forward + backward).
    pub train_s: f64,
}

/// A `k`-deep Relu chain under the zoo's classifier head: `k + 2` nodes
/// whose operator work is deliberately tiny, so wall time minus span time
/// is almost pure dispatch overhead.
fn relu_chain(k: usize) -> Result<ZooCase, String> {
    let mut chain = NetworkBuilder::vector_input("calibrate-relu", 64, 0xca11);
    for _ in 0..k {
        chain = chain.relu();
    }
    Ok(ZooCase {
        name: "calibrate-relu",
        net: chain
            .classifier_loss()
            .build()
            .map_err(|e| format!("calibration chain: {e}"))?,
        x: Shape::new(&[32, 64]),
        classes: 64,
    })
}

/// The two calibration chains, built, traced and measured exactly like
/// the whole-model validation runs: per-op span recording is part of the
/// dispatch overhead a traced model pays, so the chains must pay it too.
pub struct Calibration {
    recorder: TraceRecorder,
    chains: Vec<(Engine, Vec<(String, Tensor)>)>,
}

impl Calibration {
    const DEPTHS: [usize; 2] = [4, 16];

    pub fn new() -> Result<Calibration, String> {
        let recorder = TraceRecorder::new();
        let mut chains = Vec::new();
        for k in Self::DEPTHS {
            let chain = relu_chain(k)?;
            let feeds = chain.feeds(0xca11);
            let engine = Engine::builder(chain.net)
                .executor(ExecutorKind::Reference)
                .trace(&recorder)
                .build()
                .map_err(|e| format!("calibration engine: {e}"))?;
            chains.push((engine, feeds));
        }
        Ok(Calibration { recorder, chains })
    }

    /// One timing-loop subject per chain: a forward pass, then a training
    /// pass, each sampled as the pass's phase time minus the operator-span
    /// seconds inside it — the `[forward, train]` dispatch overhead.
    pub fn subjects(&self) -> Vec<Subject<'_, 2>> {
        self.chains.iter().map(|c| self.subject(c)).collect()
    }

    fn subject<'a>(
        &'a self,
        (engine, feeds): &'a (Engine, Vec<(String, Tensor)>),
    ) -> Subject<'a, 2> {
        let overhead = move |phase: Phase, pass: &dyn Fn()| {
            let totals = || -> (f64, f64) {
                let rows = engine.lock().op_attribution();
                let spans = rows.iter().map(|r| r.forward_s + r.backward_s).sum();
                (self.recorder.phase_total_s(phase), spans)
            };
            let (phase_0, spans_0) = totals();
            pass();
            let (phase_1, spans_1) = totals();
            (phase_1 - phase_0) - (spans_1 - spans_0)
        };
        Subject::spans(move || {
            let (session, feeds) = (engine.session(), feed_refs(feeds));
            let infer = || drop(session.infer(&feeds).expect("chain infers"));
            let train = || {
                let out = session.infer_and_backprop(&feeds, "loss");
                drop(out.expect("chain trains"))
            };
            [
                overhead(Phase::Inference, &infer),
                overhead(Phase::Backprop, &train),
            ]
        })
    }

    /// Solve the two-point system from the timing loop's output for
    /// [`Self::subjects`].
    pub fn solve(&self, summaries: &[[Summary; 2]]) -> Overhead {
        let [f1, t1] = summaries[0].map(|s| s.median.max(0.0));
        let [f2, t2] = summaries[1].map(|s| s.median.max(0.0));
        // The classifier head (logits alias + loss) makes the counts k + 2.
        let n1 = (Self::DEPTHS[0] + 2) as f64;
        let n2 = (Self::DEPTHS[1] + 2) as f64;
        let fwd_per_node_s = ((f2 - f1) / (n2 - n1)).max(0.0);
        let train_per_node_s = ((t2 - t1) / (n2 - n1)).max(0.0);
        Overhead {
            fwd_fixed_s: (f1 - fwd_per_node_s * n1).max(0.0),
            fwd_per_node_s,
            train_fixed_s: (t1 - train_per_node_s * n1).max(0.0),
            train_per_node_s,
        }
    }
}

/// Measure the engine's dispatch overhead from two Relu-chain depths.
pub fn calibrate(warmup: usize, rounds: usize) -> Result<Overhead, String> {
    let calibration = Calibration::new()?;
    let summaries = time_rounds(warmup, rounds, &mut calibration.subjects());
    Ok(calibration.solve(&summaries))
}

/// Predict a model's per-pass runtime by summing its bricks' measured
/// costs plus the calibrated dispatch overhead for its node count.
pub fn predict(
    instances: &[BrickInstance],
    costs: &HashMap<BrickKey, BrickCost>,
    overhead: &Overhead,
) -> Result<Prediction, String> {
    let mut fwd = 0.0;
    let mut bwd = 0.0;
    for inst in instances {
        let c = costs
            .get(&inst.key)
            .ok_or_else(|| format!("no measured cost for brick {}", inst.key.render()))?;
        fwd += c.forward_s;
        // The executor skips the backward of a node backprop never
        // reaches (a dead branch) entirely.
        if inst.reached {
            bwd += c.backward_s;
        }
    }
    let n = instances.len() as f64;
    Ok(Prediction {
        forward_s: fwd + overhead.fwd_fixed_s + overhead.fwd_per_node_s * n,
        train_s: fwd + bwd + overhead.train_fixed_s + overhead.train_per_node_s * n,
    })
}
