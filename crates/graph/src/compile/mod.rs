//! The graph compile pipeline: an ahead-of-time stage between
//! `Network::to_ir()` and the executors.
//!
//! Deep500 treats the network as "transformable" but leaves every decision
//! to execution time: the reference loop re-derives readiness from string
//! keys every pass, allocates every activation afresh, and dispatches
//! whatever nodes the graph happens to contain. This module moves that
//! work ahead of time, and owns the crate's one level-parallel executor:
//!
//! 1. **GEMM-epilogue fusion** ([`fuse_gemm_epilogues`]) — nGraph-style
//!    producer→consumer fusion: a `Linear`/`MatMul`/`Conv2d` followed by a
//!    single-consumer `Relu` collapses into one node whose
//!    packed-microkernel write-back applies the activation (zero extra
//!    memory traffic). It is [`compile`]'s one rewrite, gated by the
//!    transform-safety diff harness
//!    ([`deep500_verify::transform_safety`]): a rewrite that drifts the
//!    observable interface, a parameter, or a surviving tensor's shape is
//!    rejected, not executed.
//! 2. **The plan interpreter** ([`plan::ExecutionPlan`] +
//!    [`planned::PlannedExecutor`]) — the dependency-level partition is
//!    frozen into per-level dispatch lists and death lists over integer
//!    tensor ids (forward environment and backward gradient table alike),
//!    so execution never recomputes readiness or hashes tensor names. The
//!    plan holds the schedule, not the memory: nothing in it depends on the
//!    feed shapes, so it is frozen once per network, when the interpreter
//!    is built, and gated there on the plan-soundness lint (`V018`); every
//!    pass buffer comes from the interpreter's
//!    [`BufferPool`](deep500_tensor::BufferPool). Every concurrent run —
//!    compiled graph or not — goes through it, and so through that one
//!    plan gate. [`compile`] itself ends on the shape-aware graph gate and
//!    builds no plan.
//!
//! Results remain bit-identical to the reference executor: the fusion
//! preserves the exact per-element float sequence (see the epilogue
//! contract in `deep500_ops::gemm::packed`), and the interpreter
//! accumulates gradient contributions in the reference sweep's order: steps
//! are stored in the network's level order — which the reference loop walks
//! too — levels are walked in reverse with each level reversed, and results
//! are applied in group order on the coordinator — so contributions reach
//! any tensor in strictly descending step index and are `axpy`ed on
//! arrival.

pub mod plan;
pub mod planned;

pub use plan::ExecutionPlan;
pub use planned::{PlanCacheStats, PlannedExecutor};

use crate::network::{Network, NodeId};
use deep500_ops::conv::ConvAlgorithm;
use deep500_tensor::{Error, Result, Shape};

/// The compile driver has nothing to choose: it runs its one pass on every
/// network, for inference and training alike. Kept, without fields,
/// because the frozen spine benchmark passes it to [`compile`] and
/// [`EngineBuilder::compile`](crate::EngineBuilder::compile). Other crates
/// make one with [`CompileOptions::default`].
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct CompileOptions;

impl CompileOptions {
    /// The same as [`CompileOptions::default`]. Kept because the frozen
    /// spine benchmark calls it.
    pub fn inference() -> Self {
        CompileOptions
    }
}

/// What the compile driver did to the graph.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Direct-tier convolutions whose filter is a parameter, which the
    /// operator's memo packs on first use. Not a rewrite; kept because the
    /// spine benchmark reports it as `graph.filters_packed`.
    pub filters_packed: usize,
    /// ReLUs folded into GEMM epilogues.
    pub fused_epilogues: usize,
    /// Node count before / after the pipeline.
    pub nodes_before: usize,
    pub nodes_after: usize,
}

impl CompileReport {
    /// Total rewrites applied: the epilogue fusions. Kept because the
    /// spine benchmark reports it as `graph.rewrites`.
    pub fn rewrites(&self) -> usize {
        self.fused_epilogues
    }
}

/// Run a transform-safety diff of `net` against the `before` snapshot and
/// turn any deny lint into `Error::Validation` naming the pass.
fn gate_pass(
    pass: &str,
    before: &deep500_verify::GraphIr,
    net: &Network,
    input_shapes: &[(&str, Shape)],
) -> Result<()> {
    let diff = deep500_verify::transform_safety::diff(before, &net.to_ir(), input_shapes);
    if diff.passes() {
        Ok(())
    } else {
        Err(Error::Validation(format!(
            "compile pass '{pass}' on '{}' rejected by the transform-safety \
             harness ({} deny lints):\n{}",
            net.name,
            diff.report.deny_count(),
            diff.report.render(false)
        )))
    }
}

/// Fold single-consumer `Relu`s into the write-back epilogue of their
/// producing GEMM-backed node (`Linear`, `MatMul`, or `Conv2d`). The pair
/// collapses into one node carrying `epilogue = "relu"`, which the operator
/// registry lowers onto the packed microkernel's epilogue hook
/// (`deep500_ops::gemm::Epilogue`): the activation is applied to each
/// output tile while it is still register-resident, so the intermediate
/// pre-activation tensor is never written to memory at all. (On the
/// direct convolution tier the bias ride-along makes this a single fused
/// bias+ReLU write-back; the other conv tiers apply the identical values
/// in a separate in-place pass.) Returns the number of pairs fused.
///
/// The GEMM's output must have exactly one consumer, must not be a
/// declared graph output (the pre-activation name disappears), and the
/// GEMM must not already carry an epilogue. The rewrite is exact — the
/// epilogue applies `max(x, 0)` to the identical per-element values a
/// standalone `Relu` node would see, and the fused backward masks
/// gradients through the (retained) post-activation output exactly like
/// `ReluOp::backward`.
///
/// The rewritten graph is re-verified through `deep500-verify` before the
/// function returns: a fusion that broke dataflow (dangling edge, duplicate
/// writer) surfaces as `Error::Validation` here instead of at the next
/// executor build.
pub fn fuse_gemm_epilogues(net: &mut Network) -> Result<usize> {
    let mut fused = 0usize;
    loop {
        let mut pair: Option<(NodeId, NodeId)> = None;
        'search: for (id, node) in net.nodes() {
            if node.op_type != "Linear" && node.op_type != "MatMul" && node.op_type != "Conv2d" {
                continue;
            }
            if !node.attrs.str_or("epilogue", "").is_empty() {
                continue;
            }
            if node.outputs.len() != 1 {
                continue;
            }
            let out = &node.outputs[0];
            if net.graph_outputs().contains(out) {
                continue;
            }
            let consumers = net.consumers_of(out);
            if consumers.len() != 1 {
                continue;
            }
            let rn = net.node(consumers[0]).expect("live");
            // The consumer must read the GEMM output exactly once — a
            // hypothetical Relu(y, y) shape would double-count.
            if rn.op_type == "Relu" && rn.inputs.len() == 1 {
                pair = Some((id, consumers[0]));
                break 'search;
            }
        }
        let Some((gemm, relu)) = pair else {
            if fused > 0 {
                deep500_verify::gate(&net.to_ir())?;
            }
            return Ok(fused);
        };
        let g = net.remove_node(gemm)?;
        let r = net.remove_node(relu)?;
        net.add_node(
            g.name,
            g.op_type,
            g.attrs.with_str("epilogue", "relu"),
            &g.inputs.iter().map(String::as_str).collect::<Vec<_>>(),
            &r.outputs.iter().map(String::as_str).collect::<Vec<_>>(),
        )?;
        fused += 1;
    }
}

/// Compile `net` in place: fuse GEMM epilogues, gate the rewrite on the
/// transform-safety harness under the given graph-input shapes, then gate
/// the result on the full shape-aware verifier. Returns what was
/// rewritten. The network afterwards is ready for any executor;
/// [`PlannedExecutor`] freezes its schedule and gates it on the
/// plan-soundness lint when it is built, so compile builds no plan.
pub fn compile(
    net: &mut Network,
    input_shapes: &[(&str, Shape)],
    _opts: &CompileOptions,
) -> Result<CompileReport> {
    let mut report = CompileReport {
        nodes_before: net.num_nodes(),
        ..CompileReport::default()
    };

    report.filters_packed = net
        .nodes()
        .filter(|(_, n)| {
            n.op_type == "Conv2d"
                && matches!(
                    ConvAlgorithm::parse(n.attrs.str_or("algorithm", "direct")),
                    Ok(ConvAlgorithm::Direct)
                )
                && n.inputs.get(1).is_some_and(|w| net.is_parameter(w))
        })
        .count();
    let before = net.to_ir();
    report.fused_epilogues = fuse_gemm_epilogues(net)?;
    if report.fused_epilogues > 0 {
        gate_pass("fuse_gemm_epilogues", &before, net, input_shapes)?;
    }

    report.nodes_after = net.num_nodes();
    // Final gate: whatever the pass produced must pass the full
    // shape-aware verifier at the declared shapes — so a graph the pass
    // left alone is checked too (e.g. a conv fed a rank-1 filter).
    deep500_verify::gate_with_inputs(&net.to_ir(), input_shapes)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};
    use crate::models::{self, feed_refs};
    use deep500_ops::registry::Attributes;
    use deep500_tensor::Tensor;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn compile_mlp_fuses_relus_and_preserves_outputs() {
        let net = models::mlp(16, &[32, 24], 4, 11).unwrap();
        let feeds = [
            ("x", Tensor::ones([3, 16])),
            ("labels", Tensor::from_slice(&[0.0, 1.0, 2.0])),
        ];
        let mut reference =
            ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let expect = reference.inference(&feeds).unwrap();

        let mut compiled = net.clone_structure();
        let report = compile(
            &mut compiled,
            &[("x", Shape::new(&[3, 16])), ("labels", Shape::new(&[3]))],
            &CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(report.fused_epilogues, 2, "both hidden ReLUs fold");
        assert!(report.nodes_after < report.nodes_before);

        let mut ex = ReferenceExecutor::construct(compiled, usize::MAX).unwrap();
        let got = ex.inference(&feeds).unwrap();
        for (name, t) in &expect {
            assert_eq!(
                got[name].data(),
                t.data(),
                "compiled output '{name}' must be bit-identical"
            );
        }
    }

    #[test]
    fn packed_network_is_bit_identical_and_still_verifies() {
        let net = models::lenet(1, 28, 10, 7).unwrap();
        let x: Vec<f32> = (0..28 * 28).map(|i| (i as f32 * 0.05).sin()).collect();
        let feeds = [
            ("x", Tensor::from_vec([1, 1, 28, 28], x).unwrap()),
            ("labels", Tensor::from_slice(&[4.0])),
        ];
        let mut reference =
            ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
        let expect = reference.inference(&feeds).unwrap();

        // `compile` ends on the full shape-aware verifier gate.
        let mut compiled = net.clone_structure();
        let shapes = [
            ("x", Shape::new(&[1, 1, 28, 28])),
            ("labels", Shape::new(&[1])),
        ];
        let report = compile(&mut compiled, &shapes, &CompileOptions::default()).unwrap();
        assert_eq!(
            report.filters_packed, 2,
            "both LeNet convs ride the direct tier"
        );
        let mut ex = ReferenceExecutor::construct(compiled, usize::MAX).unwrap();
        let got = ex.inference(&feeds).unwrap();
        for (name, t) in &expect {
            assert_eq!(
                bits(&got[name]),
                bits(t),
                "output '{name}' drifted under compilation"
            );
        }
    }

    #[test]
    fn only_direct_convs_count_as_packed_filters() {
        let mut net = crate::builder::NetworkBuilder::image_input("e", 2, 12, 12, 1)
            .conv_with_algo(8, 5, 1, 0, "im2col")
            .conv_with_algo(4, 5, 1, 0, "im2col")
            .conv(4, 3, 1, 0)
            .build()
            .unwrap();
        let shapes = [("x", Shape::new(&[1, 2, 12, 12]))];
        let report = compile(&mut net, &shapes, &CompileOptions::default()).unwrap();
        assert_eq!(
            report.filters_packed, 1,
            "only the direct conv packs its filter"
        );
    }

    #[test]
    fn compile_is_idempotent() {
        let mut net = models::mlp(8, &[8], 3, 7).unwrap();
        let shapes = [("x", Shape::new(&[2, 8])), ("labels", Shape::new(&[2]))];
        let first = compile(&mut net, &shapes, &CompileOptions::default()).unwrap();
        assert!(first.rewrites() > 0);
        let second = compile(&mut net, &shapes, &CompileOptions::default()).unwrap();
        assert_eq!(
            second.rewrites(),
            0,
            "second compile finds nothing: {second:?}"
        );
        assert_eq!(second.nodes_before, second.nodes_after);
    }

    #[test]
    fn interface_breaking_pass_is_rejected_by_gate() {
        // Simulate a broken pass by diffing against a snapshot with a
        // different output set.
        let mut net = Network::new("g");
        net.add_input("x");
        net.add_node("r", "Relu", Attributes::new(), &["x"], &["y"])
            .unwrap();
        net.add_output("y");
        let mut before = net.to_ir();
        before.outputs.push("ghost".into());
        let err = gate_pass("broken", &before, &net, &[("x", Shape::new(&[1, 4]))]).unwrap_err();
        assert!(matches!(err, Error::Validation(_)));
    }

    /// Every zoo model compiles to its pinned epilogue count and node
    /// counts (the first three are `BENCH_plan.json`'s `models` rows), and
    /// the compiled graph infers bit for bit what the uncompiled one does
    /// on the plan interpreter.
    #[test]
    fn compile_pins_every_zoo_model() {
        let pinned = [
            ("mlp_small", 2, 7, 5),
            ("mlp_wide", 2, 7, 5),
            ("lenet", 4, 14, 10),
            ("alexnet_like", 3, 12, 9),
            ("mlp_deep", 3, 9, 6),
            ("resnet_like", 1, 20, 19),
            ("resnet_deep", 1, 34, 33),
            ("resnet_wide", 1, 20, 19),
        ];
        let zoo = models::zoo();
        assert_eq!(zoo.len(), pinned.len());
        for (case, (name, fused, before, after)) in zoo.iter().zip(pinned) {
            assert_eq!(case.name, name);
            let shapes = case.input_shapes();
            let mut compiled = case.net.clone_structure();
            let report = compile(&mut compiled, &shapes, &CompileOptions::default()).unwrap();
            assert_eq!(
                (
                    report.fused_epilogues,
                    report.nodes_before,
                    report.nodes_after
                ),
                (fused, before, after),
                "{name}"
            );
            let feeds = case.feeds(7);
            let mut raw =
                PlannedExecutor::construct(case.net.clone_structure(), usize::MAX).unwrap();
            let mut fast = PlannedExecutor::construct(compiled, usize::MAX).unwrap();
            let expect = raw.inference(&feed_refs(&feeds)).unwrap();
            let got = fast.inference(&feed_refs(&feeds)).unwrap();
            for (out, t) in &expect {
                assert_eq!(bits(&got[out]), bits(t), "{name} output '{out}'");
            }
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};
    use crate::models;
    use deep500_tensor::Tensor;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The pipeline is idempotent and exact on the MLP family: a
        /// second `compile` finds nothing to rewrite, and the compiled
        /// graph's outputs are bit-identical to the uncompiled reference.
        #[test]
        fn compile_is_idempotent_and_exact_on_mlps(
            seed in 1u64..500,
            hidden in 1usize..24,
            batch in 1usize..4,
        ) {
            let net = models::mlp(6, &[hidden], 3, seed).unwrap();
            let x: Vec<f32> = (0..batch * 6)
                .map(|i| ((i as f32) + seed as f32).sin() * 2.0)
                .collect();
            let feeds = [
                ("x", Tensor::from_vec([batch, 6], x).unwrap()),
                ("labels", Tensor::from_slice(&vec![1.0; batch])),
            ];
            let shapes = [
                ("x", Shape::new(&[batch, 6])),
                ("labels", Shape::new(&[batch])),
            ];
            let opts = CompileOptions::default();
            let mut reference = ReferenceExecutor::construct(net.clone_structure(), usize::MAX).unwrap();
            let expect = reference.inference(&feeds).unwrap();

            let mut compiled = net.clone_structure();
            let first = compile(&mut compiled, &shapes, &opts).unwrap();
            let second = compile(&mut compiled, &shapes, &opts).unwrap();
            prop_assert_eq!(second.rewrites(), 0, "first {:?}, second {:?}", first, second);

            let mut ex = ReferenceExecutor::construct(compiled, usize::MAX).unwrap();
            let got = ex.inference(&feeds).unwrap();
            for (name, t) in &expect {
                // Bitwise comparison: NaNs (if any) must match too.
                let gb: Vec<u32> = got[name].data().iter().map(|v| v.to_bits()).collect();
                let eb: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&gb, &eb, "output '{}' drifted", name);
            }
        }
    }
}
