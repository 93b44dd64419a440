//! The graph compile pipeline: an ahead-of-time stage between
//! `Network::to_ir()` and the executors.
//!
//! Deep500 treats the network as "transformable" but leaves every decision
//! to execution time: the reference loop re-derives readiness from string
//! keys every pass, allocates every activation afresh, and dispatches
//! whatever nodes the graph happens to contain. This module moves that
//! work ahead of time, and owns the crate's one level-parallel executor:
//!
//! 1. **IR optimization passes** ([`passes`]) — constant folding and
//!    common-subexpression elimination over the [`Network`], each gated by
//!    the transform-safety diff harness
//!    ([`deep500_verify::transform_safety`]): a pass that drifts the
//!    observable interface, a parameter, or a surviving tensor's shape is
//!    rejected, not executed.
//! 2. **Generalized fusion** — producer→consumer fusion into GEMM epilogues
//!    ([`crate::transforms::fusion::fuse_gemm_epilogues`]): a
//!    `Linear`/`MatMul`/`Conv2d` followed by a single-consumer `Relu`
//!    collapses into one node whose packed-microkernel write-back applies
//!    the activation (zero extra memory traffic), plus the existing
//!    elementwise-chain fusion.
//! 3. **The plan interpreter** ([`plan::ExecutionPlan`] +
//!    [`planned::PlannedExecutor`]) — the dependency-level partition is
//!    frozen into per-level dispatch lists and death lists over integer
//!    tensor ids (forward environment and backward gradient table alike),
//!    so execution never recomputes readiness or hashes tensor names. The
//!    plan holds the schedule, not the memory: nothing in it depends on the
//!    feed shapes, so it is frozen and gated once per network, and every
//!    pass buffer comes from the interpreter's
//!    [`BufferPool`](deep500_tensor::BufferPool). Every concurrent run —
//!    compiled graph or not — goes through it, and so through the
//!    plan-soundness gate.
//!
//! Results remain bit-identical to the reference executor: every rewrite
//! preserves the exact per-element float sequence (see the epilogue
//! contract in `deep500_ops::gemm::packed`), and the interpreter
//! accumulates gradient contributions in the reference sweep's order: steps
//! are stored in the network's level order — which the reference loop walks
//! too — levels are walked in reverse with each level reversed, and results
//! are applied in group order on the coordinator — so contributions reach
//! any tensor in strictly descending step index and are `axpy`ed on
//! arrival.

pub mod passes;
pub mod plan;
pub mod planned;

pub use plan::ExecutionPlan;
pub use planned::{PlanCacheStats, PlannedExecutor};

use crate::network::Network;
use crate::transforms::fusion;
use deep500_ops::conv::ConvAlgorithm;
use deep500_tensor::{Error, Result, Shape};

/// The compile driver always runs its passes in one fixed order — constant
/// folding → CSE → elementwise-chain fusion → GEMM-epilogue fusion. The one
/// decision a caller makes is whether the parameters are constants.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Treat parameters as constants: fold through them. Off for training
    /// — folded parameters would not see optimizer updates.
    freeze_params: bool,
}

impl CompileOptions {
    /// Parameters are constants: everything folds. For inference-only
    /// deployment.
    pub fn inference() -> Self {
        CompileOptions {
            freeze_params: true,
        }
    }

    /// Training-safe: parameters stay live (no folding through them), but
    /// CSE and both fusions apply — their backward passes are exact (the
    /// fused epilogue masks gradients identically to a standalone `Relu`
    /// node).
    pub fn training() -> Self {
        CompileOptions {
            freeze_params: false,
        }
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::inference()
    }
}

/// What the compile driver did to the graph.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Direct-tier convolutions whose filter is a parameter, which the
    /// operator's memo packs on first use. Not a rewrite; kept because the
    /// spine benchmark reports it as `graph.filters_packed`.
    pub filters_packed: usize,
    /// Nodes folded to constants.
    pub folded: usize,
    /// Duplicate nodes merged by CSE.
    pub merged: usize,
    /// Elementwise chains collapsed.
    pub fused_elementwise: usize,
    /// ReLUs folded into GEMM epilogues.
    pub fused_epilogues: usize,
    /// Node count before / after the pipeline.
    pub nodes_before: usize,
    pub nodes_after: usize,
}

impl CompileReport {
    /// Total rewrites applied.
    pub fn rewrites(&self) -> usize {
        self.folded + self.merged + self.fused_elementwise + self.fused_epilogues
    }
}

/// `input_shapes` plus the shape of every value in the store (constants
/// folded by earlier passes), so shape inference reaches every tensor.
fn known_shapes<'a>(net: &'a Network, input_shapes: &[(&'a str, Shape)]) -> Vec<(&'a str, Shape)> {
    let mut known = input_shapes.to_vec();
    for (name, t) in net.values() {
        if !known.iter().any(|(n, _)| *n == name.as_str()) {
            known.push((name.as_str(), t.shape().clone()));
        }
    }
    known
}

/// Run a transform-safety diff of `net` against the `before` snapshot and
/// turn any deny lint into `Error::Validation` naming the pass. The folded
/// constants materialized into the value store are threaded as extra input
/// shapes so shape inference (and therefore drift detection) still reaches
/// every surviving tensor.
fn gate_pass(
    pass: &str,
    before: &deep500_verify::GraphIr,
    net: &Network,
    input_shapes: &[(&str, Shape)],
) -> Result<()> {
    let after = net.to_ir();
    let extended = known_shapes(net, input_shapes);
    let diff = deep500_verify::transform_safety::diff(before, &after, &extended);
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

/// Compile `net` in place: run the passes in order, gating each on
/// the transform-safety harness under the given graph-input shapes.
/// Returns what was rewritten. The network afterwards is ready for any
/// executor; [`PlannedExecutor`] additionally freezes the schedule at its
/// first pass.
pub fn compile(
    net: &mut Network,
    input_shapes: &[(&str, Shape)],
    opts: &CompileOptions,
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
    if opts.freeze_params {
        let before = net.to_ir();
        report.folded = passes::constant_fold(net, true)?;
        if report.folded > 0 {
            gate_pass("constant_fold", &before, net, input_shapes)?;
        }
    }
    let before = net.to_ir();
    report.merged = passes::eliminate_common_subexpressions(net)?;
    if report.merged > 0 {
        gate_pass("cse", &before, net, input_shapes)?;
    }
    let before = net.to_ir();
    report.fused_elementwise = fusion::fuse_elementwise(net)?;
    if report.fused_elementwise > 0 {
        gate_pass("fuse_elementwise", &before, net, input_shapes)?;
    }
    let before = net.to_ir();
    report.fused_epilogues = fusion::fuse_gemm_epilogues(net)?;
    if report.fused_epilogues > 0 {
        gate_pass("fuse_gemm_epilogues", &before, net, input_shapes)?;
    }

    report.nodes_after = net.num_nodes();
    // Final gate: whatever the pipeline produced must pass the full
    // shape-aware verifier at the declared shapes — so a graph the passes
    // left alone is checked too (e.g. a conv fed a rank-1 filter).
    deep500_verify::gate_with_inputs(&net.to_ir(), &known_shapes(net, input_shapes))?;
    // Plan-soundness gate (V018, V020): freeze the schedule the planned
    // executor would run and prove liveness and memo invalidation before
    // anything executes.
    let exec_plan = plan::ExecutionPlan::freeze(net, input_shapes)?;
    let ops = net.instantiate_ops()?;
    deep500_verify::gate_plan(&exec_plan.to_plan_ir(net, &ops, &[]))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};
    use crate::models;
    use deep500_ops::registry::Attributes;
    use deep500_tensor::Tensor;

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
            &CompileOptions::inference(),
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
        let report = compile(&mut compiled, &shapes, &CompileOptions::inference()).unwrap();
        assert_eq!(
            report.filters_packed, 2,
            "both LeNet convs ride the direct tier"
        );
        let mut ex = ReferenceExecutor::construct(compiled, usize::MAX).unwrap();
        let got = ex.inference(&feeds).unwrap();
        for (name, t) in &expect {
            let gb: Vec<u32> = got[name].data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, eb, "output '{name}' drifted under compilation");
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
        let report = compile(&mut net, &shapes, &CompileOptions::training()).unwrap();
        assert_eq!(
            report.filters_packed, 1,
            "only the direct conv packs its filter"
        );
    }

    #[test]
    fn compile_is_idempotent() {
        let mut net = models::mlp(8, &[8], 3, 7).unwrap();
        let shapes = [("x", Shape::new(&[2, 8])), ("labels", Shape::new(&[2]))];
        let first = compile(&mut net, &shapes, &CompileOptions::inference()).unwrap();
        assert!(first.rewrites() > 0);
        let second = compile(&mut net, &shapes, &CompileOptions::inference()).unwrap();
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

    #[test]
    fn training_options_keep_params_unfolded() {
        let opts = CompileOptions::training();
        assert!(!opts.freeze_params);
        let mut net = models::mlp(4, &[4], 2, 3).unwrap();
        let shapes = [("x", Shape::new(&[1, 4])), ("labels", Shape::new(&[1]))];
        let report = compile(&mut net, &shapes, &opts).unwrap();
        assert_eq!(report.folded, 0);
        assert!(report.fused_epilogues > 0);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};
    use crate::models;
    use deep500_ops::registry::Attributes;
    use deep500_tensor::Tensor;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The full pipeline is idempotent and exact on the MLP family:
        /// a second `compile` finds nothing to rewrite, and the compiled
        /// graph's outputs are bit-identical to the uncompiled reference.
        #[test]
        fn compile_is_idempotent_and_exact_on_mlps(
            seed in 1u64..500,
            hidden in 1usize..24,
            batch in 1usize..4,
            training in any::<bool>(),
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
            let opts = if training {
                CompileOptions::training()
            } else {
                CompileOptions::inference()
            };
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

        /// Constant folding and CSE individually reach a fixpoint on
        /// graphs of duplicated parameter-fed Scale chains, and the
        /// surviving graph still produces bit-identical outputs.
        #[test]
        fn fold_and_cse_reach_fixpoints(
            alpha in -2.0f64..2.0,
            dup in 2usize..5,
        ) {
            let build = || {
                let mut net = Network::new("p");
                net.add_input("x");
                net.add_parameter("w", Tensor::from_slice(&[1.0, -2.0, 3.0]));
                let mut sums: Vec<String> = Vec::new();
                for i in 0..dup {
                    // Identical chains: Scale(w) -> Add(x, ·)
                    net.add_node(
                        format!("s{i}"),
                        "Scale",
                        Attributes::new().with_float("alpha", alpha),
                        &["w"],
                        &[&format!("c{i}")],
                    )
                    .unwrap();
                    net.add_node(
                        format!("a{i}"),
                        "Add",
                        Attributes::new(),
                        &["x", &format!("c{i}")],
                        &[&format!("t{i}")],
                    )
                    .unwrap();
                    sums.push(format!("t{i}"));
                }
                let mut acc = sums[0].clone();
                for (i, s) in sums.iter().enumerate().skip(1) {
                    // The last accumulator is the declared output.
                    let out = if i == dup - 1 {
                        "y".to_string()
                    } else {
                        format!("acc{i}")
                    };
                    net.add_node(
                        format!("sum{i}"),
                        "Add",
                        Attributes::new(),
                        &[&acc, s],
                        &[&out],
                    )
                    .unwrap();
                    acc = out;
                }
                net.add_output("y");
                net
            };
            let x = Tensor::from_slice(&[0.5, 1.5, -0.5]);
            let mut reference = ReferenceExecutor::construct(build(), usize::MAX).unwrap();
            let expect = reference.inference(&[("x", x.clone())]).unwrap()["y"].clone();

            // CSE alone: all duplicate chains merge, then nothing more.
            let mut net = build();
            let merged = passes::eliminate_common_subexpressions(&mut net).unwrap();
            prop_assert_eq!(merged, 2 * (dup - 1), "scale+add per duplicate chain");
            prop_assert_eq!(passes::eliminate_common_subexpressions(&mut net).unwrap(), 0);

            // Folding alone: each Scale folds (params frozen), fixpoint after.
            let mut net = build();
            let folded = passes::constant_fold(&mut net, true).unwrap();
            prop_assert_eq!(folded, dup);
            prop_assert_eq!(passes::constant_fold(&mut net, true).unwrap(), 0);

            // Both still compute the same bits.
            let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
            let got = ex.inference(&[("x", x)]).unwrap()["y"].clone();
            let gb: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = expect.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(gb, eb);
        }
    }
}
