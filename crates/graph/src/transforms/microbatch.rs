//! The micro-batch convolution transformation (Oyama et al.; paper §V-C).
//!
//! A convolution over a large minibatch needs a batch-proportional
//! workspace (the im2col lowering buffer); past device capacity it fails
//! with out-of-memory. The transformation rewrites
//!
//! ```text
//! Conv2d(B)   ==>   Split(axis=0, [b1..bk]) -> k x Conv2d(bi) -> Concat(axis=0)
//! ```
//!
//! choosing micro-batch sizes so every piece fits in memory, and assigning
//! each piece an algorithm (the paper's Fig. 7 shows "implicit precompute
//! GEMM" for the small remainder and the library's fastest kernel for the
//! large uniform pieces; here that is im2col for the remainder and the
//! direct tier — fastest on every `BENCH_conv.json` shape at batch 1 and
//! batch 8 — for the uniform pieces).
//!
//! The paper solves an ILP "to maximize performance and preserve memory
//! utilization constraints". With a per-sample-linear workspace and a
//! concave per-piece throughput (larger micro-batches amortize fixed
//! overhead better), the ILP optimum is: uniform maximal pieces plus one
//! remainder — which [`plan_microbatches`] computes in closed form.

use crate::network::{Network, NodeId};
use deep500_ops::registry::Attributes;
use deep500_tensor::{Error, Result, Shape};

/// A micro-batching decision for one convolution node.
///
/// Public for: Fig. 7, returned by `plan_microbatches`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicrobatchPlan {
    /// Micro-batch sizes (sum equals the original batch). The remainder
    /// piece, if any, comes first — matching the paper's `[4, 16, …, 16]`.
    pub sizes: Vec<usize>,
    /// Convolution algorithm per piece (same length as `sizes`).
    pub algorithms: Vec<String>,
}

impl MicrobatchPlan {
    /// Total batch covered by the plan.
    pub fn batch(&self) -> usize {
        self.sizes.iter().sum()
    }
}

/// Compute the optimal micro-batch sizes for a batch of `batch` samples
/// when each sample needs `workspace_per_sample` bytes of convolution
/// workspace and at most `capacity` workspace bytes may live at once.
/// The uniform maximal pieces run the direct tier, the remainder im2col
/// ("implicit precompute GEMM").
pub fn plan_microbatches(
    batch: usize,
    workspace_per_sample: usize,
    capacity: usize,
) -> Result<MicrobatchPlan> {
    if batch == 0 {
        return Err(Error::Invalid("cannot micro-batch an empty batch".into()));
    }
    if workspace_per_sample == 0 {
        // No workspace pressure: single piece.
        return Ok(MicrobatchPlan {
            sizes: vec![batch],
            algorithms: vec!["direct".to_string()],
        });
    }
    let max_fit = capacity / workspace_per_sample;
    if max_fit == 0 {
        return Err(Error::OutOfMemory {
            requested: workspace_per_sample,
            capacity,
        });
    }
    let piece = max_fit.min(batch);
    let full = batch / piece;
    let rem = batch % piece;
    let mut sizes = Vec::with_capacity(full + 1);
    let mut algorithms = Vec::with_capacity(full + 1);
    if rem > 0 {
        sizes.push(rem);
        algorithms.push("im2col".to_string());
    }
    sizes.extend(std::iter::repeat_n(piece, full));
    algorithms.extend(std::iter::repeat_n("direct".to_string(), full));
    Ok(MicrobatchPlan { sizes, algorithms })
}

/// Report of one applied micro-batch rewrite.
///
/// Public for: Fig. 7, returned by `microbatch_convolutions`.
#[derive(Debug, Clone)]
pub struct MicrobatchReport {
    pub node_name: String,
    pub plan: MicrobatchPlan,
    pub workspace_before: usize,
    pub workspace_after: usize,
}

/// Rewrite every `Conv2d` node whose workspace at the batch implied by
/// `input_shapes` (the whole-batch lowering buffer on the im2col tier, a
/// per-image buffer on the direct tier) exceeds `capacity` into a
/// micro-batched Split/Conv*/Concat subgraph. Framework-independent:
/// operates purely on the portable graph, exactly as the paper's Level-1
/// code does.
///
/// Returns one report per transformed node.
pub fn microbatch_convolutions(
    net: &mut Network,
    input_shapes: &[(&str, Shape)],
    capacity: usize,
) -> Result<Vec<MicrobatchReport>> {
    let before_ir = net.to_ir();
    let shapes = deep500_verify::shape_pass::infer(&before_ir, input_shapes, &[], &mut Vec::new());
    let ops = net.instantiate_ops()?;
    let mut todo: Vec<(NodeId, usize, usize)> = Vec::new(); // id, workspace, batch
    for (id, node) in net.nodes() {
        if node.op_type != "Conv2d" {
            continue;
        }
        let in_shapes: Vec<&Shape> = node
            .inputs
            .iter()
            .map(|n| shapes.get(n).ok_or_else(|| Error::NotFound(n.clone())))
            .collect::<Result<_>>()?;
        let ws = ops.get(&id).expect("op").workspace_bytes(&in_shapes);
        if ws > capacity {
            let batch = in_shapes[0].dim(0);
            todo.push((id, ws, batch));
        }
    }

    let mut reports = Vec::with_capacity(todo.len());
    for (id, ws, batch) in todo {
        let node = net.remove_node(id)?;
        let per_sample = ws.div_ceil(batch.max(1));
        let plan = plan_microbatches(batch, per_sample, capacity)?;

        // Split node.
        let split_sizes: Vec<i64> = plan.sizes.iter().map(|&s| s as i64).collect();
        let mb_names: Vec<String> = (0..plan.sizes.len())
            .map(|i| format!("{}::mb{i}", node.name))
            .collect();
        let mb_refs: Vec<&str> = mb_names.iter().map(|s| s.as_str()).collect();
        net.add_node(
            format!("{}::split", node.name),
            "Split",
            Attributes::new().with_ints("sizes", &split_sizes),
            &[&node.inputs[0]],
            &mb_refs,
        )?;

        // Per-piece convolutions sharing the original weight/bias tensors.
        let out_names: Vec<String> = (0..plan.sizes.len())
            .map(|i| format!("{}::out{i}", node.name))
            .collect();
        for i in 0..plan.sizes.len() {
            net.add_node(
                format!("{}::conv{i}", node.name),
                "Conv2d",
                Attributes::new()
                    .with_int("stride", node.attrs.int_or("stride", 1))
                    .with_int("pad", node.attrs.int_or("pad", 0))
                    .with_str("algorithm", &plan.algorithms[i]),
                &[&mb_names[i], &node.inputs[1], &node.inputs[2]],
                &[&out_names[i]],
            )?;
        }

        // Concat back into the original output tensor name.
        let out_refs: Vec<&str> = out_names.iter().map(|s| s.as_str()).collect();
        net.add_node(
            format!("{}::concat", node.name),
            "Concat",
            Attributes::new().with_int("num_inputs", plan.sizes.len() as i64),
            &out_refs,
            &[&node.outputs[0]],
        )?;

        let workspace_after = plan
            .sizes
            .iter()
            .map(|&s| s * per_sample)
            .max()
            .unwrap_or(0);
        reports.push(MicrobatchReport {
            node_name: node.name,
            plan,
            workspace_before: ws,
            workspace_after,
        });
    }

    // Transform-safety harness: re-verify the rewritten graph and diff its
    // inferred shapes against the pre-transform graph. Every surviving
    // tensor (in particular each rewritten conv's output) must keep its
    // shape, and the declared interface and parameters must be intact.
    if !reports.is_empty() {
        let diff = deep500_verify::transform_safety::diff(&before_ir, &net.to_ir(), input_shapes);
        if !diff.passes() {
            return Err(Error::Validation(format!(
                "microbatch transform on '{}' failed re-verification:\n{}",
                net.name,
                diff.report.render(false)
            )));
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{GraphExecutor, ReferenceExecutor};
    use crate::network::Network;
    use deep500_tensor::{Tensor, Xoshiro256StarStar};

    #[test]
    fn planner_uniform_plus_remainder() {
        // Paper-style: B=468, pieces of 16, remainder 4 first.
        let plan = plan_microbatches(468, 1, 16).unwrap();
        assert_eq!(plan.sizes[0], 4);
        assert!(plan.sizes[1..].iter().all(|&s| s == 16));
        assert_eq!(plan.batch(), 468);
        // Remainder 4 -> im2col; pieces of 16 -> direct.
        assert_eq!(plan.algorithms[0], "im2col");
        assert!(plan.algorithms[1..].iter().all(|a| a == "direct"));
    }

    #[test]
    fn planner_exact_division() {
        let plan = plan_microbatches(64, 1, 16).unwrap();
        assert_eq!(plan.sizes, vec![16, 16, 16, 16]);
        assert!(plan.algorithms.iter().all(|a| a == "direct"));
    }

    #[test]
    fn planner_rejects_impossible() {
        assert!(matches!(
            plan_microbatches(8, 100, 50),
            Err(Error::OutOfMemory { .. })
        ));
        assert!(plan_microbatches(0, 1, 10).is_err());
    }

    #[test]
    fn planner_no_pressure_single_piece() {
        let plan = plan_microbatches(32, 0, 1).unwrap();
        assert_eq!(plan.sizes, vec![32]);
    }

    fn conv_net() -> Network {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut net = Network::new("conv");
        net.add_input("x");
        net.add_parameter("w", Tensor::rand_uniform([4, 2, 3, 3], -0.5, 0.5, &mut rng));
        net.add_parameter("b", Tensor::zeros([4]));
        net.add_node(
            "conv",
            "Conv2d",
            Attributes::new()
                .with_int("stride", 1)
                .with_int("pad", 1)
                .with_str("algorithm", "im2col"),
            &["x", "w", "b"],
            &["y"],
        )
        .unwrap();
        net.add_output("y");
        net
    }

    #[test]
    fn transformation_preserves_semantics() {
        let x_shape = Shape::new(&[12, 2, 8, 8]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let x = Tensor::rand_uniform(x_shape.clone(), -1.0, 1.0, &mut rng);

        // Original output.
        let net = conv_net();
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let orig = ex.inference(&[("x", x.clone())]).unwrap()["y"].clone();

        // Transformed output: force splitting with a tiny workspace cap.
        let mut net = conv_net();
        let reports = microbatch_convolutions(&mut net, &[("x", x_shape.clone())], 40_000).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].plan.sizes.len() > 1, "must actually split");
        assert!(reports[0].workspace_after <= 40_000);
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let transformed = ex.inference(&[("x", x)]).unwrap()["y"].clone();
        assert!(
            orig.approx_eq(&transformed, 1e-4),
            "microbatched conv must match"
        );
    }

    #[test]
    fn transformation_avoids_oom() {
        let x_shape = Shape::new(&[12, 2, 8, 8]);
        let x = Tensor::ones(x_shape.clone());
        // Capacity that the whole-batch conv workspace exceeds: im2col
        // workspace = 12*2*9*8*8*4 = 55,296 B; activations add more.
        let cap = 50_000;

        let net = conv_net();
        let mut ex = ReferenceExecutor::construct(net, cap).unwrap();
        assert!(
            matches!(
                ex.inference(&[("x", x.clone())]),
                Err(Error::OutOfMemory { .. })
            ),
            "untransformed net must OOM"
        );

        let mut net = conv_net();
        microbatch_convolutions(&mut net, &[("x", x_shape)], 20_000).unwrap();
        let mut ex = ReferenceExecutor::construct(net, cap).unwrap();
        ex.inference(&[("x", x)]).expect("transformed net fits");
    }

    #[test]
    fn no_rewrite_when_workspace_fits() {
        let mut net = conv_net();
        let reports =
            microbatch_convolutions(&mut net, &[("x", Shape::new(&[2, 2, 8, 8]))], usize::MAX)
                .unwrap();
        assert!(reports.is_empty());
        assert_eq!(net.num_nodes(), 1);
    }

    #[test]
    fn backprop_through_transformed_graph() {
        // Gradients must flow through Split/Concat to the shared weights.
        let mut net = conv_net();
        // Reuse conv output in a loss.
        net.add_input("labels");
        net.add_node("flat", "Flatten", Attributes::new(), &["y"], &["yf"])
            .unwrap();
        net.add_node(
            "loss_node",
            "SoftmaxCrossEntropy",
            Attributes::new(),
            &["yf", "labels"],
            &["loss"],
        )
        .unwrap();
        net.add_output("loss");
        microbatch_convolutions(
            &mut net,
            &[
                ("x", Shape::new(&[8, 2, 8, 8])),
                ("labels", Shape::new(&[8])),
            ],
            20_000,
        )
        .unwrap();
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let x = Tensor::ones([8, 2, 8, 8]);
        let labels = Tensor::zeros([8]);
        ex.inference_and_backprop(&[("x", x), ("labels", labels)], "loss")
            .unwrap();
        let gw = ex.network().fetch_tensor("grad::w").unwrap();
        assert!(gw.l2_norm() > 0.0, "weight gradient must be nonzero");
    }
}
