//! Acceptance gate for the static verifier over the bundled model zoo.
//!
//! Every model the repo ships must (1) pass the structural gate that now
//! guards executor construction, (2) verify clean — zero Deny lints —
//! under the full shape/dataflow/aliasing pipeline, (3) propagate a
//! symbolic batch dimension through to its logits, and (4) prove
//! pool-safety of the executor's level partition with an interference-graph
//! pool lower bound that never exceeds the executor's *observed*
//! high-water memory mark.

use deep500_graph::models;
use deep500_graph::network::Network;
use deep500_graph::{Engine, ExecutorKind, GraphExecutor, PlannedExecutor};
use deep500_tensor::{Shape, Tensor};
use deep500_verify::{SymShape, Verifier};

/// The model zoo with concrete feed shapes and a symbolic-batch spec.
/// `classes` is what the logits' last dim must come out as.
struct ZooCase {
    name: &'static str,
    net: Network,
    batch: usize,
    x_shape: Vec<usize>,
    classes: usize,
    feeds: Vec<(&'static str, Tensor)>,
}

fn zoo() -> Vec<ZooCase> {
    vec![
        ZooCase {
            name: "mlp",
            net: models::mlp(12, &[10, 8], 4, 3).unwrap(),
            batch: 3,
            x_shape: vec![3, 12],
            classes: 4,
            feeds: vec![
                ("x", Tensor::ones([3, 12])),
                ("labels", Tensor::from_slice(&[0.0, 2.0, 3.0])),
            ],
        },
        ZooCase {
            name: "lenet",
            net: models::lenet(1, 14, 4, 5).unwrap(),
            batch: 2,
            x_shape: vec![2, 1, 14, 14],
            classes: 4,
            feeds: vec![
                ("x", Tensor::ones([2, 1, 14, 14])),
                ("labels", Tensor::from_slice(&[1.0, 3.0])),
            ],
        },
        ZooCase {
            name: "alexnet",
            net: models::alexnet_like(1, 16, 5, 6).unwrap(),
            batch: 2,
            x_shape: vec![2, 1, 16, 16],
            classes: 5,
            feeds: vec![
                ("x", Tensor::ones([2, 1, 16, 16])),
                ("labels", Tensor::from_slice(&[0.0, 4.0])),
            ],
        },
        ZooCase {
            name: "resnet",
            net: models::resnet_like(1, 8, 4, 2, 3, 7).unwrap(),
            batch: 2,
            x_shape: vec![2, 1, 8, 8],
            classes: 3,
            feeds: vec![
                ("x", Tensor::ones([2, 1, 8, 8])),
                ("labels", Tensor::from_slice(&[0.0, 2.0])),
            ],
        },
    ]
}

#[test]
fn all_bundled_models_pass_the_structural_gate() {
    for case in zoo() {
        let report = deep500_verify::gate(&case.net.to_ir())
            .unwrap_or_else(|e| panic!("{} denied by gate: {e}", case.name));
        assert_eq!(report.deny_count(), 0, "{}", case.name);
    }
}

#[test]
fn all_bundled_models_verify_clean_with_shapes_and_aliasing() {
    for case in zoo() {
        let ir = case.net.to_ir();
        let shape_feeds: Vec<(&str, Shape)> = case
            .feeds
            .iter()
            .map(|(n, t)| (*n, t.shape().clone()))
            .collect();
        let report = Verifier::new().check_with_inputs(&ir, &shape_feeds);
        assert_eq!(
            report.deny_count(),
            0,
            "{}: deny lints:\n{}",
            case.name,
            report.render(true)
        );
        // The full pipeline inferred a shape for every graph output.
        for out in ir.outputs.iter() {
            assert!(
                report.shapes.contains_key(out),
                "{}: no inferred shape for output '{out}'",
                case.name
            );
        }
        assert!(report.pool_lower_bound.is_some(), "{}", case.name);
    }
}

#[test]
fn symbolic_batch_reaches_the_logits_of_every_model() {
    for case in zoo() {
        let ir = case.net.to_ir();
        let x_sym = SymShape::batched(&case.x_shape[1..]);
        let labels_sym = SymShape::batched(&[]);
        let (report, sym) =
            Verifier::new().check_symbolic(&ir, &[("x", x_sym), ("labels", labels_sym)]);
        assert_eq!(
            report.deny_count(),
            0,
            "{}: {}",
            case.name,
            report.render(false)
        );
        let logits = sym
            .get("logits")
            .unwrap_or_else(|| panic!("{}: no symbolic shape for logits", case.name));
        assert!(
            logits.is_batch_dependent(),
            "{}: logits lost the batch dim: {logits}",
            case.name
        );
        // Instantiating the symbol at the concrete batch matches the
        // concrete inference.
        assert_eq!(
            logits.at(case.batch).dims(),
            &[case.batch, case.classes],
            "{}",
            case.name
        );
    }
}

#[test]
// `verify_aliasing` lives on the concrete executor, not the `GraphExecutor`
// trait, so this test unwraps the engine and downcasts to the tier.
fn wavefront_pool_bound_is_a_true_lower_bound_on_observed_peak() {
    for case in zoo() {
        let mut boxed = Engine::builder(case.net.clone_structure())
            .executor(ExecutorKind::Wavefront)
            .build()
            .unwrap()
            .into_inner()
            .unwrap();
        let ex = boxed
            .as_any_mut()
            .downcast_mut::<PlannedExecutor>()
            .expect("wavefront engine holds the plan interpreter");
        let shape_feeds: Vec<(&str, Shape)> = case
            .feeds
            .iter()
            .map(|(n, t)| (*n, t.shape().clone()))
            .collect();
        // Aliasing analysis of the *actual* level partition must prove
        // pool-safety (no tensor live in two concurrent levels)...
        let report = ex
            .verify_aliasing(&shape_feeds)
            .unwrap_or_else(|e| panic!("{}: aliasing verification failed: {e}", case.name));
        assert!(report.num_levels > 0, "{}", case.name);
        // ...and its interference-graph bound must stay below what the
        // executor actually touched on a real pass.
        let feeds: Vec<(&str, Tensor)> = case.feeds.iter().map(|(n, t)| (*n, t.clone())).collect();
        ex.inference(&feeds).unwrap();
        let observed = ex.peak_memory();
        assert!(
            report.pool_lower_bound <= observed,
            "{}: pool lower bound {} exceeds observed peak {}",
            case.name,
            report.pool_lower_bound,
            observed
        );
        // The bound is not vacuous: at least the largest single
        // intermediate must be accounted.
        assert!(report.pool_lower_bound > 0, "{}", case.name);
    }
}
