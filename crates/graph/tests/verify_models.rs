//! Acceptance gate for the static verifier over the bundled model zoo.
//!
//! Every model the repo ships must (1) pass the structural gate that
//! guards executor construction (`models::tests`, next to the zoo),
//! (2) verify clean — zero Deny lints —
//! under the full shape/dataflow/aliasing pipeline, (3) propagate a
//! symbolic batch dimension through to its logits, and (4) prove
//! pool-safety of the executor's level partition with an interference-graph
//! pool lower bound that never exceeds the executor's *observed*
//! high-water memory mark.

use deep500_graph::models::{feed_refs, zoo};
use deep500_graph::{Engine, ExecutorKind};
use deep500_verify::{SymShape, Verifier};

#[test]
fn all_bundled_models_verify_clean_with_shapes_and_aliasing() {
    for case in zoo() {
        let ir = case.net.to_ir();
        let report = Verifier::new().check_with_inputs(&ir, &case.input_shapes());
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
        let x_sym = SymShape::batched(&case.x.dims()[1..]);
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
            logits.at(case.batch()).dims(),
            &[case.batch(), case.classes],
            "{}",
            case.name
        );
    }
}

#[test]
fn wavefront_pool_bound_is_a_true_lower_bound_on_observed_peak() {
    for case in zoo() {
        let engine = Engine::builder(case.net.clone_structure())
            .executor(ExecutorKind::Wavefront)
            .build()
            .unwrap();
        let mut ex = engine.lock();
        // Aliasing analysis of the level partition the executor runs must
        // prove pool-safety (no tensor live in two concurrent levels)...
        let report = Verifier::new().check_with_inputs(&ex.network().to_ir(), &case.input_shapes());
        assert!(
            report.passes(),
            "{}: aliasing verification failed:\n{}",
            case.name,
            report.render(true)
        );
        let bound = report.pool_lower_bound.expect("aliasing pass ran");
        // ...and its interference-graph bound must stay below what the
        // executor actually touched on a real pass.
        ex.inference(&feed_refs(&case.feeds(1))).unwrap();
        let observed = ex.peak_memory();
        assert!(
            bound <= observed,
            "{}: pool lower bound {} exceeds observed peak {}",
            case.name,
            bound,
            observed
        );
        // The bound is not vacuous: at least the largest single
        // intermediate must be accounted.
        assert!(bound > 0, "{}", case.name);
    }
}
