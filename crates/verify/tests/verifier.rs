//! Acceptance tests for the static verifier: the four adversarial graphs
//! from the issue (shape-mismatched GEMM, use-before-def, cycle, duplicate
//! writer) must each be rejected with a diagnostic naming the offending
//! node, plus positive tests for the symbolic shape engine, dtype pass,
//! aliasing analysis, and transform-safety harness.

use deep500_ops::registry::Attributes;
use deep500_tensor::{DataType, Error, Shape};
use deep500_verify::shape_pass::{SymDim, SymShape};
use deep500_verify::{aliasing, transform_safety, GraphIr, LintCode, Severity, Verifier};

// ------------------------------------------------------------- rejections

#[test]
fn rejects_shape_mismatched_gemm() {
    // [2x3] · [4x5]: inner dimensions disagree.
    let ir = GraphIr::new("bad-gemm")
        .input("a")
        .input("b")
        .node("mm", "MatMul", Attributes::new(), &["a", "b"], &["y"])
        .output("y");
    let report = Verifier::new().check_with_inputs(
        &ir,
        &[("a", Shape::new(&[2, 3])), ("b", Shape::new(&[4, 5]))],
    );
    assert!(!report.passes(), "mismatched GEMM must be denied");
    let lints = report.with_code(LintCode::ShapeMismatch);
    assert_eq!(lints.len(), 1);
    let lint = lints[0];
    assert_eq!(lint.severity, Severity::Deny);
    assert_eq!(
        lint.node.as_deref(),
        Some("mm"),
        "diagnostic names the node"
    );
    assert!(
        lint.message.contains("[2x3]") && lint.message.contains("[4x5]"),
        "diagnostic carries the offending edge shapes: {}",
        lint.message
    );
    // The well-shaped variant passes.
    let ok = Verifier::new().check_with_inputs(
        &ir,
        &[("a", Shape::new(&[2, 3])), ("b", Shape::new(&[3, 5]))],
    );
    assert!(ok.passes(), "{}", ok.render(true));
    assert_eq!(ok.shapes.get("y").map(String::as_str), Some("[2x5]"));
}

#[test]
fn rejects_use_before_def() {
    let ir = GraphIr::new("ubd")
        .input("x")
        .node("add", "Add", Attributes::new(), &["x", "phantom"], &["y"])
        .output("y");
    let report = deep500_verify::check(&ir);
    assert!(!report.passes());
    let lints = report.with_code(LintCode::UseBeforeDef);
    assert_eq!(lints.len(), 1);
    assert_eq!(lints[0].node.as_deref(), Some("add"));
    assert_eq!(lints[0].tensor.as_deref(), Some("phantom"));
    assert!(deep500_verify::gate(&ir).is_err(), "gate refuses the graph");
}

#[test]
fn rejects_cycle() {
    let ir = GraphIr::new("cyclic")
        .input("x")
        .node("a", "Add", Attributes::new(), &["x", "t2"], &["t1"])
        .node("b", "Relu", Attributes::new(), &["t1"], &["t2"])
        .output("t2");
    let report = deep500_verify::check(&ir);
    assert!(!report.passes());
    let lints = report.with_code(LintCode::Cycle);
    assert_eq!(lints.len(), 2, "both trapped nodes are named");
    let named: Vec<_> = lints.iter().filter_map(|l| l.node.as_deref()).collect();
    assert!(named.contains(&"a") && named.contains(&"b"), "{named:?}");
    // No spurious use-before-def: the cycle's tensors do have producers.
    assert!(report.with_code(LintCode::UseBeforeDef).is_empty());
}

#[test]
fn rejects_duplicate_writer() {
    // Network::add_node forbids this; the IR lets tests (and future graph
    // sources like d5nx decoding) express it.
    let ir = GraphIr::new("dup")
        .input("x")
        .node("w1", "Relu", Attributes::new(), &["x"], &["y"])
        .node("w2", "Sigmoid", Attributes::new(), &["x"], &["y"])
        .output("y");
    let report = deep500_verify::check(&ir);
    assert!(!report.passes());
    let lints = report.with_code(LintCode::DuplicateWriter);
    assert_eq!(lints.len(), 1);
    assert_eq!(lints[0].tensor.as_deref(), Some("y"));
    assert!(
        lints[0].message.contains("w1") && lints[0].message.contains("w2"),
        "both writers named: {}",
        lints[0].message
    );
}

// ------------------------------------------------- structural warnings

#[test]
fn warns_on_dangling_interface_and_dead_nodes() {
    let ir = GraphIr::new("warns")
        .input("x")
        .input("unused")
        .node("relu", "Relu", Attributes::new(), &["x"], &["y"])
        .node("dead", "Sigmoid", Attributes::new(), &["x"], &["limbo"])
        .output("y")
        .output("never_made");
    let report = deep500_verify::check(&ir);
    assert_eq!(report.with_code(LintCode::DanglingFeed).len(), 1);
    assert_eq!(report.with_code(LintCode::DeadNode).len(), 1);
    let fetch = report.with_code(LintCode::DanglingFetch);
    assert_eq!(fetch.len(), 1);
    assert_eq!(fetch[0].tensor.as_deref(), Some("never_made"));
    // DanglingFetch denies; the feeds/dead-node findings only warn.
    assert_eq!(report.deny_count(), 1);
    assert_eq!(report.warn_count(), 2);
}

#[test]
fn arity_and_unknown_ops_are_denied_by_the_shape_pass() {
    let ir = GraphIr::new("arity")
        .input("x")
        .node("bad", "Add", Attributes::new(), &["x"], &["y"]) // Add wants 2
        .node("mystery", "NoSuchOp", Attributes::new(), &["y"], &["z"])
        .output("z");
    let report = Verifier::new().check_with_inputs(&ir, &[("x", Shape::new(&[2, 2]))]);
    assert_eq!(report.with_code(LintCode::ArityMismatch).len(), 1);
    assert_eq!(report.with_code(LintCode::UnknownOp).len(), 1);
    assert!(!report.passes());
}

#[test]
fn a_dropout_ratio_outside_its_range_is_refused_not_a_panic() {
    for ratio in [1.0, f64::NAN, -0.25, 2.0] {
        let attrs = Attributes::new().with_float("ratio", ratio);
        let made = deep500_ops::registry::create_op("Dropout", &attrs);
        assert!(matches!(made, Err(Error::Invalid(_))), "ratio {ratio}");
        let ir = GraphIr::new("dropout")
            .input("x")
            .node("drop", "Dropout", attrs, &["x"], &["y"])
            .output("y");
        let x = [("x", Shape::new(&[2, 3]))];
        let report = Verifier::new().check_with_inputs(&ir, &x);
        assert_eq!(
            report.with_code(LintCode::UnknownOp).len(),
            1,
            "ratio {ratio}"
        );
        assert!(
            deep500_verify::gate_with_inputs(&ir, &x).is_err(),
            "ratio {ratio}"
        );
    }
    let attrs = Attributes::new().with_float("ratio", 0.0);
    assert!(deep500_ops::registry::create_op("Dropout", &attrs).is_ok());
}

#[test]
fn dtype_mismatch_is_denied() {
    let ir = GraphIr::new("dtypes")
        .input("a")
        .input("b")
        .node("add", "Add", Attributes::new(), &["a", "b"], &["y"])
        .output("y");
    let shapes = [("a", Shape::new(&[2])), ("b", Shape::new(&[2]))];
    let clean = Verifier::new().check_with_inputs_and_dtypes(
        &ir,
        &shapes,
        &[("a", DataType::Float32), ("b", DataType::Float32)],
    );
    assert!(clean.passes());
    let mixed = Verifier::new().check_with_inputs_and_dtypes(
        &ir,
        &shapes,
        &[("a", DataType::Float32), ("b", DataType::Int64)],
    );
    let lints = mixed.with_code(LintCode::DtypeMismatch);
    assert_eq!(lints.len(), 1);
    assert_eq!(lints[0].node.as_deref(), Some("add"));
    assert!(!mixed.passes());
}

// --------------------------------------------------- symbolic batch dim

#[test]
fn symbolic_batch_propagates_through_gemm_chain() {
    // x:[N,8] -> Linear(8->4) -> h -> Relu -> y  (W is [out, in])
    let ir = GraphIr::new("sym")
        .input("x")
        .param("w", Shape::new(&[4, 8]))
        .param("bias", Shape::new(&[4]))
        .node(
            "fc",
            "Linear",
            Attributes::new(),
            &["x", "w", "bias"],
            &["h"],
        )
        .node("relu", "Relu", Attributes::new(), &["h"], &["y"])
        .output("y");
    let (report, sym) = Verifier::new().check_symbolic(&ir, &[("x", SymShape::batched(&[8]))]);
    assert!(report.passes(), "{}", report.render(true));
    assert_eq!(sym["y"].to_string(), "[Nx4]");
    assert_eq!(sym["y"].dims[0], SymDim::batch());
    assert_eq!(sym["y"].at(32), Shape::new(&[32, 4]));
    assert!(sym["w"].to_string() == "[4x8]", "params stay constant");
}

#[test]
fn non_affine_batch_dim_warns() {
    // Reshape targets a *fixed* shape: [N,3] -> [2,6] works only when
    // N·3 == 12, i.e. at probe N=4 but not N=6 — a batch-pinned construct
    // that blocks symbolic batch propagation.
    let ir = GraphIr::new("nonaffine")
        .input("x")
        .node(
            "rs",
            "Reshape",
            Attributes::new().with_ints("shape", &[2, 6]),
            &["x"],
            &["y"],
        )
        .output("y");
    let (report, sym) = Verifier::new().check_symbolic(&ir, &[("x", SymShape::batched(&[3]))]);
    let lints = report.with_code(LintCode::NonAffineBatch);
    assert!(!lints.is_empty(), "{}", report.render(false));
    assert_eq!(lints[0].severity, Severity::Warn);
    assert_eq!(lints[0].tensor.as_deref(), Some("y"));
    assert!(
        !sym.contains_key("y"),
        "no symbolic shape for pinned tensor"
    );
    // x itself stays affine.
    assert_eq!(sym["x"].to_string(), "[Nx3]");
}

// ---------------------------------------------------------- aliasing

#[test]
fn aliasing_passes_valid_levels_and_reports_bound() {
    // Diamond: x -> {s2, s3} -> cc.
    let ir = diamond();
    let shapes = [("x", Shape::new(&[4, 4]))]; // 64 bytes per tensor
    let report = Verifier::new().check_with_inputs(&ir, &shapes);
    assert!(report.passes(), "{}", report.render(true));
    let bound = report.pool_lower_bound.expect("aliasing pass ran");
    // Level 0 ends with a and b live (128 B); level 1 ends with y live and
    // a/b released (y is fetched): [4x8] = 128 B. Bound = 128.
    assert_eq!(bound, 128);
}

#[test]
fn aliasing_rejects_same_level_hazard() {
    let ir = diamond();
    let mut lints = Vec::new();
    let shapes = std::collections::HashMap::new();
    // Broken partition: producer s2 and consumer cc share level 1.
    let [s2, s3, cc] =
        ["s2", "s3", "cc"].map(|n| ir.nodes.iter().position(|m| m.name == n).unwrap());
    let levels = vec![vec![s3], vec![s2, cc]];
    let alias = aliasing::analyze(&ir, &levels, &shapes, &mut lints);
    assert_eq!(alias.num_levels, 2);
    let hazards: Vec<_> = lints
        .iter()
        .filter(|l| l.code == LintCode::SameLevelHazard)
        .collect();
    assert_eq!(hazards.len(), 1, "{lints:?}");
    assert_eq!(hazards[0].node.as_deref(), Some("cc"));
    assert_eq!(hazards[0].tensor.as_deref(), Some("a"));
}

#[test]
fn interference_graph_counts_overlaps() {
    let ir = diamond();
    let mut lints = Vec::new();
    let shapes: std::collections::HashMap<String, Shape> = [
        ("a".to_string(), Shape::new(&[2])),
        ("b".to_string(), Shape::new(&[2])),
        ("y".to_string(), Shape::new(&[4])),
    ]
    .into_iter()
    .collect();
    let alias = aliasing::analyze(&ir, &aliasing::compute_levels(&ir), &shapes, &mut lints);
    assert!(lints.is_empty(), "{lints:?}");
    // a-b overlap at level 0; y overlaps neither (a, b die entering level 1
    // where y is defined)... except a and b are live *through the end of
    // level 0* and y is defined at level 1, so y shares no level with them.
    assert_eq!(alias.interference_edges, 1);
    assert_eq!(alias.level_bytes, vec![16, 16]);
    assert_eq!(alias.pool_lower_bound, 16);
}

fn diamond() -> GraphIr {
    GraphIr::new("diamond")
        .input("x")
        .node(
            "s2",
            "Scale",
            Attributes::new().with_float("alpha", 2.0),
            &["x"],
            &["a"],
        )
        .node(
            "s3",
            "Scale",
            Attributes::new().with_float("alpha", 3.0),
            &["x"],
            &["b"],
        )
        .node(
            "cc",
            "Concat",
            Attributes::new().with_int("num_inputs", 2),
            &["a", "b"],
            &["y"],
        )
        .output("y")
}

// ---------------------------------------------------- transform safety

#[test]
fn transform_diff_passes_identity_and_flags_drift() {
    let before = diamond();
    let inputs = [("x", Shape::new(&[2, 3, 4]))];
    let same = transform_safety::diff(&before, &before.clone(), &inputs);
    assert!(same.passes(), "{}", same.report.render(true));
    assert!(same.drifted.is_empty());

    // "Transform" that swaps s2 for a shape-changing op: its output 'a'
    // drifts from [2x3x4] to Flatten's [2x12].
    let mut after = before.clone();
    after.nodes[0].op_type = "Flatten".to_string();
    let diff = transform_safety::diff(&before, &after, &inputs);
    assert!(!diff.passes());
    let drift: Vec<_> = diff
        .report
        .lints
        .iter()
        .filter(|l| l.code == LintCode::ShapeDrift)
        .collect();
    assert!(!drift.is_empty(), "{}", diff.report.render(false));
    assert_eq!(drift[0].tensor.as_deref(), Some("a"));

    // Transform that drops a declared output: interface drift.
    let mut chopped = before.clone();
    chopped.outputs.clear();
    let diff = transform_safety::diff(&before, &chopped, &inputs);
    assert!(diff
        .report
        .lints
        .iter()
        .any(|l| l.code == LintCode::InterfaceDrift));
}

// -------------------------------------------------------- layout contract

/// `Conv2d` takes its filter in the natural `[co, ci, kh, kw]` layout only:
/// a rank-1 filter edge — the shape a packed image would have — is a V007
/// deny, and so is a transform that flattens the filter on its way in.
#[test]
fn packed_conv_layout_contract_is_enforced() {
    let attrs = || {
        Attributes::new()
            .with_int("stride", 1)
            .with_int("pad", 0)
            .with_str("algorithm", "direct")
    };
    let conv = |filter: &str| {
        GraphIr::new("conv")
            .input("x")
            .input("w")
            .input("b")
            .node("c", "Conv2d", attrs(), &["x", filter, "b"], &["y"])
            .output("y")
    };
    let x = ("x", Shape::new(&[1, 2, 8, 8]));
    let b = ("b", Shape::new(&[8]));
    let natural = ("w", Shape::new(&[8, 2, 3, 3]));
    let packed_len = deep500_ops::conv::direct::packed_filter_len(8, 2 * 3 * 3);

    let report =
        Verifier::new().check_with_inputs(&conv("w"), &[x.clone(), natural.clone(), b.clone()]);
    assert!(report.passes(), "{}", report.render(true));

    let packed = ("w", Shape::new(&[packed_len]));
    let report = Verifier::new().check_with_inputs(&conv("w"), &[x.clone(), packed, b.clone()]);
    let lints = report.with_code(LintCode::ShapeMismatch);
    assert_eq!(lints.len(), 1, "{}", report.render(true));
    assert_eq!(lints[0].severity, Severity::Deny);
    assert_eq!(lints[0].node.as_deref(), Some("c"));

    // The transform-safety harness denies a rewrite that hands the conv a
    // rank-1 filter.
    let flat = Attributes::new().with_ints("shape", &[8 * 2 * 3 * 3]);
    let after = conv("w::flat").node("flatten", "Reshape", flat, &["w"], &["w::flat"]);
    let diff = transform_safety::diff(&conv("w"), &after, &[x, natural, b]);
    assert!(!diff.passes(), "a rank-1 filter rewrite must be denied");
    assert!(!diff.report.with_code(LintCode::ShapeMismatch).is_empty());
}

// ------------------------------------------------- explain / rendering

/// Every registered lint code ships a stable `V###` code string and a
/// substantive long-form explanation — `LintCode::all()` is the registry,
/// so a new code cannot land without both.
#[test]
fn every_lint_code_has_distinct_code_and_explain() {
    let all = LintCode::all();
    assert_eq!(all.len(), 16, "V001..V018 without the retired V016, V017");
    let mut codes = std::collections::HashSet::new();
    let mut explains = std::collections::HashSet::new();
    // Retired codes keep their numbers unused, so every other code keeps
    // meaning what it meant.
    let numbers = (1..=20).filter(|n| ![16, 17, 19, 20].contains(n));
    for (lc, n) in all.iter().zip(numbers) {
        let code = lc.code();
        assert_eq!(code, format!("V{n:03}"), "codes are ordered");
        assert!(codes.insert(code), "duplicate code string");
        let text = lc.explain();
        assert!(
            text.len() > 80,
            "{} explain text is a stub: {text:?}",
            lc.code()
        );
        assert!(explains.insert(text), "{} shares explain text", lc.code());
    }
}

/// `render(true)` appends each distinct code's long-form text exactly once
/// (the `--explain` contract), `render(false)` never does — exercised over
/// the plan-soundness code V018 and the dataflow code V003.
#[test]
fn render_emits_each_explain_exactly_once() {
    use deep500_verify::{Lint, VerifyReport};
    let mut report = VerifyReport::default();
    for code in [
        LintCode::PlanLivenessGap,
        LintCode::PlanLivenessGap, // repeated: explained once
        LintCode::DuplicateWriter,
    ] {
        report.lints.push(Lint {
            code,
            severity: code.default_severity(),
            node: Some("n".into()),
            tensor: None,
            message: format!("synthetic {}", code.code()),
        });
    }
    let plain = report.render(false);
    assert!(
        !plain.contains("= explain("),
        "no explain text unless asked"
    );
    let explained = report.render(true);
    for code in ["V018", "V003"] {
        let marker = format!("= explain({code}):");
        assert_eq!(
            explained.matches(&marker).count(),
            1,
            "{code} explained exactly once:\n{explained}"
        );
    }
}

/// The plan verifier's diagnostics render with their explanations: a
/// minimal corrupted plan produces a V018 whose `--explain` rendering
/// carries the long-form liveness description.
#[test]
fn plan_lints_render_with_explanations() {
    use deep500_verify::{check_plan, PlanIr, PlanStepIr, PlanValueIr};
    let step = |node: &str, level: usize, input: usize, output: usize| PlanStepIr {
        node: node.into(),
        op_type: "Relu".into(),
        level,
        inputs: vec![PlanValueIr::Env(input)],
        outputs: vec![output],
    };
    let plan = PlanIr {
        name: "mini".into(),
        tensor_names: vec!["x".into(), "a".into(), "y".into()],
        steps: vec![step("a", 0, 0, 1), step("y", 1, 1, 2)],
        level_count: 2,
        // `a` dies after level 0, but its reader runs at level 1.
        dies_after_level: vec![vec![0, 1], vec![]],
        pinned_outputs: vec![2],
        feed_ids: vec![0],
    };
    let report = check_plan(&plan);
    let lints = report.with_code(LintCode::PlanLivenessGap);
    assert!(!lints.is_empty(), "{}", report.render(true));
    assert_eq!(lints[0].severity, Severity::Deny);
    let rendered = report.render(true);
    assert!(
        rendered.contains("= explain(V018):"),
        "rendering carries the explanation:\n{rendered}"
    );
}
