//! Plan-soundness verification: the one plan lint (`V018`) over real
//! compiled plans, and a mutation suite proving each defect class is
//! caught.
//!
//! Structure mirrors the verifier's contract:
//! * every zoo model × {raw, compiled} verifies with zero deny lints, and
//!   both concurrent executor kinds run the gate when they are built,
//! * six hand-corrupted plans (level reorder, death-list desync, a read
//!   retargeted past its definition, a second writer, a recycled graph
//!   output, a memoized input hoisted beside its producer) each produce
//!   the designed deny lint,
//! * an interpreter whose passes failed part-way runs the next pass
//!   bitwise like the reference.

use deep500_graph::compile::{compile, CompileOptions, ExecutionPlan};
use deep500_graph::models::{feed_refs as as_refs, zoo};
use deep500_graph::network::Network;
use deep500_graph::{models, Engine, ExecutorKind, PlannedExecutor};
use deep500_tensor::{Error, Shape, Tensor};
use deep500_verify::{check_plan, LintCode, PlanIr, PlanValueIr};

fn lower(net: &Network, shapes: &[(&str, Shape)]) -> PlanIr {
    let plan = ExecutionPlan::freeze(net, shapes).unwrap();
    plan.to_plan_ir(net, &Default::default(), &[])
}

// ------------------------------------------------------ clean-zoo gates

#[test]
fn every_zoo_plan_verifies_clean_raw_and_compiled() {
    for case in zoo() {
        let (name, net, shapes) = (case.name, &case.net, case.input_shapes());
        // Raw network (the plan interpreter's default schedule).
        let ir = lower(net, &shapes);
        let report = check_plan(&ir);
        assert!(report.passes(), "{name} raw:\n{}", report.render(true));

        // The compiled network must leave a plan that clears the gate.
        let mut compiled = net.clone_structure();
        compile(&mut compiled, &shapes, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{name} compile denied: {e}"));
        let report = check_plan(&lower(&compiled, &shapes));
        assert!(report.passes(), "{name} compiled:\n{}", report.render(true));
    }
}

#[test]
// A `Wavefront`-kind engine runs the plan interpreter, which freezes its
// plan and runs the mandatory plan gate (V018) when it is built; every
// inference and backprop pass reuses that plan.
fn wavefront_kind_passes_run_the_mandatory_plan_gate() {
    for case in zoo() {
        let name = case.name;
        let feeds = case.feeds(1);
        let engine = Engine::builder(case.net)
            .executor(ExecutorKind::Wavefront)
            .build()
            .unwrap();
        let mut ex = engine.lock();
        ex.inference(&as_refs(&feeds))
            .unwrap_or_else(|e| panic!("{name} inference: {e}"));
        ex.inference_and_backprop(&as_refs(&feeds), "loss")
            .unwrap_or_else(|e| panic!("{name} backprop: {e}"));
        let planned = ex
            .as_any()
            .downcast_ref::<PlannedExecutor>()
            .expect("wavefront engine holds the plan interpreter");
        assert_eq!(planned.plan_cache_stats().builds, 1, "{name}");
        assert_eq!(
            planned.plan().steps.len(),
            ex.network().num_nodes(),
            "{name}"
        );
    }
}

/// The plan is frozen and gated by `build()`, not by the first pass: a
/// fresh engine already holds it, and its counters read one build.
#[test]
fn planned_engine_holds_its_plan_before_any_pass() {
    for case in zoo() {
        let engine = Engine::builder(case.net)
            .executor(ExecutorKind::Planned)
            .build()
            .unwrap();
        let ex = engine.lock();
        let planned = ex
            .as_any()
            .downcast_ref::<PlannedExecutor>()
            .expect("planned engine holds the plan interpreter");
        let stats = planned.plan_cache_stats();
        assert_eq!(
            (stats.builds, stats.hits, stats.cached),
            (1, 0, 1),
            "{}",
            case.name
        );
        assert_eq!(
            planned.plan().steps.len(),
            ex.network().num_nodes(),
            "{}",
            case.name
        );
    }
}

// ------------------------------------------------------- mutation suite

fn lenet_plan() -> PlanIr {
    let shapes = [
        ("x", Shape::new(&[2, 1, 14, 14])),
        ("labels", Shape::new(&[2])),
    ];
    let net = models::lenet(1, 14, 4, 5).unwrap();
    lower(&net, &shapes)
}

#[test]
fn mutant_level_reorder_is_a_liveness_gap() {
    // Mutant 1: hoist a consumer into its producer's level — the read is
    // no longer ordered after the defining write.
    let mut plan = lenet_plan();
    let (producer_level, reader_idx) = plan
        .steps
        .iter()
        .enumerate()
        .find_map(|(i, s)| {
            s.inputs.iter().find_map(|input| {
                let PlanValueIr::Env(id) = input else {
                    return None;
                };
                let def = plan.steps.iter().find(|p| p.outputs.contains(id))?;
                (def.level < s.level).then_some((def.level, i))
            })
        })
        .expect("some step reads another step's output");
    plan.steps[reader_idx].level = producer_level;
    let report = check_plan(&plan);
    assert!(
        !report.with_code(LintCode::PlanLivenessGap).is_empty(),
        "{}",
        report.render(true)
    );
}

#[test]
fn mutant_early_death_is_a_liveness_gap() {
    // Mutant 2: move a tensor's death one level earlier than its last
    // reader — the buffer is recycled while still due to be read.
    let mut plan = lenet_plan();
    let (level, pos) = plan
        .dies_after_level
        .iter()
        .enumerate()
        .find_map(|(l, deaths)| (l > 0 && !deaths.is_empty()).then_some((l, 0)))
        .expect("something dies after level 1 or later");
    let id = plan.dies_after_level[level].remove(pos);
    plan.dies_after_level[level - 1].push(id);
    let report = check_plan(&plan);
    assert!(
        !report.with_code(LintCode::PlanLivenessGap).is_empty(),
        "{}",
        report.render(true)
    );
}

#[test]
fn mutant_input_retargeted_to_later_definition_is_a_liveness_gap() {
    // Mutant 3: rewire an early step to read a tensor only defined at the
    // final level.
    let mut plan = lenet_plan();
    let late_id = *plan
        .steps
        .last()
        .and_then(|s| s.outputs.first())
        .expect("last step writes something");
    let first_env = plan.steps[0]
        .inputs
        .iter_mut()
        .find(|i| matches!(i, PlanValueIr::Env(_)))
        .expect("first step reads the feed");
    *first_env = PlanValueIr::Env(late_id);
    let report = check_plan(&plan);
    assert!(
        !report.with_code(LintCode::PlanLivenessGap).is_empty(),
        "{}",
        report.render(true)
    );
}

#[test]
fn mutant_double_writer_is_denied() {
    // Mutant 4: schedule a second writer of an existing env tensor.
    let mut plan = lenet_plan();
    let mut clone = plan.steps[1].clone();
    clone.node = format!("{}::dup", clone.node);
    plan.steps.push(clone);
    let report = check_plan(&plan);
    assert!(!report.passes());
    assert!(
        !report.with_code(LintCode::DuplicateWriter).is_empty(),
        "{}",
        report.render(true)
    );
}

#[test]
fn mutant_pinned_output_in_death_list_is_denied() {
    // Mutant 5: recycle a declared graph output's buffer before the
    // caller collects it.
    let mut plan = lenet_plan();
    let pinned = *plan.pinned_outputs.first().expect("zoo nets have outputs");
    let last = plan.dies_after_level.len() - 1;
    plan.dies_after_level[last].push(pinned);
    let report = check_plan(&plan);
    assert!(
        !report.with_code(LintCode::PlanLivenessGap).is_empty(),
        "{}",
        report.render(true)
    );
}

#[test]
fn mutant_unordered_memo_producer_is_a_liveness_gap() {
    // Mutant 6: hoist a step into the level of the producer of one of its
    // inputs — the mutant retired V020 caught when that input keyed a
    // memo. V018 lints the same step and tensor with no memo annotation.
    let mut plan = lenet_plan();
    let (producer_level, reader_idx, id) = plan
        .steps
        .iter()
        .enumerate()
        .find_map(|(i, s)| {
            s.inputs.iter().find_map(|input| {
                let PlanValueIr::Env(id) = input else {
                    return None;
                };
                let def = plan.steps.iter().find(|p| p.outputs.contains(id))?;
                (def.level < s.level).then_some((def.level, i, *id))
            })
        })
        .expect("some step reads another step's output");
    plan.steps[reader_idx].level = producer_level;
    let (node, tensor) = (&plan.steps[reader_idx].node, &plan.tensor_names[id]);
    let report = check_plan(&plan);
    assert!(
        report
            .with_code(LintCode::PlanLivenessGap)
            .iter()
            .any(|l| l.node.as_ref() == Some(node) && l.tensor.as_ref() == Some(tensor)),
        "{}",
        report.render(true)
    );
}

// ------------------------------------------------ failed-pass recovery

#[test]
fn failed_pass_leaves_the_interpreter_in_a_sound_state() {
    let case = zoo().swap_remove(2);
    assert_eq!(case.name, "lenet");
    let (net, good) = (case.net.clone_structure(), case.feeds(3));
    // Wrong-shaped labels: every layer runs (filling the environment and
    // returning dead buffers to the pool) before the loss node fails.
    // Wrong-shaped x fails in the first level.
    let mut late = good.clone();
    late[1].1 = Tensor::zeros([5]);
    let mut early = good.clone();
    early[0].1 = Tensor::ones([4, 3, 14, 14]);

    let mut ex = Engine::builder(net.clone_structure())
        .executor(ExecutorKind::Wavefront)
        .build()
        .unwrap()
        .into_inner()
        .unwrap();
    // Warm the pool first, so the aborted passes have buffers to take.
    ex.inference(&as_refs(&good)).unwrap();
    // The repeated `late` re-enters the plan of an aborted pass.
    for bad in [&late, &early, &late] {
        for result in [
            ex.inference(&as_refs(bad)),
            ex.inference_and_backprop(&as_refs(bad), "loss"),
        ] {
            let err = result.expect_err("wrong-shaped feed must fail the pass");
            assert!(
                matches!(err, Error::ShapeMismatch(_) | Error::Invalid(_)),
                "typed error, got {err}"
            );
        }
    }

    let mut oracle = Engine::builder(net).build().unwrap().into_inner().unwrap();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let expect = oracle.inference(&as_refs(&good)).unwrap();
    let got = ex.inference(&as_refs(&good)).unwrap();
    for (name, t) in &expect {
        assert_eq!(bits(&got[name]), bits(t), "inference output '{name}'");
    }
    let expect = oracle
        .inference_and_backprop(&as_refs(&good), "loss")
        .unwrap();
    let got = ex.inference_and_backprop(&as_refs(&good), "loss").unwrap();
    for (name, t) in &expect {
        assert_eq!(bits(&got[name]), bits(t), "backprop output '{name}'");
    }
    for (_, gname) in oracle.network().gradient() {
        assert_eq!(
            bits(ex.network().fetch_tensor(&gname).unwrap()),
            bits(oracle.network().fetch_tensor(&gname).unwrap()),
            "{gname}"
        );
    }

    // An inference pass after the aborts and the backprop still runs.
    ex.inference(&as_refs(&good)).unwrap();
}
