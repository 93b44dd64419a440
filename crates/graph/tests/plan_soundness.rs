//! Plan-soundness verification: the static analysis (`V017`–`V020`) over
//! real compiled plans, a mutation suite proving each defect class is
//! caught, and shadow-checker cross-validation on the unmutated zoo.
//!
//! Structure mirrors the verifier's contract:
//! * every zoo model × {raw, compiled-inference, compiled-training}
//!   verifies with zero deny lints, and both concurrent executor kinds run
//!   the gate,
//! * ≥8 hand-corrupted plans (slot overlap, level reorder, epilogue
//!   aliasing, skipped memo invalidation, death-list desync, …) each
//!   produce the designed deny lint,
//! * the runtime shadow checker observes zero violations across repeated
//!   inference/backprop passes on the unmutated zoo — the dynamic
//!   residency protocol agrees with the static proof.

use deep500_graph::compile::{compile, CompileOptions, ExecutionPlan};
use deep500_graph::models::{feed_refs as as_refs, zoo};
use deep500_graph::network::Network;
use deep500_graph::{models, Engine, ExecutorKind, PlannedExecutor};
use deep500_tensor::{Error, Shape, Tensor};
use deep500_verify::{check_plan, LintCode, PlanIr, PlanValueIr};

fn lower(net: &Network, shapes: &[(&str, Shape)]) -> PlanIr {
    let plan = ExecutionPlan::freeze(net, shapes).unwrap();
    let ops = net.instantiate_ops().unwrap();
    plan.to_plan_ir(net, &ops, &[])
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

        // compile() itself runs the gate; both option sets must clear it.
        let mut inf = net.clone_structure();
        compile(&mut inf, &shapes, &CompileOptions::inference())
            .unwrap_or_else(|e| panic!("{name} inference compile denied: {e}"));
        let report = check_plan(&lower(&inf, &shapes));
        assert!(
            report.passes(),
            "{name} inference:\n{}",
            report.render(true)
        );

        let mut train = net.clone_structure();
        compile(&mut train, &shapes, &CompileOptions::training())
            .unwrap_or_else(|e| panic!("{name} training compile denied: {e}"));
        let report = check_plan(&lower(&train, &shapes));
        assert!(report.passes(), "{name} training:\n{}", report.render(true));
    }
}

#[test]
// A `Wavefront`-kind engine runs the plan interpreter, so its first pass
// builds a plan through the mandatory `ensure_plan` gate (V017-V020), and
// backprop reuses that plan.
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
            .unwrap_or_else(|e| panic!("{name} inference gate: {e}"));
        ex.inference_and_backprop(&as_refs(&feeds), "loss")
            .unwrap_or_else(|e| panic!("{name} backprop gate: {e}"));
        let planned = ex
            .as_any()
            .downcast_ref::<PlannedExecutor>()
            .expect("wavefront engine holds the plan interpreter");
        assert_eq!(planned.plan_cache_stats().builds, 1, "{name}");
        assert!(planned.plan().is_some(), "{name}");
    }
}

// ------------------------------------------------------- mutation suite

fn compiled_mlp_plan() -> PlanIr {
    let shapes = [("x", Shape::new(&[3, 12])), ("labels", Shape::new(&[3]))];
    let mut net = models::mlp(12, &[10, 8], 4, 3).unwrap();
    compile(&mut net, &shapes, &CompileOptions::inference()).unwrap();
    lower(&net, &shapes)
}

fn lenet_plan() -> PlanIr {
    let shapes = [
        ("x", Shape::new(&[2, 1, 14, 14])),
        ("labels", Shape::new(&[2])),
    ];
    let net = models::lenet(1, 14, 4, 5).unwrap();
    lower(&net, &shapes)
}

#[test]
fn mutant_slot_merge_is_a_slot_race() {
    // Mutant 1: collapse the entire coloring into one slot — live ranges
    // that legitimately overlap now share a buffer.
    let mut plan = lenet_plan();
    assert!(check_plan(&plan).passes());
    for slot in plan.slot_of_id.iter_mut() {
        if slot.is_some() {
            *slot = Some(0);
        }
    }
    let report = check_plan(&plan);
    assert!(
        !report.with_code(LintCode::PlanSlotRace).is_empty(),
        "{}",
        report.render(true)
    );
}

#[test]
fn mutant_pairwise_slot_merge_is_a_slot_race() {
    // Mutant 2: the minimal version — merge exactly one producer/consumer
    // pair of slots (consumer reads the producer's buffer while an
    // unordered write lands in it).
    let mut plan = lenet_plan();
    let (a, b) = plan
        .steps
        .iter()
        .find_map(|s| {
            let &out = s.outputs.first()?;
            let read = s.inputs.iter().find_map(|i| match i {
                PlanValueIr::Env(id) => Some(*id),
                PlanValueIr::Net(_) => None,
            })?;
            (plan.slot_of_id[out].is_some() && plan.slot_of_id[read].is_some())
                .then_some((read, out))
        })
        .expect("some step reads one slotted tensor and writes another");
    plan.slot_of_id[b] = plan.slot_of_id[a];
    let report = check_plan(&plan);
    assert!(
        !report.with_code(LintCode::PlanSlotRace).is_empty(),
        "{}",
        report.render(true)
    );
}

#[test]
fn mutant_level_reorder_is_a_liveness_gap() {
    // Mutant 3: hoist a consumer into its producer's level — the read is
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
fn mutant_epilogue_output_aliasing_live_input_is_denied() {
    // Mutant 4: point a fused epilogue's output slot at a buffer the same
    // step still reads — a half-applied activation becomes observable.
    let mut plan = compiled_mlp_plan();
    assert!(check_plan(&plan).passes());
    let (out_id, in_slot) = plan
        .steps
        .iter()
        .filter(|s| s.epilogue)
        .find_map(|s| {
            let &out = s.outputs.first()?;
            let in_slot = s.inputs.iter().find_map(|i| match i {
                PlanValueIr::Env(id) => plan.slot_of_id[*id],
                PlanValueIr::Net(_) => None,
            })?;
            Some((out, in_slot))
        })
        .expect("the compiled MLP has fused epilogues with slotted inputs");
    plan.slot_of_id[out_id] = Some(in_slot);
    let report = check_plan(&plan);
    assert!(
        !report.with_code(LintCode::EpilogueAlias).is_empty(),
        "{}",
        report.render(true)
    );
}

#[test]
fn mutant_early_death_is_a_liveness_gap() {
    // Mutant 5: move a tensor's death one level earlier than its last
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
    // Mutant 6: rewire an early step to read a tensor only defined at the
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
    // Mutant 7: schedule a second writer of an existing env tensor.
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
    // Mutant 8: recycle a declared graph output's buffer before the
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
fn mutant_unordered_memo_producer_is_stale() {
    // Mutant 9: mark a step as memoizing on an env input, then hoist it
    // into its producer's level — the memo's version stamp races the
    // producing write.
    let mut plan = lenet_plan();
    let (producer_level, reader_idx, input_idx) = plan
        .steps
        .iter()
        .enumerate()
        .find_map(|(i, s)| {
            s.inputs.iter().enumerate().find_map(|(j, input)| {
                let PlanValueIr::Env(id) = input else {
                    return None;
                };
                let def = plan.steps.iter().find(|p| p.outputs.contains(id))?;
                (def.level < s.level).then_some((def.level, i, j))
            })
        })
        .expect("some step reads another step's output");
    plan.steps[reader_idx].memo_inputs = vec![input_idx];
    plan.steps[reader_idx].level = producer_level;
    let report = check_plan(&plan);
    assert!(
        !report.with_code(LintCode::StaleMemo).is_empty(),
        "{}",
        report.render(true)
    );
}

// ------------------------------------------- shadow cross-validation

#[test]
fn shadow_checker_is_clean_on_the_unmutated_zoo() {
    for case in zoo() {
        let name = case.name;
        let mut ex = Engine::builder(case.net.clone_structure())
            .executor(ExecutorKind::Planned)
            .build()
            .unwrap()
            .into_inner()
            .unwrap();
        for salt in 0..3u64 {
            let feeds = case.feeds(salt);
            ex.inference(&as_refs(&feeds)).unwrap();
            // Debug builds track residency; the static proof and the
            // runtime protocol must agree exactly.
            let violations = ex.shadow_violations();
            if cfg!(debug_assertions) {
                assert_eq!(violations, Some(0), "{name} salt {salt}");
            } else if let Some(v) = violations {
                assert_eq!(v, 0, "{name} salt {salt}");
            }
        }
        // Backprop passes (residency tracking suspended) followed by more
        // inference: the checker must stay clean across mode switches.
        let feeds = case.feeds(7);
        ex.inference_and_backprop(&as_refs(&feeds), "loss").unwrap();
        ex.inference(&as_refs(&feeds)).unwrap();
        if let Some(v) = ex.shadow_violations() {
            assert_eq!(v, 0, "{name} after backprop");
        }
    }
}

#[test]
fn shadow_checker_is_clean_on_compiled_zoo_models() {
    for case in zoo() {
        let name = case.name;
        let mut compiled = case.net.clone_structure();
        compile(
            &mut compiled,
            &case.input_shapes(),
            &CompileOptions::inference(),
        )
        .unwrap();
        let mut ex = Engine::builder(compiled)
            .executor(ExecutorKind::Planned)
            .build()
            .unwrap()
            .into_inner()
            .unwrap();
        for salt in 0..2u64 {
            let feeds = case.feeds(salt);
            ex.inference(&as_refs(&feeds)).unwrap();
            if let Some(v) = ex.shadow_violations() {
                assert_eq!(v, 0, "{name} compiled salt {salt}");
            }
        }
    }
}

// ------------------------------------------------ failed-pass recovery

#[test]
fn failed_pass_leaves_the_interpreter_in_a_sound_state() {
    let case = zoo().swap_remove(2);
    assert_eq!(case.name, "lenet");
    let (net, good) = (case.net.clone_structure(), case.feeds(3));
    // Wrong-shaped labels: every layer runs (filling the environment and
    // donating dead buffers to their slots) before the loss node fails with
    // its output buffers pre-taken. Wrong-shaped x fails in the first level.
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
    // Populate the slots first, so the aborted passes have buffers to take.
    ex.inference(&as_refs(&good)).unwrap();
    // The repeated `late` re-enters the cached plan of an aborted pass.
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

    // A tracked pass last: the residency protocol survived the aborts.
    ex.inference(&as_refs(&good)).unwrap();
    let tracked = cfg!(any(debug_assertions, feature = "shadow-check"));
    assert_eq!(ex.shadow_violations(), tracked.then_some(0));
}
