//! Plan-soundness analysis: schedule-aware race, aliasing, and
//! memo-invalidation checks over a *compiled* execution plan.
//!
//! The graph-level passes (V001–V015) prove properties of the IR; the hot
//! path, however, executes a compiled artifact — an interval-colored
//! memory plan plus a frozen wavefront schedule with slot reuse, fused
//! epilogues, and version-stamped weight memos. This module closes that
//! gap: the graph crate lowers its `ExecutionPlan`/`MemoryPlan` into the
//! plain-data [`PlanIr`] (mirroring how `Network::to_ir()` feeds the IR
//! passes) and [`check_plan`] proves, before the first pass runs:
//!
//! * **V017 `PlanSlotRace`** — no slot is assigned to two buffers whose
//!   live ranges overlap under the schedule's happens-before relation
//!   ([`HappensBefore`]): every access to the old tenant (including its
//!   residency until the death list vacates it) must happen-before the
//!   next tenant's defining write. This independently re-derives the
//!   property the interval coloring's `+2` gap rule is supposed to
//!   guarantee, from the plan data alone.
//! * **V018 `PlanLivenessGap`** — every read of an environment tensor
//!   falls inside its guaranteed-live window: defined by a strictly
//!   earlier level (or a feed), not yet recycled by a death list, pinned
//!   outputs never die, and nothing dies twice.
//! * **V019 `EpilogueAlias`** — a fused write-back epilogue's output slot
//!   never aliases a live input of a step unordered with it (the epilogue
//!   retires elements incrementally, so a concurrent reader could observe
//!   a half-applied activation).
//! * **V020 `StaleMemo`** — every version-keyed memo re-validates on every
//!   path that can re-stamp its source: memoized inputs are store values
//!   or happen-before-ordered productions, and declared mutators never
//!   race unordered readers.

use crate::happens_before::HappensBefore;
use crate::lint::{Lint, LintCode, VerifyReport};

/// Where a plan step's input comes from at dispatch time. Mirrors the
/// graph crate's `ValueRef` as plain data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanValueIr {
    /// The pass environment, by dense tensor id.
    Env(usize),
    /// The network value store, by name (parameters, prefed constants).
    Net(String),
}

/// One scheduled dispatch, with the operator effects the analysis needs.
#[derive(Debug, Clone)]
pub struct PlanStepIr {
    /// Node name, for diagnostics.
    pub node: String,
    /// Operator type name, for diagnostics.
    pub op_type: String,
    /// Wavefront level this step runs in.
    pub level: usize,
    /// Input sources, in operator-input order.
    pub inputs: Vec<PlanValueIr>,
    /// Dense env ids written, in operator-output order.
    pub outputs: Vec<usize>,
    /// Operator effect: input indices keying version-stamped memos.
    pub memo_inputs: Vec<usize>,
    /// Operator effect: input indices the operator writes through.
    pub mutated_inputs: Vec<usize>,
    /// Whether a fused write-back epilogue rides this step
    /// (`epilogue = "relu"` installed by the fusion pass).
    pub epilogue: bool,
}

/// Plain-data view of a compiled `ExecutionPlan` + `MemoryPlan`, lowered
/// by the graph crate for this analysis.
#[derive(Debug, Clone, Default)]
pub struct PlanIr {
    /// Plan (graph) name, for diagnostics.
    pub name: String,
    /// Env tensor name per dense id.
    pub tensor_names: Vec<String>,
    /// All steps, in schedule order (levels contiguous, ascending).
    pub steps: Vec<PlanStepIr>,
    /// Number of wavefront levels.
    pub level_count: usize,
    /// Static slot per env id (`None` = dynamic pool fallback).
    pub slot_of_id: Vec<Option<usize>>,
    /// Env ids whose buffer is vacated after each level joins.
    pub dies_after_level: Vec<Vec<usize>>,
    /// Env ids of declared graph outputs (pinned: must never die).
    pub pinned_outputs: Vec<usize>,
    /// Env ids of declared graph inputs (defined before level 0).
    pub feed_ids: Vec<usize>,
}

/// Definition point of an env tensor under the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Def {
    /// Fed before level 0.
    Feed,
    /// Written by the step at this level.
    Level(usize),
}

impl Def {
    /// Whether a read at `level` observes this definition under
    /// happens-before (feeds precede everything; writes must be strictly
    /// earlier).
    fn visible_at(self, level: usize) -> bool {
        match self {
            Def::Feed => true,
            Def::Level(l) => l < level,
        }
    }

    fn level(self) -> usize {
        match self {
            Def::Feed => 0,
            Def::Level(l) => l,
        }
    }
}

/// Run the plan-soundness pipeline over a lowered plan.
pub fn check_plan(plan: &PlanIr) -> VerifyReport {
    let mut lints = Vec::new();
    let num_env = plan.tensor_names.len();
    let name_of = |id: usize| -> &str {
        plan.tensor_names
            .get(id)
            .map(String::as_str)
            .unwrap_or("<out-of-range>")
    };

    // ---- Structural sanity: the analysis needs a well-formed container.
    let mut malformed = false;
    if plan.slot_of_id.len() != num_env {
        lints.push(Lint::new(
            LintCode::PlanLivenessGap,
            format!(
                "plan '{}': slot table covers {} ids but the plan has {} env tensors",
                plan.name,
                plan.slot_of_id.len(),
                num_env
            ),
        ));
        malformed = true;
    }
    if plan.dies_after_level.len() != plan.level_count {
        lints.push(Lint::new(
            LintCode::PlanLivenessGap,
            format!(
                "plan '{}': {} death lists for {} levels",
                plan.name,
                plan.dies_after_level.len(),
                plan.level_count
            ),
        ));
        malformed = true;
    }
    let step_levels: Vec<usize> = plan.steps.iter().map(|s| s.level).collect();
    let hb = match HappensBefore::from_step_levels(step_levels, plan.level_count.max(1)) {
        Some(hb) => hb,
        None => {
            lints.push(Lint::new(
                LintCode::PlanLivenessGap,
                format!(
                    "plan '{}': step levels do not form a valid partition of {} levels",
                    plan.name, plan.level_count
                ),
            ));
            return VerifyReport {
                lints,
                ..VerifyReport::default()
            };
        }
    };
    for step in &plan.steps {
        let bad_id = step
            .outputs
            .iter()
            .chain(step.inputs.iter().filter_map(|i| match i {
                PlanValueIr::Env(id) => Some(id),
                PlanValueIr::Net(_) => None,
            }))
            .find(|&&id| id >= num_env);
        if let Some(&id) = bad_id {
            lints.push(
                Lint::new(
                    LintCode::PlanLivenessGap,
                    format!(
                        "plan '{}': step '{}' references env id {id} outside the \
                         plan's {num_env} tensors",
                        plan.name, step.node
                    ),
                )
                .with_node(step.node.clone()),
            );
            malformed = true;
        }
    }
    if malformed {
        return VerifyReport {
            lints,
            ..VerifyReport::default()
        };
    }

    // ---- Definitions: feeds precede level 0, each id written once.
    let mut def: Vec<Option<Def>> = vec![None; num_env];
    for &id in &plan.feed_ids {
        def[id] = Some(Def::Feed);
    }
    for step in &plan.steps {
        for &oid in &step.outputs {
            match def[oid] {
                None => def[oid] = Some(Def::Level(step.level)),
                Some(_) => lints.push(
                    Lint::new(
                        LintCode::DuplicateWriter,
                        format!(
                            "plan '{}': step '{}' redefines env tensor '{}'",
                            plan.name,
                            step.node,
                            name_of(oid)
                        ),
                    )
                    .with_node(step.node.clone())
                    .with_tensor(name_of(oid)),
                ),
            }
        }
    }

    // ---- Death table: level each id is vacated after, V018 for defects.
    let mut death: Vec<Option<usize>> = vec![None; num_env];
    for (l, deaths) in plan.dies_after_level.iter().enumerate() {
        for &id in deaths {
            if id >= num_env {
                lints.push(Lint::new(
                    LintCode::PlanLivenessGap,
                    format!(
                        "plan '{}': death list of level {l} names env id {id} outside \
                         the plan's {num_env} tensors",
                        plan.name
                    ),
                ));
                continue;
            }
            if let Some(prev) = death[id] {
                lints.push(
                    Lint::new(
                        LintCode::PlanLivenessGap,
                        format!(
                            "plan '{}': '{}' dies twice (after level {prev} and level {l})",
                            plan.name,
                            name_of(id)
                        ),
                    )
                    .with_tensor(name_of(id)),
                );
            } else {
                death[id] = Some(l);
            }
            if plan.pinned_outputs.contains(&id) {
                lints.push(
                    Lint::new(
                        LintCode::PlanLivenessGap,
                        format!(
                            "plan '{}': declared graph output '{}' appears in the death \
                             list of level {l} — its buffer would be recycled before \
                             the caller fetches it",
                            plan.name,
                            name_of(id)
                        ),
                    )
                    .with_tensor(name_of(id)),
                );
            }
        }
    }

    // ---- Reads: visibility (V018) and last-read levels for liveness.
    let mut last_read: Vec<Option<usize>> = vec![None; num_env];
    for step in &plan.steps {
        for input in &step.inputs {
            let PlanValueIr::Env(id) = input else {
                continue;
            };
            let id = *id;
            last_read[id] = Some(last_read[id].map_or(step.level, |l| l.max(step.level)));
            match def[id] {
                Some(d) if d.visible_at(step.level) => {}
                Some(Def::Level(l)) => lints.push(
                    Lint::new(
                        LintCode::PlanLivenessGap,
                        format!(
                            "plan '{}': step '{}' (level {}) reads '{}' whose defining \
                             write is at level {l} — the read is not ordered after the \
                             definition",
                            plan.name,
                            step.node,
                            step.level,
                            name_of(id)
                        ),
                    )
                    .with_node(step.node.clone())
                    .with_tensor(name_of(id)),
                ),
                _ => lints.push(
                    Lint::new(
                        LintCode::PlanLivenessGap,
                        format!(
                            "plan '{}': step '{}' reads '{}' which no feed or scheduled \
                             step defines",
                            plan.name,
                            step.node,
                            name_of(id)
                        ),
                    )
                    .with_node(step.node.clone())
                    .with_tensor(name_of(id)),
                ),
            }
            if let Some(d) = death[id] {
                if step.level > d {
                    lints.push(
                        Lint::new(
                            LintCode::PlanLivenessGap,
                            format!(
                                "plan '{}': step '{}' (level {}) reads '{}' after its \
                                 buffer was recycled (death list of level {d})",
                                plan.name,
                                step.node,
                                step.level,
                                name_of(id)
                            ),
                        )
                        .with_node(step.node.clone())
                        .with_tensor(name_of(id)),
                    );
                }
            }
        }
    }

    // ---- Residency windows, then V017 slot-handoff sweep per slot.
    //
    // A tensor occupies its slot from its defining level until the death
    // list vacates it; tensors with no death entry (pinned outputs,
    // never-consumed feeds) stay resident to pass end. The window also
    // covers every read, even one past the death level (already a V018 —
    // the sweep stays conservative rather than reasoning from a broken
    // premise).
    let last_level = plan.level_count.saturating_sub(1);
    let mut tenants: Vec<(usize, usize, usize)> = Vec::new(); // (slot, start, id)
    let mut end_of: Vec<usize> = vec![0; num_env];
    for id in 0..num_env {
        let Some(d) = def[id] else { continue };
        let start = d.level();
        let mut end = death[id].unwrap_or(last_level);
        if let Some(r) = last_read[id] {
            end = end.max(r);
        }
        end = end.max(start);
        end_of[id] = end;
        if let Some(slot) = plan.slot_of_id[id] {
            tenants.push((slot, start, id));
        }
    }
    // Pairwise per slot: two tenants are compatible only when one's entire
    // access window happens-before the other's defining write (strict level
    // order — the handoff predicate). Slots hold a handful of tenants, so
    // the quadratic pass stays cheap even on the largest zoo plans.
    tenants.sort_unstable();
    for (i, &(slot_a, start_a, a)) in tenants.iter().enumerate() {
        for &(slot_b, start_b, b) in &tenants[i + 1..] {
            if slot_a != slot_b {
                break; // sorted by slot first
            }
            let disjoint =
                hb.safe_handoff(end_of[a], start_b) || hb.safe_handoff(end_of[b], start_a);
            if !disjoint {
                lints.push(
                    Lint::new(
                        LintCode::PlanSlotRace,
                        format!(
                            "plan '{}': slot {slot_a} is assigned to '{}' (live levels \
                             {start_a}..={}) and '{}' (live levels {start_b}..={}) — \
                             the ranges overlap under the concurrent partial order, so \
                             an unordered writer could scribble over a buffer still \
                             being read",
                            plan.name,
                            name_of(a),
                            end_of[a],
                            name_of(b),
                            end_of[b]
                        ),
                    )
                    .with_tensor(name_of(b)),
                );
            }
        }
    }

    // ---- V019: fused epilogue outputs vs live inputs of unordered steps.
    for (si, step) in plan.steps.iter().enumerate() {
        if !step.epilogue {
            continue;
        }
        let out_slots: Vec<usize> = step
            .outputs
            .iter()
            .filter_map(|&oid| plan.slot_of_id[oid])
            .collect();
        if out_slots.is_empty() {
            continue;
        }
        let alias_lint = |other: &PlanStepIr, id: usize, slot: usize| {
            Lint::new(
                LintCode::EpilogueAlias,
                format!(
                    "plan '{}': fused epilogue of '{}' writes slot {slot}, which \
                     aliases '{}' — a live input of unordered step '{}' in level {} \
                     that could observe a half-applied write-back",
                    plan.name,
                    step.node,
                    name_of(id),
                    other.node,
                    other.level
                ),
            )
            .with_node(step.node.clone())
            .with_tensor(name_of(id))
        };
        // The step's own inputs: an in-place epilogue over a buffer the
        // kernel is still reading is unsound even without concurrency.
        for input in &step.inputs {
            let PlanValueIr::Env(id) = input else {
                continue;
            };
            if let Some(slot) = plan.slot_of_id[*id] {
                if out_slots.contains(&slot) {
                    lints.push(alias_lint(step, *id, slot));
                }
            }
        }
        for (ti, other) in plan.steps.iter().enumerate() {
            if !hb.unordered(si, ti) {
                continue;
            }
            for input in &other.inputs {
                let PlanValueIr::Env(id) = input else {
                    continue;
                };
                if let Some(slot) = plan.slot_of_id[*id] {
                    if out_slots.contains(&slot) {
                        lints.push(alias_lint(other, *id, slot));
                    }
                }
            }
        }
    }

    // ---- V020: memo-invalidation soundness.
    for step in &plan.steps {
        for &i in &step.memo_inputs {
            let Some(input) = step.inputs.get(i) else {
                continue;
            };
            let PlanValueIr::Env(id) = input else {
                // Store values are written before the pass starts and are
                // stable while it runs; the per-call version compare
                // re-validates across passes. Sound.
                continue;
            };
            let ordered = def[*id].map(|d| d.visible_at(step.level)).unwrap_or(false);
            if !ordered {
                lints.push(
                    Lint::new(
                        LintCode::StaleMemo,
                        format!(
                            "plan '{}': step '{}' memoizes derived data keyed on \
                             '{}''s version stamp, but the producer is not ordered \
                             before the step — the memo could pair a stale stamp \
                             with half-written bytes",
                            plan.name,
                            step.node,
                            name_of(*id)
                        ),
                    )
                    .with_node(step.node.clone())
                    .with_tensor(name_of(*id)),
                );
            }
        }
    }
    for (si, step) in plan.steps.iter().enumerate() {
        for &i in &step.mutated_inputs {
            let Some(input) = step.inputs.get(i) else {
                continue;
            };
            for (ti, other) in plan.steps.iter().enumerate() {
                if !hb.unordered(si, ti) {
                    continue;
                }
                let races = other.inputs.iter().any(|oin| oin == input);
                if races {
                    let tname = match input {
                        PlanValueIr::Env(id) => name_of(*id).to_string(),
                        PlanValueIr::Net(n) => n.clone(),
                    };
                    lints.push(
                        Lint::new(
                            LintCode::StaleMemo,
                            format!(
                                "plan '{}': step '{}' mutates '{tname}' while unordered \
                                 step '{}' reads it — the version stamp can change \
                                 mid-read, invalidating every memo keyed on it",
                                plan.name, step.node, other.node
                            ),
                        )
                        .with_node(step.node.clone())
                        .with_tensor(tname),
                    );
                }
            }
        }
    }

    VerifyReport {
        lints,
        ..VerifyReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built sound plan: two levels, `x -> a -> y`, `a` dying after
    /// level 1, `a` and `y` in different slots, `x` sharing nothing.
    fn clean_plan() -> PlanIr {
        PlanIr {
            name: "clean".into(),
            tensor_names: vec!["x".into(), "a".into(), "y".into()],
            steps: vec![
                PlanStepIr {
                    node: "n0".into(),
                    op_type: "Relu".into(),
                    level: 0,
                    inputs: vec![PlanValueIr::Env(0)],
                    outputs: vec![1],
                    memo_inputs: vec![],
                    mutated_inputs: vec![],
                    epilogue: false,
                },
                PlanStepIr {
                    node: "n1".into(),
                    op_type: "Relu".into(),
                    level: 1,
                    inputs: vec![PlanValueIr::Env(1)],
                    outputs: vec![2],
                    memo_inputs: vec![],
                    mutated_inputs: vec![],
                    epilogue: false,
                },
            ],
            level_count: 2,
            slot_of_id: vec![Some(0), Some(1), Some(2)],
            dies_after_level: vec![vec![0], vec![1]],
            pinned_outputs: vec![2],
            feed_ids: vec![0],
        }
    }

    #[test]
    fn clean_plan_passes() {
        let report = check_plan(&clean_plan());
        assert!(report.passes(), "{}", report.render(true));
        assert!(report.lints.is_empty());
    }

    #[test]
    fn overlapping_slot_tenants_race() {
        let mut plan = clean_plan();
        // `a` (live through level 1) and `y` (defined at level 1) in one
        // slot: the reader of `a` races the writer of `y`.
        plan.slot_of_id = vec![Some(0), Some(1), Some(1)];
        let report = check_plan(&plan);
        assert!(!report.passes());
        assert!(!report.with_code(LintCode::PlanSlotRace).is_empty());
    }

    #[test]
    fn read_after_recycle_is_a_liveness_gap() {
        let mut plan = clean_plan();
        // Kill `a` after level 0; its level-1 reader now reads a recycled
        // buffer.
        plan.dies_after_level = vec![vec![0, 1], vec![]];
        let report = check_plan(&plan);
        assert!(!report.with_code(LintCode::PlanLivenessGap).is_empty());
    }

    #[test]
    fn same_level_read_of_definition_is_a_gap() {
        let mut plan = clean_plan();
        plan.steps[1].level = 0; // consumer now unordered with producer
        plan.dies_after_level = vec![vec![0, 1], vec![]];
        let report = check_plan(&plan);
        assert!(!report.with_code(LintCode::PlanLivenessGap).is_empty());
    }

    #[test]
    fn pinned_output_in_death_list_is_flagged() {
        let mut plan = clean_plan();
        plan.dies_after_level[1].push(2);
        let report = check_plan(&plan);
        assert!(!report.with_code(LintCode::PlanLivenessGap).is_empty());
    }

    #[test]
    fn epilogue_alias_against_unordered_reader() {
        let mut plan = clean_plan();
        // Second step moves into level 0 reading the feed, while the first
        // step grows an epilogue whose output shares the feed's slot.
        plan.steps[1].level = 0;
        plan.steps[1].inputs = vec![PlanValueIr::Env(0)];
        plan.steps[0].epilogue = true;
        plan.slot_of_id = vec![Some(0), Some(0), Some(2)];
        let report = check_plan(&plan);
        assert!(!report.with_code(LintCode::EpilogueAlias).is_empty());
    }

    #[test]
    fn unordered_memo_producer_is_stale() {
        let mut plan = clean_plan();
        plan.steps[1].level = 0; // producer of `a` now unordered with reader
        plan.steps[1].memo_inputs = vec![0];
        let report = check_plan(&plan);
        assert!(!report.with_code(LintCode::StaleMemo).is_empty());
    }

    #[test]
    fn mutator_racing_reader_is_stale() {
        let mut plan = clean_plan();
        // A second level-0 step mutating the feed while n0 reads it.
        plan.steps.push(PlanStepIr {
            node: "mut".into(),
            op_type: "Mutate".into(),
            level: 0,
            inputs: vec![PlanValueIr::Env(0)],
            outputs: vec![],
            memo_inputs: vec![],
            mutated_inputs: vec![0],
            epilogue: false,
        });
        let report = check_plan(&plan);
        assert!(!report.with_code(LintCode::StaleMemo).is_empty());
    }

    #[test]
    fn double_writer_and_malformed_container_are_reported() {
        let mut plan = clean_plan();
        plan.steps[1].outputs = vec![1]; // rewrites `a`
        let report = check_plan(&plan);
        assert!(!report.with_code(LintCode::DuplicateWriter).is_empty());

        let mut plan = clean_plan();
        plan.slot_of_id.pop();
        assert!(!check_plan(&plan).passes());

        let mut plan = clean_plan();
        plan.steps[0].level = 7; // outside the declared partition
        assert!(!check_plan(&plan).passes());
    }
}
