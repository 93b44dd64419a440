//! Plan-soundness analysis: one schedule-aware liveness lint over a
//! *compiled* execution plan.
//!
//! The graph-level passes (V001–V015) prove properties of the IR; the hot
//! path, however, executes a compiled artifact — a frozen level schedule
//! with per-level death lists that hand dead buffers back to the pool.
//! This module closes that gap: the graph crate lowers its `ExecutionPlan`
//! into the plain-data [`PlanIr`] (mirroring how `Network::to_ir()` feeds
//! the IR passes) and [`check_plan`] proves, before the first pass runs:
//!
//! * **V018 `PlanLivenessGap`** — every read of an environment tensor
//!   falls inside its guaranteed-live window: defined by a strictly
//!   earlier level (or a feed), not yet recycled by a death list, pinned
//!   outputs never die, and nothing dies twice.
//!
//! The interpreter starts level `l + 1` only after level `l` joins, so a
//! write is visible to every later level and to nothing in its own level;
//! that barrier order is the only one the analysis assumes. A plan whose
//! step levels fall outside its level count is a V018 defect too.
//!
//! V017 and V019 are retired with the static slot plan they checked.
//! V020 is retired with the operator memo annotations it read: its memo
//! clause linted exactly the reads V018 lints, and no operator declared an
//! input its mutator clause could check.

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

/// One scheduled dispatch.
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
}

/// Plain-data view of a compiled `ExecutionPlan`, lowered by the graph
/// crate for this analysis.
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
    /// Whether a read at `level` observes this definition (feeds precede
    /// everything; writes must be at a strictly earlier level).
    fn visible_at(self, level: usize) -> bool {
        match self {
            Def::Feed => true,
            Def::Level(l) => l < level,
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
    if let Some(step) = plan.steps.iter().find(|s| s.level >= plan.level_count) {
        lints.push(
            Lint::new(
                LintCode::PlanLivenessGap,
                format!(
                    "plan '{}': step '{}' runs at level {} of a {}-level partition",
                    plan.name, step.node, step.level, plan.level_count
                ),
            )
            .with_node(step.node.clone()),
        );
        malformed = true;
    }
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

    // ---- Reads: visibility and recycled buffers (V018).
    for step in &plan.steps {
        for input in &step.inputs {
            let PlanValueIr::Env(id) = input else {
                continue;
            };
            let id = *id;
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

    VerifyReport {
        lints,
        ..VerifyReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built sound plan: two levels, `x -> a -> y`, `a` dying after
    /// level 1.
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
                },
                PlanStepIr {
                    node: "n1".into(),
                    op_type: "Relu".into(),
                    level: 1,
                    inputs: vec![PlanValueIr::Env(1)],
                    outputs: vec![2],
                },
            ],
            level_count: 2,
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

    /// The plan retired V020 linted as a stale memo when `n1` memoized on
    /// `a`: V018 lints the same step and tensor, with no memo annotation to
    /// read.
    #[test]
    fn unordered_memo_producer_is_a_liveness_gap() {
        let mut plan = clean_plan();
        plan.steps[1].level = 0; // producer of `a` now unordered with reader
        let report = check_plan(&plan);
        let gaps = report.with_code(LintCode::PlanLivenessGap);
        assert!(
            gaps.iter()
                .any(|l| l.node.as_deref() == Some("n1") && l.tensor.as_deref() == Some("a")),
            "{}",
            report.render(true)
        );
    }

    #[test]
    fn double_writer_and_malformed_container_are_reported() {
        let mut plan = clean_plan();
        plan.steps[1].outputs = vec![1]; // rewrites `a`
        let report = check_plan(&plan);
        assert!(!report.with_code(LintCode::DuplicateWriter).is_empty());

        let mut plan = clean_plan();
        plan.dies_after_level.pop(); // one death list for two levels
        assert!(!check_plan(&plan).passes());

        let mut plan = clean_plan();
        plan.steps[0].level = 7; // outside the declared partition
        assert!(!check_plan(&plan).passes());
    }
}
