//! Ahead-of-time plans: the dependency-level partition
//! (`partition_levels`), a static buffer assignment ([`MemoryPlan`]) and
//! the frozen level schedule ([`ExecutionPlan`]).
//!
//! Plans are derived once per (graph, feed shapes) pair from the verifier's
//! live-range analysis ([`deep500_verify::aliasing::live_ranges`]) and the
//! level partition, then consumed every pass by
//! [`PlannedExecutor`](super::PlannedExecutor) — the one level-parallel
//! interpreter — with no per-pass readiness recomputation and no per-op
//! pool lookups.

use crate::executor::{produced_tensors, wanted_grads};
use crate::network::{Network, NodeId};
use deep500_tensor::{Result, Shape};
use std::collections::HashMap;

/// Static buffer assignment from greedy interval coloring over the
/// live-range interference graph: tensors whose live ranges cannot overlap
/// — with a one-level safety gap for level-parallel execution — share a
/// slot. Slot capacity is the maximum numel ever assigned to it.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlan {
    /// Slot index per planned tensor name. Tensors without an inferred
    /// shape get no slot and fall back to the dynamic pool.
    pub slot_of: HashMap<String, usize>,
    /// Capacity (f32 elements) of each slot.
    pub slot_numel: Vec<usize>,
    /// Total static bytes: Σ slot capacities × 4.
    pub total_bytes: usize,
    /// The verifier's lower bound on any level-parallel schedule's pool
    /// bytes, for the `lower_bound ≤ total_bytes` invariant.
    pub pool_lower_bound: usize,
}

impl MemoryPlan {
    /// Color the given live ranges. `levels` and `shapes` must describe
    /// the same partition the executor will run.
    ///
    /// Reuse rule: tensor `b` may take tensor `a`'s slot only when
    /// `b.def >= a.end + 2`. `a` is still read *during* level `a.end + 1`
    /// (its range is live through the end of `a.end`), so the first level
    /// whose writers may safely touch the buffer is `a.end + 2` — writers
    /// of level `a.end + 1` run concurrently with `a`'s readers.
    pub fn build(
        ir: &deep500_verify::GraphIr,
        levels: &[Vec<String>],
        shapes: &HashMap<String, Shape>,
    ) -> MemoryPlan {
        let mut ranges = deep500_verify::aliasing::live_ranges(ir, levels, shapes);
        // Per-level live bytes -> the verifier's pool lower bound.
        let num_levels = levels.len();
        let mut level_bytes = vec![0usize; num_levels];
        for r in &ranges {
            for lb in level_bytes.iter_mut().take(r.end + 1).skip(r.def) {
                *lb += r.bytes;
            }
        }
        let pool_lower_bound = level_bytes.iter().copied().max().unwrap_or(0);

        // Deterministic coloring order: by definition level, then range
        // end, then name (live_ranges already sorts by name).
        ranges.sort_by(|a, b| {
            a.def
                .cmp(&b.def)
                .then(a.end.cmp(&b.end))
                .then(a.tensor.cmp(&b.tensor))
        });
        let mut slot_of = HashMap::new();
        let mut slot_numel: Vec<usize> = Vec::new();
        let mut slot_free_at: Vec<usize> = Vec::new(); // first level allowed to reuse
        for r in &ranges {
            if r.bytes == 0 {
                continue; // shape unknown: dynamic pool fallback
            }
            let numel = r.bytes / std::mem::size_of::<f32>();
            let slot = match slot_free_at.iter().position(|&free_at| r.def >= free_at) {
                Some(s) => {
                    slot_numel[s] = slot_numel[s].max(numel);
                    s
                }
                None => {
                    slot_numel.push(numel);
                    slot_free_at.push(0);
                    slot_numel.len() - 1
                }
            };
            slot_free_at[slot] = r.end + 2;
            slot_of.insert(r.tensor.clone(), slot);
        }
        let total_bytes = slot_numel.iter().sum::<usize>() * std::mem::size_of::<f32>();
        MemoryPlan {
            slot_of,
            slot_numel,
            total_bytes,
            pool_lower_bound,
        }
    }

    /// Number of slots in the plan.
    pub fn num_slots(&self) -> usize {
        self.slot_numel.len()
    }
}

/// Where a step input comes from at dispatch time.
#[derive(Debug, Clone)]
pub enum ValueRef {
    /// The pass environment, by dense tensor id (feeds and node outputs).
    Env(usize),
    /// The network store, by name (parameters and prefed constants).
    Net(String),
}

/// One pre-resolved node dispatch.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The node to run (index into the executor's op table).
    pub node: NodeId,
    /// Pre-resolved input sources, in operator-input order.
    pub inputs: Vec<ValueRef>,
    /// Dense env ids of the outputs, in operator-output order.
    pub outputs: Vec<usize>,
    /// Expected numel per output (0 = unknown, no slot delivery).
    pub out_numels: Vec<usize>,
    /// Per input: whether its gradient has a reader — the mask handed to
    /// `Operator::backward_wanted`, from the shared `wanted_grads`.
    pub wanted: Vec<bool>,
    /// Per input: where its gradient accumulates in the backward sweep's
    /// dense table — the env id of a node-produced tensor, or `num_env +
    /// index in get_params()` for a parameter; `None` = nobody reads it.
    pub grad_ids: Vec<Option<usize>>,
}

/// Group the topological order into dependency levels (wavefronts): a
/// node's level is one more than the deepest level among its input
/// producers, so the nodes of a level are mutually independent and may run
/// concurrently. Within each level nodes keep their topological order, so
/// `levels.concat() == order`.
pub(crate) fn partition_levels(network: &Network, order: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut level_of: HashMap<NodeId, usize> = HashMap::new();
    let mut levels: Vec<Vec<NodeId>> = Vec::new();
    for &id in order {
        let node = network.node(id).expect("live node");
        let mut level = 0;
        for input in &node.inputs {
            if let Some(p) = network.producer_of(input) {
                if let Some(&pl) = level_of.get(&p) {
                    level = level.max(pl + 1);
                }
            }
        }
        level_of.insert(id, level);
        if levels.len() <= level {
            levels.resize_with(level + 1, Vec::new);
        }
        levels[level].push(id);
    }
    levels
}

/// The level partition by node name — the form the verifier's live-range
/// and aliasing analyses take.
pub(crate) fn level_names(network: &Network, levels: &[Vec<NodeId>]) -> Vec<Vec<String>> {
    levels
        .iter()
        .map(|level| {
            level
                .iter()
                .map(|id| network.node(*id).expect("live node").name.clone())
                .collect()
        })
        .collect()
}

/// The frozen level schedule: dense tensor ids, per-level dispatch
/// lists, per-level death lists, and the static memory plan.
#[derive(Debug, Clone, Default)]
pub struct ExecutionPlan {
    /// Dense id per environment tensor name (feeds + node outputs).
    pub tensor_ids: HashMap<String, usize>,
    /// Inverse map: name per dense id.
    pub tensor_names: Vec<String>,
    /// Expected numel per env tensor (0 = unknown).
    pub tensor_numels: Vec<usize>,
    /// All steps in topological order.
    pub steps: Vec<PlanStep>,
    /// `steps[lo..hi]` per wavefront level.
    pub level_ranges: Vec<(usize, usize)>,
    /// Env ids whose last consumer ran in this level and which may be
    /// reclaimed after it joins (graph outputs and never-consumed tensors
    /// excluded — they survive to pass end).
    pub dies_after_level: Vec<Vec<usize>>,
    /// `(output name, env id)` for collecting declared graph outputs.
    pub outputs: Vec<(String, usize)>,
    /// Env ids of the declared graph inputs, keyed by name.
    pub feed_ids: HashMap<String, usize>,
    /// Static slot per env id (`None` = dynamic pool fallback).
    pub slot_of_id: Vec<Option<usize>>,
    /// The memory plan the slots come from.
    pub memory: MemoryPlan,
}

impl ExecutionPlan {
    /// Freeze the schedule for `network` under the given feed shapes: its
    /// topological order cut into dependency levels — exactly what
    /// [`PlannedExecutor`](super::PlannedExecutor) runs at these shapes.
    pub fn freeze(network: &Network, input_shapes: &[(&str, Shape)]) -> Result<ExecutionPlan> {
        let order = network.topological_order()?;
        let levels = partition_levels(network, &order);
        let ir = network.to_ir();
        // Shape inference seeded with feeds plus whatever sits in the
        // value store (compile-time constants); unknown shapes degrade to
        // pool-backed tensors, never errors.
        let seeded = super::known_shapes(network, input_shapes);
        let shapes = deep500_verify::shape_pass::infer(&ir, &seeded, &[], &mut Vec::new());

        let memory = MemoryPlan::build(&ir, &level_names(network, &levels), &shapes);

        // Dense ids: feeds first, then node outputs in topological order.
        let mut tensor_ids: HashMap<String, usize> = HashMap::new();
        let mut tensor_names: Vec<String> = Vec::new();
        let intern = |name: &str,
                      tensor_ids: &mut HashMap<String, usize>,
                      tensor_names: &mut Vec<String>| {
            *tensor_ids.entry(name.to_string()).or_insert_with(|| {
                tensor_names.push(name.to_string());
                tensor_names.len() - 1
            })
        };
        let mut feed_ids = HashMap::new();
        for input in network.graph_inputs() {
            let id = intern(input, &mut tensor_ids, &mut tensor_names);
            feed_ids.insert(input.clone(), id);
        }
        for &nid in &order {
            let node = network.node(nid).expect("live node");
            for o in &node.outputs {
                intern(o, &mut tensor_ids, &mut tensor_names);
            }
        }
        // Gradient ids: env tensors keep their id, parameters follow.
        let num_env = tensor_names.len();
        let params = network.get_params();
        let produced = produced_tensors(network);

        // Steps + level ranges.
        let mut steps = Vec::with_capacity(order.len());
        let mut level_ranges = Vec::with_capacity(levels.len());
        for level in &levels {
            let lo = steps.len();
            for &nid in level {
                let node = network.node(nid).expect("live node");
                // Env-first, like the executors' input gathering: any name
                // with an env id (feed or node output) is produced before
                // its consumers run; everything else lives in the network
                // store.
                let inputs = node
                    .inputs
                    .iter()
                    .map(|name| match tensor_ids.get(name) {
                        Some(&id) => ValueRef::Env(id),
                        None => ValueRef::Net(name.clone()),
                    })
                    .collect();
                let outputs: Vec<usize> = node.outputs.iter().map(|o| tensor_ids[o]).collect();
                let out_numels = node
                    .outputs
                    .iter()
                    .map(|o| shapes.get(o).map(|s| s.numel()).unwrap_or(0))
                    .collect();
                let wanted = wanted_grads(network, &produced, node);
                let grad_ids = node
                    .inputs
                    .iter()
                    .zip(&wanted)
                    .map(|(name, &w)| {
                        w.then(|| match params.iter().position(|p| p == name) {
                            Some(i) => num_env + i,
                            None => tensor_ids[name],
                        })
                    })
                    .collect();
                steps.push(PlanStep {
                    node: nid,
                    inputs,
                    outputs,
                    out_numels,
                    wanted,
                    grad_ids,
                });
            }
            level_ranges.push((lo, steps.len()));
        }

        // Death lists: an env tensor dies after the level of its last
        // consumer. Feeds with no consumers die immediately (level of
        // their "last consumer" is before level 0 — keep them to pass
        // end instead, they are cheap clones). Graph outputs are pinned.
        let pinned: std::collections::HashSet<usize> = network
            .graph_outputs()
            .iter()
            .filter_map(|o| tensor_ids.get(o).copied())
            .collect();
        let mut last_consumer_level: HashMap<usize, usize> = HashMap::new();
        for (l, level) in levels.iter().enumerate() {
            for &nid in level {
                let node = network.node(nid).expect("live node");
                for input in &node.inputs {
                    if let Some(&id) = tensor_ids.get(input) {
                        let e = last_consumer_level.entry(id).or_insert(l);
                        *e = (*e).max(l);
                    }
                }
            }
        }
        let mut dies_after_level = vec![Vec::new(); levels.len()];
        for (&id, &l) in &last_consumer_level {
            if !pinned.contains(&id) {
                dies_after_level[l].push(id);
            }
        }
        for deaths in dies_after_level.iter_mut() {
            deaths.sort_unstable();
        }

        let outputs = network
            .graph_outputs()
            .iter()
            .filter_map(|o| tensor_ids.get(o).map(|&id| (o.clone(), id)))
            .collect();
        let tensor_numels = tensor_names
            .iter()
            .map(|n| shapes.get(n).map(|s| s.numel()).unwrap_or(0))
            .collect();
        let slot_of_id = tensor_names
            .iter()
            .map(|n| memory.slot_of.get(n).copied())
            .collect();

        Ok(ExecutionPlan {
            tensor_ids,
            tensor_names,
            tensor_numels,
            steps,
            level_ranges,
            dies_after_level,
            outputs,
            feed_ids,
            slot_of_id,
            memory,
        })
    }

    /// Number of environment tensors.
    pub fn num_env(&self) -> usize {
        self.tensor_names.len()
    }

    /// Lower the frozen plan into the verifier's plain-data [`PlanIr`] for
    /// the plan-soundness pipeline (`V017`–`V020`), mirroring how
    /// `Network::to_ir()` feeds the graph-level passes.
    ///
    /// `ops` supplies the instantiated operators whose effect annotations
    /// ([`deep500_ops::OpEffects`]) mark version-memoized and mutated
    /// inputs. The third argument is ignored: every weight memo re-checks
    /// its version stamp on each call, so no parameter set can make a plan
    /// stale. It stays for callers written against the earlier signature.
    pub fn to_plan_ir(
        &self,
        network: &Network,
        ops: &HashMap<NodeId, Box<dyn deep500_ops::Operator>>,
        _ignored: &[String],
    ) -> deep500_verify::PlanIr {
        use deep500_verify::{PlanIr, PlanStepIr, PlanValueIr};

        let mut steps = Vec::with_capacity(self.steps.len());
        for (l, &(lo, hi)) in self.level_ranges.iter().enumerate() {
            for step in &self.steps[lo..hi.min(self.steps.len())] {
                let node = network.node(step.node).expect("live node");
                let effects = ops
                    .get(&step.node)
                    .map(|op| op.effects())
                    .unwrap_or_default();
                let inputs = step
                    .inputs
                    .iter()
                    .map(|v| match v {
                        ValueRef::Env(id) => PlanValueIr::Env(*id),
                        ValueRef::Net(name) => PlanValueIr::Net(name.clone()),
                    })
                    .collect();
                steps.push(PlanStepIr {
                    node: node.name.clone(),
                    op_type: node.op_type.clone(),
                    level: l,
                    inputs,
                    outputs: step.outputs.clone(),
                    memo_inputs: effects.version_memo_inputs,
                    mutated_inputs: effects.mutated_inputs,
                    epilogue: !node.attrs.str_or("epilogue", "").is_empty(),
                });
            }
        }
        let mut feed_ids: Vec<usize> = self.feed_ids.values().copied().collect();
        feed_ids.sort_unstable();
        PlanIr {
            name: network.name.clone(),
            tensor_names: self.tensor_names.clone(),
            steps,
            level_count: self.level_ranges.len(),
            slot_of_id: self.slot_of_id.clone(),
            dies_after_level: self.dies_after_level.clone(),
            pinned_outputs: self.outputs.iter().map(|(_, id)| *id).collect(),
            feed_ids,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::models;
    use deep500_ops::registry::Attributes;
    use deep500_verify::GraphIr;

    fn shapes_of(pairs: &[(&str, usize)]) -> HashMap<String, Shape> {
        pairs
            .iter()
            .map(|(n, numel)| (n.to_string(), Shape::new(&[*numel])))
            .collect()
    }

    #[test]
    fn coloring_reuses_disjoint_ranges_and_respects_the_gap() {
        // a: def 0, last consumer at level 1 (end 0). b: def 2 -> may
        // reuse a's slot (2 >= 0 + 2). c: def 1 -> may not.
        let ir = GraphIr::new("g")
            .input("x")
            .node("n0", "Relu", Attributes::new(), &["x"], &["a"])
            .node("n1", "Relu", Attributes::new(), &["a"], &["c"])
            .node("n2", "Relu", Attributes::new(), &["c"], &["b"])
            .node("n3", "Relu", Attributes::new(), &["b"], &["y"])
            .output("y");
        let levels: Vec<Vec<String>> = [["n0"], ["n1"], ["n2"], ["n3"]]
            .iter()
            .map(|l| l.iter().map(|s| s.to_string()).collect())
            .collect();
        let shapes = shapes_of(&[("a", 8), ("b", 8), ("c", 8), ("y", 8), ("x", 8)]);
        let plan = MemoryPlan::build(&ir, &levels, &shapes);
        assert_eq!(plan.slot_of["a"], plan.slot_of["b"], "a ends before b defs");
        assert_ne!(plan.slot_of["a"], plan.slot_of["c"], "gap rule blocks c");
        assert!(plan.total_bytes >= plan.pool_lower_bound);
    }

    /// Diamond: x feeds two independent Scale nodes whose outputs are
    /// concatenated — levels must be {split sources} then {join}.
    pub(crate) fn diamond_net() -> Network {
        let mut net = Network::new("diamond");
        net.add_input("x");
        for (name, alpha, out) in [("s2", 2.0, "a"), ("s3", 3.0, "b")] {
            let attrs = Attributes::new().with_float("alpha", alpha);
            net.add_node(name, "Scale", attrs, &["x"], &[out]).unwrap();
        }
        let attrs = Attributes::new().with_int("num_inputs", 2);
        net.add_node("cc", "Concat", attrs, &["a", "b"], &["y"])
            .unwrap();
        net.add_output("y");
        net
    }

    #[test]
    fn levels_partition_the_order() {
        let net = diamond_net();
        let order = net.topological_order().unwrap();
        let levels = partition_levels(&net, &order);
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 2, "independent scales share a level");
        assert_eq!(levels[1].len(), 1);
        assert_eq!(levels.concat(), order);
        // The frozen plan keeps exactly that partition.
        let plan = ExecutionPlan::freeze(&net, &[("x", Shape::new(&[2, 1]))]).unwrap();
        assert_eq!(plan.level_ranges, vec![(0, 2), (2, 3)]);
        let stepped: Vec<NodeId> = plan.steps.iter().map(|s| s.node).collect();
        assert_eq!(stepped, order);
    }

    #[test]
    fn plan_bytes_bounded_by_lower_bound_on_zoo_models() {
        let cases: Vec<(crate::network::Network, Vec<(&str, Shape)>)> = vec![
            (
                models::mlp(16, &[32, 16], 4, 1).unwrap(),
                vec![("x", Shape::new(&[2, 16])), ("labels", Shape::new(&[2]))],
            ),
            (
                models::lenet(1, 28, 10, 2).unwrap(),
                vec![
                    ("x", Shape::new(&[2, 1, 28, 28])),
                    ("labels", Shape::new(&[2])),
                ],
            ),
        ];
        for (net, input_shapes) in cases {
            let plan = ExecutionPlan::freeze(&net, &input_shapes).unwrap();
            assert!(
                plan.memory.total_bytes >= plan.memory.pool_lower_bound,
                "static plan cannot undercut the interference lower bound"
            );
            assert!(plan.memory.num_slots() > 0);
            assert_eq!(plan.steps.len(), net.num_nodes());
            let total_steps: usize = plan.level_ranges.iter().map(|(lo, hi)| hi - lo).sum();
            assert_eq!(total_steps, plan.steps.len());
        }
    }

    #[test]
    fn death_lists_cover_every_unpinned_consumed_tensor_once() {
        let net = models::mlp(8, &[8, 8], 3, 5).unwrap();
        let plan = ExecutionPlan::freeze(
            &net,
            &[("x", Shape::new(&[2, 8])), ("labels", Shape::new(&[2]))],
        )
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        for deaths in &plan.dies_after_level {
            for &id in deaths {
                assert!(seen.insert(id), "tensor dies at most once");
            }
        }
        for (_, id) in &plan.outputs {
            assert!(!seen.contains(id), "graph outputs are pinned");
        }
    }
}
