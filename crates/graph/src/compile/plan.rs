//! The frozen level schedule ([`ExecutionPlan`]).
//!
//! A plan is derived once per graph from its dependency levels — the
//! verifier's `compute_levels`, read through `Network::levels`, the same
//! partition whose concatenation is the reference loop's
//! `topological_order` — and consumed every pass by
//! [`PlannedExecutor`](super::PlannedExecutor), the one level-parallel
//! interpreter, with no per-pass readiness recomputation. It fixes the
//! schedule, not the memory: nothing in it depends on the feed shapes, and
//! the interpreter draws every buffer from its pool.

use crate::executor::{produced_tensors, wanted_grads};
use crate::network::{Network, NodeId};
use deep500_tensor::{Result, Shape};
use std::collections::HashMap;

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
    /// Per input: whether its gradient has a reader — the mask handed to
    /// `Operator::backward_wanted`, from the shared `wanted_grads`.
    pub wanted: Vec<bool>,
    /// Per input: where its gradient accumulates in the backward sweep's
    /// dense table — the env id of a node-produced tensor, or `num_env +
    /// index in get_params()` for a parameter; `None` = nobody reads it.
    pub grad_ids: Vec<Option<usize>>,
}

/// The frozen level schedule: dense tensor ids, per-level dispatch lists
/// and per-level death lists.
#[derive(Debug, Clone, Default)]
pub struct ExecutionPlan {
    /// Dense id per environment tensor name (feeds + node outputs).
    pub tensor_ids: HashMap<String, usize>,
    /// Inverse map: name per dense id.
    pub tensor_names: Vec<String>,
    /// All steps in level order ([`Network::topological_order`]).
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
}

impl ExecutionPlan {
    /// Freeze the schedule for `network`: its dependency levels, whose
    /// concatenation is [`Network::topological_order`] — exactly what
    /// [`PlannedExecutor`](super::PlannedExecutor) runs, at any feed
    /// shapes. The second argument is ignored; it stays because the frozen
    /// `spine/` benchmark calls `freeze(net, shapes)`.
    pub fn freeze(network: &Network, _input_shapes: &[(&str, Shape)]) -> Result<ExecutionPlan> {
        let levels = network.levels(&network.to_ir())?;

        // Dense ids: feeds first, then node outputs in level order.
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
        for &nid in levels.iter().flatten() {
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
        let mut steps = Vec::with_capacity(network.num_nodes());
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

        Ok(ExecutionPlan {
            tensor_ids,
            tensor_names,
            steps,
            level_ranges,
            dies_after_level,
            outputs,
            feed_ids,
        })
    }

    /// Number of environment tensors.
    pub fn num_env(&self) -> usize {
        self.tensor_names.len()
    }

    /// Lower the frozen plan into the verifier's plain-data [`PlanIr`] for
    /// the plan-soundness pipeline (`V018`, `V020`), mirroring how
    /// `Network::to_ir()` feeds the graph-level passes.
    ///
    /// `ops` supplies the instantiated operators whose effect annotations
    /// ([`deep500_ops::OpEffects`]) mark version-memoized and mutated
    /// inputs. The third argument is ignored: every weight memo re-checks
    /// its version stamp on each call, so no parameter set can make a plan
    /// stale. It stays because the frozen `spine/` benchmark passes it.
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
        let levels = net.levels(&net.to_ir()).unwrap();
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
    fn frozen_plans_step_every_node_once_on_zoo_models() {
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
