//! A plain-data view of a Level-1 graph for the analysis passes.
//!
//! `deep500-verify` sits *below* `deep500-graph` in the crate DAG (so the
//! graph crate can gate its executors on verification without a dependency
//! cycle), so it cannot see `Network` directly. Instead the graph crate
//! lowers a `Network` to this [`GraphIr`] — nodes, parameter shapes, and the
//! declared interface — via `Network::to_ir()`, and the passes analyze that.

use deep500_ops::registry::Attributes;
use deep500_tensor::Shape;
use std::collections::{HashMap, HashSet};

/// One operator instance: same fields as `graph::Node`, by value.
#[derive(Debug, Clone)]
pub struct NodeIr {
    pub name: String,
    pub op_type: String,
    pub attrs: Attributes,
    /// Consumed tensor names, in operator-input order.
    pub inputs: Vec<String>,
    /// Produced tensor names, in operator-output order.
    pub outputs: Vec<String>,
}

/// The graph under analysis.
#[derive(Debug, Clone, Default)]
pub struct GraphIr {
    pub name: String,
    pub nodes: Vec<NodeIr>,
    /// Parameter (initializer) shapes by tensor name.
    pub params: HashMap<String, Shape>,
    /// Declared graph-input tensor names.
    pub inputs: Vec<String>,
    /// Declared graph-output tensor names.
    pub outputs: Vec<String>,
    /// Names of values already present in the network's value store (fed
    /// tensors, cached activations): available before any node runs.
    pub prefed: Vec<String>,
}

impl GraphIr {
    pub fn new(name: impl Into<String>) -> GraphIr {
        GraphIr {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Builder-style node insertion (used by tests constructing adversarial
    /// graphs that `Network`'s own invariants would reject, e.g. duplicate
    /// writers).
    pub fn node(
        mut self,
        name: &str,
        op_type: &str,
        attrs: Attributes,
        inputs: &[&str],
        outputs: &[&str],
    ) -> GraphIr {
        self.nodes.push(NodeIr {
            name: name.to_string(),
            op_type: op_type.to_string(),
            attrs,
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    pub fn input(mut self, name: &str) -> GraphIr {
        self.inputs.push(name.to_string());
        self
    }

    pub fn output(mut self, name: &str) -> GraphIr {
        self.outputs.push(name.to_string());
        self
    }

    pub fn param(mut self, name: &str, shape: Shape) -> GraphIr {
        self.params.insert(name.to_string(), shape);
        self
    }

    /// Index of the node producing `tensor`, if any (first writer wins, as
    /// in execution).
    pub fn producer_of(&self, tensor: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.outputs.iter().any(|o| o == tensor))
    }

    /// Indices of nodes consuming `tensor`.
    pub fn consumers_of(&self, tensor: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.inputs.iter().any(|i| i == tensor))
            .map(|(i, _)| i)
            .collect()
    }

    /// Tensor names available before any node runs: graph inputs,
    /// parameters, and pre-fed values.
    pub fn source_names(&self) -> HashSet<&str> {
        let mut s: HashSet<&str> = self.inputs.iter().map(|n| n.as_str()).collect();
        s.extend(self.params.keys().map(|n| n.as_str()));
        s.extend(self.prefed.iter().map(|n| n.as_str()));
        s
    }

    /// Kahn topological order over node indices, tolerating (skipping over)
    /// inputs that nothing defines — those are reported separately as
    /// `UseBeforeDef`, and treating them as available lets the cycle check
    /// fire only on genuine cycles. Returns `(order, stuck)` where `stuck`
    /// holds the indices of nodes trapped in cycles.
    pub fn topo_order_lenient(&self) -> (Vec<usize>, Vec<usize>) {
        let sources = self.source_names();
        let produced: HashSet<&str> = self
            .nodes
            .iter()
            .flat_map(|n| n.outputs.iter().map(|s| s.as_str()))
            .collect();
        // Undefined inputs count as available: their absence is not a cycle.
        let mut available: HashSet<&str> = sources;
        for n in &self.nodes {
            for i in &n.inputs {
                if !produced.contains(i.as_str()) {
                    available.insert(i.as_str());
                }
            }
        }
        let mut remaining: Vec<usize> = (0..self.nodes.len()).collect();
        let mut order = Vec::with_capacity(remaining.len());
        loop {
            let mut progressed = false;
            let mut next = Vec::with_capacity(remaining.len());
            for idx in remaining {
                let n = &self.nodes[idx];
                if n.inputs.iter().all(|i| available.contains(i.as_str())) {
                    for o in &n.outputs {
                        available.insert(o);
                    }
                    order.push(idx);
                    progressed = true;
                } else {
                    next.push(idx);
                }
            }
            if next.is_empty() {
                return (order, Vec::new());
            }
            if !progressed {
                return (order, next);
            }
            remaining = next;
        }
    }
}
