//! The `Network` class: an object-oriented DNN graph.
//!
//! Nodes are operator instances connected by *named tensors* (exactly the
//! ONNX data model the paper adopts): a node consumes tensors by name and
//! produces tensors by name; an edge exists wherever one node's output name
//! is another node's input name. Parameters ("initializers") are named
//! tensors owned by the network; graph inputs are names fed at execution
//! time.

use deep500_ops::registry::{self, Attributes};
use deep500_ops::Operator;
use deep500_tensor::{Error, Result, Tensor};
use std::collections::HashMap;

/// Identifier of a node within a network (stable across removals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One operator instance in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique node name (for reports and d5nx files).
    pub name: String,
    /// Registered operator type (e.g. `"Conv2d"`).
    pub op_type: String,
    /// Operator attributes (stride, pad, algorithm, ...).
    pub attrs: Attributes,
    /// Names of consumed tensors, in operator-input order.
    pub inputs: Vec<String>,
    /// Names of produced tensors, in operator-output order.
    pub outputs: Vec<String>,
}

/// The network graph: nodes + initializers (parameters) + declared graph
/// inputs and outputs + a value store for fed/derived tensors.
#[derive(Default)]
pub struct Network {
    /// Human-readable network name.
    pub name: String,
    nodes: Vec<Option<Node>>,
    /// Parameter tensors (ONNX initializers), by tensor name.
    initializers: HashMap<String, Tensor>,
    /// Ordered parameter names (deterministic iteration for optimizers and
    /// the d5nx encoder).
    param_order: Vec<String>,
    /// Non-parameter tensor values: fed inputs, gradients, cached outputs.
    values: HashMap<String, Tensor>,
    /// Declared graph-input tensor names.
    inputs: Vec<String>,
    /// Declared graph-output tensor names.
    outputs: Vec<String>,
}

impl Network {
    /// Empty network.
    pub fn new(name: impl Into<String>) -> Network {
        Network {
            name: name.into(),
            ..Default::default()
        }
    }

    // ----------------------------------------------------------- nodes

    /// Add a node; returns its id. The operator type must be registered.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        op_type: impl Into<String>,
        attrs: Attributes,
        inputs: &[&str],
        outputs: &[&str],
    ) -> Result<NodeId> {
        let op_type = op_type.into();
        if !registry::is_registered(&op_type) {
            return Err(Error::NotFound(format!(
                "operator type '{op_type}' is not registered"
            )));
        }
        let node = Node {
            name: name.into(),
            op_type,
            attrs,
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
        };
        // Reject duplicate producers for a tensor name.
        for out in &node.outputs {
            if self.producer_of(out).is_some() {
                return Err(Error::Invalid(format!(
                    "tensor '{out}' already has a producer"
                )));
            }
        }
        self.nodes.push(Some(node));
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Remove a node by id (its id is never reused).
    pub fn remove_node(&mut self, id: NodeId) -> Result<Node> {
        self.nodes
            .get_mut(id.0)
            .and_then(|slot| slot.take())
            .ok_or_else(|| Error::NotFound(format!("node {id:?}")))
    }

    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0).and_then(|n| n.as_ref())
    }

    /// Iterate over `(id, node)` for all live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (NodeId(i), n)))
    }

    /// Number of live nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// The node (if any) that produces tensor `name`.
    pub fn producer_of(&self, name: &str) -> Option<NodeId> {
        self.nodes().find_map(|(id, n)| {
            if n.outputs.iter().any(|o| o == name) {
                Some(id)
            } else {
                None
            }
        })
    }

    /// Node ids that consume tensor `name`.
    pub fn consumers_of(&self, name: &str) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.inputs.iter().any(|i| i == name))
            .map(|(id, _)| id)
            .collect()
    }

    // ------------------------------------------------- tensors & params

    /// Register a parameter tensor (ONNX initializer).
    pub fn add_parameter(&mut self, name: impl Into<String>, value: Tensor) {
        let name = name.into();
        if !self.initializers.contains_key(&name) {
            self.param_order.push(name.clone());
        }
        self.initializers.insert(name, value);
    }

    /// Ordered parameter names — the paper's `network.get_params()`.
    pub fn get_params(&self) -> &[String] {
        &self.param_order
    }

    /// Whether `name` is a parameter.
    pub fn is_parameter(&self, name: &str) -> bool {
        self.initializers.contains_key(name)
    }

    /// Feed a tensor value by name — updates the parameter if `name` is an
    /// initializer, otherwise stores into the value map (the paper's
    /// `feed_tensor`). Returns the tensor it displaced, if any.
    pub fn feed_tensor(&mut self, name: impl Into<String>, value: Tensor) -> Option<Tensor> {
        let name = name.into();
        match self.initializers.get_mut(&name) {
            Some(p) => Some(std::mem::replace(p, value)),
            None => self.values.insert(name, value),
        }
    }

    /// Fetch a tensor by name (parameter or value) — the paper's
    /// `fetch_tensor`.
    pub fn fetch_tensor(&self, name: &str) -> Result<&Tensor> {
        self.initializers
            .get(name)
            .or_else(|| self.values.get(name))
            .ok_or_else(|| Error::NotFound(format!("tensor '{name}'")))
    }

    /// Whether a tensor value is currently available.
    pub fn has_tensor(&self, name: &str) -> bool {
        self.initializers.contains_key(name) || self.values.contains_key(name)
    }

    /// Iterate over the non-parameter value store (fed inputs, gradients,
    /// constants materialized by compile passes).
    pub fn values(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.values.iter()
    }

    /// Total bytes held by parameters.
    pub fn parameter_bytes(&self) -> usize {
        self.initializers.values().map(|t| t.size_bytes()).sum()
    }

    // ------------------------------------------------ graph inputs/outputs

    /// Declare a graph input tensor name.
    pub fn add_input(&mut self, name: impl Into<String>) {
        self.inputs.push(name.into());
    }

    /// Declare a graph output tensor name.
    pub fn add_output(&mut self, name: impl Into<String>) {
        self.outputs.push(name.into());
    }

    /// Declared graph inputs.
    pub fn graph_inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Declared graph outputs.
    pub fn graph_outputs(&self) -> &[String] {
        &self.outputs
    }

    /// `(parameter name, gradient tensor name)` pairs — the paper's
    /// `network.gradient()` used by distributed optimizers (Listing 9).
    pub fn gradient(&self) -> Vec<(String, String)> {
        self.param_order
            .iter()
            .map(|p| (p.clone(), crate::grad_name(p)))
            .collect()
    }

    // --------------------------------------------------------- structure

    /// Topological order of live nodes: the dependency levels of
    /// `Self::levels`, concatenated. Every walk of the graph — both
    /// execution loops, the visitor, the compile passes and
    /// [`ExecutionPlan::freeze`](crate::ExecutionPlan::freeze) — reads this
    /// one sequence. Errors on a cycle or on an input nothing defines.
    pub fn topological_order(&self) -> Result<Vec<NodeId>> {
        Ok(self.levels(&self.to_ir())?.concat())
    }

    /// The dependency levels of the live nodes, by id: the verifier's
    /// [`compute_levels`](deep500_verify::aliasing::compute_levels) over
    /// `ir`, which must be this network's [`Self::to_ir`] (its node `i` is
    /// the `i`-th live node). Errors on a cycle or on an input nothing
    /// defines, both of which the verifier's level split passes over.
    pub(crate) fn levels(&self, ir: &deep500_verify::GraphIr) -> Result<Vec<Vec<NodeId>>> {
        let sources = ir.source_names();
        for node in &ir.nodes {
            if let Some(input) = node
                .inputs
                .iter()
                .find(|i| !sources.contains(i.as_str()) && ir.producer_of(i).is_none())
            {
                return Err(Error::Invalid(format!(
                    "node '{}' reads '{input}', which nothing defines",
                    node.name
                )));
            }
        }
        let levels = deep500_verify::aliasing::compute_levels(ir);
        if levels.iter().map(Vec::len).sum::<usize>() < ir.nodes.len() {
            let (_, stuck) = ir.topo_order_lenient();
            let stuck: Vec<&str> = stuck.iter().map(|&i| ir.nodes[i].name.as_str()).collect();
            return Err(Error::Invalid(format!(
                "graph has a cycle; stuck nodes: {stuck:?}"
            )));
        }
        let ids: Vec<NodeId> = self.nodes().map(|(id, _)| id).collect();
        Ok(levels
            .into_iter()
            .map(|level| level.into_iter().map(|i| ids[i]).collect())
            .collect())
    }

    /// Instantiate the operator of each node via the registry, keyed by id.
    pub fn instantiate_ops(&self) -> Result<HashMap<NodeId, Box<dyn Operator>>> {
        let mut ops = HashMap::new();
        for (id, node) in self.nodes() {
            let op = registry::create_op(&node.op_type, &node.attrs)?;
            if op.num_inputs() != node.inputs.len() {
                return Err(Error::Invalid(format!(
                    "node '{}': operator {} expects {} inputs, node lists {}",
                    node.name,
                    node.op_type,
                    op.num_inputs(),
                    node.inputs.len()
                )));
            }
            if op.num_outputs() != node.outputs.len() {
                return Err(Error::Invalid(format!(
                    "node '{}': operator {} produces {} outputs, node lists {}",
                    node.name,
                    node.op_type,
                    op.num_outputs(),
                    node.outputs.len()
                )));
            }
            ops.insert(id, op);
        }
        Ok(ops)
    }

    /// Lower the network to the plain-data IR `deep500-verify` analyzes:
    /// live nodes in [`Self::nodes`] order, and the names currently in the
    /// value store as `prefed` (fed values count as available).
    pub fn to_ir(&self) -> deep500_verify::GraphIr {
        deep500_verify::GraphIr {
            name: self.name.clone(),
            nodes: self
                .nodes()
                .map(|(_, n)| deep500_verify::NodeIr {
                    name: n.name.clone(),
                    op_type: n.op_type.clone(),
                    attrs: n.attrs.clone(),
                    inputs: n.inputs.clone(),
                    outputs: n.outputs.clone(),
                })
                .collect(),
            params: self
                .initializers
                .iter()
                .map(|(name, t)| (name.clone(), t.shape().clone()))
                .collect(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            prefed: self.values.keys().cloned().collect(),
        }
    }

    /// Deep copy of the structural parts plus parameters (used by
    /// transformation passes and by per-rank replication in Level 3).
    pub fn clone_structure(&self) -> Network {
        Network {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            initializers: self.initializers.clone(),
            param_order: self.param_order.clone(),
            values: HashMap::new(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> Network {
        // x -> Relu -> y -> Scale -> z
        let mut net = Network::new("tiny");
        net.add_input("x");
        net.add_node("relu", "Relu", Attributes::new(), &["x"], &["y"])
            .unwrap();
        net.add_node(
            "scale",
            "Scale",
            Attributes::new().with_float("alpha", 2.0),
            &["y"],
            &["z"],
        )
        .unwrap();
        net.add_output("z");
        net
    }

    #[test]
    fn build_and_query() {
        let net = tiny_net();
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.graph_inputs(), &["x".to_string()]);
        let relu = net.producer_of("y").unwrap();
        assert_eq!(net.node(relu).unwrap().op_type, "Relu");
        assert_eq!(net.consumers_of("y").len(), 1);
        assert!(net.producer_of("x").is_none());
    }

    #[test]
    fn unknown_op_type_rejected() {
        let mut net = Network::new("bad");
        assert!(net
            .add_node("n", "NotAnOp", Attributes::new(), &[], &["o"])
            .is_err());
    }

    #[test]
    fn duplicate_producer_rejected() {
        let mut net = tiny_net();
        assert!(net
            .add_node("dup", "Relu", Attributes::new(), &["x"], &["y"])
            .is_err());
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let net = tiny_net();
        let order = net.topological_order().unwrap();
        assert_eq!(order.len(), 2);
        assert_eq!(net.node(order[0]).unwrap().name, "relu");
        assert_eq!(net.node(order[1]).unwrap().name, "scale");
    }

    #[test]
    fn cycle_detected() {
        let mut net = Network::new("cyclic");
        // a consumes t2 and produces t1; b consumes t1 and produces t2.
        net.add_node("a", "Relu", Attributes::new(), &["t2"], &["t1"])
            .unwrap();
        net.add_node("b", "Relu", Attributes::new(), &["t1"], &["t2"])
            .unwrap();
        assert!(net.topological_order().is_err());
    }

    #[test]
    fn undefined_input_is_an_error() {
        let mut net = tiny_net();
        net.add_node("late", "Add", Attributes::new(), &["z", "ghost"], &["w"])
            .unwrap();
        let err = net.topological_order().unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert!(err.to_string().contains("ghost"), "{err}");
        // Fed, the same name is available and the order exists.
        net.feed_tensor("ghost", Tensor::from_slice(&[1.0]));
        assert_eq!(net.topological_order().unwrap().len(), 3);
    }

    #[test]
    fn feed_fetch_params() {
        let mut net = tiny_net();
        net.add_parameter("w", Tensor::from_slice(&[1.0]));
        assert!(net.is_parameter("w"));
        assert_eq!(net.get_params(), &["w".to_string()]);
        net.feed_tensor("w", Tensor::from_slice(&[5.0]));
        assert_eq!(net.fetch_tensor("w").unwrap().data(), &[5.0]);
        net.feed_tensor("activation", Tensor::from_slice(&[2.0]));
        assert!(net.has_tensor("activation"));
        assert!(net.fetch_tensor("missing").is_err());
        assert_eq!(net.parameter_bytes(), 4);
    }

    #[test]
    fn gradient_pairs_follow_convention() {
        let mut net = tiny_net();
        net.add_parameter("w", Tensor::from_slice(&[1.0]));
        let g = net.gradient();
        assert_eq!(g, vec![("w".to_string(), "grad::w".to_string())]);
    }

    #[test]
    fn remove_node_frees_output_name() {
        let mut net = tiny_net();
        let relu = net.producer_of("y").unwrap();
        let removed = net.remove_node(relu).unwrap();
        assert_eq!(removed.name, "relu");
        assert_eq!(net.num_nodes(), 1);
        assert!(net.remove_node(relu).is_err(), "double remove");
        // Name "y" is free again.
        net.add_node("relu2", "Relu", Attributes::new(), &["x"], &["y"])
            .unwrap();
        assert_eq!(net.num_nodes(), 2);
    }

    #[test]
    fn instantiate_ops_checks_arity() {
        let mut net = Network::new("arity");
        net.add_input("x");
        // Add expects 2 inputs; give it 1.
        net.add_node("bad", "Add", Attributes::new(), &["x"], &["y"])
            .unwrap();
        assert!(net.instantiate_ops().is_err());
    }

    #[test]
    fn clone_structure_drops_values() {
        let mut net = tiny_net();
        net.add_parameter("w", Tensor::from_slice(&[1.0]));
        net.feed_tensor("x", Tensor::from_slice(&[1.0]));
        let c = net.clone_structure();
        assert_eq!(c.num_nodes(), 2);
        assert!(c.has_tensor("w"));
        assert!(!c.has_tensor("x"));
    }
}
