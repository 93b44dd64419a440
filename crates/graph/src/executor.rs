//! Graph executors: inference and backpropagation over a [`Network`].
//!
//! The paper's `GraphExecutor` "controls the DNN execution" and exposes two
//! functions: `inference` and `inference_and_backprop`. This crate has two
//! loops behind it: the [`ReferenceExecutor`] here — serial, heap-valued,
//! the oracle every bit-identity test replays against — and the
//! level-parallel plan interpreter
//! ([`PlannedExecutor`](crate::compile::PlannedExecutor)). The reference
//! loop is the paper's reference implementation — a topological-sort
//! interpreter — extended with:
//!
//! * reverse-mode automatic differentiation over the DAG (gradients land in
//!   the network value store under [`grad_name`](crate::grad_name)),
//! * [`Event`] hooks around every phase (fine-grained measurement + early
//!   exit, §IV-D),
//! * a per-node [`NodeHook`] seam through which a simulated framework pays
//!   its dispatch and copy costs around — never inside — the timed
//!   operator spans,
//! * a [`MemoryAccountant`] that tracks live activation + workspace bytes
//!   and fails with [`Error::OutOfMemory`] when a device capacity is
//!   exceeded — the mechanism behind the paper's Fig. 7 OOM observations,
//! * the [`FrameworkOverheadProbe`] implementing the paper's
//!   `FrameworkOverhead` metric (whole-pass time minus per-operator time).

use crate::network::{Network, Node, NodeId};
use deep500_metrics::event::{Event, EventList, Phase};
use deep500_metrics::trace::{rank_by_total, OpAttribution, TraceRecorder};
use deep500_ops::Operator;
use deep500_tensor::{Error, Result, Shape, Tensor};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live tensor bytes against a capacity, recording the peak.
///
/// All counters are atomics and every method takes `&self`, so one
/// accountant can be shared across the worker threads of a concurrent
/// executor ([`PlannedExecutor`](crate::compile::PlannedExecutor)) while
/// preserving the capacity check: a racing `allocate` either claims its
/// bytes within capacity or fails with [`Error::OutOfMemory`], never both.
#[derive(Debug)]
pub struct MemoryAccountant {
    capacity: usize,
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl Clone for MemoryAccountant {
    fn clone(&self) -> Self {
        MemoryAccountant {
            capacity: self.capacity,
            current: AtomicUsize::new(self.current.load(Ordering::Relaxed)),
            peak: AtomicUsize::new(self.peak.load(Ordering::Relaxed)),
        }
    }
}

impl MemoryAccountant {
    /// Accountant with the given capacity in bytes (`usize::MAX` = unbounded).
    pub fn new(capacity: usize) -> Self {
        MemoryAccountant {
            capacity,
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Unbounded accountant (still tracks the peak).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Claim `bytes`; errors with `OutOfMemory` if capacity is exceeded.
    pub fn allocate(&self, bytes: usize) -> Result<()> {
        // CAS loop: the capacity check and the increment must be one atomic
        // step or two racing threads could both pass the check and overshoot.
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if next > self.capacity {
                return Err(Error::OutOfMemory {
                    requested: bytes,
                    capacity: self.capacity,
                });
            }
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release `bytes`.
    pub fn release(&self, bytes: usize) {
        // Saturating decrement via CAS (fetch_sub could wrap below zero).
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Peak live bytes observed so far.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Currently live bytes.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// Reset counters (capacity retained).
    pub fn reset(&self) {
        self.current.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// Remaining-consumer counts for activation freeing, computed once per
/// graph (re)build instead of once per pass. Declared graph outputs are
/// pinned (consumer count saturated); each pass clones this template
/// rather than re-walking every node's input list.
pub(crate) fn consumer_template(network: &Network) -> HashMap<String, usize> {
    let mut remaining: HashMap<String, usize> = HashMap::new();
    for (_, node) in network.nodes() {
        for i in &node.inputs {
            *remaining.entry(i.clone()).or_insert(0) += 1;
        }
    }
    for out in network.graph_outputs() {
        *remaining.entry(out.clone()).or_insert(0) += usize::MAX / 2;
    }
    remaining
}

/// Every tensor some node writes, computed once per graph (re)build for
/// [`wanted_grads`].
pub(crate) fn produced_tensors(network: &Network) -> HashSet<String> {
    network
        .nodes()
        .flat_map(|(_, node)| node.outputs.iter().cloned())
        .collect()
}

/// The `wanted` mask a backward sweep hands to
/// [`Operator::backward_wanted`]: an input's gradient has a reader exactly
/// when a node produced the input (its backward consumes the gradient) or
/// the input is a parameter (its gradient is published). Gradients of fed
/// tensors are never read. Both executors derive the mask here, so they
/// elide the same products and stay bit-identical.
pub(crate) fn wanted_grads(
    network: &Network,
    produced: &HashSet<String>,
    node: &Node,
) -> Vec<bool> {
    node.inputs
        .iter()
        .map(|name| produced.contains(name) || network.is_parameter(name))
        .collect()
}

/// One [`OpAttribution`] row per node slot of `network`, indexed by node
/// id and named after the node: the rows an execution loop adds each
/// call's measurement to. A row of `kept` whose node is still live carries
/// over; a removed node's slot holds an unnamed row nothing reads.
pub(crate) fn node_rows(network: &Network, kept: &[OpAttribution]) -> Vec<OpAttribution> {
    let mut rows = Vec::new();
    for (id, node) in network.nodes() {
        rows.resize_with(id.0 + 1, OpAttribution::default);
        rows[id.0] = match kept.get(id.0) {
            Some(row) if row.name == node.name => row.clone(),
            _ => OpAttribution::new(id.0, node.name.clone()),
        };
    }
    rows
}

/// The rows of `network`'s live nodes, keyed by node id.
pub(crate) fn rows_by_id(
    network: &Network,
    rows: &[OpAttribution],
) -> HashMap<usize, OpAttribution> {
    let live = network.nodes().filter_map(|(id, _)| rows.get(id.0));
    live.map(|row| (row.id, row.clone())).collect()
}

/// The graph-execution interface (paper §IV-D).
pub trait GraphExecutor: Send {
    /// The executed network.
    fn network(&self) -> &Network;

    /// Mutable access to the executed network (feeding parameters etc.).
    fn network_mut(&mut self) -> &mut Network;

    /// Run inference: feed `(name, tensor)` pairs, return the declared graph
    /// outputs by name.
    fn inference(&mut self, feeds: &[(&str, Tensor)]) -> Result<HashMap<String, Tensor>>;

    /// Run inference followed by backpropagation from the scalar tensor
    /// `loss`. Parameter gradients are stored in the network under
    /// `grad::<param>`; the graph outputs are returned.
    fn inference_and_backprop(
        &mut self,
        feeds: &[(&str, Tensor)],
        loss: &str,
    ) -> Result<HashMap<String, Tensor>>;

    /// Event hooks invoked around execution phases.
    fn events_mut(&mut self) -> &mut EventList;

    /// The concrete executor behind the trait object, for callers that
    /// need loop-specific introspection (e.g.
    /// [`PlannedExecutor::plan_cache_stats`](crate::compile::PlannedExecutor::plan_cache_stats))
    /// after building through [`Engine`](crate::Engine):
    /// `engine.lock().as_any().downcast_ref::<PlannedExecutor>()`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable counterpart of [`GraphExecutor::as_any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Peak memory of the last pass in bytes (0 if not tracked).
    fn peak_memory(&self) -> usize {
        0
    }

    /// The executor's per-operator rows — one per node, named when the
    /// executor was built, holding every call so far — keyed by node id
    /// (empty for executors that do not track them). The same rows as
    /// [`GraphExecutor::op_attribution`]; this keyed form stays because the
    /// frozen `spine/` benchmark reads it.
    fn op_totals(&self) -> HashMap<usize, OpAttribution> {
        HashMap::new()
    }

    /// Dynamic buffer-pool counters, for executors backed by a
    /// [`BufferPool`](deep500_tensor::BufferPool) (`None` otherwise).
    fn buffer_pool_stats(&self) -> Option<deep500_tensor::PoolStats> {
        None
    }

    /// Bytes of a static memory plan. No executor has one — the plan
    /// interpreter draws every buffer from its pool — so this is always
    /// `None`; it stays because the frozen `spine/` benchmark reads it.
    fn static_plan_bytes(&self) -> Option<usize> {
        None
    }

    /// The executor's per-operator rows (wall time, FLOPs, bytes moved,
    /// dispatch note), ranked by [`rank_by_total`].
    fn op_attribution(&self) -> Vec<OpAttribution> {
        let mut rows: Vec<OpAttribution> = self.op_totals().into_values().collect();
        rank_by_total(&mut rows);
        rows
    }

    /// Hand the executor's rows to a trace recorder, so operator spans
    /// export with real names, attribute GFLOP/s and bytes moved, and
    /// carry dispatch decisions (e.g. a conv's resolved tier) in their
    /// `args.detail`.
    fn annotate_trace(&self, recorder: &TraceRecorder) {
        recorder.annotate(self.op_totals().into_values());
    }
}

/// Per-node hook seam of the reference loop: the work a framework runtime
/// does *around* each operator. Every method runs outside the timed
/// operator span, so the paper's `FrameworkOverhead` (pass time − Σ
/// operator time) charges it to the framework, not to the kernels.
pub trait NodeHook: Send {
    /// Before a node's forward span (dispatch cost). May return owned
    /// copies of `inputs` for the operator to read instead — a runtime
    /// that stages inputs into framework-managed buffers.
    fn before_forward(&mut self, _node: &Node, _inputs: &[&Tensor]) -> Option<Vec<Tensor>> {
        None
    }

    /// After a node's forward span, with its outputs (copy penalties).
    fn after_forward(&mut self, _node: &Node, _outputs: &mut [Tensor]) {}

    /// Before a node's backward span (dispatch cost).
    fn before_backward(&mut self, _node: &Node) {}

    /// Whether the node's outputs alias its inputs (views) on this
    /// runtime. The memory accountant never charges views, and a view
    /// node keeps its base tensors pinned while the views may be read.
    fn outputs_are_views(&self, _node: &Node) -> bool {
        false
    }
}

/// The reference topological-sort executor with autodiff.
pub struct ReferenceExecutor {
    network: Network,
    ops: HashMap<NodeId, Box<dyn Operator>>,
    /// The network's dependency levels, concatenated — the order the plan
    /// interpreter's steps are stored in, so both loops add gradient
    /// contributions in one order.
    order: Vec<NodeId>,
    /// Pre-counted consumer template cloned at each pass start.
    consumers: HashMap<String, usize>,
    /// Node-written tensors, for the backward sweep's `wanted` masks.
    produced: HashSet<String>,
    events: EventList,
    memory: MemoryAccountant,
    pass_counter: usize,
    /// One row per node, indexed by node id (Level-0 attribution).
    rows: Vec<OpAttribution>,
    hook: Option<Box<dyn NodeHook>>,
}

impl ReferenceExecutor {
    /// The verified construction path behind [`Engine`]: a device memory
    /// capacity in bytes; execution fails with `Error::OutOfMemory` when
    /// live activations + workspace exceed it.
    ///
    /// Construction is gated on the static verifier: a graph with a `Deny`
    /// lint (use-before-def, cycle, duplicate writer, dangling fetch, ...)
    /// is rejected with `Error::Validation` before any operator is built.
    ///
    /// [`Engine`]: crate::engine::Engine
    pub(crate) fn construct(network: Network, capacity: usize) -> Result<Self> {
        let ir = network.to_ir();
        deep500_verify::gate(&ir)?;
        let ops = network.instantiate_ops()?;
        let order = network.levels(&ir)?.concat();
        let consumers = consumer_template(&network);
        let produced = produced_tensors(&network);
        let rows = node_rows(&network, &[]);
        Ok(ReferenceExecutor {
            network,
            ops,
            order,
            consumers,
            produced,
            events: EventList::new(),
            memory: MemoryAccountant::new(capacity),
            pass_counter: 0,
            rows,
            hook: None,
        })
    }

    /// The reference loop with a [`NodeHook`] installed — the construction
    /// path for simulated-framework executors outside this crate. Gated on
    /// the static verifier exactly like [`Engine`](crate::Engine)-built
    /// executors.
    pub fn with_hook(network: Network, capacity: usize, hook: Box<dyn NodeHook>) -> Result<Self> {
        let mut executor = Self::construct(network, capacity)?;
        executor.hook = Some(hook);
        Ok(executor)
    }

    /// Re-derive operator instances and topological order after a graph
    /// transformation mutated the network. Re-runs the static verifier: a
    /// transform that broke the graph is caught here, not mid-pass. The
    /// rows of nodes that survive keep their totals.
    pub fn refresh(&mut self) -> Result<()> {
        let ir = self.network.to_ir();
        deep500_verify::gate(&ir)?;
        self.ops = self.network.instantiate_ops()?;
        self.order = self.network.levels(&ir)?.concat();
        self.consumers = consumer_template(&self.network);
        self.produced = produced_tensors(&self.network);
        self.rows = node_rows(&self.network, &self.rows);
        Ok(())
    }

    /// Forward pass producing the full tensor environment.
    fn forward_env(&mut self, feeds: &[(&str, Tensor)]) -> Result<HashMap<String, Tensor>> {
        self.memory.reset();
        let mut env: HashMap<String, Tensor> = HashMap::new();
        for (name, t) in feeds {
            self.memory.allocate(t.size_bytes())?;
            env.insert(name.to_string(), t.clone());
        }
        // Remaining-consumer counts for activation freeing, cloned from the
        // per-build template.
        let mut remaining = self.consumers.clone();
        // Outputs of view nodes (only a hook declares any): never charged.
        let mut views: HashSet<String> = HashSet::new();

        for &id in &self.order.clone() {
            let node = self.network.node(id).expect("live node").clone();
            let op = self.ops.get(&id).expect("instantiated op");
            // Gather inputs from env / params.
            let mut input_refs: Vec<&Tensor> = Vec::with_capacity(node.inputs.len());
            for name in &node.inputs {
                let t = env
                    .get(name)
                    .map(Ok)
                    .unwrap_or_else(|| self.network.fetch_tensor(name))?;
                input_refs.push(t);
            }
            // Workspace accounting (freed right after the op).
            let shapes: Vec<&Shape> = input_refs.iter().map(|t| t.shape()).collect();
            let workspace = op.workspace_bytes(&shapes);
            let flops = op.flops(&shapes);
            let bytes = op.bytes_moved(&shapes);
            self.memory.allocate(workspace)?;

            let staged = self
                .hook
                .as_mut()
                .and_then(|hook| hook.before_forward(&node, &input_refs));
            let exec_refs: Vec<&Tensor> = match &staged {
                Some(copies) => copies.iter().collect(),
                None => input_refs,
            };

            self.events.begin(Phase::OperatorForward, id.0);
            let start = std::time::Instant::now();
            let mut outputs = op.forward(&exec_refs)?;
            let seconds = start.elapsed().as_secs_f64();
            self.events.end(Phase::OperatorForward, id.0);
            let row = &mut self.rows[id.0];
            if row.forward_calls == 0 {
                row.note = op.annotation(&shapes).unwrap_or_default();
            }
            row.record_forward(seconds, flops, bytes);

            let mut is_view = false;
            if let Some(hook) = self.hook.as_mut() {
                hook.after_forward(&node, &mut outputs);
                is_view = hook.outputs_are_views(&node);
            }

            self.memory.release(workspace);
            for (tensor, name) in outputs.into_iter().zip(&node.outputs) {
                if is_view {
                    views.insert(name.clone());
                } else {
                    self.memory.allocate(tensor.size_bytes())?;
                }
                env.insert(name.clone(), tensor);
            }
            // Free inputs whose consumers are exhausted. A view node pins
            // its bases instead, and views themselves were never charged.
            for name in &node.inputs {
                if is_view || views.contains(name) {
                    continue;
                }
                if let Some(count) = remaining.get_mut(name) {
                    *count = count.saturating_sub(1);
                    if *count == 0 && !self.network.is_parameter(name) {
                        if let Some(t) = env.get(name) {
                            self.memory.release(t.size_bytes());
                        }
                        // Keep the value for backprop; accounting models a
                        // framework that frees inference-only activations.
                    }
                }
            }
        }
        Ok(env)
    }

    /// Collect declared graph outputs from an environment.
    fn collect_outputs(&self, env: &HashMap<String, Tensor>) -> Result<HashMap<String, Tensor>> {
        let mut out = HashMap::new();
        for name in self.network.graph_outputs() {
            let t = env
                .get(name)
                .ok_or_else(|| Error::NotFound(format!("graph output '{name}'")))?;
            out.insert(name.clone(), t.clone());
        }
        Ok(out)
    }
}

impl GraphExecutor for ReferenceExecutor {
    fn network(&self) -> &Network {
        &self.network
    }
    fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn inference(&mut self, feeds: &[(&str, Tensor)]) -> Result<HashMap<String, Tensor>> {
        self.pass_counter += 1;
        let pass = self.pass_counter;
        self.events.begin(Phase::Inference, pass);
        let env = self.forward_env(feeds)?;
        let outputs = self.collect_outputs(&env);
        self.events.end(Phase::Inference, pass);
        outputs
    }

    fn inference_and_backprop(
        &mut self,
        feeds: &[(&str, Tensor)],
        loss: &str,
    ) -> Result<HashMap<String, Tensor>> {
        self.pass_counter += 1;
        let pass = self.pass_counter;
        self.events.begin(Phase::Backprop, pass);
        let env = self.forward_env(feeds)?;
        let loss_tensor = env
            .get(loss)
            .ok_or_else(|| Error::NotFound(format!("loss tensor '{loss}'")))?;

        // Seed: dL/dL = 1.
        let seed_start = std::time::Instant::now();
        let mut grads: HashMap<String, Tensor> = HashMap::new();
        grads.insert(
            loss.to_string(),
            Tensor::full(loss_tensor.shape().clone(), 1.0),
        );
        self.events
            .span(Phase::LossSeed, pass, seed_start.elapsed().as_secs_f64());

        for &id in self.order.clone().iter().rev() {
            let node = self.network.node(id).expect("live node").clone();
            // Skip nodes that contribute no gradient.
            if !node.outputs.iter().any(|o| grads.contains_key(o)) {
                continue;
            }
            let op = self.ops.get(&id).expect("instantiated op");
            let mut input_refs: Vec<&Tensor> = Vec::with_capacity(node.inputs.len());
            for name in &node.inputs {
                let t = env
                    .get(name)
                    .map(Ok)
                    .unwrap_or_else(|| self.network.fetch_tensor(name))?;
                input_refs.push(t);
            }
            let output_tensors: Vec<&Tensor> = node
                .outputs
                .iter()
                .map(|o| env.get(o).ok_or_else(|| Error::NotFound(o.clone())))
                .collect::<Result<_>>()?;
            // Missing output grads are zeros.
            let grad_outputs: Vec<Tensor> = node
                .outputs
                .iter()
                .zip(&output_tensors)
                .map(|(name, t)| {
                    grads
                        .get(name)
                        .cloned()
                        .unwrap_or_else(|| Tensor::zeros(t.shape().clone()))
                })
                .collect();
            let grad_refs: Vec<&Tensor> = grad_outputs.iter().collect();
            let wanted = wanted_grads(&self.network, &self.produced, &node);

            if let Some(hook) = self.hook.as_mut() {
                hook.before_backward(&node);
            }
            self.events.begin(Phase::OperatorBackward, id.0);
            let start = std::time::Instant::now();
            let input_grads =
                op.backward_wanted(&grad_refs, &input_refs, &output_tensors, &wanted)?;
            let seconds = start.elapsed().as_secs_f64();
            self.events.end(Phase::OperatorBackward, id.0);
            self.rows[id.0].record_backward(seconds);

            for (gname, gtensor) in node.inputs.iter().zip(input_grads) {
                // `None`: an unwanted gradient the operator elided.
                let Some(gtensor) = gtensor else { continue };
                match grads.get_mut(gname) {
                    Some(existing) => existing.axpy(1.0, &gtensor)?,
                    None => {
                        grads.insert(gname.clone(), gtensor);
                    }
                }
            }
        }

        // Publish parameter gradients into the network value store.
        let publish_start = std::time::Instant::now();
        for (pname, gname) in self.network.gradient() {
            let g = grads.get(&pname).cloned().unwrap_or_else(|| {
                let shape = self
                    .network
                    .fetch_tensor(&pname)
                    .map(|t| t.shape().clone())
                    .unwrap_or_else(|_| Shape::scalar());
                Tensor::zeros(shape)
            });
            self.network.feed_tensor(gname, g);
        }
        self.events.span(
            Phase::Bookkeeping,
            pass,
            publish_start.elapsed().as_secs_f64(),
        );

        let outputs = self.collect_outputs(&env);
        self.events.end(Phase::Backprop, pass);
        outputs
    }

    fn events_mut(&mut self) -> &mut EventList {
        &mut self.events
    }

    fn peak_memory(&self) -> usize {
        self.memory.peak()
    }

    fn op_totals(&self) -> HashMap<usize, OpAttribution> {
        rows_by_id(&self.network, &self.rows)
    }
}

/// Implements the paper's Level-1 `FrameworkOverhead` metric: "the overall
/// time for inference and backpropagation compared with the sum of running
/// times of individual operators" — i.e. dispatch/management overhead.
#[derive(Default)]
pub struct FrameworkOverheadProbe {
    op_time: f64,
    total_time: f64,
    op_start: Option<std::time::Instant>,
    pass_start: Option<std::time::Instant>,
}

impl FrameworkOverheadProbe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Seconds spent inside operators.
    pub fn operator_time(&self) -> f64 {
        self.op_time
    }

    /// Seconds spent in whole passes.
    pub fn total_time(&self) -> f64 {
        self.total_time
    }

    /// Framework overhead: total minus per-operator time.
    pub fn overhead(&self) -> f64 {
        (self.total_time - self.op_time).max(0.0)
    }
}

impl Event for FrameworkOverheadProbe {
    fn begin(&mut self, phase: Phase, _id: usize) {
        match phase {
            Phase::OperatorForward | Phase::OperatorBackward => {
                self.op_start = Some(std::time::Instant::now());
            }
            Phase::Inference | Phase::Backprop => {
                self.pass_start = Some(std::time::Instant::now());
            }
            _ => {}
        }
    }
    fn end(&mut self, phase: Phase, _id: usize) {
        match phase {
            Phase::OperatorForward | Phase::OperatorBackward => {
                if let Some(s) = self.op_start.take() {
                    self.op_time += s.elapsed().as_secs_f64();
                }
            }
            Phase::Inference | Phase::Backprop => {
                if let Some(s) = self.pass_start.take() {
                    self.total_time += s.elapsed().as_secs_f64();
                }
            }
            _ => {}
        }
    }
    fn span(&mut self, phase: Phase, _id: usize, seconds: f64) {
        // Concurrent executors time each operator on its worker thread and
        // report the finished span; begin/end bracketing on the reporting
        // thread would measure dispatch latency, not operator time.
        match phase {
            Phase::OperatorForward | Phase::OperatorBackward => self.op_time += seconds,
            Phase::Inference | Phase::Backprop => self.total_time += seconds,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep500_ops::registry::Attributes;

    /// x --Relu--> h --Scale(2)--> y ; plus a Linear net for backprop.
    fn relu_scale_net() -> Network {
        let mut net = Network::new("t");
        net.add_input("x");
        net.add_node("r", "Relu", Attributes::new(), &["x"], &["h"])
            .unwrap();
        net.add_node(
            "s",
            "Scale",
            Attributes::new().with_float("alpha", 2.0),
            &["h"],
            &["y"],
        )
        .unwrap();
        net.add_output("y");
        net
    }

    fn linear_loss_net() -> Network {
        // loss = MSE(x * W^T + b, target)
        let mut net = Network::new("lin");
        net.add_input("x");
        net.add_input("target");
        net.add_parameter("W", Tensor::from_vec([1, 2], vec![1.0, 1.0]).unwrap());
        net.add_parameter("b", Tensor::from_slice(&[0.0]));
        net.add_node(
            "fc",
            "Linear",
            Attributes::new(),
            &["x", "W", "b"],
            &["pred"],
        )
        .unwrap();
        net.add_node(
            "mse",
            "MseLoss",
            Attributes::new(),
            &["pred", "target"],
            &["loss"],
        )
        .unwrap();
        net.add_output("loss");
        net.add_output("pred");
        net
    }

    #[test]
    fn inference_computes_outputs() {
        let mut ex = ReferenceExecutor::construct(relu_scale_net(), usize::MAX).unwrap();
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        let out = ex.inference(&[("x", x)]).unwrap();
        assert_eq!(out["y"].data(), &[0.0, 4.0]);
    }

    #[test]
    fn backprop_produces_param_grads() {
        let mut ex = ReferenceExecutor::construct(linear_loss_net(), usize::MAX).unwrap();
        let x = Tensor::from_vec([1, 2], vec![1.0, 2.0]).unwrap();
        let target = Tensor::from_vec([1, 1], vec![0.0]).unwrap();
        let out = ex
            .inference_and_backprop(&[("x", x), ("target", target)], "loss")
            .unwrap();
        // pred = 1*1 + 1*2 + 0 = 3; loss = 9
        assert!((out["loss"].data()[0] - 9.0).abs() < 1e-5);
        let gw = ex.network().fetch_tensor("grad::W").unwrap();
        // dloss/dpred = 2*pred = 6 ; dW = dpred^T x = [6, 12]
        assert!(gw.approx_eq(&Tensor::from_vec([1, 2], vec![6.0, 12.0]).unwrap(), 1e-4));
        let gb = ex.network().fetch_tensor("grad::b").unwrap();
        assert!((gb.data()[0] - 6.0).abs() < 1e-4);
    }

    #[test]
    fn missing_feed_is_detected() {
        let mut ex = ReferenceExecutor::construct(relu_scale_net(), usize::MAX).unwrap();
        assert!(ex.inference(&[]).is_err());
    }

    #[test]
    fn memory_accountant_enforces_capacity() {
        let acc = MemoryAccountant::new(100);
        acc.allocate(60).unwrap();
        assert_eq!(acc.current(), 60);
        assert!(matches!(
            acc.allocate(50),
            Err(Error::OutOfMemory {
                requested: 50,
                capacity: 100
            })
        ));
        acc.release(60);
        acc.allocate(100).unwrap();
        assert_eq!(acc.peak(), 100);
        acc.reset();
        assert_eq!(acc.current(), 0);
    }

    #[test]
    fn executor_ooms_on_tiny_capacity() {
        let net = relu_scale_net();
        let mut ex = ReferenceExecutor::construct(net, 8).unwrap();
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]); // 16 bytes
        let err = ex.inference(&[("x", x)]).unwrap_err();
        assert!(matches!(err, Error::OutOfMemory { .. }));
    }

    #[test]
    fn peak_memory_is_reported() {
        let mut ex = ReferenceExecutor::construct(relu_scale_net(), usize::MAX).unwrap();
        let x = Tensor::from_slice(&[1.0; 100]);
        ex.inference(&[("x", x)]).unwrap();
        assert!(ex.peak_memory() >= 400);
    }

    #[test]
    fn overhead_probe_accumulates() {
        let mut ex = ReferenceExecutor::construct(relu_scale_net(), usize::MAX).unwrap();
        ex.events_mut()
            .push(Box::new(FrameworkOverheadProbe::new()));
        let x = Tensor::from_slice(&[1.0; 1000]);
        for _ in 0..3 {
            ex.inference(&[("x", x.clone())]).unwrap();
        }
        // The probe is inside the event list; this test verifies the
        // dispatch path doesn't panic. Standalone probe check:
        let mut probe = FrameworkOverheadProbe::new();
        probe.begin(Phase::Inference, 0);
        probe.begin(Phase::OperatorForward, 0);
        probe.end(Phase::OperatorForward, 0);
        probe.end(Phase::Inference, 0);
        assert!(probe.total_time() >= probe.operator_time());
        assert!(probe.overhead() <= probe.total_time());
    }

    #[test]
    fn reference_executor_attributes_op_time() {
        let mut ex = ReferenceExecutor::construct(linear_loss_net(), usize::MAX).unwrap();
        let x = Tensor::from_vec([1, 2], vec![1.0, 2.0]).unwrap();
        let target = Tensor::from_vec([1, 1], vec![0.0]).unwrap();
        ex.inference_and_backprop(&[("x", x), ("target", target)], "loss")
            .unwrap();
        let rows = ex.op_attribution();
        assert_eq!(rows.len(), 2, "fc and mse");
        let fc = rows.iter().find(|r| r.name == "fc").expect("fc row");
        assert_eq!(fc.forward_calls, 1);
        assert_eq!(fc.backward_calls, 1);
        assert!(fc.forward_s >= 0.0 && fc.backward_s >= 0.0);
        assert!(fc.flops_per_call > 0.0, "Linear declares FLOPs");
        assert!(fc.bytes_per_call > 0, "default bytes_moved counts I/O");

        // The same totals annotate a trace recorder with real node names.
        let rec = deep500_metrics::TraceRecorder::new();
        ex.annotate_trace(&rec);
        let mut sink = rec.sink("t");
        sink.span(Phase::OperatorForward, fc.id, 0.001);
        sink.flush();
        assert!(rec.chrome_trace_json().contains("\"name\":\"fc\""));
    }

    #[test]
    fn multi_output_nodes_backprop() {
        // Split a tensor, scale one half, sum both halves back via Concat
        // and MSE against zeros: gradient must reach the input.
        let mut net = Network::new("split");
        net.add_input("x");
        net.add_input("target");
        net.add_node(
            "sp",
            "Split",
            Attributes::new().with_ints("sizes", &[1, 1]),
            &["x"],
            &["a", "b"],
        )
        .unwrap();
        net.add_node(
            "sc",
            "Scale",
            Attributes::new().with_float("alpha", 3.0),
            &["a"],
            &["a3"],
        )
        .unwrap();
        net.add_node(
            "cc",
            "Concat",
            Attributes::new().with_int("num_inputs", 2),
            &["a3", "b"],
            &["y"],
        )
        .unwrap();
        net.add_node(
            "l",
            "MseLoss",
            Attributes::new(),
            &["y", "target"],
            &["loss"],
        )
        .unwrap();
        net.add_output("loss");
        net.add_parameter("dummy", Tensor::scalar(0.0));
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let x = Tensor::from_vec([2, 1], vec![1.0, 1.0]).unwrap();
        let t = Tensor::from_vec([2, 1], vec![0.0, 0.0]).unwrap();
        let out = ex
            .inference_and_backprop(&[("x", x), ("target", t)], "loss")
            .unwrap();
        // y = [3, 1]; loss = (9+1)/2 = 5
        assert!((out["loss"].data()[0] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn conv_attribution_rows_carry_the_resolved_tier() {
        let net = crate::models::lenet(1, 28, 10, 5).unwrap();
        let mut ex = ReferenceExecutor::construct(net, usize::MAX).unwrap();
        let feeds = [
            ("x", Tensor::ones([1, 1, 28, 28])),
            ("labels", Tensor::from_slice(&[0.0])),
        ];
        ex.inference(&feeds).unwrap();
        let conv_notes: Vec<String> = ex
            .op_attribution()
            .into_iter()
            .filter(|r| r.name.starts_with("conv"))
            .map(|r| r.note)
            .collect();
        assert_eq!(conv_notes.len(), 2, "both LeNet convs attributed");
        for note in &conv_notes {
            assert!(
                note.starts_with("tier="),
                "conv attribution note must name the dispatch tier, got '{note}'"
            );
        }

        // The note rides into the trace recorder and the Chrome export's
        // span args.
        let recorder = deep500_metrics::trace::TraceRecorder::new();
        let conv_id = ex
            .network()
            .nodes()
            .find(|(_, n)| n.op_type == "Conv2d")
            .expect("lenet has convs")
            .0;
        let mut sink = recorder.sink("t0");
        sink.span(deep500_metrics::Phase::OperatorForward, conv_id.0, 0.001);
        drop(sink);
        ex.annotate_trace(&recorder);
        let json = recorder.chrome_trace_json();
        assert!(
            json.contains("\"detail\":\"tier="),
            "chrome export must carry the tier note: {json}"
        );
    }
}
