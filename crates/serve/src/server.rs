//! The serving front-end: [`Server`], its builder, and per-model shards.
//!
//! A [`Server`] hosts any number of models from the zoo, each behind a
//! *shard*: a bounded admission queue plus a pool of worker threads. Every
//! worker owns a replica [`Engine`] (identical parameters — replicas are
//! [`Network::clone_structure`] copies of one seeded network) and drains
//! the shard's queue under the shard's [`BatchPolicy`]. Batching is
//! work-conserving: a worker that takes a request runs it at once, together
//! with whatever else is queued and fits, and never waits for company.
//! Requests coalesce only while every worker is busy, which is exactly when
//! they queue. The substrate is plain threads, mutexes and condvars — no
//! async runtime — matching the rest of the workspace.
//!
//! Requests change hands twice: client → worker (the queue) and worker →
//! client (the [`Ticket`]). Waking a parked thread costs more than a small
//! model's pass on a virtualised host, so both waiting sides first poll an
//! atomic hint through [`deep500_tensor::wait::poll`] and park only when
//! that window passes; each records under its mutex that it parked, and
//! the other side signals only then.
//!
//! Clients talk to the server through two calls:
//!
//! * [`Server::submit`] — non-blocking admission. Returns a [`Ticket`]
//!   immediately, or a typed [`ServeError`] (`QueueFull` when the bounded
//!   queue is at capacity — the graceful-degradation path, `BadRequest`
//!   on interface violations, `UnknownModel`, `Shutdown`).
//! * [`Ticket::wait`] — block until the request's batch has executed and
//!   collect the [`InferReply`] with per-request outputs and timing.
//!
//! [`Server::infer`] chains the two for closed-loop callers.

use crate::batch::{BatchPolicy, WireContract};
use crate::error::{ServeError, ServeResult};
use deep500_graph::{Engine, ExecutorKind, Network, Session};
use deep500_metrics::event::Phase;
use deep500_metrics::trace::{TraceRecorder, TraceSink};
use deep500_tensor::wait::poll;
use deep500_tensor::Tensor;
use deep500_verify::{batch_contract, BatchContract, BatchRole, SymShape};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- replies

/// Where a request's time went, measured by the worker that served it.
#[derive(Debug, Clone, Copy)]
pub struct RequestTiming {
    /// Admission to the moment a worker took the request's batch.
    pub queued_s: f64,
    /// The executor pass of the batch this request rode in.
    pub run_s: f64,
    /// Admission to reply delivery.
    pub total_s: f64,
    /// Total rows in that batch (1 = the request ran alone).
    pub batch_rows: usize,
    /// Shard-local sequence number of the batch.
    pub batch_id: usize,
}

/// One request's answer: its slice of the model outputs, plus timing.
#[derive(Debug, Clone)]
pub struct InferReply {
    /// Under a dynamic policy: the request's rows of every per-sample
    /// output (batch aggregates are excluded — a batch mean is nobody's
    /// answer). Under [`BatchPolicy::Single`]: every declared output,
    /// verbatim.
    pub outputs: HashMap<String, Tensor>,
    /// Worker-measured latency breakdown.
    pub timing: RequestTiming,
}

// ---------------------------------------------------------------- tickets

/// One-shot reply slot shared between the admitting client and the worker.
/// `done` is only a hint the waiter polls; the reply and whether the waiter
/// parked live under `slot`'s lock, so `deliver` signals exactly when
/// someone sleeps on `ready` and no wake-up can be lost.
#[derive(Default)]
struct TicketState {
    done: AtomicBool,
    slot: Mutex<Slot>,
    ready: Condvar,
}

#[derive(Default)]
struct Slot {
    reply: Option<ServeResult<InferReply>>,
    parked: bool,
}

impl TicketState {
    fn deliver(&self, result: ServeResult<InferReply>) {
        let parked = {
            let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
            slot.reply = Some(result);
            self.done.store(true, Ordering::Release);
            slot.parked
        };
        if parked {
            self.ready.notify_one();
        }
    }
}

/// A claim on an admitted request's eventual reply.
pub struct Ticket {
    state: Arc<TicketState>,
    id: usize,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish()
    }
}

impl Ticket {
    /// The server-wide request id (admission order).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Block until the request is served (or fails), consuming the ticket.
    pub fn wait(self) -> ServeResult<InferReply> {
        let state = &*self.state;
        // A small model's reply usually lands within the poll window, and
        // then neither side pays a futex round trip.
        poll(Duration::MAX, || {
            state.done.load(Ordering::Acquire).then_some(())
        });
        let mut slot = state.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.reply.take() {
                return result;
            }
            slot.parked = true;
            slot = state.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

// ----------------------------------------------------------------- shards

/// A queued, validated request.
struct Pending {
    id: usize,
    feeds: Vec<(String, Tensor)>,
    rows: usize,
    enqueued: Instant,
    ticket: Arc<TicketState>,
}

/// A request dropped before its batch replied — its worker unwound out of
/// an operator panic, say — fails its ticket instead of stranding the
/// waiter. Every path that replies has set `done` by then.
impl Drop for Pending {
    fn drop(&mut self) {
        if !self.ticket.done.load(Ordering::Acquire) {
            self.ticket
                .deliver(Err(ServeError::Execution(deep500_tensor::Error::Invalid(
                    format!("request {} dropped unanswered: its worker stopped", self.id),
                ))));
        }
    }
}

struct ShardState {
    queue: VecDeque<Pending>,
    open: bool,
    /// Workers parked on `not_empty` with nothing to do. Only an empty
    /// queue makes a worker wait, so `submit` wakes one of them and a
    /// finished pass wakes nobody.
    idle: usize,
}

/// One model's admission queue + contract; shared by its workers.
struct Shard {
    name: String,
    policy: BatchPolicy,
    capacity: usize,
    /// `Some` iff the model is batchable (always, under a dynamic policy).
    wire: Option<WireContract>,
    /// The verifier's full classification, for introspection.
    contract: BatchContract,
    /// Declared graph inputs, for `Single`-policy feed validation.
    inputs: Vec<String>,
    state: Mutex<ShardState>,
    not_empty: Condvar,
    /// `state.queue.len()` as of the last change, for idle workers to poll
    /// without the lock; a hint only — they re-check under the lock.
    queued: AtomicUsize,
    served: AtomicUsize,
    rejected: AtomicUsize,
    batches: AtomicUsize,
    fired: Fired,
}

/// Why [`Shard::next_batch`] closed each batch it handed out. Statistics
/// only — they publish no other data, hence `Relaxed`.
#[derive(Default)]
struct Fired {
    full: AtomicUsize,
    quiet: AtomicUsize,
}

/// Counters for one model's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests answered (successfully or with an execution error).
    pub served: usize,
    /// Requests bounced with [`ServeError::QueueFull`].
    pub rejected: usize,
    /// Executor passes run.
    pub batches: usize,
    /// Requests currently admitted but not yet picked up.
    pub queued: usize,
    /// Batches closed because they were full: `max_batch` rows reached, the
    /// next queued request would not fit, or the policy is `Single`.
    pub fired_full: usize,
    /// Batches fired with the queue empty: every queued request rode along.
    pub fired_quiet: usize,
}

impl Shard {
    /// Validate a request against this shard's interface and return its
    /// row count.
    fn validate(&self, feeds: &[(String, Tensor)]) -> ServeResult<usize> {
        match (&self.policy, &self.wire) {
            (BatchPolicy::Dynamic { .. }, Some(wire)) => wire.validate(feeds),
            _ => {
                for name in &self.inputs {
                    if !feeds.iter().any(|(n, _)| n == name) {
                        return Err(ServeError::BadRequest(format!("missing input '{name}'")));
                    }
                }
                Ok(1)
            }
        }
    }

    /// Refresh the `queued` hint; called under the lock after the queue
    /// changed.
    fn publish_len(&self, st: &ShardState) {
        self.queued.store(st.queue.len(), Ordering::Relaxed);
    }

    /// Pop the next batch, blocking while the queue is empty and open, and
    /// count why it was closed. `None` once the shard is closed and
    /// drained. A `Dynamic` batch takes every queued request, in order,
    /// that fits under `max_batch`, and fires at once.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(first) = st.queue.pop_front() {
                let max_rows = match self.policy {
                    // Nothing joins: the request runs alone, feeds verbatim.
                    BatchPolicy::Single => 0,
                    BatchPolicy::Dynamic { max_batch, .. } => max_batch,
                };
                let mut rows = first.rows;
                let mut batch = vec![first];
                while let Some(p) = st.queue.front() {
                    if rows + p.rows > max_rows {
                        break;
                    }
                    rows += p.rows;
                    batch.push(st.queue.pop_front().expect("front just checked"));
                }
                self.publish_len(&st);
                let reason = if rows >= max_rows || !st.queue.is_empty() {
                    &self.fired.full
                } else {
                    &self.fired.quiet
                };
                reason.fetch_add(1, Ordering::Relaxed);
                return Some(batch);
            }
            if !st.open {
                return None;
            }
            // Idle: poll for a request about to land, then park — counted,
            // so that `submit` knows to signal. Under the lock the queue is
            // checked again, so a stale hint only costs a poll or a park.
            drop(st);
            poll(Duration::MAX, || {
                (self.queued.load(Ordering::Relaxed) > 0).then_some(())
            });
            st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.queue.is_empty() && st.open {
                st.idle += 1;
                st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
                st.idle -= 1;
            }
        }
    }

    /// Execute one assembled batch on `session` and deliver every reply.
    fn run_batch(&self, session: &Session, mut batch: Vec<Pending>, sink: &mut Option<TraceSink>) {
        let batch_id = self.batches.fetch_add(1, Ordering::Relaxed);
        let assembled = Instant::now();
        let rows: Vec<usize> = batch.iter().map(|p| p.rows).collect();
        let batch_rows: usize = rows.iter().sum();
        let feed_bytes: u64 = batch
            .iter()
            .flat_map(|p| p.feeds.iter())
            .map(|(_, t)| t.size_bytes() as u64)
            .sum();

        // The executor copies each feed into its environment; move the
        // owned tensors in rather than cloning them first.
        let infer = |feeds: Vec<(String, Tensor)>| {
            let (names, tensors): (Vec<String>, Vec<Tensor>) = feeds.into_iter().unzip();
            let refs: Vec<(&str, Tensor)> = names.iter().map(String::as_str).zip(tensors).collect();
            session.infer(&refs).map_err(ServeError::from)
        };
        let result: ServeResult<Vec<HashMap<String, Tensor>>> = match &self.wire {
            Some(wire) if matches!(self.policy, BatchPolicy::Dynamic { .. }) => {
                let requests: Vec<&[(String, Tensor)]> =
                    batch.iter().map(|p| p.feeds.as_slice()).collect();
                wire.coalesce(&requests)
                    .and_then(infer)
                    .and_then(|outputs| wire.split(&outputs, &rows))
            }
            // Single policy: exactly one request, feeds verbatim, every
            // declared output in the reply.
            _ => infer(std::mem::take(&mut batch[0].feeds)).map(|outputs| vec![outputs]),
        };

        let run_s = assembled.elapsed().as_secs_f64();
        if let Some(s) = sink.as_mut() {
            s.record_span_bytes(Phase::Batch, batch_id, run_s, feed_bytes);
        }

        let mut replies = match result {
            Ok(replies) => replies.into_iter().map(Ok).collect::<Vec<_>>(),
            Err(e) => batch.iter().map(|_| Err(e.clone())).collect(),
        };
        for (p, outcome) in batch.into_iter().zip(replies.drain(..)) {
            let queued_s = (assembled - p.enqueued).as_secs_f64();
            let total_s = p.enqueued.elapsed().as_secs_f64();
            if let Some(s) = sink.as_mut() {
                s.record_span_bytes(Phase::Queue, p.id, queued_s, 0);
                s.record_span_bytes(Phase::Request, p.id, total_s, 0);
            }
            // Count before delivering: the ticket's hand-off (a release
            // store of `done`, then its mutex) makes the increment visible
            // to a client that reads stats right after its `wait()`
            // returns.
            self.served.fetch_add(1, Ordering::Relaxed);
            p.ticket.deliver(outcome.map(|outputs| InferReply {
                outputs,
                timing: RequestTiming {
                    queued_s,
                    run_s,
                    total_s,
                    batch_rows,
                    batch_id,
                },
            }));
        }
        if let Some(s) = sink.as_mut() {
            s.flush();
        }
    }
}

fn worker_loop(shard: Arc<Shard>, engine: Engine, mut sink: Option<TraceSink>) {
    let session = engine.session();
    while let Some(batch) = shard.next_batch() {
        shard.run_batch(&session, batch, &mut sink);
    }
    if let Some(s) = sink.as_mut() {
        s.flush();
    }
}

// ------------------------------------------------------------ model config

/// Everything the server needs to host one model.
pub struct ModelConfig {
    network: Network,
    executor: ExecutorKind,
    policy: BatchPolicy,
    queue_capacity: usize,
    workers: usize,
    batched: Vec<(String, Vec<usize>)>,
    fixed: Vec<(String, Vec<usize>)>,
}

impl ModelConfig {
    /// Host `network` with the defaults: reference executor, one worker,
    /// [`BatchPolicy::Single`], queue capacity 64.
    pub fn new(network: Network) -> Self {
        ModelConfig {
            network,
            executor: ExecutorKind::default(),
            policy: BatchPolicy::Single,
            queue_capacity: 64,
            workers: 1,
            batched: Vec::new(),
            fixed: Vec::new(),
        }
    }

    /// Executor tier for every worker replica.
    pub fn executor(mut self, kind: ExecutorKind) -> Self {
        self.executor = kind;
        self
    }

    /// Batch assembly policy.
    pub fn policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Admission queue bound; a full queue rejects with
    /// [`ServeError::QueueFull`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Worker replicas draining this model's queue. `0` is allowed and
    /// means admission-only (nothing is served until shutdown fails the
    /// queue) — useful for back-pressure tests and staged start-up.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Declare a per-request input: each request feeds `[rows, rest...]`
    /// and rows are what dynamic batching concatenates. Symbolically this
    /// is [`SymShape::batched`]`(rest)`.
    pub fn batched_input(mut self, name: impl Into<String>, rest: &[usize]) -> Self {
        self.batched.push((name.into(), rest.to_vec()));
        self
    }

    /// Declare a batch-independent input (shared state: must be identical
    /// across coalesced requests). Symbolically [`SymShape::fixed`]`(dims)`.
    ///
    /// Public for: DESIGN §14, a served model's batch-independent input,
    /// the counterpart of `batched_input`.
    pub fn fixed_input(mut self, name: impl Into<String>, dims: &[usize]) -> Self {
        self.fixed.push((name.into(), dims.to_vec()));
        self
    }
}

// ----------------------------------------------------------------- server

/// Configures and launches a [`Server`]. Created by [`Server::builder`].
#[derive(Default)]
pub struct ServerBuilder {
    models: Vec<(String, ModelConfig)>,
    trace: Option<TraceRecorder>,
}

impl ServerBuilder {
    /// Register a model under `name`.
    pub fn model(mut self, name: impl Into<String>, config: ModelConfig) -> Self {
        self.models.push((name.into(), config));
        self
    }

    /// Attach a trace recorder: every worker emits `Request`, `Queue` and
    /// `Batch` spans into a `serve/<model>/w<i>` track, alongside the
    /// engine's own operator spans.
    pub fn trace(mut self, recorder: &TraceRecorder) -> Self {
        self.trace = Some(recorder.clone());
        self
    }

    /// Derive each model's batch contract, verify batchability where the
    /// policy demands it, build the worker engines, and start serving.
    pub fn build(self) -> ServeResult<Server> {
        let mut shards = HashMap::new();
        let mut workers = Vec::new();
        for (name, config) in self.models {
            if shards.contains_key(&name) {
                return Err(ServeError::BadRequest(format!(
                    "model '{name}' registered twice"
                )));
            }
            let ir = config.network.to_ir();
            let sym_shapes: Vec<(String, SymShape)> = config
                .batched
                .iter()
                .map(|(n, rest)| (n.clone(), SymShape::batched(rest)))
                .chain(
                    config
                        .fixed
                        .iter()
                        .map(|(n, dims)| (n.clone(), SymShape::fixed(dims))),
                )
                .collect();
            let sym_refs: Vec<(&str, SymShape)> = sym_shapes
                .iter()
                .map(|(n, s)| (n.as_str(), s.clone()))
                .collect();
            let contract = batch_contract(&ir, &sym_refs);
            if matches!(config.policy, BatchPolicy::Dynamic { max_batch, .. } if max_batch == 0) {
                return Err(ServeError::BadRequest(format!(
                    "model '{name}': max_batch must be at least 1"
                )));
            }
            if matches!(config.policy, BatchPolicy::Dynamic { .. }) && !contract.batchable() {
                let entangled: Vec<&str> = contract
                    .inputs
                    .iter()
                    .chain(&contract.outputs)
                    .filter(|(_, r)| *r == BatchRole::Entangled)
                    .map(|(n, _)| n.as_str())
                    .collect();
                return Err(ServeError::BadRequest(format!(
                    "model '{name}' is not batchable (entangled: {entangled:?}); \
                     use BatchPolicy::Single"
                )));
            }
            let wire = if contract.batchable() {
                Some(wire_contract(&contract))
            } else {
                None
            };
            let shard = Arc::new(Shard {
                name: name.clone(),
                policy: config.policy,
                capacity: config.queue_capacity,
                wire,
                inputs: ir.inputs.clone(),
                contract,
                state: Mutex::new(ShardState {
                    queue: VecDeque::new(),
                    open: true,
                    idle: 0,
                }),
                not_empty: Condvar::new(),
                queued: AtomicUsize::new(0),
                served: AtomicUsize::new(0),
                rejected: AtomicUsize::new(0),
                batches: AtomicUsize::new(0),
                fired: Fired::default(),
            });
            for w in 0..config.workers {
                let engine = Engine::builder(config.network.clone_structure())
                    .executor(config.executor)
                    .build()?;
                let sink = self
                    .trace
                    .as_ref()
                    .map(|rec| rec.sink(format!("serve/{name}/w{w}")));
                let shard = shard.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("serve-{name}-w{w}"))
                    .spawn(move || worker_loop(shard, engine, sink))
                    .map_err(|e| {
                        ServeError::Execution(deep500_tensor::Error::Io(format!(
                            "spawning worker: {e}"
                        )))
                    })?;
                workers.push(handle);
            }
            shards.insert(name, shard);
        }
        Ok(Server {
            shards,
            workers,
            next_id: AtomicUsize::new(0),
        })
    }
}

/// Project the verifier's symbolic contract down to the concrete trailing
/// shapes the hot path checks against.
fn wire_contract(contract: &BatchContract) -> WireContract {
    let rest_dims = |name: &str| -> Vec<usize> {
        contract.shapes[name].dims[1..]
            .iter()
            .map(|d| match d {
                deep500_verify::SymDim::Const(c) => *c,
                // PerSample guarantees constant trailing dims.
                deep500_verify::SymDim::Affine { .. } => unreachable!("per-sample tail is const"),
            })
            .collect()
    };
    WireContract {
        per_sample_inputs: contract
            .per_sample_inputs()
            .into_iter()
            .map(|n| (n.to_string(), rest_dims(n)))
            .collect(),
        fixed_inputs: contract
            .inputs
            .iter()
            .filter(|(_, r)| *r == BatchRole::Fixed)
            .map(|(n, _)| n.clone())
            .collect(),
        per_sample_outputs: contract
            .per_sample_outputs()
            .into_iter()
            .map(String::from)
            .collect(),
    }
}

/// A running multi-model inference server. Dropping (or
/// [`shutdown`](Server::shutdown)ting) it closes admission, drains the
/// queues, and joins the workers.
pub struct Server {
    shards: HashMap<String, Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicUsize,
}

impl Server {
    /// Start configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Admit a request for `model` without blocking. On success the
    /// request is queued and the returned [`Ticket`] claims its reply.
    pub fn submit(&self, model: &str, feeds: &[(&str, Tensor)]) -> ServeResult<Ticket> {
        let shard = self
            .shards
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let owned: Vec<(String, Tensor)> = feeds
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();
        let rows = shard.validate(&owned)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ticket = Arc::new(TicketState::default());
        let idle = {
            let mut st = shard.state.lock().unwrap_or_else(|e| e.into_inner());
            if !st.open {
                return Err(ServeError::Shutdown);
            }
            if st.queue.len() >= shard.capacity {
                shard.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull {
                    model: shard.name.clone(),
                    capacity: shard.capacity,
                });
            }
            st.queue.push_back(Pending {
                id,
                feeds: owned,
                rows,
                enqueued: Instant::now(),
                ticket: ticket.clone(),
            });
            shard.publish_len(&st);
            st.idle > 0
        };
        // One idle worker is enough; a polling or busy one needs no signal.
        if idle {
            shard.not_empty.notify_one();
        }
        Ok(Ticket { state: ticket, id })
    }

    /// Submit and wait: the closed-loop client call.
    pub fn infer(&self, model: &str, feeds: &[(&str, Tensor)]) -> ServeResult<InferReply> {
        self.submit(model, feeds)?.wait()
    }

    /// Registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shards.keys().cloned().collect();
        names.sort();
        names
    }

    /// The verifier's batch classification for `model`.
    pub fn contract(&self, model: &str) -> Option<&BatchContract> {
        self.shards.get(model).map(|s| &s.contract)
    }

    /// Live counters for `model`'s shard.
    pub fn stats(&self, model: &str) -> Option<ShardStats> {
        self.shards.get(model).map(|s| ShardStats {
            served: s.served.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            fired_full: s.fired.full.load(Ordering::Relaxed),
            fired_quiet: s.fired.quiet.load(Ordering::Relaxed),
            queued: s
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len(),
        })
    }

    /// Close admission, let the workers drain what is queued, join them,
    /// and fail anything left (possible only on zero-worker shards) with
    /// [`ServeError::Shutdown`].
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        for shard in self.shards.values() {
            let mut st = shard.state.lock().unwrap_or_else(|e| e.into_inner());
            st.open = false;
            drop(st);
            shard.not_empty.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for shard in self.shards.values() {
            let mut st = shard.state.lock().unwrap_or_else(|e| e.into_inner());
            while let Some(p) = st.queue.pop_front() {
                p.ticket.deliver(Err(ServeError::Shutdown));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.models())
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(batch_id: usize) -> ServeResult<InferReply> {
        Ok(InferReply {
            outputs: HashMap::new(),
            timing: RequestTiming {
                queued_s: 0.0,
                run_s: 0.0,
                total_s: 0.0,
                batch_rows: 1,
                batch_id,
            },
        })
    }

    /// When the worker delivers, relative to the client's `wait`.
    #[derive(Debug, Clone, Copy)]
    enum When {
        /// Before `wait` is called.
        Before,
        /// 10 µs into it: inside the poll window.
        Polling,
        /// Once the waiter has recorded that it parked.
        Parked,
    }

    #[test]
    fn a_reply_reaches_its_waiter_before_during_and_after_the_poll() {
        for when in [When::Before, When::Polling, When::Parked] {
            for round in 0..1000 {
                let state = Arc::new(TicketState::default());
                let ticket = Ticket {
                    state: state.clone(),
                    id: round,
                };
                let got = std::thread::scope(|s| {
                    let worker = || match when {
                        When::Before => state.deliver(reply(round)),
                        When::Polling => {
                            let t0 = Instant::now();
                            while t0.elapsed() < Duration::from_micros(10) {
                                std::hint::spin_loop();
                            }
                            state.deliver(reply(round));
                        }
                        When::Parked => {
                            while !state.slot.lock().unwrap().parked {
                                std::thread::sleep(Duration::from_micros(20));
                            }
                            state.deliver(reply(round));
                        }
                    };
                    if let When::Before = when {
                        worker();
                    } else {
                        s.spawn(worker);
                    }
                    ticket.wait()
                });
                assert_eq!(got.unwrap().timing.batch_id, round, "{when:?}");
            }
        }
    }

    #[test]
    fn a_request_submitted_after_every_worker_parked_is_served() {
        let dynamic = BatchPolicy::Dynamic {
            max_batch: 4,
            max_delay: Duration::from_millis(20),
        };
        for policy in [BatchPolicy::Single, dynamic] {
            let net = deep500_graph::models::mlp(8, &[16], 4, 5).unwrap();
            let config = ModelConfig::new(net)
                .batched_input("x", &[8])
                .batched_input("labels", &[])
                .policy(policy)
                .workers(2);
            let server = Server::builder().model("mlp", config).build().unwrap();
            let shard = &server.shards["mlp"];
            for i in 0..10 {
                let asleep = Instant::now();
                while shard.state.lock().unwrap().idle < 2 {
                    assert!(asleep.elapsed() < Duration::from_secs(10), "never parked");
                    std::thread::sleep(Duration::from_micros(100));
                }
                let labels = Tensor::from_slice(&[(i % 4) as f32]);
                let feeds = [("x", Tensor::ones([1, 8])), ("labels", labels)];
                server.infer("mlp", &feeds).unwrap();
            }
            assert_eq!(server.stats("mlp").unwrap().served, 10);
            server.shutdown();
        }
    }

    #[test]
    fn a_request_dropped_unanswered_fails_its_ticket_once() {
        let pending = |id, ticket: &Arc<TicketState>| Pending {
            id,
            feeds: Vec::new(),
            rows: 1,
            enqueued: Instant::now(),
            ticket: ticket.clone(),
        };
        let dropped = Arc::new(TicketState::default());
        drop(pending(7, &dropped));
        let got = Ticket {
            state: dropped,
            id: 7,
        }
        .wait();
        assert!(matches!(got, Err(ServeError::Execution(_))), "{got:?}");
        // A request that was answered is left alone by its drop.
        let answered = Arc::new(TicketState::default());
        answered.deliver(reply(3));
        drop(pending(8, &answered));
        let got = Ticket {
            state: answered,
            id: 8,
        }
        .wait();
        assert_eq!(got.unwrap().timing.batch_id, 3);
    }
}
