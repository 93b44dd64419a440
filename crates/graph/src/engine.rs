//! The unified execution entry point: [`Engine`] and per-tenant
//! [`Session`] handles.
//!
//! [`Engine::builder`] is the single construction path for the crate's two
//! execution loops — the serial oracle ([`ReferenceExecutor`]) and the
//! level-parallel plan interpreter ([`PlannedExecutor`]), selected by
//! [`ExecutorKind`]: one builder that takes the model, the kind, a device
//! memory limit, optional ahead-of-time [`CompileOptions`], and a
//! [`TraceRecorder`], and produces an `Engine` that
//!
//! * owns the verified, optionally compiled executor behind a mutex,
//! * hands out cheap, cloneable, `Send` per-tenant [`Session`] handles
//!   that serialize their passes through the shared executor (the
//!   amortization the serving layer builds on: one compiled plan, many
//!   tenants),
//! * still exposes exclusive access ([`Engine::lock`]) for training loops
//!   and other callers that need the raw [`GraphExecutor`] across several
//!   calls.
//!
//! ```
//! use deep500_graph::{models, Engine, ExecutorKind, CompileOptions};
//! use deep500_tensor::{Shape, Tensor};
//!
//! let net = models::mlp(8, &[16], 4, 1).unwrap();
//! let engine = Engine::builder(net)
//!     .executor(ExecutorKind::Planned)
//!     .compile(CompileOptions::default())
//!     .input_shape("x", Shape::new(&[2, 8]))
//!     .input_shape("labels", Shape::new(&[2]))
//!     .build()
//!     .unwrap();
//! let session = engine.session();
//! let out = session
//!     .infer(&[
//!         ("x", Tensor::ones([2, 8])),
//!         ("labels", Tensor::from_slice(&[0.0, 1.0])),
//!     ])
//!     .unwrap();
//! assert!(out.contains_key("logits"));
//! ```

use crate::compile::{compile, CompileOptions, CompileReport, PlannedExecutor};
use crate::executor::{GraphExecutor, ReferenceExecutor};
use crate::network::Network;
use deep500_metrics::trace::TraceRecorder;
use deep500_tensor::{Result, Shape, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Executor selection for [`EngineBuilder::executor`] and the components
/// that construct engines from configuration (training recipes,
/// distributed runners, benchmarks).
///
/// There are two execution loops: the serial heap-valued oracle and the
/// level-parallel plan interpreter. `Wavefront` and `Planned` both
/// construct the same [`PlannedExecutor`]; the two names survive only
/// because the frozen `spine/` benchmark spells both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// The serial topological-sort interpreter ([`ReferenceExecutor`]) —
    /// the oracle every bit-identity check replays against.
    #[default]
    Reference,
    /// Level-parallel execution on the thread pool ([`PlannedExecutor`]).
    Wavefront,
    /// Same executor as [`ExecutorKind::Wavefront`].
    Planned,
}

impl ExecutorKind {
    pub(crate) fn construct(
        self,
        network: Network,
        capacity: usize,
    ) -> Result<Box<dyn GraphExecutor>> {
        Ok(match self {
            ExecutorKind::Reference => Box::new(ReferenceExecutor::construct(network, capacity)?),
            ExecutorKind::Wavefront | ExecutorKind::Planned => {
                Box::new(PlannedExecutor::construct(network, capacity)?)
            }
        })
    }
}

/// Shared state behind every [`Engine`] clone and [`Session`].
struct EngineCore {
    executor: Mutex<Box<dyn GraphExecutor>>,
    trace: Option<TraceRecorder>,
    report: Option<CompileReport>,
    tenants: AtomicUsize,
}

/// A shared, thread-safe handle over one verified (and optionally
/// compiled) executor. Cloning an `Engine` clones the handle, not the
/// executor. See the [module docs](self) for the full story.
#[derive(Clone)]
pub struct Engine {
    core: Arc<EngineCore>,
}

/// Configures and constructs an [`Engine`]. Created by
/// [`Engine::builder`].
pub struct EngineBuilder {
    network: Network,
    kind: ExecutorKind,
    memory_limit: usize,
    compile: Option<CompileOptions>,
    input_shapes: Vec<(String, Shape)>,
    trace: Option<TraceRecorder>,
}

impl EngineBuilder {
    /// Select the execution loop (default: [`ExecutorKind::Reference`]).
    pub fn executor(mut self, kind: ExecutorKind) -> Self {
        self.kind = kind;
        self
    }

    /// Device memory capacity in bytes; passes fail with
    /// `Error::OutOfMemory` beyond it (default: unbounded).
    pub fn memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = bytes;
        self
    }

    /// Run the ahead-of-time compile pipeline (GEMM-epilogue fusion) on
    /// the network before the executor is built. The rewrite is gated by
    /// the transform-safety harness under the declared
    /// [`input_shape`](Self::input_shape)s. `opts` has no settings; the
    /// argument is kept because the frozen spine benchmark passes
    /// [`CompileOptions::inference`].
    pub fn compile(mut self, opts: CompileOptions) -> Self {
        self.compile = Some(opts);
        self
    }

    /// Declare a graph input's shape for the compile gate (and therefore
    /// shape-drift detection). Repeat per input.
    pub fn input_shape(mut self, name: impl Into<String>, shape: Shape) -> Self {
        self.input_shapes.push((name.into(), shape));
        self
    }

    /// Attach a trace recorder: the executor's operator/pass spans flow
    /// into it, and [`Engine::annotate_trace`] names them.
    pub fn trace(mut self, recorder: &TraceRecorder) -> Self {
        self.trace = Some(recorder.clone());
        self
    }

    /// Verify, optionally compile, and construct the engine.
    pub fn build(self) -> Result<Engine> {
        let EngineBuilder {
            mut network,
            kind,
            memory_limit,
            compile: compile_opts,
            input_shapes,
            trace,
        } = self;
        let report = match compile_opts {
            Some(opts) => {
                let shapes: Vec<(&str, Shape)> = input_shapes
                    .iter()
                    .map(|(n, s)| (n.as_str(), s.clone()))
                    .collect();
                Some(compile(&mut network, &shapes, &opts)?)
            }
            None => None,
        };
        let mut executor = kind.construct(network, memory_limit)?;
        if let Some(rec) = &trace {
            executor.events_mut().push(Box::new(rec.sink("engine")));
        }
        Ok(Engine {
            core: Arc::new(EngineCore {
                executor: Mutex::new(executor),
                trace,
                report,
                tenants: AtomicUsize::new(0),
            }),
        })
    }
}

/// Exclusive access to an engine's executor, for callers that need the
/// raw [`GraphExecutor`] across several calls (training loops, graph
/// transforms). Held sessions block until the guard drops.
pub struct EngineGuard<'a> {
    guard: MutexGuard<'a, Box<dyn GraphExecutor>>,
}

impl EngineGuard<'_> {
    /// The locked executor as a trait object.
    pub fn executor(&mut self) -> &mut dyn GraphExecutor {
        self.guard.as_mut()
    }
}

impl std::ops::Deref for EngineGuard<'_> {
    type Target = dyn GraphExecutor;
    fn deref(&self) -> &Self::Target {
        self.guard.as_ref()
    }
}

impl std::ops::DerefMut for EngineGuard<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.guard.as_mut()
    }
}

impl Engine {
    /// Start configuring an engine over `network`.
    pub fn builder(network: Network) -> EngineBuilder {
        EngineBuilder {
            network,
            kind: ExecutorKind::default(),
            memory_limit: usize::MAX,
            compile: None,
            input_shapes: Vec::new(),
            trace: None,
        }
    }

    /// A new per-tenant session handle. Cheap: an `Arc` clone and a
    /// counter increment.
    pub fn session(&self) -> Session {
        let tenant = self.core.tenants.fetch_add(1, Ordering::Relaxed);
        Session {
            core: self.core.clone(),
            tenant,
        }
    }

    /// Sessions handed out so far.
    pub fn sessions(&self) -> usize {
        self.core.tenants.load(Ordering::Relaxed)
    }

    /// Lock the executor for exclusive multi-call access.
    pub fn lock(&self) -> EngineGuard<'_> {
        EngineGuard {
            guard: self.core.executor.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Unwrap the engine into its executor, for callers that embed the
    /// executor directly (per-rank training replicas, framework adapters).
    /// Fails with `Error::Invalid` while other handles — clones or
    /// sessions — are still alive.
    pub fn into_inner(self) -> Result<Box<dyn GraphExecutor>> {
        match Arc::try_unwrap(self.core) {
            Ok(core) => Ok(core
                .executor
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())),
            Err(_) => Err(deep500_tensor::Error::Invalid(
                "Engine::into_inner: other engine/session handles are still alive".into(),
            )),
        }
    }

    /// What the ahead-of-time compile pipeline rewrote (`None` when the
    /// builder ran without [`EngineBuilder::compile`]).
    pub fn compile_report(&self) -> Option<&CompileReport> {
        self.core.report.as_ref()
    }

    /// The attached trace recorder, if any.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.core.trace.as_ref()
    }

    /// Register node names and FLOP/byte figures with the attached trace
    /// recorder so exported spans carry real operator names. Call after
    /// at least one pass (per-call figures are recorded then).
    pub fn annotate_trace(&self) {
        if let Some(rec) = &self.core.trace {
            self.lock().annotate_trace(rec);
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("sessions", &self.sessions())
            .field("compiled", &self.core.report.is_some())
            .finish()
    }
}

/// A cheap per-tenant handle onto a shared [`Engine`]. Each call locks
/// the engine for exactly one pass, so interleaved sessions execute
/// serially and deterministically — bit-identical to running the same
/// passes from one thread.
#[derive(Clone)]
pub struct Session {
    core: Arc<EngineCore>,
    tenant: usize,
}

impl Session {
    /// This session's tenant id (creation order, starting at 0).
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// A fresh engine handle onto the same shared executor.
    pub fn engine(&self) -> Engine {
        Engine {
            core: self.core.clone(),
        }
    }

    /// Run one inference pass. Feeds are `(input name, tensor)` pairs;
    /// the declared graph outputs come back by name.
    pub fn infer(&self, feeds: &[(&str, Tensor)]) -> Result<HashMap<String, Tensor>> {
        self.core
            .executor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .inference(feeds)
    }

    /// Run inference followed by backpropagation from the scalar tensor
    /// `loss`; parameter gradients land in the network under
    /// `grad::<param>`.
    pub fn infer_and_backprop(
        &self,
        feeds: &[(&str, Tensor)],
        loss: &str,
    ) -> Result<HashMap<String, Tensor>> {
        self.core
            .executor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .inference_and_backprop(feeds, loss)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("tenant", &self.tenant)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use deep500_metrics::event::Phase;

    fn feeds(batch: usize) -> Vec<(String, Tensor)> {
        let x: Vec<f32> = (0..batch * 8).map(|i| (i as f32 * 0.37).sin()).collect();
        vec![
            ("x".into(), Tensor::from_vec([batch, 8], x).unwrap()),
            ("labels".into(), Tensor::from_slice(&vec![1.0; batch])),
        ]
    }

    use crate::models::feed_refs as as_refs;

    #[test]
    fn builder_replaces_all_three_construction_paths() {
        for kind in [
            ExecutorKind::Reference,
            ExecutorKind::Wavefront,
            ExecutorKind::Planned,
        ] {
            let net = models::mlp(8, &[12], 3, 5).unwrap();
            let engine = Engine::builder(net).executor(kind).build().unwrap();
            let out = engine.session().infer(&as_refs(&feeds(2))).unwrap();
            assert!(out.contains_key("loss"), "{kind:?}");
        }
    }

    #[test]
    fn compiled_engine_reports_rewrites_and_matches_uncompiled() {
        let net = models::mlp(8, &[16, 12], 3, 7).unwrap();
        let plain = Engine::builder(net.clone_structure()).build().unwrap();
        let compiled = Engine::builder(net)
            .executor(ExecutorKind::Planned)
            .compile(CompileOptions::default())
            .input_shape("x", Shape::new(&[2, 8]))
            .input_shape("labels", Shape::new(&[2]))
            .build()
            .unwrap();
        assert!(compiled.compile_report().unwrap().rewrites() > 0);
        let f = feeds(2);
        let a = plain.session().infer(&as_refs(&f)).unwrap();
        let b = compiled.session().infer(&as_refs(&f)).unwrap();
        assert_eq!(a["loss"].data(), b["loss"].data());
    }

    #[test]
    fn memory_limit_is_enforced_through_the_builder() {
        let net = models::mlp(8, &[8], 2, 3).unwrap();
        let engine = Engine::builder(net).memory_limit(8).build().unwrap();
        let err = engine.session().infer(&as_refs(&feeds(2))).unwrap_err();
        assert!(matches!(err, deep500_tensor::Error::OutOfMemory { .. }));
    }

    #[test]
    fn sessions_are_cheap_and_numbered() {
        let net = models::mlp(4, &[], 2, 1).unwrap();
        let engine = Engine::builder(net).build().unwrap();
        let s0 = engine.session();
        let s1 = engine.session();
        assert_eq!((s0.tenant(), s1.tenant()), (0, 1));
        assert_eq!(engine.sessions(), 2);
        assert_eq!(s1.engine().sessions(), 2, "session leads back to engine");
    }

    #[test]
    fn lock_gives_raw_executor_access() {
        let net = models::mlp(8, &[8], 2, 9).unwrap();
        let engine = Engine::builder(net).build().unwrap();
        let f = feeds(2);
        let mut guard = engine.lock();
        guard
            .executor()
            .inference_and_backprop(&as_refs(&f), "loss")
            .unwrap();
        let g = guard.network().fetch_tensor("grad::w0").is_ok()
            || !guard.network().get_params().is_empty();
        assert!(g);
        assert!(guard.peak_memory() > 0, "deref reaches trait methods");
    }

    #[test]
    fn trace_recorder_receives_engine_spans() {
        let rec = TraceRecorder::new();
        let net = models::mlp(8, &[8], 2, 4).unwrap();
        let engine = Engine::builder(net)
            .executor(ExecutorKind::Wavefront)
            .trace(&rec)
            .build()
            .unwrap();
        engine.session().infer(&as_refs(&feeds(2))).unwrap();
        engine.annotate_trace();
        // The sink flushes at outer-phase ends, so the pass is visible.
        assert!(rec.phase_total_s(Phase::Inference) >= 0.0);
        assert!(rec.span_count() > 0);
    }
}
