//! Executor and training-loop event hooks.
//!
//! Events are the paper's mechanism for fine-grained measurements and early
//! exits: "user-specified hooks that are called at certain points during
//! complex actions such as backpropagation and training". Graph executors
//! call [`Event::begin`]/[`Event::end`] around each phase; a hook may request
//! early termination (e.g. an early-stopping criterion) via
//! [`Event::should_stop`].

/// The instrumentable phases of Deep500 execution, ordered from innermost
/// (single operator) to outermost (whole training run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One operator's forward computation; `id` is the node id.
    OperatorForward,
    /// One operator's backward computation; `id` is the node id.
    OperatorBackward,
    /// A whole-network inference pass.
    Inference,
    /// A whole-network inference + backpropagation pass.
    Backprop,
    /// One optimizer step (sample → update).
    Iteration,
    /// One pass over the training set.
    Epoch,
    /// Waiting for one minibatch: the window around the sampler's
    /// `next_batch`. A sampler that assembles ahead returns a ready batch,
    /// so this is what loading cost the step, not what it cost to load.
    Sampling,
    /// A distributed communication operation (allreduce, push/pull, ...).
    Communication,
    /// One serving request, admission to reply; `id` is the request id.
    Request,
    /// Time a serving request spent queued before batch assembly.
    Queue,
    /// One assembled batch's execution; `id` is the batch sequence number.
    Batch,
    /// Assembling one training minibatch into feed tensors (optimizer
    /// prepare + feed construction); `id` is the iteration number.
    BatchAssembly,
    /// Seeding the loss gradient before the backward sweep; `id` is the
    /// pass number.
    LossSeed,
    /// Applying optimizer update rules to the parameters; `id` is the
    /// iteration number.
    OptimizerUpdate,
    /// Executor bookkeeping around a pass: publishing parameter gradients
    /// and recycling/reclaiming pooled buffers; `id` is the pass number.
    Bookkeeping,
}

impl Phase {
    /// Stable human-readable label, used by trace exporters and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::OperatorForward => "OperatorForward",
            Phase::OperatorBackward => "OperatorBackward",
            Phase::Inference => "Inference",
            Phase::Backprop => "Backprop",
            Phase::Iteration => "Iteration",
            Phase::Epoch => "Epoch",
            Phase::Sampling => "Sampling",
            Phase::Communication => "Communication",
            Phase::Request => "Request",
            Phase::Queue => "Queue",
            Phase::Batch => "Batch",
            Phase::BatchAssembly => "BatchAssembly",
            Phase::LossSeed => "LossSeed",
            Phase::OptimizerUpdate => "OptimizerUpdate",
            Phase::Bookkeeping => "Bookkeeping",
        }
    }

    /// Every phase, in the declaration order above. Reports that aggregate
    /// per-phase totals should iterate this instead of hardcoding a subset,
    /// so a phase added later cannot be silently dropped.
    pub const fn all() -> &'static [Phase] {
        const ALL: &[Phase] = &[
            Phase::OperatorForward,
            Phase::OperatorBackward,
            Phase::Inference,
            Phase::Backprop,
            Phase::Iteration,
            Phase::Epoch,
            Phase::Sampling,
            Phase::Communication,
            Phase::Request,
            Phase::Queue,
            Phase::Batch,
            Phase::BatchAssembly,
            Phase::LossSeed,
            Phase::OptimizerUpdate,
            Phase::Bookkeeping,
        ];
        // Compile-time guard: adding a variant without listing it above
        // fails this exhaustive match, pointing here.
        const _: fn(Phase) = |p| match p {
            Phase::OperatorForward
            | Phase::OperatorBackward
            | Phase::Inference
            | Phase::Backprop
            | Phase::Iteration
            | Phase::Epoch
            | Phase::Sampling
            | Phase::Communication
            | Phase::Request
            | Phase::Queue
            | Phase::Batch
            | Phase::BatchAssembly
            | Phase::LossSeed
            | Phase::OptimizerUpdate
            | Phase::Bookkeeping => {}
        };
        ALL
    }
}

/// A hook invoked by executors, optimizers and runners.
///
/// All methods have no-op defaults so implementors only override what they
/// need. A metric that measures a phase (`WallclockTime`, `EnergyMetric`)
/// implements `Event` and is read through its own typed accessors; the
/// paper's second base class, the test metric, has no counterpart here
/// (see the crate header).
pub trait Event: Send {
    /// Called when `phase` begins; `id` identifies the instance (node id,
    /// epoch number, iteration number — phase dependent).
    fn begin(&mut self, phase: Phase, id: usize) {
        let _ = (phase, id);
    }

    /// Called when `phase` ends.
    fn end(&mut self, phase: Phase, id: usize) {
        let _ = (phase, id);
    }

    /// Called for a phase instance that was timed *off-thread*: concurrent
    /// executors measure each operator's duration on its worker and report
    /// the completed span from the coordinating thread, preserving per-op
    /// attribution when `begin`/`end` bracketing on one thread would
    /// interleave. The default forwards to `begin` + `end` so hooks that
    /// only count occurrences keep working; time-accumulating hooks should
    /// override and add `seconds` directly.
    fn span(&mut self, phase: Phase, id: usize, seconds: f64) {
        let _ = seconds;
        self.begin(phase, id);
        self.end(phase, id);
    }

    /// Polled by runners after each iteration/epoch; returning `true`
    /// requests an early exit (the paper's early-stopping condition hook).
    fn should_stop(&self) -> bool {
        false
    }
}

/// A heterogeneous list of event hooks, dispatched in registration order.
#[derive(Default)]
pub struct EventList {
    hooks: Vec<Box<dyn Event>>,
}

impl EventList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a hook.
    pub fn push(&mut self, hook: Box<dyn Event>) {
        self.hooks.push(hook);
    }

    /// Number of registered hooks.
    pub fn len(&self) -> usize {
        self.hooks.len()
    }

    /// Whether no hooks are registered.
    pub fn is_empty(&self) -> bool {
        self.hooks.is_empty()
    }

    /// Broadcast `begin` to all hooks.
    pub fn begin(&mut self, phase: Phase, id: usize) {
        for h in &mut self.hooks {
            h.begin(phase, id);
        }
    }

    /// Broadcast `end` to all hooks.
    pub fn end(&mut self, phase: Phase, id: usize) {
        for h in &mut self.hooks {
            h.end(phase, id);
        }
    }

    /// Broadcast a completed, off-thread-timed span to all hooks.
    pub fn span(&mut self, phase: Phase, id: usize, seconds: f64) {
        for h in &mut self.hooks {
            h.span(phase, id, seconds);
        }
    }

    /// `true` if any hook requests a stop.
    pub fn should_stop(&self) -> bool {
        self.hooks.iter().any(|h| h.should_stop())
    }
}

impl Event for EventList {
    fn begin(&mut self, phase: Phase, id: usize) {
        EventList::begin(self, phase, id)
    }
    fn end(&mut self, phase: Phase, id: usize) {
        EventList::end(self, phase, id)
    }
    fn span(&mut self, phase: Phase, id: usize, seconds: f64) {
        EventList::span(self, phase, id, seconds)
    }
    fn should_stop(&self) -> bool {
        EventList::should_stop(self)
    }
}

/// Shares an [`Event`] hook between an [`EventList`] (which takes ownership
/// of boxed hooks) and the caller, who keeps a handle to read the metric
/// back after the run. Cloning shares the same underlying hook.
///
/// ```
/// use deep500_metrics::event::{Event, Phase, SharedEvent};
/// use deep500_metrics::WallclockTime;
///
/// let shared = SharedEvent::new(WallclockTime::new(Phase::Inference));
/// let handle = shared.clone();
/// // `Box::new(shared)` goes into an executor's EventList; afterwards:
/// let samples = handle.with(|m| m.samples().len());
/// assert_eq!(samples, 0);
/// ```
pub struct SharedEvent<E: Event> {
    inner: std::sync::Arc<std::sync::Mutex<E>>,
}

impl<E: Event> SharedEvent<E> {
    /// Wrap a hook for shared ownership.
    pub fn new(hook: E) -> Self {
        SharedEvent {
            inner: std::sync::Arc::new(std::sync::Mutex::new(hook)),
        }
    }

    /// Run `f` with exclusive access to the wrapped hook.
    pub fn with<R>(&self, f: impl FnOnce(&mut E) -> R) -> R {
        f(&mut self.inner.lock().expect("event hook poisoned"))
    }
}

impl<E: Event> Clone for SharedEvent<E> {
    fn clone(&self) -> Self {
        SharedEvent {
            inner: self.inner.clone(),
        }
    }
}

impl<E: Event> Event for SharedEvent<E> {
    fn begin(&mut self, phase: Phase, id: usize) {
        self.with(|e| e.begin(phase, id));
    }
    fn end(&mut self, phase: Phase, id: usize) {
        self.with(|e| e.end(phase, id));
    }
    fn span(&mut self, phase: Phase, id: usize, seconds: f64) {
        self.with(|e| e.span(phase, id, seconds));
    }
    fn should_stop(&self) -> bool {
        self.inner
            .lock()
            .expect("event hook poisoned")
            .should_stop()
    }
}

/// An early-stopping hook that trips after a fixed number of `Iteration`
/// ends — useful for bounding benchmark runs.
pub struct StopAfterIterations {
    remaining: usize,
}

impl StopAfterIterations {
    /// Stop once `n` iterations have completed.
    pub fn new(n: usize) -> Self {
        Self { remaining: n }
    }
}

impl Event for StopAfterIterations {
    fn end(&mut self, phase: Phase, _id: usize) {
        if phase == Phase::Iteration && self.remaining > 0 {
            self.remaining -= 1;
        }
    }
    fn should_stop(&self) -> bool {
        self.remaining == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        begun: Vec<(Phase, usize)>,
        ended: Vec<(Phase, usize)>,
    }
    impl Event for Recorder {
        fn begin(&mut self, phase: Phase, id: usize) {
            self.begun.push((phase, id));
        }
        fn end(&mut self, phase: Phase, id: usize) {
            self.ended.push((phase, id));
        }
    }

    #[test]
    fn event_list_broadcasts() {
        let mut list = EventList::new();
        list.push(Box::new(StopAfterIterations::new(2)));
        assert_eq!(list.len(), 1);
        assert!(!list.should_stop());
        list.end(Phase::Iteration, 0);
        assert!(!list.should_stop());
        list.end(Phase::Iteration, 1);
        assert!(list.should_stop());
    }

    #[test]
    fn stop_after_ignores_other_phases() {
        let mut s = StopAfterIterations::new(1);
        s.end(Phase::Epoch, 0);
        assert!(!s.should_stop());
        s.end(Phase::Iteration, 0);
        assert!(s.should_stop());
    }

    #[test]
    fn phase_all_is_exhaustive_and_labels_unique() {
        let all = Phase::all();
        assert!(all.len() >= 15);
        let labels: std::collections::HashSet<&str> = all.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), all.len(), "duplicate phase label");
    }

    #[test]
    fn default_hooks_are_noops() {
        struct Nop;
        impl Event for Nop {}
        let mut n = Nop;
        n.begin(Phase::Inference, 0);
        n.end(Phase::Inference, 0);
        assert!(!n.should_stop());
    }

    #[test]
    fn recorder_sees_ids() {
        let mut list = EventList::new();
        list.push(Box::new(Recorder {
            begun: vec![],
            ended: vec![],
        }));
        list.begin(Phase::OperatorForward, 7);
        list.end(Phase::OperatorForward, 7);
        // (internal state not observable through the trait object; this test
        // exercises the dispatch path)
        assert!(!list.is_empty());
    }
}
