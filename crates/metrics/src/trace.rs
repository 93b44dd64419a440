//! Structured tracing: per-thread span buffers, Chrome trace export, and
//! per-operator attribution.
//!
//! This is the observability backbone of the paper's "metrics-first"
//! claim: every executor, optimizer, sampler, and communicator feeds
//! completed spans through the existing [`Event`] hooks into a
//! [`TraceRecorder`], and a single training run emits one artifact holding
//! the Level-0 (per-operator time / GFLOP/s / bytes), Level-1 (pass and
//! framework overhead), Level-2 (sampling, iteration, epoch), and Level-3
//! (communication) measurements.
//!
//! **Hot-path discipline.** Recording must not perturb what it measures, so
//! the design splits into two halves:
//!
//! * [`TraceSink`] — a per-thread buffer implementing [`Event`]. Recording
//!   a span is a plain `Vec::push`; no locks, no allocation beyond vector
//!   growth, no clock reads besides the span's own.
//! * [`TraceRecorder`] — the shared, cloneable handle the sinks were forked
//!   from. Sinks *merge* their buffers into the recorder under a mutex only
//!   at coarse boundaries (outer-phase ends and on drop), so the lock is
//!   taken once per pass per thread, never per operator.
//!
//! At report time the recorder exports a Chrome trace-event JSON file
//! (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
//!
//! **One per-operator record.** [`OpAttribution`] is the Level-0 row:
//! calls, wall time, declared FLOPs and bytes moved, and the operator's
//! dispatch note. A graph executor is its one producer — it keeps one row
//! per node and adds every call's measurement to it. Everything else reads
//! those rows: [`TraceRecorder::annotate`] takes them to name operator
//! spans in the Chrome export, [`rank_by_total`] orders them for reports
//! and rank merges, and [`op_table`] renders them. The recorder's name
//! table is keyed by node id alone, so two networks that annotate one
//! recorder overwrite each other's names.

use crate::event::{Event, Phase};
use crate::json::{escape as escape_json, Json};
use crate::report::Table;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed, timestamped span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// The phase this span instruments.
    pub phase: Phase,
    /// Phase-dependent instance id (node id, step, epoch, peer rank).
    pub id: usize,
    /// Start offset from the recorder's origin, in seconds.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Payload bytes attached to the span (communication spans carry the
    /// message size; 0 where not applicable).
    pub bytes: u64,
}

/// One operator's Level-0 record: the row a graph executor keeps per node
/// and adds every call to, and the row traces, reports and rank merges
/// read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpAttribution {
    /// Node name in the network.
    pub name: String,
    /// Node id the row belongs to.
    pub id: usize,
    /// Forward calls so far.
    pub forward_calls: usize,
    /// Backward calls so far.
    pub backward_calls: usize,
    /// Total forward wall time, seconds.
    pub forward_s: f64,
    /// Total backward wall time, seconds.
    pub backward_s: f64,
    /// Declared FLOPs of the latest forward call (0 for unmodeled ops).
    pub flops_per_call: f64,
    /// Bytes moved (inputs + outputs) by the latest forward call.
    pub bytes_per_call: u64,
    /// Declared FLOPs summed over every forward call, whatever batch size
    /// each ran at.
    pub forward_flops: f64,
    /// Bytes moved, summed over every forward call.
    pub forward_bytes: u64,
    /// The operator's dispatch annotation (e.g. a convolution's resolved
    /// tier, `"tier=direct+relu"`), taken from its first forward call;
    /// empty when the operator reports none.
    pub note: String,
}

impl OpAttribution {
    /// An empty row for node `id`.
    pub fn new(id: usize, name: impl Into<String>) -> OpAttribution {
        OpAttribution {
            name: name.into(),
            id,
            ..OpAttribution::default()
        }
    }

    /// Add one forward call of `seconds` that was declared at `flops` and
    /// `bytes`.
    pub fn record_forward(&mut self, seconds: f64, flops: f64, bytes: u64) {
        self.forward_calls += 1;
        self.forward_s += seconds;
        self.flops_per_call = flops;
        self.bytes_per_call = bytes;
        self.forward_flops += flops;
        self.forward_bytes += bytes;
    }

    /// Add one backward call of `seconds`.
    pub fn record_backward(&mut self, seconds: f64) {
        self.backward_calls += 1;
        self.backward_s += seconds;
    }

    /// Add `other`'s calls, times and totals to this row (the same node
    /// measured somewhere else, e.g. on another rank).
    pub fn merge(&mut self, other: &OpAttribution) {
        self.forward_calls += other.forward_calls;
        self.backward_calls += other.backward_calls;
        self.forward_s += other.forward_s;
        self.backward_s += other.backward_s;
        self.forward_flops += other.forward_flops;
        self.forward_bytes += other.forward_bytes;
    }

    /// Total attributed wall time (forward + backward), seconds.
    pub fn total_s(&self) -> f64 {
        self.forward_s + self.backward_s
    }

    /// Achieved forward throughput in GFLOP/s (0 when unmeasurable).
    pub fn gflops_per_s(&self) -> f64 {
        if self.forward_s > 0.0 {
            self.forward_flops / self.forward_s / 1e9
        } else {
            0.0
        }
    }

    /// Total bytes moved by the forward calls.
    pub fn total_bytes(&self) -> u64 {
        self.forward_bytes
    }
}

/// Order rows by descending total time, ties by name.
pub fn rank_by_total(rows: &mut [OpAttribution]) {
    rows.sort_by(|a, b| {
        b.total_s()
            .partial_cmp(&a.total_s())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
}

/// Render rows as the standard report [`Table`], in the order given.
pub fn op_table(rows: &[OpAttribution]) -> Table {
    let mut t = Table::new(
        "per-operator attribution",
        &[
            "op",
            "fwd",
            "bwd",
            "fwd ms",
            "bwd ms",
            "GFLOP/s",
            "bytes/call",
        ],
    );
    for r in rows {
        t.row(&[
            r.name.clone(),
            r.forward_calls.to_string(),
            r.backward_calls.to_string(),
            format!("{:.3}", r.forward_s * 1e3),
            format!("{:.3}", r.backward_s * 1e3),
            format!("{:.2}", r.gflops_per_s()),
            r.bytes_per_call.to_string(),
        ]);
    }
    t
}

/// Shared recorder state. Sinks hold an `Arc` to this; the mutexes are
/// taken only at merge/annotation/report time.
struct TraceShared {
    origin: Instant,
    /// Merged spans per track (a track maps to one Chrome `tid`).
    tracks: Mutex<Vec<(String, Vec<TraceSpan>)>>,
    /// Node id → the executor's row, naming and annotating operator spans.
    ops: Mutex<HashMap<usize, OpAttribution>>,
}

/// The shared tracing recorder. Clone it freely — clones record into the
/// same trace. Fork per-thread [`TraceSink`]s with [`TraceRecorder::sink`]
/// and push them into executor/runner [`EventList`](crate::EventList)s.
#[derive(Clone)]
pub struct TraceRecorder {
    shared: Arc<TraceShared>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A fresh recorder; its origin (trace t=0) is `Instant::now()`.
    pub fn new() -> Self {
        TraceRecorder {
            shared: Arc::new(TraceShared {
                origin: Instant::now(),
                tracks: Mutex::new(Vec::new()),
                ops: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Fork a per-thread sink recording onto the named track. Tracks map
    /// to Chrome trace threads; use one per executor, runner, or rank.
    pub fn sink(&self, track: impl Into<String>) -> TraceSink {
        TraceSink {
            shared: self.shared.clone(),
            track: track.into(),
            buf: Vec::new(),
            open: HashMap::new(),
        }
    }

    /// Register an executor's rows (`GraphExecutor::annotate_trace` passes
    /// its own), so operator spans export with the node's name, its
    /// per-call FLOPs and bytes, and its dispatch note in `args.detail`.
    pub fn annotate(&self, rows: impl IntoIterator<Item = OpAttribution>) {
        let mut ops = self.shared.ops.lock().expect("trace ops poisoned");
        ops.extend(rows.into_iter().map(|row| (row.id, row)));
    }

    /// Snapshot of all merged spans, `(track, spans)` in registration
    /// order. Spans still buffered in live sinks are not included until
    /// those sinks flush (outer-phase end or drop).
    pub fn tracks(&self) -> Vec<(String, Vec<TraceSpan>)> {
        self.shared.tracks.lock().expect("trace poisoned").clone()
    }

    /// Total merged span count across all tracks.
    pub fn span_count(&self) -> usize {
        self.shared
            .tracks
            .lock()
            .expect("trace poisoned")
            .iter()
            .map(|(_, s)| s.len())
            .sum()
    }

    /// Sum of merged span durations for `phase`, seconds (across tracks
    /// and passes).
    pub fn phase_total_s(&self, phase: Phase) -> f64 {
        self.shared
            .tracks
            .lock()
            .expect("trace poisoned")
            .iter()
            .flat_map(|(_, spans)| spans.iter())
            .filter(|s| s.phase == phase)
            .map(|s| s.dur_s)
            .sum()
    }

    /// Export everything merged so far as Chrome trace-event JSON (the
    /// "JSON Array Format" with a `traceEvents` wrapper), loadable in
    /// `chrome://tracing` and Perfetto. Timestamps are microseconds from
    /// the recorder origin; each track becomes one named thread.
    pub fn chrome_trace_json(&self) -> String {
        let ops = self.shared.ops.lock().expect("trace ops poisoned");
        let tracks = self.shared.tracks.lock().expect("trace poisoned");
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"deep500\"}}",
        );
        for (tid, (track, spans)) in tracks.iter().enumerate() {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid,
                escape_json(track)
            ));
            for s in spans {
                let info = match s.phase {
                    Phase::OperatorForward | Phase::OperatorBackward => ops.get(&s.id),
                    _ => None,
                };
                let name = match info {
                    Some(i) if !i.name.is_empty() => i.name.clone(),
                    _ => match s.phase {
                        Phase::OperatorForward | Phase::OperatorBackward => {
                            format!("op{}", s.id)
                        }
                        _ => format!("{}#{}", s.phase.label(), s.id),
                    },
                };
                out.push_str(&format!(
                    ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":0,\"tid\":{}",
                    escape_json(&name),
                    s.phase.label(),
                    s.start_s * 1e6,
                    s.dur_s * 1e6,
                    tid
                ));
                let mut args: Vec<String> = vec![format!("\"id\":{}", s.id)];
                if s.bytes > 0 {
                    args.push(format!("\"bytes\":{}", s.bytes));
                }
                if let Some(i) = info {
                    if i.flops_per_call > 0.0 {
                        args.push(format!("\"flops\":{}", fmt_f64(i.flops_per_call)));
                        if s.dur_s > 0.0 {
                            args.push(format!(
                                "\"gflops_per_s\":{}",
                                fmt_f64(i.flops_per_call / s.dur_s / 1e9)
                            ));
                        }
                    }
                    if i.bytes_per_call > 0 {
                        args.push(format!("\"bytes_moved\":{}", i.bytes_per_call));
                    }
                    if !i.note.is_empty() {
                        args.push(format!("\"detail\":\"{}\"", escape_json(&i.note)));
                    }
                }
                out.push_str(&format!(",\"args\":{{{}}}}}", args.join(",")));
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// A per-thread span buffer implementing [`Event`]. Push one into each
/// executor/runner event list (or drive it directly). Spans are recorded
/// into a private `Vec` — no locks on the hot path — and merged into the
/// recorder when an outer phase ends (`Inference`, `Backprop`, `Epoch`),
/// on [`TraceSink::flush`], and on drop.
pub struct TraceSink {
    shared: Arc<TraceShared>,
    track: String,
    buf: Vec<TraceSpan>,
    /// Open `begin`s: (phase, id) → stack of start offsets (seconds).
    /// Stacked, not overwritten, so re-entrant/interleaved begins of the
    /// same phase nest instead of clobbering the outer measurement.
    open: HashMap<(Phase, usize), Vec<f64>>,
}

impl TraceSink {
    fn now_s(&self) -> f64 {
        self.shared.origin.elapsed().as_secs_f64()
    }

    /// Record a completed span of `seconds` ending now, with an attached
    /// byte count (used by communicators for message sizes).
    pub fn record_span_bytes(&mut self, phase: Phase, id: usize, seconds: f64, bytes: u64) {
        let end = self.now_s();
        self.buf.push(TraceSpan {
            phase,
            id,
            start_s: (end - seconds).max(0.0),
            dur_s: seconds,
            bytes,
        });
    }

    /// Spans buffered locally and not yet merged.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Merge the local buffer into the shared recorder (one lock per call).
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut tracks = self.shared.tracks.lock().expect("trace poisoned");
        if let Some((_, spans)) = tracks.iter_mut().find(|(t, _)| *t == self.track) {
            spans.append(&mut self.buf);
        } else {
            let spans = std::mem::take(&mut self.buf);
            tracks.push((self.track.clone(), spans));
        }
    }
}

impl Event for TraceSink {
    fn begin(&mut self, phase: Phase, id: usize) {
        let now = self.now_s();
        self.open.entry((phase, id)).or_default().push(now);
    }

    fn end(&mut self, phase: Phase, id: usize) {
        let end = self.now_s();
        if let Some(stack) = self.open.get_mut(&(phase, id)) {
            if let Some(start) = stack.pop() {
                self.buf.push(TraceSpan {
                    phase,
                    id,
                    start_s: start,
                    dur_s: (end - start).max(0.0),
                    bytes: 0,
                });
            }
        }
        // Merge at coarse boundaries only: the per-operator hot path stays
        // lock-free, and the trace is still readable mid-run.
        if matches!(
            phase,
            Phase::Inference | Phase::Backprop | Phase::Epoch | Phase::Request
        ) {
            self.flush();
        }
    }

    fn span(&mut self, phase: Phase, id: usize, seconds: f64) {
        self.record_span_bytes(phase, id, seconds, 0);
        if matches!(
            phase,
            Phase::Inference | Phase::Backprop | Phase::Epoch | Phase::Request
        ) {
            self.flush();
        }
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Format an f64 as JSON (no NaN/inf — callers guard; integral values get
/// a `.0` so the token stays a JSON number).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Minimal Chrome-trace validation: the schema checks the CI `bench` job
// and the bench entry run on emitted artifacts, over the crate's own
// dependency-free parser ([`crate::json`]).
// ---------------------------------------------------------------------------

/// What [`validate_chrome_trace`] measured about a valid trace.
///
/// Public for: returned by `validate_chrome_trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Number of `ph:"X"` (complete) spans.
    pub spans: usize,
    /// Number of `ph:"M"` (metadata) events.
    pub metadata: usize,
}

/// Parse `json` and check the minimal Chrome trace-event schema: a root
/// object with a `traceEvents` array whose entries all carry `name`/`ph`/
/// `pid`/`tid`, where every `X` event also carries numeric `ts` and `dur`.
/// Returns counts on success, a description of the first violation on
/// failure.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let value = Json::parse(json)?;
    value.as_object().ok_or("root is not an object")?;
    let events = value.get("traceEvents").ok_or("missing 'traceEvents'")?;
    let events = events.as_array().ok_or("'traceEvents' is not an array")?;
    let mut stats = ChromeTraceStats {
        spans: 0,
        metadata: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        ev.as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |k: &str| ev.get(k);
        let ph = field("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing string 'ph'"))?;
        for key in ["name", "pid", "tid"] {
            if field(key).is_none() {
                return Err(format!("event {i}: missing '{key}'"));
            }
        }
        match ph {
            "X" => {
                for key in ["ts", "dur"] {
                    let v = field(key)
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| format!("event {i}: 'X' event missing number '{key}'"))?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(format!("event {i}: non-finite/negative '{key}'"));
                    }
                }
                stats.spans += 1;
            }
            "M" => stats.metadata += 1,
            other => return Err(format!("event {i}: unsupported ph '{other}'")),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_records_begin_end_pairs_with_timestamps() {
        let rec = TraceRecorder::new();
        let mut sink = rec.sink("main");
        sink.begin(Phase::OperatorForward, 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.end(Phase::OperatorForward, 3);
        assert_eq!(sink.buffered(), 1, "op spans buffer locally");
        sink.flush();
        let tracks = rec.tracks();
        assert_eq!(tracks.len(), 1);
        let span = &tracks[0].1[0];
        assert_eq!(span.phase, Phase::OperatorForward);
        assert_eq!(span.id, 3);
        assert!(span.dur_s >= 0.001, "measured {}", span.dur_s);
        assert!(span.start_s >= 0.0);
    }

    #[test]
    fn outer_phase_end_auto_flushes() {
        let rec = TraceRecorder::new();
        let mut sink = rec.sink("exec");
        sink.begin(Phase::Backprop, 1);
        sink.span(Phase::OperatorForward, 0, 0.001);
        assert_eq!(rec.span_count(), 0, "op span stays local");
        sink.end(Phase::Backprop, 1);
        assert_eq!(rec.span_count(), 2, "outer end merges the buffer");
        assert_eq!(sink.buffered(), 0);
    }

    #[test]
    fn off_thread_spans_carry_their_duration() {
        let rec = TraceRecorder::new();
        let mut sink = rec.sink("wf");
        sink.span(Phase::OperatorBackward, 7, 0.25);
        sink.flush();
        let tracks = rec.tracks();
        let span = &tracks[0].1[0];
        assert!((span.dur_s - 0.25).abs() < 1e-12);
        // Start is back-dated so the span ends "now"; it must not go
        // negative even when the duration exceeds the recorder lifetime.
        assert!(span.start_s >= 0.0);
    }

    #[test]
    fn reentrant_begins_nest_instead_of_clobbering() {
        let rec = TraceRecorder::new();
        let mut sink = rec.sink("nested");
        sink.begin(Phase::Communication, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.begin(Phase::Communication, 1); // re-entrant same phase+id
        sink.end(Phase::Communication, 1); // closes the inner one
        sink.end(Phase::Communication, 1); // closes the outer one
        sink.flush();
        let spans = rec.tracks().remove(0).1;
        assert_eq!(spans.len(), 2);
        // The second-closed span is the outer one and must be longer.
        assert!(spans[1].dur_s >= spans[0].dur_s);
        assert!(spans[1].dur_s >= 0.001);
    }

    #[test]
    fn drop_flushes_and_tracks_merge_by_name() {
        let rec = TraceRecorder::new();
        {
            let mut sink = rec.sink("t");
            sink.span(Phase::Sampling, 0, 0.001);
        } // drop flushes
        {
            let mut sink = rec.sink("t");
            sink.span(Phase::Sampling, 1, 0.001);
        }
        let tracks = rec.tracks();
        assert_eq!(tracks.len(), 1, "same-name tracks merge");
        assert_eq!(tracks[0].1.len(), 2);
    }

    #[test]
    fn cross_thread_sinks_merge_at_report_time() {
        let rec = TraceRecorder::new();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let mut sink = rec.sink(format!("worker{i}"));
                std::thread::spawn(move || {
                    for j in 0..10 {
                        sink.span(Phase::OperatorForward, j, 0.0001);
                    }
                    // sink drops here -> flush
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.span_count(), 40);
        assert_eq!(rec.tracks().len(), 4);
    }

    #[test]
    fn attribution_aggregates_and_ranks() {
        let mut mm = OpAttribution::new(0, "mm");
        mm.record_forward(1.0, 2e9, 1024);
        mm.record_forward(1.0, 2e9, 1024);
        mm.record_backward(0.5);
        let mut small = OpAttribution::new(1, "small");
        small.record_forward(0.25, 1e6, 16);
        let mut rows = vec![small, mm];
        rank_by_total(&mut rows);
        assert_eq!(rows[0].name, "mm");
        assert_eq!(rows[0].forward_calls, 2);
        assert_eq!(rows[0].backward_calls, 1);
        assert!((rows[0].total_s() - 2.5).abs() < 1e-12);
        // 2 calls * 2 GFLOP in 2 s = 2 GFLOP/s.
        assert!((rows[0].gflops_per_s() - 2.0).abs() < 1e-9);
        assert_eq!(rows[0].total_bytes(), 2048);
        assert_eq!(rows[1].name, "small");
        let table = op_table(&rows).render();
        assert!(table.contains("mm"));
    }

    #[test]
    fn rows_total_every_call_at_its_own_size() {
        // One call at 1 GFLOP, one at 4: the latest call's figures stay
        // per-call, the totals carry both.
        let mut row = OpAttribution::new(0, "fc");
        row.record_forward(1.0, 1e9, 100);
        row.record_forward(1.0, 4e9, 400);
        assert_eq!((row.flops_per_call, row.bytes_per_call), (4e9, 400));
        assert!((row.gflops_per_s() - 2.5).abs() < 1e-12);
        assert_eq!(row.total_bytes(), 500);
        let mut merged = row.clone();
        merged.merge(&row);
        assert_eq!(merged.forward_calls, 4);
        assert_eq!(merged.total_bytes(), 1000);
        assert!((merged.gflops_per_s() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn phase_totals_sum_durations() {
        let rec = TraceRecorder::new();
        let mut sink = rec.sink("a");
        sink.span(Phase::Backprop, 0, 1.5);
        sink.span(Phase::Backprop, 1, 0.5);
        sink.span(Phase::Inference, 0, 0.25);
        drop(sink);
        assert!((rec.phase_total_s(Phase::Backprop) - 2.0).abs() < 1e-12);
        assert!((rec.phase_total_s(Phase::Inference) - 0.25).abs() < 1e-12);
        assert_eq!(rec.phase_total_s(Phase::Epoch), 0.0);
    }

    #[test]
    fn chrome_export_validates_and_names_ops() {
        let rec = TraceRecorder::new();
        rec.annotate([OpAttribution {
            flops_per_call: 1e6,
            bytes_per_call: 64,
            ..OpAttribution::new(0, "fc1\"w") // name needing escaping
        }]);
        let mut sink = rec.sink("main");
        sink.begin(Phase::Inference, 1);
        sink.span(Phase::OperatorForward, 0, 0.002);
        sink.end(Phase::Inference, 1);
        let mut comm = rec.sink("comm");
        comm.record_span_bytes(Phase::Communication, 2, 0.001, 4096);
        drop(comm);
        let json = rec.chrome_trace_json();
        let stats = validate_chrome_trace(&json).expect("schema-valid");
        assert_eq!(stats.spans, 3);
        assert!(stats.metadata >= 3, "process + 2 thread names");
        assert!(json.contains("\"bytes\":4096"));
        assert!(json.contains("fc1\\\"w"));
        assert!(json.contains("\"cat\":\"Communication\""));
    }

    #[test]
    fn empty_trace_is_still_schema_valid() {
        let rec = TraceRecorder::new();
        let stats = validate_chrome_trace(&rec.chrome_trace_json()).unwrap();
        assert_eq!(stats.spans, 0);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("[1,2,3]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // 'X' without ts/dur:
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":0}]}"
        )
        .is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        // Negative dur is a corrupt span.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
             \"ts\":1.0,\"dur\":-2}]}"
        )
        .is_err());
    }
}
