//! In-memory spans recorded by the spine around its calls into each layer.
//!
//! Every thread that records owns a [`Track`]; tracks are merged into a
//! [`Trace`] when the run ends, which computes each layer's self time and
//! writes Chrome trace-event JSON. Nothing here reaches into the program
//! under test: a span is two `Instant`s taken on either side of a public
//! call, plus the span that caused it and the request/step id they share.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed interval on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same track) of the span that caused this one.
    pub parent: Option<u32>,
    /// Request or step id shared by all spans of one operation.
    pub id: u64,
}

/// One thread's span buffer. Recording past `cap` is a no-op so a
/// million-request run cannot produce a gigabyte trace; callers sample by
/// id stride on top of that.
pub struct Track {
    pub name: String,
    epoch: Instant,
    pub spans: Vec<Span>,
    cap: usize,
}

impl Track {
    pub fn new(name: impl Into<String>, epoch: Instant, cap: usize) -> Track {
        Track {
            name: name.into(),
            epoch,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }

    /// Record a closed span; returns its index for children to name as
    /// parent (`None` once the track is full).
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> Option<u32> {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push_ns(name, id, start_ns, end_ns, parent)
    }

    /// Append another buffer of the same thread role (a later session),
    /// re-basing its parent indices; spans past the cap are dropped.
    pub fn append(&mut self, other: Track) {
        let base = self.spans.len() as u32;
        let room = self.cap.saturating_sub(self.spans.len());
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
    }

    /// Move the end of span `idx` to `end`: lets a parent be recorded (and
    /// named by its children) before it is over.
    pub fn close(&mut self, idx: Option<u32>, end: Instant) {
        if let Some(span) = idx.and_then(|i| self.spans.get_mut(i as usize)) {
            let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
            span.end_ns = end_ns.max(span.start_ns);
        }
    }

    /// [`Track::push`] for an interval already expressed in nanoseconds
    /// since the trace epoch (spans rebuilt from reply timings).
    pub fn push_ns(
        &mut self,
        name: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
    ) -> Option<u32> {
        if self.spans.len() >= self.cap {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        Some(self.spans.len() as u32 - 1)
    }
}

/// Per-layer aggregate over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Duration of `[start, end)` not covered by any of `children` (clipped to
/// the interval; children may nest, overlap or stick out).
pub fn self_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(cs, ce) in children.iter() {
        let (cs, ce) = (cs.max(cursor), ce.min(end));
        if ce > cs {
            covered += ce - cs;
            cursor = ce;
        }
    }
    (end - start) - covered
}

/// All tracks of one run.
pub struct Trace {
    pub tracks: Vec<Track>,
}

impl Trace {
    /// Calls, total and self time per span name, summed over all tracks.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for track in &self.tracks {
            let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); track.spans.len()];
            for s in &track.spans {
                if let Some(p) = s.parent {
                    children[p as usize].push((s.start_ns, s.end_ns));
                }
            }
            for (s, kids) in track.spans.iter().zip(children.iter_mut()) {
                let e = out.entry(s.name).or_default();
                e.calls += 1;
                e.total_ns += s.end_ns - s.start_ns;
                e.self_ns += self_ns(s.start_ns, s.end_ns, kids);
            }
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.tracks.iter().map(|t| t.spans.len()).sum()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, one thread per track.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + 128 * self.span_count());
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (tid, track) in self.tracks.iter().enumerate() {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track.name
            ));
            for (i, s) in track.spans.iter().enumerate() {
                sep(&mut out);
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"spine\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{},\"span\":{i},\"parent\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.id,
                    s.parent.map_or(-1, i64::from),
                ));
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_ns(0, 100, &mut [(10, 20), (50, 70)]), 70);
        assert_eq!(self_ns(0, 100, &mut []), 100);
    }

    #[test]
    fn overlapping_and_nested_children_are_counted_once() {
        // (10,40) and (30,60) overlap; (35,38) nests inside both.
        assert_eq!(self_ns(0, 100, &mut [(30, 60), (10, 40), (35, 38)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_ns(100, 200, &mut [(50, 120), (190, 400)]), 70);
        assert_eq!(self_ns(100, 200, &mut [(0, 1000)]), 0);
        assert_eq!(self_ns(100, 200, &mut [(0, 50), (300, 400)]), 100);
    }

    fn sample_trace() -> Trace {
        let mut t = Track::new("client0", Instant::now(), 8);
        let root = t.push_ns("client.request", 7, 0, 1000, None);
        let wait = t.push_ns("serve.wait", 7, 200, 900, root);
        t.push_ns("serve.submit", 7, 100, 200, root);
        // Grandchild: counts against `serve.wait`, not the root.
        t.push_ns("serve.run", 7, 400, 700, wait);
        Trace { tracks: vec![t] }
    }

    #[test]
    fn layer_times_attribute_each_level_its_own_residual() {
        let times = sample_trace().layer_times();
        assert_eq!(times["client.request"].total_ns, 1000);
        assert_eq!(times["client.request"].self_ns, 200);
        assert_eq!(times["serve.wait"].self_ns, 400);
        assert_eq!(times["serve.run"].self_ns, 300);
        assert_eq!(times["serve.submit"].calls, 1);
        // Self times of a tree sum to the root's duration.
        let sum: u64 = times.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn a_parent_can_be_opened_first_and_closed_after_its_children() {
        let epoch = Instant::now();
        let at = |us| epoch + std::time::Duration::from_micros(us);
        let mut t = Track::new("t", epoch, 8);
        let root = t.push("step", 0, at(10), at(10), None);
        t.push("child", 0, at(20), at(50), root);
        t.close(root, at(100));
        let times = Trace { tracks: vec![t] }.layer_times();
        assert_eq!(times["step"].total_ns, 90_000);
        assert_eq!(times["step"].self_ns, 60_000);
    }

    #[test]
    fn appended_sessions_keep_their_parent_links() {
        let epoch = Instant::now();
        let session = |id| {
            let mut t = Track::new("client0", epoch, 8);
            let root = t.push_ns("client.request", id, 0, 100, None);
            t.push_ns("serve.wait", id, 10, 90, root);
            t
        };
        let mut all = session(0);
        all.append(session(1));
        assert_eq!(all.spans[3].parent, Some(2));
        let times = Trace { tracks: vec![all] }.layer_times();
        assert_eq!(times["client.request"].self_ns, 40);
        // The cap still holds: five spans fit, the sixth is dropped.
        let mut small = Track::new("t", epoch, 5);
        small.append(session(0));
        small.append(session(1));
        small.append(session(2));
        assert_eq!(small.spans.len(), 5);
        assert!(small.spans.iter().all(|s| s.parent.is_none_or(|p| p < 5)));
    }

    #[test]
    fn a_full_track_drops_spans_instead_of_growing() {
        let mut t = Track::new("t", Instant::now(), 2);
        assert_eq!(t.push_ns("a", 0, 0, 1, None), Some(0));
        assert_eq!(t.push_ns("a", 1, 1, 2, None), Some(1));
        assert_eq!(t.push_ns("a", 2, 2, 3, None), None);
        assert_eq!(t.spans.len(), 2);
    }

    #[test]
    fn chrome_json_passes_the_metrics_layer_validator() {
        let json = sample_trace().chrome_json();
        let stats = deep500::metrics::trace::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!((stats.spans, stats.metadata), (4, 1));
    }
}
