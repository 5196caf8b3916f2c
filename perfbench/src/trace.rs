//! Span recording for the traced mode.
//!
//! Each call the benchmark makes into a layer's public function is one
//! span: a name, start and end on the run's clock, the span that caused
//! it and, in serving, the request it belongs to. Spans stay in memory
//! and are written out once the run ends. A disabled tracer records
//! nothing, so untraced runs pay one branch per call.

use crate::measure::json_string;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `analog.forward`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Request id, for spans of one serving request.
    pub request: Option<u64>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off from here on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished interval; `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`close`](Self::close) ends; its children name
    /// it as parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends a span [`open`](Self::open) started.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (out, end - start)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in milliseconds, by span name, in
    /// recording order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// For every span named `parent`, the summed self time in
    /// milliseconds of its direct children named `child`.
    pub fn child_ms_per_parent(&self, parent: &str, child: &str) -> Vec<f64> {
        let selfs = self_times_ns(&self.spans);
        let mut sums: Vec<(SpanId, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(id, _)| (id, 0.0))
            .collect();
        for (s, ns) in self.spans.iter().zip(selfs) {
            if s.name != child {
                continue;
            }
            if let Some(slot) = sums.iter_mut().find(|(id, _)| Some(*id) == s.parent) {
                slot.1 += ns as f64 / 1e6;
            }
        }
        sums.into_iter().map(|(_, ms)| ms).collect()
    }

    /// The spans as JSON lines, one object per span, with self time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}, \"self_ns\": {self_ns}}}\n",
                json_string(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            ));
        }
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// clipped to the parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut run: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                run = match run {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = run {
                covered += b - a;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("call", 10, 30, Some(0)),
            span("call", 40, 70, Some(0)),
            // A grandchild counts against its parent, not the root.
            span("inner", 45, 55, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = vec![
            span("request", 100, 200, None),
            span("queued", 90, 150, Some(0)),
            span("service", 140, 180, Some(0)),
            span("late", 190, 260, Some(0)),
        ];
        // Covered: [100, 180) ∪ [190, 200) = 90 of 100.
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None);
        t.close(id);
        let (v, _) = t.time("y", None, || 7);
        assert_eq!(v, 7);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children() {
        let mut t = Tracer::new(true);
        let root = t.open("round", None);
        t.time("call", root, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        let call = t.self_ms("call")[0];
        assert!(call >= 2.0);
        assert!(t.self_ms("round")[0] < t.spans()[0].duration_ns() as f64 / 1e6);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
