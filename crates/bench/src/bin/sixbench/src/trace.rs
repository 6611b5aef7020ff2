//! In-memory spans around the benchmark's calls into each layer.
//!
//! Span names are `<layer>.<call>`, the layers being the toolkit's
//! modules. Spans are kept in memory and written out once, at exit. A
//! disabled tracer records nothing, so timed iterations pay nothing.

use sixscope::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace_id: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trace_id: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one. A span opened
    /// with nothing else open starts a new trace id.
    pub fn open(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.stack.is_empty() {
            self.trace_id += 1;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            trace_id: self.trace_id,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records consecutive child spans of the innermost open span from
    /// durations a call returned, laid end to end from that span's start.
    pub fn children_from(&mut self, stages: &[(&str, f64)]) {
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let mut at = self.spans[parent].start_ns;
        for (name, secs) in stages {
            let end = at + (secs * 1e9) as u64;
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                trace_id: self.trace_id,
            });
            at = end;
        }
    }

    /// Spans recorded from index `from` on.
    pub fn spans_since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::s(s.name.clone())),
                        ("start_ns", Json::u(s.start_ns)),
                        ("end_ns", Json::u(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::u(p as u64))),
                        ("trace_id", Json::u(s.trace_id)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span in `spans`, in nanoseconds: its duration minus
/// the durations of its direct children (siblings never overlap, since
/// each is opened after the previous one closed). `parent` indices are
/// relative to the whole trace; `base` is the index of `spans[0]`.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < own.len() {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
    }
    own
}

/// Seconds of self time per span name, summed over `spans`, skipping the
/// root spans (those without a parent inside `spans`).
pub fn self_seconds_by_name(spans: &[Span], base: usize) -> BTreeMap<String, f64> {
    let own = self_times(spans, base);
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        if s.parent.is_some_and(|p| p >= base) {
            *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
        }
    }
    out
}

/// Share (percent) of the root span `spans[0]` covered by its
/// descendants' self time.
pub fn coverage_pct(spans: &[Span], base: usize) -> f64 {
    let own = self_times(spans, base);
    let total = spans[0].end_ns - spans[0].start_ns;
    if total == 0 {
        return 0.0;
    }
    100.0 * (1.0 - own[0] as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            trace_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ a [0,40) ⊃ a1 [5,25); op ⊃ b [40,90)
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("a1", 5, 25, Some(1)),
            span("b", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans, 0), vec![10, 20, 20, 50]);
        let by_name = self_seconds_by_name(&spans, 0);
        assert_eq!(by_name.len(), 3, "the root is not a layer");
        assert_eq!(by_name["a"], 20e-9);
        assert_eq!(coverage_pct(&spans, 0), 90.0);
    }

    #[test]
    fn self_time_respects_a_base_offset_and_sums_repeated_names() {
        let spans = vec![
            span("op", 1000, 1100, None),
            span("x", 1000, 1030, Some(7)),
            span("x", 1030, 1100, Some(7)),
        ];
        assert_eq!(self_times(&spans, 7), vec![0, 30, 70]);
        assert_eq!(self_seconds_by_name(&spans, 7)["x"], 100e-9);
        assert_eq!(coverage_pct(&spans, 7), 100.0);
    }

    #[test]
    fn returned_stage_durations_become_children() {
        let mut t = Tracer::new(true);
        let id = t.open("corpus.build");
        t.children_from(&[("sim.setup", 1e-6), ("sim.generate", 2e-6)]);
        t.close(id);
        let spans = t.spans_since(0);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 2000);
        assert!(Tracer::off().open("x").is_none());
    }
}
