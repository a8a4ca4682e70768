//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions (scoped timers inside the engine are a later
//! issue). A disabled tracer costs one branch per call and never reads the
//! clock, so the untraced pass that produces the end-to-end metrics is not
//! perturbed.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// Index of a span in the trace.
pub type SpanId = u32;

/// What `begin` returns while tracing is off.
const DISABLED: SpanId = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanId>,
    /// The update this span worked for; spans of one update share it.
    pub update_id: Option<u32>,
    /// Counts taken at the same boundary (the `RunReport` counters ride on
    /// `engine.run_phase`).
    pub counters: Vec<(&'static str, u64)>,
}

/// Span recorder. Single-threaded: the closed-loop client is the only
/// caller.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    update_id: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            update_id: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag subsequent spans with the update they belong to.
    pub fn set_update(&mut self, id: Option<u32>) {
        self.update_id = id;
    }

    /// Nanoseconds since the tracer was built (0 while disabled).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Open a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            update_id: self.update_id,
            counters: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if id == DISABLED {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record an already-measured interval as a child of the open span —
    /// used where the layer reports its own busy time (`RunReport.wall`)
    /// instead of the benchmark timing a call.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        counters: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            update_id: self.update_id,
            counters,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: one object per span, in recording order, so a
    /// span's `parent` is always an earlier index.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Int(s.start_ns as i64)),
                    ("end_ns", Value::Int(s.end_ns as i64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(i64::from(p))),
                    ),
                    (
                        "update_id",
                        s.update_id
                            .map_or(Value::Null, |u| Value::Int(i64::from(u))),
                    ),
                ];
                if !s.counters.is_empty() {
                    fields.push((
                        "counters",
                        Value::obj(s.counters.iter().map(|(k, v)| (*k, Value::Int(*v as i64)))),
                    ));
                }
                Value::obj(fields)
            })
            .collect();
        Value::obj([
            ("workload", Value::str(workload)),
            ("seed", Value::Int(seed as i64)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// Per-name totals of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ self time: duration minus the part of the interval that child
    /// spans cover. Children of one span never overlap each other (one
    /// thread records them), so that part is the sum of their durations
    /// clipped to the parent's interval.
    pub self_ns: u64,
}

/// Self time and call count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            update_id: Some(0),
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // update [0,100] ── inject [5,15]
        //               ├── run [20,90] ── publish [70,85]
        //               └── visible [95,120] (runs past its parent: clipped)
        let spans = vec![
            span("update", 0, 100, None),
            span("inject", 5, 15, Some(0)),
            span("run", 20, 90, Some(0)),
            span("publish", 70, 85, Some(2)),
            span("visible", 95, 120, Some(0)),
            span("update", 200, 260, None),
            span("run", 210, 250, Some(5)),
        ];
        let t = self_times(&spans);
        // First update: 100 − (10 + 70 + 5 clipped) = 15; second: 60 − 40.
        assert_eq!(
            t["update"],
            NameTotals {
                count: 2,
                total_ns: 160,
                self_ns: 35
            }
        );
        assert_eq!(t["run"].self_ns, (70 - 15) + 40);
        assert_eq!(t["publish"].self_ns, 15);
        assert_eq!(t["visible"].self_ns, 25);
        assert_eq!(t["inject"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("a");
        t.record("b", 1, 2, vec![]);
        t.end(a);
        assert!(t.spans().is_empty());
        assert_eq!(t.now_ns(), 0);
    }

    #[test]
    fn nesting_sets_parents_and_update_ids() {
        let mut t = Tracer::new(true);
        t.set_update(Some(7));
        let a = t.begin("a");
        let b = t.begin("b");
        t.end(b);
        t.record("c", 0, 1, vec![("events", 3)]);
        t.end(a);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|s| s.update_id == Some(7)));
        assert!(s[0].end_ns >= s[1].end_ns);
        let json = t.to_json("w", 1).to_string();
        assert!(json.contains("\"counters\": {\"events\": 3}"));
    }
}
