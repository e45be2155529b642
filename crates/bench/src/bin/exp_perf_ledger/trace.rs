//! The benchmark's own span recorder for the traced pass.
//!
//! Spans wrap every call the benchmark makes into a product layer (the
//! product itself is not instrumented here — spans below these boundaries
//! are a later change). A span carries a name, start and end on the
//! `hs_obs` anchor clock, the span that caused it and an operation id
//! (round index or request sequence number), so all spans of one round or
//! request share an identifier. Spans stay in memory and are written once,
//! at exit, as Chrome trace-event JSON.
//!
//! A disabled recorder (the measured pass) records nothing: `span` is one
//! branch on a bool and no clock read.

use hs_parallel::sync;
use serde::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Parent id of a root span.
pub const ROOT: u32 = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Small dense thread ids for the trace file (the OS ids are opaque).
fn thread_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// In-memory span sink shared by every thread of a traced repetition.
pub struct Recorder {
    enabled: bool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span; it is recorded when the guard drops. `parent` is the
    /// id of the causing span ([`ROOT`] for none), `op` the operation id.
    pub fn span(&self, name: &'static str, parent: u32, op: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                rec: self,
                id: ROOT,
                parent,
                name,
                op,
                start_ns: 0,
            };
        }
        SpanGuard {
            rec: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            op,
            start_ns: hs_obs::now_ns(),
        }
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        sync::lock(&self.spans).clone()
    }
}

/// Open span; records itself on drop. `id()` is what children name as
/// their parent.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    id: u32,
    parent: u32,
    name: &'static str,
    op: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.rec.enabled {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            op: self.op,
            tid: thread_tid(),
            start_ns: self.start_ns,
            end_ns: hs_obs::now_ns(),
        };
        sync::lock(&self.rec.spans).push(span);
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children that overlap one another — parallel
/// workers under one round — are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .remove(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Count, total time and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Chrome trace-event JSON (`"X"` events, µs timestamps; `args` carry the
/// span id, parent and operation id) in the shape
/// `hs_obs::export::validate_chrome_trace` checks.
pub fn chrome_trace(spans: &[Span]) -> JsonValue {
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut events: Vec<JsonValue> = tids
        .iter()
        .map(|&tid| {
            JsonValue::obj(vec![
                ("name", JsonValue::Str("thread_name".to_string())),
                ("ph", JsonValue::Str("M".to_string())),
                ("pid", JsonValue::Num(1.0)),
                ("tid", JsonValue::Num(f64::from(tid))),
                (
                    "args",
                    JsonValue::obj(vec![("name", JsonValue::Str(format!("ledger-{tid}")))]),
                ),
            ])
        })
        .collect();
    for s in spans {
        events.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(s.name.to_string())),
            ("ph", JsonValue::Str("X".to_string())),
            ("pid", JsonValue::Num(1.0)),
            ("tid", JsonValue::Num(f64::from(s.tid))),
            ("ts", JsonValue::Num(s.start_ns as f64 / 1000.0)),
            ("dur", JsonValue::Num(s.dur_ns() as f64 / 1000.0)),
            (
                "args",
                JsonValue::obj(vec![
                    ("span_id", JsonValue::Num(f64::from(s.id))),
                    ("parent", JsonValue::Num(f64::from(s.parent))),
                    ("op", JsonValue::Num(s.op as f64)),
                ]),
            ),
        ]));
    }
    JsonValue::obj(vec![
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", JsonValue::Str("ms".to_string())),
    ])
}

/// Validates the trace with the product's own checker and writes it.
/// Returns the number of span events written.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<usize> {
    let trace = chrome_trace(spans);
    let events = hs_obs::export::validate_chrome_trace(&trace)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    serde::json::write_file(path, &trace)?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // round [0,100] → train [10,60] → update [20,50]
        let spans = [
            span(1, ROOT, "round", 0, 100),
            span(2, 1, "train", 10, 60),
            span(3, 2, "update", 20, 50),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50, "grandchildren do not count twice");
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // two parallel workers [10,60] and [30,80] cover [10,80] = 70
        let spans = [
            span(1, ROOT, "round", 0, 100),
            span(2, 1, "update", 10, 60),
            span(3, 1, "update", 30, 80),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["update"].count, 2);
        assert_eq!(totals["update"].total_ns, 100);
        assert_eq!(totals["round"].self_ns, 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        // a child that outlives its parent covers only the shared part
        let spans = [
            span(1, ROOT, "wait", 50, 100),
            span(2, 1, "late", 90, 150),
            span(3, 1, "early", 0, 60),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        {
            let g = rec.span("x", ROOT, 1);
            assert_eq!(g.id(), ROOT);
        }
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn recorded_spans_export_as_a_valid_chrome_trace() {
        let rec = Recorder::new(true);
        let outer = rec.span("round", ROOT, 7);
        let parent = outer.id();
        drop(rec.span("client_update", parent, 7));
        drop(rec.span("materialize", parent, 7));
        drop(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().filter(|s| s.parent == parent).count() == 2);
        assert!(spans.iter().all(|s| s.op == 7));
        let trace = chrome_trace(&spans);
        assert_eq!(hs_obs::export::validate_chrome_trace(&trace), Ok(3));
    }
}
