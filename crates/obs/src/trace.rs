//! Lock-free span/event tracing.
//!
//! Each thread that records gets its own fixed-capacity ring buffer of
//! span records; a slot is a tiny seqlock (a sequence word plus plain
//! atomic fields), so the single owning writer never blocks and a
//! concurrent [`snapshot`] from another thread simply skips slots it
//! catches mid-write. Records carry `(span_id, parent, name, t_start,
//! t_end, payload)` with timestamps from [`crate::now_ns`] — one process
//! anchor, so spans from different threads land on one timeline.
//!
//! Tracing is off unless the `HS_TRACE` environment variable is set to a
//! non-empty value other than `0` (or [`set_enabled`] is called). When
//! off, every entry point is one relaxed atomic load and performs **no**
//! heap allocation — cheap enough to leave the instrumentation compiled
//! into the serving hot path unconditionally (`tests/obs_alloc.rs` and the
//! `obs_overhead` bench pin this).
//!
//! Ring capacity is `HS_TRACE_CAPACITY` records per thread (default
//! 8192, clamped to 16..=262144). When a ring wraps, the oldest records
//! are overwritten and counted in [`ThreadTrace::dropped`] — tracing sheds
//! history rather than ever stalling the traced code.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::now_ns;

// ---------------------------------------------------------------------------
// Enable state
// ---------------------------------------------------------------------------

/// 0 = uninitialised (consult `HS_TRACE` on first use), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether tracing is currently enabled. One relaxed atomic load on the
/// fast path; the first call per process consults `HS_TRACE`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_state(),
        s => s == 2,
    }
}

#[cold]
fn init_state() -> bool {
    let on = match std::env::var("HS_TRACE") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    };
    let _ = STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == 2
}

/// Force tracing on or off at runtime, overriding `HS_TRACE`. Used by
/// tests and the overhead bench to measure both sides in one process.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Serialises tests that mutate process-global tracing state
/// ([`set_enabled`] / [`reset`]). Hold the returned guard for the duration
/// of the test; `cargo test` runs tests in one binary concurrently, so two
/// unserialised tests would see each other's records.
pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    crate::lock(LOCK.get_or_init(|| Mutex::new(())))
}

// ---------------------------------------------------------------------------
// Per-thread seqlock ring
// ---------------------------------------------------------------------------

/// One ring slot. `seq` is the seqlock word: 0 = never written, odd = a
/// write is in flight, even ≥ 2 = stable. The name of a span is stored as
/// the decomposed pointer/length of a `&'static str`; the seqlock
/// guarantees a reader only reconstructs a pair that was written together.
struct Slot {
    seq: AtomicU64,
    span_id: AtomicU64,
    parent: AtomicU64,
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
    t_start: AtomicU64,
    t_end: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            name_ptr: AtomicUsize::new(0),
            name_len: AtomicUsize::new(0),
            t_start: AtomicU64::new(0),
            t_end: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        }
    }
}

/// A per-thread trace ring. Only the owning thread writes; any thread may
/// read via [`snapshot`]. Rings are registered globally and outlive their
/// thread so records survive worker exit.
struct Ring {
    tid: u64,
    slots: Box<[Slot]>,
    /// Total records ever pushed (monotonic; slot index is `head % cap`).
    head: AtomicU64,
    /// Low-water mark set by [`reset`]: records below it are not reported.
    flushed: AtomicU64,
}

impl Ring {
    fn new(tid: u64, capacity: usize) -> Self {
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::new()).collect();
        Ring {
            tid,
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
        }
    }

    /// Single-writer push (callers guarantee only the owning thread calls
    /// this). Seqlock publish: mark the slot in-flight, store the fields,
    /// mark it stable, then advance `head`.
    fn push(&self, rec: &SpanRecord) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        let s = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.span_id.store(rec.span_id, Ordering::Relaxed);
        slot.parent.store(rec.parent, Ordering::Relaxed);
        slot.name_ptr
            .store(rec.name.as_ptr() as usize, Ordering::Relaxed);
        slot.name_len.store(rec.name.len(), Ordering::Relaxed);
        slot.t_start.store(rec.t_start_ns, Ordering::Relaxed);
        slot.t_end.store(rec.t_end_ns, Ordering::Relaxed);
        slot.payload.store(rec.payload, Ordering::Relaxed);
        slot.seq.store(s + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Seqlock read of one slot. Returns `None` for never-written slots
    /// and for slots caught mid-write (the writer will have bumped `seq`).
    fn read_slot(&self, index: u64) -> Option<SpanRecord> {
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let span_id = slot.span_id.load(Ordering::Relaxed);
        let parent = slot.parent.load(Ordering::Relaxed);
        let name_ptr = slot.name_ptr.load(Ordering::Relaxed);
        let name_len = slot.name_len.load(Ordering::Relaxed);
        let t_start_ns = slot.t_start.load(Ordering::Relaxed);
        let t_end_ns = slot.t_end.load(Ordering::Relaxed);
        let payload = slot.payload.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 {
            return None;
        }
        // SAFETY: the seqlock validation above proves `name_ptr`/`name_len`
        // were stored together by one completed `push`, and every `push`
        // decomposes a `&'static str` — so the pair denotes valid UTF-8
        // bytes that live for the rest of the program.
        let name: &'static str = unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                name_ptr as *const u8,
                name_len,
            ))
        };
        Some(SpanRecord {
            span_id,
            parent,
            name,
            t_start_ns,
            t_end_ns,
            payload,
        })
    }

    /// Collects the retained window `[max(head - cap, flushed), head)`.
    /// A record overwritten between reading `head` and reading its slot is
    /// reported in its newer incarnation — snapshots taken while writers
    /// run are best-effort, never torn.
    fn collect(&self) -> ThreadTrace {
        let head = self.head.load(Ordering::Acquire);
        let flushed = self.flushed.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let lo = flushed.max(head.saturating_sub(cap));
        let mut records = Vec::with_capacity((head - lo) as usize);
        for i in lo..head {
            if let Some(r) = self.read_slot(i) {
                records.push(r);
            }
        }
        ThreadTrace {
            tid: self.tid,
            dropped: lo - flushed,
            records,
        }
    }
}

/// Records per ring when `HS_TRACE_CAPACITY` is unset or not a number.
const DEFAULT_RING_CAPACITY: usize = 8192;

/// The fewest and the most records per ring `HS_TRACE_CAPACITY` can ask
/// for. Every recording thread allocates its ring up front at 64 bytes a
/// slot, so the ceiling bounds that at 16 MiB per thread.
const MIN_RING_CAPACITY: usize = 16;
const MAX_RING_CAPACITY: usize = 1 << 18;

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| env_ring_capacity(std::env::var("HS_TRACE_CAPACITY").ok().as_deref()))
}

/// Reads an `HS_TRACE_CAPACITY` value: an integer (surrounding whitespace
/// ignored) clamped to `MIN_RING_CAPACITY..=MAX_RING_CAPACITY`, a number
/// too large for `usize` included; [`DEFAULT_RING_CAPACITY`] when unset or
/// not a plain integer (`-1`, `1e3`).
fn env_ring_capacity(v: Option<&str>) -> usize {
    let n = match v.map(|v| v.trim().parse::<usize>()) {
        Some(Ok(n)) => n,
        Some(Err(e)) if *e.kind() == std::num::IntErrorKind::PosOverflow => MAX_RING_CAPACITY,
        _ => DEFAULT_RING_CAPACITY,
    };
    n.clamp(MIN_RING_CAPACITY, MAX_RING_CAPACITY)
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
}

fn register_ring() -> Arc<Ring> {
    let mut rings = crate::lock(registry());
    // Reuse a ring whose owning thread has exited (the registry then holds
    // the only reference). Load generators spawn short-lived threads by the
    // dozen, and paying a fresh multi-hundred-KiB ring allocation on each
    // one's first record would dominate the traced path — reuse makes ring
    // cost O(peak live threads), not O(threads ever). The claim is race-free
    // because it happens under the registry lock and a live owner always
    // holds a second `Arc` from its thread-local slot. A reused ring keeps
    // its `tid` and its previous owner's records (they were real records
    // and snapshots must keep reporting them): successive short-lived
    // threads simply share one trace track.
    if let Some(ring) = rings.iter().find(|r| Arc::strong_count(r) == 1) {
        return Arc::clone(ring);
    }
    let ring = Arc::new(Ring::new(
        NEXT_TID.fetch_add(1, Ordering::Relaxed),
        ring_capacity(),
    ));
    rings.push(Arc::clone(&ring));
    ring
}

/// Writes one record into the calling thread's ring. `try_with` so spans
/// dropped during thread-local teardown are silently shed rather than
/// panicking.
fn record(rec: &SpanRecord) {
    let _ = RING.try_with(|cell| cell.get_or_init(register_ring).push(rec));
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Allocates a fresh correlation/span id, or 0 when tracing is off. Used
/// by `crates/serve` to stamp each request with a trace id at admission so
/// later explicit-time records can be grouped per request.
#[inline]
pub fn next_id() -> u64 {
    if !enabled() {
        return 0;
    }
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Opens a span named `name` covering the guard's lifetime. The span is
/// recorded when the guard drops; nested `span` calls on the same thread
/// chain their `parent` automatically. Inert (id 0, records nothing) when
/// tracing is off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            prev_parent: 0,
            name,
            t_start: 0,
            payload: Cell::new(0),
        };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let prev_parent = CURRENT_PARENT
        .try_with(|c| {
            let p = c.get();
            c.set(id);
            p
        })
        .unwrap_or(0);
    SpanGuard {
        id,
        prev_parent,
        name,
        t_start: now_ns(),
        payload: Cell::new(0),
    }
}

/// Records a zero-duration instant event (e.g. a brownout transition or a
/// shed request) under the current span. No-op when tracing is off.
#[inline]
pub fn instant(name: &'static str, payload: u64) {
    if !enabled() {
        return;
    }
    let t = now_ns();
    record(&SpanRecord {
        span_id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
        parent: CURRENT_PARENT.try_with(Cell::get).unwrap_or(0),
        name,
        t_start_ns: t,
        t_end_ns: t,
        payload,
    });
}

/// Records a span with explicit timestamps (anchor nanoseconds, see
/// [`crate::instant_ns`]) and an explicit parent. Returns the new span's
/// id (0 when tracing is off) so callers can parent further records under
/// it — `crates/serve` uses this to reconstruct per-request timelines from
/// timestamps captured before the batch executed.
pub fn span_at(
    name: &'static str,
    t_start_ns: u64,
    t_end_ns: u64,
    parent: u64,
    payload: u64,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    record(&SpanRecord {
        span_id: id,
        parent,
        name,
        t_start_ns,
        t_end_ns,
        payload,
    });
    id
}

/// RAII guard for an open span; records the span on drop.
pub struct SpanGuard {
    id: u64,
    prev_parent: u64,
    name: &'static str,
    t_start: u64,
    payload: Cell<u64>,
}

impl SpanGuard {
    /// The span's id (0 when tracing was off at creation).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a `u64` payload (request trace id, round number, batch
    /// size, …) recorded with the span when the guard drops.
    pub fn set_payload(&self, payload: u64) {
        self.payload.set(payload);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        record(&SpanRecord {
            span_id: self.id,
            parent: self.prev_parent,
            name: self.name,
            t_start_ns: self.t_start,
            t_end_ns: now_ns(),
            payload: self.payload.get(),
        });
        let _ = CURRENT_PARENT.try_with(|c| c.set(self.prev_parent));
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One recorded span or instant event (an instant has
/// `t_start_ns == t_end_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the process (ids are never reused).
    pub span_id: u64,
    /// Enclosing span's id, or 0 for a root span.
    pub parent: u64,
    /// Static span name, e.g. `"batch_execute"`.
    pub name: &'static str,
    /// Start time in anchor nanoseconds ([`crate::now_ns`] timeline).
    pub t_start_ns: u64,
    /// End time in anchor nanoseconds.
    pub t_end_ns: u64,
    /// Caller-defined correlation value (trace id, round, batch size, …).
    pub payload: u64,
}

/// All retained records from one thread's ring, in write order.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Small dense thread number assigned at first record (not the OS tid).
    pub tid: u64,
    /// Records lost to ring wraparound since the last [`reset`].
    pub dropped: u64,
    /// Retained records, oldest first.
    pub records: Vec<SpanRecord>,
}

/// A point-in-time copy of every thread's retained records.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Per-thread traces, ordered by `tid`.
    pub threads: Vec<ThreadTrace>,
}

impl TraceSnapshot {
    /// Total records across all threads.
    pub fn total_records(&self) -> usize {
        self.threads.iter().map(|t| t.records.len()).sum()
    }

    /// Iterator over every record, all threads.
    pub fn records(&self) -> impl Iterator<Item = &SpanRecord> {
        self.threads.iter().flat_map(|t| t.records.iter())
    }

    /// Total records lost to ring wraparound across all threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// Copies the retained records of every registered ring. Safe to call
/// while writers are active: slots caught mid-write are skipped, never
/// torn. Threads with nothing to report are omitted.
pub fn snapshot() -> TraceSnapshot {
    let rings = crate::lock(registry());
    let mut threads: Vec<ThreadTrace> = rings
        .iter()
        .map(|r| r.collect())
        .filter(|t| !t.records.is_empty() || t.dropped > 0)
        .collect();
    threads.sort_by_key(|t| t.tid);
    TraceSnapshot { threads }
}

/// Discards all currently-retained records (rings stay registered). Used
/// between bench phases and by tests to isolate what they record.
pub fn reset() {
    for ring in crate::lock(registry()).iter() {
        ring.flushed
            .store(ring.head.load(Ordering::Acquire), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn hostile_ring_capacities_fall_back_or_clamp() {
        // parsing only: nothing here allocates a ring from these values
        let max = usize::MAX.to_string();
        for (v, want) in [
            (None, DEFAULT_RING_CAPACITY),
            (Some(""), DEFAULT_RING_CAPACITY),
            (Some("-1"), DEFAULT_RING_CAPACITY),
            (Some("1e3"), DEFAULT_RING_CAPACITY),
            (Some("0"), MIN_RING_CAPACITY),
            (Some(" 4"), MIN_RING_CAPACITY),
            (Some("4\n"), MIN_RING_CAPACITY),
            (Some(" 1000\n"), 1000),
            (Some(max.as_str()), MAX_RING_CAPACITY),
            (Some("18446744073709551616"), MAX_RING_CAPACITY), // 2^64
        ] {
            assert_eq!(env_ring_capacity(v), want, "{v:?}");
        }
    }

    fn rec(i: u64) -> SpanRecord {
        SpanRecord {
            span_id: i,
            parent: 0,
            name: "wrap",
            t_start_ns: i,
            t_end_ns: i + 1,
            payload: i,
        }
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_dropped() {
        let ring = Ring::new(7, 16);
        for i in 0..21 {
            ring.push(&rec(i));
        }
        let t = ring.collect();
        assert_eq!(t.tid, 7);
        assert_eq!(t.dropped, 5, "21 pushes into 16 slots drop the oldest 5");
        assert_eq!(t.records.len(), 16);
        let ids: Vec<u64> = t.records.iter().map(|r| r.span_id).collect();
        assert_eq!(ids, (5..21).collect::<Vec<u64>>());
        assert!(t.records.iter().all(|r| r.name == "wrap"));
    }

    #[test]
    fn flush_then_wrap_reports_drop_relative_to_flush() {
        let ring = Ring::new(1, 16);
        for i in 0..10 {
            ring.push(&rec(i));
        }
        ring.flushed
            .store(ring.head.load(Ordering::Acquire), Ordering::Release);
        assert_eq!(ring.collect().records.len(), 0);
        for i in 10..40 {
            ring.push(&rec(i));
        }
        let t = ring.collect();
        assert_eq!(t.records.len(), 16);
        // 30 post-flush pushes, 16 retained → 14 dropped since the flush.
        assert_eq!(t.dropped, 14);
    }

    #[test]
    fn unwritten_slots_are_skipped() {
        let ring = Ring::new(2, 16);
        ring.push(&rec(1));
        ring.push(&rec(2));
        let t = ring.collect();
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn concurrent_reader_never_sees_torn_records() {
        let ring = Arc::new(Ring::new(3, 32));
        let stop = Arc::new(AtomicBool::new(false));
        let names: [&'static str; 2] = ["alpha", "omega_long_name"];
        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    ring.push(&SpanRecord {
                        span_id: i,
                        parent: i,
                        name: names[(i % 2) as usize],
                        t_start_ns: i,
                        t_end_ns: i,
                        payload: i,
                    });
                    i += 1;
                }
            })
        };
        for _ in 0..2000 {
            for r in ring.collect().records {
                // A record is internally consistent iff every field was
                // written in the same push: all fields carry the counter.
                assert_eq!(r.span_id, r.parent);
                assert_eq!(r.span_id, r.t_start_ns);
                assert_eq!(r.span_id, r.payload);
                assert_eq!(r.name, names[(r.span_id % 2) as usize]);
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn spans_nest_and_snapshot_from_four_threads() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        // The barrier keeps all four threads alive until each has recorded,
        // so ring reuse cannot coalesce them onto fewer than four rings.
        let gate = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let outer = span("outer");
                        outer.set_payload(k);
                        let inner = span("inner");
                        drop(inner);
                        drop(outer);
                    }
                    gate.wait();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = snapshot();
        set_enabled(false);
        let outers: Vec<&SpanRecord> = snap.records().filter(|r| r.name == "outer").collect();
        let inners: Vec<&SpanRecord> = snap.records().filter(|r| r.name == "inner").collect();
        assert_eq!(outers.len(), 200, "4 threads x 50 outer spans");
        assert_eq!(inners.len(), 200);
        // Each inner's parent must be an outer id from the same thread,
        // and every outer is a root.
        assert!(outers.iter().all(|o| o.parent == 0));
        for t in &snap.threads {
            let outer_ids: Vec<u64> = t
                .records
                .iter()
                .filter(|r| r.name == "outer")
                .map(|r| r.span_id)
                .collect();
            for inner in t.records.iter().filter(|r| r.name == "inner") {
                assert!(outer_ids.contains(&inner.parent));
                assert!(inner.t_start_ns >= now_ns_floor(&outer_ids, t, inner.parent));
            }
        }
        assert!(snap.threads.len() >= 4);
        reset();
        assert_eq!(snapshot().total_records(), 0);
    }

    #[test]
    fn sequential_threads_reuse_rings_instead_of_allocating() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let rings_before = crate::lock(registry()).len();
        // each thread records then fully exits before the next starts, so
        // after the first at most one new ring is ever allocated
        for i in 0..8u64 {
            std::thread::spawn(move || instant("reused", i))
                .join()
                .unwrap();
        }
        set_enabled(false);
        let rings_after = crate::lock(registry()).len();
        assert!(
            rings_after <= rings_before + 1,
            "8 sequential threads must share one pooled ring \
             ({rings_before} rings before, {rings_after} after)"
        );
        // every record is still reported, whatever ring it landed in
        let reused: Vec<u64> = snapshot()
            .records()
            .filter(|r| r.name == "reused")
            .map(|r| r.payload)
            .collect();
        assert_eq!(reused.len(), 8);
        reset();
    }

    /// Start time of the outer span `parent` within `t` (0 if absent).
    fn now_ns_floor(outer_ids: &[u64], t: &ThreadTrace, parent: u64) -> u64 {
        if !outer_ids.contains(&parent) {
            return 0;
        }
        t.records
            .iter()
            .find(|r| r.span_id == parent)
            .map(|r| r.t_start_ns)
            .unwrap_or(0)
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _g = test_guard();
        set_enabled(false);
        reset();
        assert_eq!(next_id(), 0);
        let g = span("nope");
        assert_eq!(g.id(), 0);
        drop(g);
        instant("nope", 9);
        assert_eq!(span_at("nope", 0, 1, 0, 0), 0);
        assert_eq!(snapshot().total_records(), 0);
    }

    #[test]
    fn span_at_records_explicit_times_and_parent() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let root = span_at("request", 100, 900, 0, 42);
        assert!(root != 0);
        let child = span_at("queue_wait", 100, 400, root, 42);
        let snap = snapshot();
        set_enabled(false);
        reset();
        let req = snap.records().find(|r| r.span_id == root).unwrap();
        assert_eq!((req.t_start_ns, req.t_end_ns, req.payload), (100, 900, 42));
        let qw = snap.records().find(|r| r.span_id == child).unwrap();
        assert_eq!(qw.parent, root);
    }
}
