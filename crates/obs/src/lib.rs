//! # hs-obs
//!
//! The workspace's observability layer: structured span tracing, streaming
//! metrics, and exporters — built to be threaded through the serving
//! engine, the FL round loop and the shared thread pool without perturbing
//! what it measures.
//!
//! Three pieces:
//!
//! * [`trace`] — per-thread fixed-capacity ring buffers of
//!   `(span_id, parent, name, t_start, t_end, payload)` records, written
//!   lock-free (a per-slot seqlock over plain atomics) with monotonic
//!   timestamps from one process-wide anchor. Tracing is enabled at runtime
//!   via the `HS_TRACE` environment variable (or
//!   [`trace::set_enabled`]); when off, every tracing call is one relaxed
//!   atomic load and **zero** heap allocations (pinned by
//!   `tests/obs_alloc.rs` at the workspace root).
//! * [`metrics`] — [`Counter`], [`Gauge`] and the streaming log-bucketed
//!   [`Histogram`] (O(1) record on atomics, mergeable, relative quantile
//!   error bounded by one sub-bucket: ≤ 1/16 ≈ 6.25%), plus a named
//!   [`Registry`]. The histogram replaces the serving layer's
//!   sort-a-copy latency window.
//! * [`export`] — byte-stable JSON snapshots, Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`) and a Prometheus-style
//!   text exposition, all over the vendored `serde::json` writer. The
//!   Prometheus function is the payload the ROADMAP's socket front-end
//!   (item 1) will serve.
//!
//! This crate is the workspace's sanctioned home for wall-clock reads:
//! clippy's `disallowed_methods` flags `Instant::now` at every call site
//! without a written `#[expect]` (`docs/LINTS.md`). Besides this crate's
//! anchor, only time-semantic code (deadlines, batch windows, bench
//! harnesses) carries one; new timing goes through [`now_ns`] or a
//! [`trace`] span. `hs-obs` therefore sits at the bottom of the
//! dependency graph (vendored `serde` only) so even `hs-parallel` can use
//! its clock.
//!
//! See `docs/OBSERVABILITY.md` for the span model, bucket math and
//! exporter formats.

#![deny(missing_docs)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod trace;

pub use clock::{instant_ns, now_ns};
pub use metrics::{global, Counter, Gauge, Histogram, Registry};
pub use trace::{SpanGuard, SpanRecord, ThreadTrace, TraceSnapshot};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Poison-recovering lock for this crate's few cold-path mutexes (ring
/// registration, the metrics registry map). Mirrors
/// `hs_parallel::sync::lock`, re-implemented locally because `hs-obs` must
/// stay below `hs-parallel` in the dependency graph (the pool reads this
/// crate's clock).
#[expect(
    clippy::disallowed_methods,
    reason = "this is the helper: it recovers from poison"
)]
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
