//! The serving metrics recorder: request latency percentiles, queue-wait
//! percentiles, the batch-size histogram (the direct read-out of how well
//! the batcher is coalescing), and admission/expiry counters.
//!
//! Latency and queue-wait series are `hs_obs::Histogram`s — streaming
//! log-bucketed histograms with O(1) wait-free recording and quantile
//! error bounded by one sub-bucket (≤ 1/16 of the value). This replaced
//! the earlier fixed 65 536-sample ring that copied and sorted on every
//! snapshot: recording no longer takes a lock, snapshots are O(buckets)
//! instead of O(n·log n), and the statistics cover every completion since
//! the last [`ServerMetrics::reset`] rather than a recency window.
//! Percentiles use the histogram's upper-bound convention, so they never
//! under-report (see `crates/obs` and `docs/OBSERVABILITY.md`).
//!
//! [`MetricsSnapshot`] derives `serde::ToJson`, so the load-generator
//! harness dumps it straight into the experiment JSON.

use hs_obs::Histogram;
use hs_parallel::sync::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One bar of the batch-size histogram.
#[derive(Debug, Clone, PartialEq, Eq, serde::ToJson)]
pub struct BatchBucket {
    /// Batch size.
    pub batch: usize,
    /// Number of batches executed at that size.
    pub count: u64,
}

/// A point-in-time aggregation of a server's metrics. Latency and
/// queue-wait statistics are streaming-histogram estimates over every
/// completion since the last reset (percentile error at most one bucket:
/// ≤ 1/16 of the value); counters cover the same period.
#[derive(Debug, Clone, serde::ToJson)]
pub struct MetricsSnapshot {
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests rejected at admission (queue full → `Backpressure`).
    pub rejected: u64,
    /// Requests dropped because their deadline passed before execution.
    pub expired: u64,
    /// Requests shed by brownout mode (sustained overload, low deadline
    /// slack → `ServeError::Shed`).
    pub shed: u64,
    /// Median completion latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile completion latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile completion latency, microseconds.
    pub p99_us: u64,
    /// Worst observed completion latency, microseconds (exact).
    pub max_us: u64,
    /// Mean completion latency, microseconds (exact: sum / count).
    pub mean_us: f64,
    /// Median admission→batch-open queue wait, microseconds. Splitting
    /// queue wait from total latency is what lets backpressure tuning see
    /// whether time is lost waiting or executing.
    pub queue_p50_us: u64,
    /// 95th-percentile queue wait, microseconds.
    pub queue_p95_us: u64,
    /// 99th-percentile queue wait, microseconds.
    pub queue_p99_us: u64,
    /// Mean executed batch size: completed requests divided by executed
    /// batches (how full the batcher ran on average).
    pub mean_batch: f64,
    /// Worker threads that died to a panic (each aborts its in-flight
    /// batch; the supervisor respawns the worker).
    pub worker_panics: u64,
    /// Worker respawns performed by the supervisor.
    pub worker_restarts: u64,
    /// Times the server entered brownout mode.
    pub brownout_entries: u64,
    /// Executed batch sizes and their counts, ascending.
    pub batch_histogram: Vec<BatchBucket>,
}

/// The shared recorder every worker and client reports into.
#[derive(Default)]
pub struct ServerMetrics {
    completed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    shed: AtomicU64,
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    brownout_entries: AtomicU64,
    /// End-to-end completion latencies, microseconds.
    latency_us: Histogram,
    /// Admission→batch-open waits, microseconds.
    queue_wait_us: Histogram,
    /// `batch_counts[size]` = number of batches executed with that many
    /// requests (index 0 unused).
    batch_counts: Mutex<Vec<u64>>,
}

fn as_micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

impl ServerMetrics {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successfully completed request. Lock-free.
    pub fn record_completion(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency_us.record(as_micros(latency));
    }

    /// Records one request's admission→batch-open queue wait. Lock-free.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait_us.record(as_micros(wait));
    }

    /// Records one admission rejection (backpressure).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one deadline expiry.
    pub fn record_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one brownout shed.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one worker death by panic.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one supervisor worker respawn.
    pub fn record_worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one transition into brownout mode.
    pub fn record_brownout_entry(&self) {
        self.brownout_entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the size of one executed batch.
    pub fn record_batch(&self, size: usize) {
        let mut counts = lock(&self.batch_counts);
        if counts.len() <= size {
            counts.resize(size + 1, 0);
        }
        counts[size] += 1;
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests rejected at admission so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests expired before execution so far.
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Requests shed by brownout mode so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Aggregates everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lat = self.latency_us.summary();
        let queue = self.queue_wait_us.summary();
        let batch_histogram: Vec<BatchBucket> = lock(&self.batch_counts)
            .iter()
            .enumerate()
            .filter(|&(size, &count)| size > 0 && count > 0)
            .map(|(batch, &count)| BatchBucket { batch, count })
            .collect();
        let (requests, batches): (u64, u64) = batch_histogram.iter().fold((0, 0), |(r, n), b| {
            (r + b.count * b.batch as u64, n + b.count)
        });
        let mean_batch = if batches == 0 {
            0.0
        } else {
            requests as f64 / batches as f64
        };
        MetricsSnapshot {
            completed: self.completed(),
            rejected: self.rejected(),
            expired: self.expired(),
            shed: self.shed(),
            p50_us: lat.p50,
            p95_us: lat.p95,
            p99_us: lat.p99,
            max_us: lat.max,
            mean_us: self.latency_us.mean(),
            queue_p50_us: queue.p50,
            queue_p95_us: queue.p95,
            queue_p99_us: queue.p99,
            mean_batch,
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            brownout_entries: self.brownout_entries.load(Ordering::Relaxed),
            batch_histogram,
        }
    }

    /// Clears every counter and series (between sweep configurations).
    pub fn reset(&self) {
        self.completed.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.expired.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.worker_panics.store(0, Ordering::Relaxed);
        self.worker_restarts.store(0, Ordering::Relaxed);
        self.brownout_entries.store(0, Ordering::Relaxed);
        self.latency_us.reset();
        self.queue_wait_us.reset();
        lock(&self.batch_counts).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_histogram_aggregate_correctly() {
        let m = ServerMetrics::new();
        for us in 1..=100u64 {
            m.record_completion(Duration::from_micros(us));
        }
        m.record_batch(4);
        m.record_batch(4);
        m.record_batch(1);
        m.record_rejected();
        m.record_expired();
        let snap = m.snapshot();
        assert_eq!(snap.completed, 100);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.expired, 1);
        // Streaming-histogram estimates, upper-bound convention: the
        // rank-50 sample (50 µs) reports its bucket's upper bound 51; the
        // p95/p99 buckets' upper bounds coincide with the exact values.
        assert_eq!(snap.p50_us, 51);
        assert_eq!(snap.p95_us, 95);
        assert_eq!(snap.p99_us, 99);
        assert_eq!(snap.max_us, 100);
        assert!((snap.mean_us - 50.5).abs() < 1e-9);
        assert_eq!(
            snap.batch_histogram,
            vec![
                BatchBucket { batch: 1, count: 1 },
                BatchBucket { batch: 4, count: 2 }
            ]
        );
        assert!((snap.mean_batch - 3.0).abs() < 1e-9); // 9 requests / 3 batches
    }

    /// The streaming estimate may only sit above the exact nearest-rank
    /// percentile, and by at most its bucket's width (≤ value/16).
    #[test]
    fn percentile_error_vs_exact_sort_is_within_one_bucket() {
        let m = ServerMetrics::new();
        // Deterministic skewed mix spanning several octaves, like a real
        // latency distribution (fast hits + heavy tail).
        let mut samples: Vec<u64> = Vec::new();
        let mut x: u64 = 0x2545f4914f6cdd1d;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = 20 + (x % 300) + if x.is_multiple_of(11) { x % 40_000 } else { 0 };
            samples.push(v);
            m.record_completion(Duration::from_micros(v));
        }
        samples.sort_unstable();
        let exact = |q: f64| -> u64 {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1]
        };
        let snap = m.snapshot();
        for (est, q) in [
            (snap.p50_us, 0.50),
            (snap.p95_us, 0.95),
            (snap.p99_us, 0.99),
        ] {
            let e = exact(q);
            assert!(est >= e, "p{q}: estimate {est} under exact {e}");
            assert!(
                est - e <= (e / 16).max(1),
                "p{q}: estimate {est} more than one bucket above exact {e}"
            );
        }
        assert_eq!(snap.max_us, *samples.last().unwrap(), "max is exact");
    }

    #[test]
    fn queue_wait_percentiles_are_separate_from_latency() {
        let m = ServerMetrics::new();
        for us in 1..=100u64 {
            m.record_completion(Duration::from_micros(us * 10));
            m.record_queue_wait(Duration::from_micros(us));
        }
        let snap = m.snapshot();
        assert_eq!(snap.queue_p50_us, 51);
        assert_eq!(snap.queue_p95_us, 95);
        assert_eq!(snap.queue_p99_us, 99);
        assert!(snap.p50_us > snap.queue_p50_us, "series must not mix");
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        // the empty-histogram guard: percentiles of zero completions must
        // come out as 0, never NaN and never a panic
        let snap = ServerMetrics::new().snapshot();
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.p95_us, 0);
        assert_eq!(snap.p99_us, 0);
        assert_eq!(snap.max_us, 0);
        assert_eq!(snap.queue_p50_us, 0);
        assert_eq!(snap.queue_p99_us, 0);
        assert_eq!(snap.mean_us, 0.0);
        assert!(!snap.mean_us.is_nan());
        assert_eq!(snap.mean_batch, 0.0);
        assert!(!snap.mean_batch.is_nan());
        assert!(snap.batch_histogram.is_empty());
    }

    #[test]
    fn empty_snapshot_serialises_without_nan() {
        let text = serde::json::to_string(&ServerMetrics::new().snapshot());
        assert!(!text.contains("NaN") && !text.contains("nan"), "{text}");
        assert!(text.contains("\"p99_us\":0"));
        assert!(text.contains("\"mean_us\":0"));
        assert!(text.contains("\"queue_p99_us\":0"));
    }

    #[test]
    fn robustness_counters_record_and_reset() {
        let m = ServerMetrics::new();
        m.record_shed();
        m.record_shed();
        m.record_worker_panic();
        m.record_worker_restart();
        m.record_brownout_entry();
        let snap = m.snapshot();
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.brownout_entries, 1);
        m.reset();
        let snap = m.snapshot();
        assert_eq!(
            (
                snap.shed,
                snap.worker_panics,
                snap.worker_restarts,
                snap.brownout_entries
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn reset_clears_everything() {
        let m = ServerMetrics::new();
        m.record_completion(Duration::from_micros(10));
        m.record_queue_wait(Duration::from_micros(3));
        m.record_batch(2);
        m.reset();
        let snap = m.snapshot();
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.p99_us, 0);
        assert_eq!(snap.queue_p99_us, 0);
        assert!(snap.batch_histogram.is_empty());
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let m = ServerMetrics::new();
        m.record_completion(Duration::from_micros(5));
        m.record_batch(1);
        let text = serde::json::to_string(&m.snapshot());
        assert!(text.contains("\"p99_us\":5"));
        assert!(text.contains("\"batch_histogram\":[{\"batch\":1,\"count\":1}]"));
    }
}
