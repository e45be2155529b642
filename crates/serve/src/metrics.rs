//! The serving metrics recorder: request latency percentiles, queue-wait
//! percentiles, the batch-size histogram (the direct read-out of how well
//! the batcher is coalescing), and admission/expiry counters.
//!
//! Every counter and both latency series live in one `hs_obs::Registry`
//! per server, under `serve.*` names. [`ServerMetrics`] fetches each handle
//! once, in [`ServerMetrics::new`], and the server records on the handles
//! directly: an event is a relaxed atomic add, with no registry lookup and
//! no lock. The registry is what the `hs_obs::export` renderers take
//! (`Server::metrics_registry`), so a live server exports through the same
//! code as any other registry.
//!
//! Latency and queue-wait series are `hs_obs::Histogram`s — streaming
//! log-bucketed histograms with O(1) wait-free recording and quantile
//! error bounded by one sub-bucket (≤ 1/16 of the value); the statistics
//! cover every completion since the last [`ServerMetrics::reset`].
//! Percentiles use the histogram's upper-bound convention, so they never
//! under-report (see `crates/obs` and `docs/OBSERVABILITY.md`). The
//! executed batch sizes are the one series kept outside the registry: its
//! histogram rounds values above 16, and `mean_batch` needs them exact.
//!
//! [`MetricsSnapshot`] is a view over those handles; it derives
//! `serde::ToJson`, so the load-generator harness dumps it straight into
//! the experiment JSON.

use hs_obs::{Counter, Histogram, Registry};
use hs_parallel::sync::lock;
use std::sync::{Arc, Mutex};
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

/// The shared recorder every worker and client reports into: handles on
/// its own [`Registry`], plus the exact batch-size table.
pub struct ServerMetrics {
    /// The registry the handles below live in.
    pub(crate) registry: Registry,
    /// Requests completed successfully (`serve.completed`).
    pub(crate) completed: Arc<Counter>,
    /// Requests rejected at admission (`serve.rejected`).
    pub(crate) rejected: Arc<Counter>,
    /// Requests dropped past their deadline (`serve.expired`).
    pub(crate) expired: Arc<Counter>,
    /// Requests shed by brownout mode (`serve.shed`).
    pub(crate) shed: Arc<Counter>,
    /// Worker deaths by panic (`serve.worker_panics`).
    pub(crate) worker_panics: Arc<Counter>,
    /// Supervisor worker respawns (`serve.worker_restarts`).
    pub(crate) worker_restarts: Arc<Counter>,
    /// Transitions into brownout mode (`serve.brownout_entries`).
    pub(crate) brownout_entries: Arc<Counter>,
    /// End-to-end completion latencies, microseconds (`serve.latency_us`).
    pub(crate) latency_us: Arc<Histogram>,
    /// Admission→batch-open waits, microseconds (`serve.queue_wait_us`).
    pub(crate) queue_wait_us: Arc<Histogram>,
    /// `batch_counts[size]` = number of batches executed with that many
    /// requests (index 0 unused).
    batch_counts: Mutex<Vec<u64>>,
}

/// A duration in whole microseconds, saturating at `u64::MAX`.
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Creates an empty recorder over a fresh registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let counter = |name: &str| registry.counter(&format!("serve.{name}"));
        let histogram = |name: &str| registry.histogram(&format!("serve.{name}"));
        ServerMetrics {
            completed: counter("completed"),
            rejected: counter("rejected"),
            expired: counter("expired"),
            shed: counter("shed"),
            worker_panics: counter("worker_panics"),
            worker_restarts: counter("worker_restarts"),
            brownout_entries: counter("brownout_entries"),
            latency_us: histogram("latency_us"),
            queue_wait_us: histogram("queue_wait_us"),
            batch_counts: Mutex::new(Vec::new()),
            registry,
        }
    }

    /// Records one successfully completed request: a completion and its
    /// latency. Lock-free.
    pub fn record_completion(&self, latency: Duration) {
        self.completed.inc();
        self.latency_us.record(micros(latency));
    }

    /// Records the size of one executed batch.
    pub fn record_batch(&self, size: usize) {
        let mut counts = lock(&self.batch_counts);
        if counts.len() <= size {
            counts.resize(size + 1, 0);
        }
        counts[size] += 1;
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
            completed: self.completed.get(),
            rejected: self.rejected.get(),
            expired: self.expired.get(),
            shed: self.shed.get(),
            p50_us: lat.p50,
            p95_us: lat.p95,
            p99_us: lat.p99,
            max_us: lat.max,
            mean_us: self.latency_us.mean(),
            queue_p50_us: queue.p50,
            queue_p95_us: queue.p95,
            queue_p99_us: queue.p99,
            mean_batch,
            worker_panics: self.worker_panics.get(),
            worker_restarts: self.worker_restarts.get(),
            brownout_entries: self.brownout_entries.get(),
            batch_histogram,
        }
    }

    /// Clears every counter and series (between sweep configurations).
    pub fn reset(&self) {
        for counter in [
            &self.completed,
            &self.rejected,
            &self.expired,
            &self.shed,
            &self.worker_panics,
            &self.worker_restarts,
            &self.brownout_entries,
        ] {
            counter.reset();
        }
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
        m.rejected.inc();
        m.expired.inc();
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
            m.queue_wait_us.record(us);
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
        m.shed.add(2);
        m.worker_panics.inc();
        m.worker_restarts.inc();
        m.brownout_entries.inc();
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
        m.queue_wait_us.record(3);
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
