//! The serving load generator: closed- and open-loop drivers over an
//! [`hs_serve::ServeClient`], shared by the `serving` bench (the CI-gated
//! batched-vs-batch=1 ratio), the serving sweep (`exp serving-sweep`, the
//! offered-load × batcher-policy sweep behind `docs/PERF.md`'s table) and
//! the chaos study (`exp chaos`).
//!
//! The closed-loop driver optionally retries `Backpressure`/`Shed`
//! rejections with capped exponential backoff and decorrelated jitter
//! ([`RetryPolicy`]) — the client-side half of graceful degradation: the
//! server sheds what it cannot serve, the clients spread their re-offers
//! instead of hammering the queue in lockstep.

use hs_serve::{Pending, ServeClient, ServeError};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Client-side retry policy for `Backpressure`/`Shed` rejections:
/// bounded attempts with decorrelated-jitter backoff
/// (`sleep ← min(cap, uniform(base, 3 × previous_sleep))`), the AWS
/// architecture-blog variant that avoids synchronized retry storms without
/// tracking per-client history.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries per request, the first included (≥ 1; 1 = no retries).
    pub max_attempts: u32,
    /// Minimum (and first) backoff sleep.
    pub base: Duration,
    /// Backoff sleep cap.
    pub cap: Duration,
    /// Seed for the jitter draws (split per load thread).
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with the given attempt budget and a 200 µs – 20 ms
    /// decorrelated-jitter window.
    pub fn new(max_attempts: u32, seed: u64) -> Self {
        assert!(max_attempts >= 1, "max_attempts must be at least 1");
        RetryPolicy {
            max_attempts,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(20),
            seed,
        }
    }
}

/// Outcome counts of one load-generation run. The five outcome buckets
/// (`ok`/`rejected`/`expired`/`shed`/`aborted`) classify each request's
/// *final* resolution — with retries enabled, a request rejected then
/// served counts once, in `ok`.
#[derive(Debug, Clone, Default, serde::ToJson)]
pub struct LoadOutcome {
    /// Requests that completed with a response.
    pub ok: usize,
    /// Requests rejected at admission (backpressure), retries exhausted.
    pub rejected: usize,
    /// Requests dropped on deadline expiry.
    pub expired: usize,
    /// Requests shed by server brownout, retries exhausted.
    pub shed: usize,
    /// Requests aborted by a worker panic or server shutdown.
    pub aborted: usize,
    /// Re-submissions performed by the retry policy (not extra requests).
    pub retries: usize,
    /// Requests whose retry budget ran out on a retryable rejection (they
    /// are also counted in `rejected`/`shed`).
    pub gave_up: usize,
    /// Wall-clock duration of the run, milliseconds.
    pub elapsed_ms: f64,
}

impl LoadOutcome {
    /// Total requests attempted (each counted once, however many retries).
    pub fn attempted(&self) -> usize {
        self.ok + self.rejected + self.expired + self.shed + self.aborted
    }

    /// Completed requests per second of wall-clock time.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            0.0
        } else {
            self.ok as f64 / (self.elapsed_ms / 1e3)
        }
    }

    /// Served availability: completions over everything the server was
    /// answerable for (shed requests excluded — brownout shedding is the
    /// server *choosing* degraded service, and the chaos acceptance
    /// criteria measure availability excluding shed).
    pub fn availability_excluding_shed(&self) -> f64 {
        let answerable = self.ok + self.rejected + self.expired + self.aborted;
        if answerable == 0 {
            1.0
        } else {
            self.ok as f64 / answerable as f64
        }
    }

    fn absorb(&mut self, o: &LoadOutcome) {
        self.ok += o.ok;
        self.rejected += o.rejected;
        self.expired += o.expired;
        self.shed += o.shed;
        self.aborted += o.aborted;
        self.retries += o.retries;
        self.gave_up += o.gave_up;
    }
}

fn classify(outcome: Result<hs_serve::Response, ServeError>, counts: &mut LoadOutcome) {
    match outcome {
        Ok(_) => counts.ok += 1,
        Err(ServeError::Backpressure { .. }) => counts.rejected += 1,
        Err(ServeError::DeadlineExceeded { .. }) => counts.expired += 1,
        Err(ServeError::Shed { .. }) => counts.shed += 1,
        Err(ServeError::WorkerPanicked) | Err(ServeError::Shutdown) => counts.aborted += 1,
        Err(e @ ServeError::ShapeMismatch { .. }) => {
            panic!("load generator bug: {e}")
        }
    }
}

/// One closed-loop request with optional bounded retry on
/// `Backpressure`/`Shed`.
fn infer_once(
    client: &ServeClient,
    sample: &Tensor,
    deadline: Option<Duration>,
    retry: Option<&RetryPolicy>,
    rng: &mut StdRng,
    counts: &mut LoadOutcome,
) {
    let mut attempts = 1u32;
    let mut prev_sleep = retry.map(|r| r.base).unwrap_or(Duration::ZERO);
    loop {
        let outcome = client.infer(sample.clone(), deadline);
        let retryable = matches!(
            outcome,
            Err(ServeError::Backpressure { .. }) | Err(ServeError::Shed { .. })
        );
        match retry {
            Some(policy) if retryable && attempts < policy.max_attempts => {
                attempts += 1;
                counts.retries += 1;
                // decorrelated jitter: sleep ∈ [base, 3 × previous sleep)
                let hi = (prev_sleep * 3).max(policy.base + Duration::from_nanos(1));
                let sleep = Duration::from_nanos(
                    rng.gen_range(policy.base.as_nanos() as u64..hi.as_nanos() as u64),
                )
                .min(policy.cap);
                std::thread::sleep(sleep);
                prev_sleep = sleep;
            }
            _ => {
                if retryable && retry.is_some() {
                    counts.gave_up += 1;
                }
                classify(outcome, counts);
                return;
            }
        }
    }
}

/// Closed-loop load: `concurrency` client threads, each submitting its next
/// request only after the previous response — the classic fixed-concurrency
/// driver. `retry` (optional) re-offers `Backpressure`/`Shed` rejections
/// with decorrelated-jitter backoff. Returns the aggregated outcome
/// (elapsed covers all threads' start-to-join wall time).
pub fn closed_loop(
    client: &ServeClient,
    concurrency: usize,
    per_client: usize,
    sample: &Tensor,
    deadline: Option<Duration>,
    retry: Option<&RetryPolicy>,
) -> LoadOutcome {
    #[expect(
        clippy::disallowed_methods,
        reason = "load generation measures wall-clock throughput"
    )]
    let start = Instant::now();
    let outcomes: Vec<LoadOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|t| {
                let client = client.clone();
                let sample = sample.clone();
                scope.spawn(move || {
                    let mut counts = LoadOutcome::default();
                    let mut rng = StdRng::seed_from_u64(
                        retry.map(|r| r.seed).unwrap_or(0) ^ (t as u64).wrapping_mul(0x9e37),
                    );
                    for _ in 0..per_client {
                        infer_once(&client, &sample, deadline, retry, &mut rng, &mut counts);
                    }
                    counts
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut total = outcomes
        .into_iter()
        .fold(LoadOutcome::default(), |mut acc, o| {
            acc.absorb(&o);
            acc
        });
    total.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    total
}

/// Open-loop load: submits `total` requests at a fixed `rate_rps` arrival
/// rate regardless of completion (the driver that reveals queue growth and
/// backpressure), then waits for every accepted request. Arrival pacing
/// uses absolute schedule points, so a slow server cannot slow the offered
/// rate down (the defining property of an open-loop generator). No retry:
/// re-offering would distort the fixed arrival rate that defines the
/// driver.
#[expect(
    clippy::disallowed_methods,
    reason = "an open-loop generator paces arrivals in real time"
)]
pub fn open_loop(
    client: &ServeClient,
    rate_rps: f64,
    total: usize,
    sample: &Tensor,
    deadline: Option<Duration>,
) -> LoadOutcome {
    assert!(rate_rps > 0.0, "open-loop rate must be positive");
    let interval = Duration::from_secs_f64(1.0 / rate_rps);
    let mut counts = LoadOutcome::default();
    let mut pending: Vec<Pending> = Vec::with_capacity(total);
    let start = Instant::now();
    for i in 0..total {
        let due = start + interval * i as u32;
        if let Some(sleep) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        match client.submit(sample.clone(), deadline) {
            Ok(p) => pending.push(p),
            Err(ServeError::Backpressure { .. }) => counts.rejected += 1,
            Err(ServeError::Shutdown) => counts.aborted += 1,
            Err(e) => panic!("unexpected serving error under open-loop load: {e}"),
        }
    }
    for p in pending {
        classify(p.wait(), &mut counts);
    }
    counts.elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_nn::{Linear, Network, Sequential};
    use hs_serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
    use std::sync::Arc;

    fn tiny_server(queue_capacity: usize) -> Server {
        let make = || {
            let mut rng = StdRng::seed_from_u64(0);
            Network::new(Sequential::new(vec![Box::new(Linear::new(4, 2, &mut rng))]))
        };
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", &mut make());
        Server::start(
            registry,
            "m",
            make,
            &[4],
            ServerConfig::new(1, queue_capacity, BatchPolicy::new(8, 200)),
        )
        .unwrap()
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let server = tiny_server(128);
        let outcome = closed_loop(&server.client(), 4, 10, &Tensor::ones(&[4]), None, None);
        assert_eq!(outcome.ok, 40);
        assert_eq!(outcome.rejected + outcome.expired, 0);
        assert_eq!(outcome.retries, 0);
        assert!(outcome.throughput_rps() > 0.0);
        assert_eq!(outcome.availability_excluding_shed(), 1.0);
        server.shutdown();
    }

    #[test]
    fn open_loop_accounts_for_every_request() {
        let server = tiny_server(128);
        let outcome = open_loop(&server.client(), 2_000.0, 50, &Tensor::ones(&[4]), None);
        assert_eq!(outcome.attempted(), 50);
        assert_eq!(outcome.ok + outcome.rejected, 50);
        server.shutdown();
    }

    #[test]
    fn retry_recovers_backpressure_rejections() {
        // a deliberately tiny queue: 8 threads hammering capacity 2 sees
        // plenty of Backpressure; with retries the final reject count drops
        // to (nearly) zero while every request stays accounted for
        let server = tiny_server(2);
        let retry = RetryPolicy::new(40, 7);
        let outcome = closed_loop(
            &server.client(),
            8,
            20,
            &Tensor::ones(&[4]),
            None,
            Some(&retry),
        );
        assert_eq!(outcome.attempted(), 160);
        assert_eq!(outcome.gave_up, outcome.rejected + outcome.shed);
        assert!(
            outcome.ok > 150,
            "retries should absorb almost all backpressure: {outcome:?}"
        );
        server.shutdown();
    }

    #[test]
    fn without_retry_the_same_overload_rejects() {
        let server = tiny_server(2);
        let outcome = closed_loop(&server.client(), 8, 20, &Tensor::ones(&[4]), None, None);
        assert_eq!(outcome.attempted(), 160);
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.gave_up, 0);
        assert!(
            outcome.rejected > 0,
            "8 clients on a capacity-2 queue must hit backpressure: {outcome:?}"
        );
        server.shutdown();
    }

    #[test]
    fn load_outcome_serialises_with_retry_counters() {
        let outcome = LoadOutcome {
            ok: 5,
            rejected: 1,
            expired: 0,
            shed: 2,
            aborted: 0,
            retries: 3,
            gave_up: 1,
            elapsed_ms: 1.5,
        };
        let text = serde::json::to_string(&outcome);
        assert!(text.contains("\"shed\":2"));
        assert!(text.contains("\"retries\":3"));
        assert!(text.contains("\"gave_up\":1"));
    }

    #[test]
    #[should_panic(expected = "max_attempts must be at least 1")]
    fn zero_attempt_retry_policy_is_rejected() {
        let _ = RetryPolicy::new(0, 0);
    }
}
