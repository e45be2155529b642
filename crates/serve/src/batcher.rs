//! Dynamic micro-batching: the policy and the batch-collection loop.
//!
//! The economics: one batched forward over `b` single-sample requests costs
//! far less than `b` per-sample forwards (the batched small-GEMM path packs
//! each weight panel once and fills its register strips across samples —
//! measured ~3.6× on the isolated skinny-GEMM shape, see `docs/PERF.md`).
//! The batcher buys that win with bounded extra latency, and only while
//! the wait can still pay. A batch opens with the first request a worker
//! dequeues and closes at the first of:
//!
//! * **full** — it holds [`BatchPolicy::max_batch`] requests;
//! * **everyone present** — the queue is dry and at least as many requests
//!   are in the system (queued, held in a batch or executing, on any
//!   worker) as were ever in it at once over the last two epochs, an epoch
//!   ending each time a batch's requests leave the system. Nothing says a
//!   companion can still arrive, so the batch ships. A cold server has
//!   seen nobody, so its first request never waits;
//! * **timed out** — [`BatchPolicy::max_wait`] passed since it opened.
//!
//! The middle rule is what keeps `max_wait` out of light-load latency: a
//! lone closed-loop client is always "everyone", four clients under
//! `max_batch 8` close on the fourth arrival. It is monotone against the
//! plain full-or-timed-out batcher it replaced: it can only close a batch
//! *earlier*, and only when the queue is empty, so a batch never ships
//! while a request it has room for is waiting, and saturated load (queue
//! never dry, or batches filling by size) behaves exactly as before. When
//! the recent peak overstates the present — eight clients drop to one, or
//! open-loop arrivals happened to overlap — a batch waits out `max_wait`
//! as it always did, and that timeout is itself the correction: what the
//! batch did find caps the demand until a batch next closes with everyone
//! present, by which time the stale epochs have aged out. The bookkeeping
//! lives under the queue lock ([`BoundedQueue::pop_companion`]).
//!
//! `max_batch = 1, max_wait = 0` degenerates to a plain FIFO server — the
//! same-run baseline the serving benches gate the batched configuration
//! against.

use crate::queue::{BoundedQueue, Companion, Popped};
use hs_obs::{instant_ns, now_ns, trace};
use std::time::{Duration, Instant};

/// The knobs of the dynamic batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// The largest batch worth running: a batch closes as soon as it holds
    /// this many requests.
    pub max_batch: usize,
    /// The most latency a batch may spend waiting for companions that
    /// recent load says exist but that have not arrived (the classic
    /// `max_wait_us` knob, held as a `Duration`; one too large to add to
    /// the clock means "no limit").
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// Creates a policy from the conventional `(max_batch, max_wait_us)`
    /// pair.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize, max_wait_us: u64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        BatchPolicy {
            max_batch,
            max_wait: Duration::from_micros(max_wait_us),
        }
    }

    /// The no-batching baseline: every request is its own batch.
    pub fn batch_of_one() -> Self {
        BatchPolicy::new(1, 0)
    }
}

/// Why a batch closed (see the module docs). The discriminant is the
/// `batch_collect` trace span's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// It reached `max_batch`.
    Full = 0,
    /// The queue ran dry with every expected request already in the system
    /// (or closed: nothing can arrive any more).
    AllPresent = 1,
    /// `max_wait` passed.
    TimedOut = 2,
}

/// Outcome of one [`collect_batch`] call.
#[derive(Debug)]
pub enum Collected<T> {
    /// A non-empty batch and why it closed.
    Batch(Vec<T>, CloseReason),
    /// The queue is closed and fully drained: time to exit.
    Closed,
}

/// Collects the next micro-batch from `queue` under `policy`.
///
/// Blocks until the first request arrives (or the queue is closed and
/// drained); once one arrives, keeps popping until the batch closes
/// (module docs). Requests already waiting in the queue coalesce
/// immediately — the wait only pays when the queue runs dry mid-batch with
/// expected companions missing. Traced as a `batch_collect` span from the
/// first request to the close, so idle time records nothing.
pub fn collect_batch<T>(queue: &BoundedQueue<T>, policy: &BatchPolicy) -> Collected<T> {
    let first = match queue.pop_timeout(Duration::MAX) {
        Popped::Item(item) => item,
        // an unbounded wait ends only with an item or a closed, drained queue
        Popped::Empty | Popped::Closed => return Collected::Closed,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the batch window is measured in real time"
    )]
    let opened = Instant::now();
    let close_at = opened.checked_add(policy.max_wait);
    let mut batch = Vec::with_capacity(policy.max_batch);
    batch.push(first);
    let reason = loop {
        if batch.len() >= policy.max_batch {
            break CloseReason::Full;
        }
        match queue.pop_companion(close_at) {
            Companion::Item(item) => batch.push(item),
            Companion::AllPresent | Companion::Closed => break CloseReason::AllPresent,
            Companion::TimedOut => break CloseReason::TimedOut,
        }
    };
    if trace::enabled() {
        let from = instant_ns(opened);
        trace::span_at("batch_collect", from, now_ns(), 0, reason as u64);
    }
    Collected::Batch(batch, reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn batch<T: std::fmt::Debug>(collected: Collected<T>) -> (Vec<T>, CloseReason) {
        match collected {
            Collected::Batch(items, reason) => (items, reason),
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    /// A queue whose recent history says `demand` requests exist: they were
    /// all in the system at once, and have since left it.
    fn queue_with_demand(demand: usize) -> BoundedQueue<i32> {
        let q = BoundedQueue::new(64);
        if demand > 0 {
            for _ in 0..demand {
                q.try_push(-1).unwrap();
            }
            let (items, _) = batch(collect_batch(&q, &BatchPolicy::new(demand, 0)));
            assert_eq!(items.len(), demand);
            q.finish(demand);
        }
        q
    }

    #[test]
    fn queued_requests_coalesce_up_to_max_batch() {
        let q = BoundedQueue::new(16);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let policy = BatchPolicy::new(4, 10_000);
        assert_eq!(
            batch(collect_batch(&q, &policy)),
            (vec![0, 1, 2, 3], CloseReason::Full)
        );
        assert_eq!(
            batch(collect_batch(&q, &policy)),
            (vec![4], CloseReason::AllPresent)
        );
    }

    #[test]
    fn a_lone_request_on_a_cold_server_ships_without_waiting() {
        let q = BoundedQueue::new(16);
        q.try_push(1).unwrap();
        let policy = BatchPolicy::new(8, 50_000); // 50 ms
        #[expect(clippy::disallowed_methods, reason = "the test times the batch window")]
        let t0 = Instant::now();
        assert_eq!(
            batch(collect_batch(&q, &policy)),
            (vec![1], CloseReason::AllPresent)
        );
        assert!(
            t0.elapsed() < Duration::from_millis(40),
            "waited for nobody"
        );
    }

    #[test]
    fn max_wait_bounds_the_batch_building_delay() {
        // recent history saw 3 at once, only 1 is here: the batch waits for
        // the missing two, but never longer than max_wait
        let q = queue_with_demand(3);
        q.try_push(1).unwrap();
        let policy = BatchPolicy::new(8, 2_000); // 2 ms
        #[expect(clippy::disallowed_methods, reason = "the test times the batch window")]
        let t0 = Instant::now();
        assert_eq!(
            batch(collect_batch(&q, &policy)),
            (vec![1], CloseReason::TimedOut)
        );
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(2) && waited < Duration::from_millis(200),
            "waited {waited:?}, expected ~2ms"
        );
    }

    #[test]
    fn batch_closes_on_the_last_expected_arrival_not_at_max_wait() {
        // demand 3 < max_batch 8, max_wait an hour: only the third arrival
        // can close the batch
        let q = Arc::new(queue_with_demand(3));
        let collector = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                batch(collect_batch(&q, &BatchPolicy::new(8, 3_600_000_000)))
            })
        };
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        assert_eq!(
            collector.join().unwrap(),
            (vec![0, 1, 2], CloseReason::AllPresent)
        );
    }

    #[test]
    fn stale_demand_costs_at_most_two_timed_out_batches() {
        // eight clients drop to one
        let q = queue_with_demand(8);
        let policy = BatchPolicy::new(8, 1_000);
        let mut timed_out = 0;
        for i in 0..6 {
            q.try_push(i).unwrap();
            let (items, reason) = batch(collect_batch(&q, &policy));
            assert_eq!(items, vec![i]);
            q.finish(1);
            match reason {
                CloseReason::TimedOut => {
                    timed_out += 1;
                    assert_eq!(timed_out, i + 1, "a wait after the history aged out");
                }
                CloseReason::AllPresent => {}
                CloseReason::Full => panic!("a batch of 1 under max_batch 8 is not full"),
            }
        }
        assert!(
            timed_out <= 2,
            "{timed_out} lone batches waited out max_wait"
        );
    }

    #[test]
    fn a_prediction_that_timed_out_is_not_repeated() {
        // open-loop arrivals slower than max_wait + service: each late
        // batch is still executing when the next request lands, which
        // looks like two concurrent clients for ever unless the timeout
        // itself counts as evidence
        let q = queue_with_demand(2);
        let policy = BatchPolicy::new(8, 1_000);
        q.try_push(0).unwrap();
        assert_eq!(
            batch(collect_batch(&q, &policy)),
            (vec![0], CloseReason::TimedOut)
        );
        q.try_push(1).unwrap(); // lands while the late batch executes
        q.finish(1);
        assert_eq!(
            batch(collect_batch(&q, &policy)),
            (vec![1], CloseReason::AllPresent),
            "waited for the companion the last batch never got"
        );
        // shipped at once, it is done before the next arrival: no overlap
        // is left to mistake for a second client
        q.finish(1);
        q.try_push(2).unwrap();
        assert_eq!(
            batch(collect_batch(&q, &policy)),
            (vec![2], CloseReason::AllPresent)
        );
    }

    /// The monotonicity contract against the plain full-or-timed-out
    /// batcher: whatever the history, a batch takes every queued request
    /// it has room for (never closes early over a non-empty queue), and
    /// stops either at once (full, or everyone present) or at `max_wait`
    /// exactly where the old batcher did — never later.
    #[test]
    fn close_rule_only_ever_closes_an_empty_queue_earlier() {
        let max_wait = Duration::from_millis(2);
        for demand in [0usize, 1, 3, 8, 12] {
            for queued in [1usize, 2, 3, 8, 11] {
                for max_batch in [1usize, 4, 8] {
                    let q = queue_with_demand(demand);
                    for i in 0..queued {
                        q.try_push(i as i32).unwrap();
                    }
                    let policy = BatchPolicy::new(max_batch, 2_000);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the test times the batch window"
                    )]
                    let t0 = Instant::now();
                    let (items, reason) = batch(collect_batch(&q, &policy));
                    let took = t0.elapsed();
                    let case = format!("demand {demand} queued {queued} max_batch {max_batch}");
                    let expect: Vec<i32> = (0..queued.min(max_batch) as i32).collect();
                    assert_eq!(items, expect, "{case}");
                    let expect_reason = if queued >= max_batch {
                        CloseReason::Full
                    } else if queued >= demand {
                        CloseReason::AllPresent
                    } else {
                        CloseReason::TimedOut
                    };
                    assert_eq!(reason, expect_reason, "{case}");
                    if reason == CloseReason::TimedOut {
                        assert!(took >= max_wait, "{case}: closed before max_wait");
                    }
                    assert!(took < max_wait * 50, "{case}: held past max_wait, {took:?}");
                }
            }
        }
    }

    #[test]
    fn unrepresentable_max_wait_means_no_limit() {
        // `Instant + Duration::MAX` overflows; the batch must still form
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let policy = BatchPolicy {
            max_wait: Duration::MAX,
            ..BatchPolicy::new(2, 0)
        };
        assert_eq!(
            batch(collect_batch(&q, &policy)),
            (vec![1, 2], CloseReason::Full)
        );
    }

    #[test]
    fn batch_of_one_never_waits_for_companions() {
        let q = BoundedQueue::new(16);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(
            batch(collect_batch(&q, &BatchPolicy::batch_of_one())),
            (vec![1], CloseReason::Full)
        );
    }

    #[test]
    fn an_idle_collector_blocks_until_a_request_or_the_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let collect = || {
            let q = Arc::clone(&q);
            std::thread::spawn(move || collect_batch(&q, &BatchPolicy::new(4, 100)))
        };
        let waiting = collect();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiting.is_finished(), "returned from an empty, open queue");
        q.try_push(7).unwrap();
        assert_eq!(batch(waiting.join().unwrap()).0, vec![7]);
        let waiting = collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(matches!(waiting.join().unwrap(), Collected::Closed));
    }

    #[test]
    fn a_closed_queue_yields_what_it_holds_then_closed() {
        let q = BoundedQueue::new(4);
        q.try_push(8).unwrap();
        q.close();
        let policy = BatchPolicy::new(4, 100);
        assert_eq!(batch(collect_batch(&q, &policy)).0, vec![8]);
        assert!(matches!(collect_batch(&q, &policy), Collected::Closed));
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_max_batch_is_rejected() {
        let _ = BatchPolicy::new(0, 100);
    }
}
