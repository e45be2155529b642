//! The bounded MPMC admission queue at the front of the server.
//!
//! Admission control happens here: producers ([`crate::ServeClient`]) use
//! the non-blocking [`BoundedQueue::try_push`], which fails immediately with
//! the rejected item when the queue is full — the server turns that into a
//! `Backpressure` error instead of letting an overload grow an unbounded
//! backlog (and letting every queued request blow through its deadline).
//! Consumers (batcher workers) block until an item arrives or the queue
//! closes; the shutdown drain pops without waiting.
//!
//! The queue also keeps the books the batcher's close rule runs on, under
//! the same lock as the items so the two can never disagree: `outstanding`
//! counts requests admitted by [`BoundedQueue::try_push`] and not yet
//! counted out by [`BoundedQueue::finish`] (queued, held in an open batch,
//! or executing), and *demand* is the peak `outstanding` over the current
//! and the previous epoch, an epoch ending at every `finish`. A worker
//! holding a partial batch ([`BoundedQueue::pop_companion`]) stops waiting
//! the moment the queue is dry and `outstanding >= demand`: every request
//! recent history says can exist is already in the system, so no companion
//! is coming. A wait that runs out instead has disproved the history it
//! waited on, so demand is capped at what that batch did find until a batch
//! next closes with everyone present — otherwise the overlap the wait
//! itself creates (the next open-loop arrival lands while the late batch
//! still executes) reads as concurrency and every batch waits for ever
//! after.
//!
//! Built on `Mutex` + `Condvar` like the `hs_parallel` pool — the build
//! environment has no crates registry, so no crossbeam.

use hs_parallel::sync::{lock, wait, wait_timeout};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why [`BoundedQueue::try_push`] rejected an item. Carries the item back
/// so the caller can complete it with an error (or retry).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue holds `capacity` items: admission control triggered.
    Full(T),
    /// The queue was closed (server shutting down).
    Closed(T),
}

/// Outcome of a [`BoundedQueue::pop_timeout`].
#[derive(Debug)]
pub enum Popped<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue still empty (and open).
    Empty,
    /// The queue is closed **and** drained: no item will ever arrive again.
    Closed,
}

/// Outcome of a [`BoundedQueue::pop_companion`].
#[derive(Debug)]
pub enum Companion<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is dry and every request recent history says can exist is
    /// already in the system: waiting longer cannot grow the batch.
    AllPresent,
    /// The batch's close time passed with the queue still dry.
    TimedOut,
    /// The queue is closed **and** drained.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Requests admitted and not yet finished.
    outstanding: usize,
    /// Peak `outstanding` since the last `finish`.
    peak_now: usize,
    /// Peak `outstanding` of the epoch before that.
    peak_prev: usize,
    /// `outstanding` when a held batch last timed out; `usize::MAX` once a
    /// batch has closed all-present since.
    unmet_at: usize,
    /// Workers blocked in `pop_companion` holding a partial batch.
    holders: usize,
}

impl<T> QueueState<T> {
    /// `outstanding >= demand`. `outstanding` never exceeds `peak_now`, so
    /// a cold queue (both peaks 0) is trivially all-present.
    fn all_present(&self) -> bool {
        self.outstanding >= self.peak_now.max(self.peak_prev).min(self.unmet_at)
    }
}

/// A bounded multi-producer multi-consumer FIFO queue.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity queue rejects every
    /// request, which is never what a server configuration means).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                outstanding: 0,
                peak_now: 0,
                peak_prev: 0,
                unmet_at: usize::MAX,
                holders: 0,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests admitted and not yet [`finish`](BoundedQueue::finish)ed:
    /// queued, held in an open batch, or executing.
    pub fn outstanding(&self) -> usize {
        lock(&self.state).outstanding
    }

    /// Enqueues without blocking; fails with the item when the queue is at
    /// capacity (backpressure) or closed. Only a successful push counts
    /// towards [`BoundedQueue::outstanding`].
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`].
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = lock(&self.state);
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        state.outstanding += 1;
        state.peak_now = state.peak_now.max(state.outstanding);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Counts `n` popped items out of the system and ends the demand epoch.
    /// Callers count a request out *before* releasing whoever waits on it,
    /// so a closed-loop client's next push never overlaps its previous
    /// request in the books.
    pub fn finish(&self, n: usize) {
        let mut state = lock(&self.state);
        debug_assert!(n <= state.outstanding, "finished more than was admitted");
        state.outstanding = state.outstanding.saturating_sub(n);
        state.peak_prev = state.peak_now;
        state.peak_now = state.outstanding;
        // the demand just dropped: a partial batch held elsewhere may now
        // be complete
        let wake = state.holders > 0 && state.all_present();
        drop(state);
        if wake {
            self.not_empty.notify_all();
        }
    }

    /// Dequeues the oldest item, blocking up to `timeout` for one to
    /// arrive (forever when `now + timeout` is not representable). A closed
    /// queue keeps yielding its remaining items ([`Popped::Item`]) until
    /// drained, then reports [`Popped::Closed`] — so shutdown never strands
    /// accepted requests.
    pub fn pop_timeout(&self, timeout: Duration) -> Popped<T> {
        #[expect(
            clippy::disallowed_methods,
            reason = "a blocking pop's timeout is real time"
        )]
        let deadline = Instant::now().checked_add(timeout);
        match self.pop_until(deadline, false) {
            Companion::Item(item) => Popped::Item(item),
            Companion::Closed => Popped::Closed,
            Companion::TimedOut | Companion::AllPresent => Popped::Empty,
        }
    }

    /// Dequeues the next companion for a partial batch its caller holds:
    /// blocks until an item arrives, the queue is dry with everyone present
    /// (see the module docs), `close_at` passes (`None`: never), or the
    /// queue is closed and drained — whichever is first. Items are always
    /// taken before any reason to stop is considered.
    pub fn pop_companion(&self, close_at: Option<Instant>) -> Companion<T> {
        self.pop_until(close_at, true)
    }

    fn pop_until(&self, deadline: Option<Instant>, holding: bool) -> Companion<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Companion::Item(item);
            }
            if state.closed {
                return Companion::Closed;
            }
            if holding && state.all_present() {
                state.unmet_at = usize::MAX;
                // whoever took the last expected request is not necessarily
                // the only worker holding a partial batch: the others must
                // re-evaluate now, not at their close time
                if state.holders > 0 {
                    self.not_empty.notify_all();
                }
                return Companion::AllPresent;
            }
            #[expect(clippy::disallowed_methods, reason = "the remaining wait is real time")]
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                if holding {
                    // the companions the other holders wait for are the
                    // ones that just failed to come
                    state.unmet_at = state.outstanding;
                    if state.holders > 0 {
                        self.not_empty.notify_all();
                    }
                }
                return Companion::TimedOut;
            }
            state.holders += usize::from(holding);
            state = match left {
                None => wait(&self.not_empty, state),
                Some(left) => wait_timeout(&self.not_empty, state, left).0,
            };
            state.holders -= usize::from(holding);
        }
    }

    /// Closes the queue: every future push fails, every blocked consumer
    /// wakes, and remaining items stay poppable until drained.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_backpressure() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert!(matches!(q.pop_timeout(Duration::ZERO), Popped::Item(1)));
        q.try_push(3).unwrap();
        assert!(matches!(q.pop_timeout(Duration::ZERO), Popped::Item(2)));
        assert!(matches!(q.pop_timeout(Duration::ZERO), Popped::Item(3)));
        assert!(matches!(
            q.pop_timeout(Duration::from_micros(100)),
            Popped::Empty
        ));
    }

    #[test]
    fn only_admitted_items_count_as_outstanding() {
        let q = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert!(matches!(q.try_push(2), Err(PushError::Full(2))));
        assert_eq!(q.outstanding(), 1, "a Full push was never admitted");
        assert!(matches!(q.pop_timeout(Duration::ZERO), Popped::Item(1)));
        assert_eq!(q.outstanding(), 1, "popped is not finished");
        q.finish(1);
        assert_eq!(q.outstanding(), 0);
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(q.outstanding(), 0, "a Closed push was never admitted");
    }

    #[test]
    fn unrepresentable_timeout_waits_instead_of_overflowing() {
        // `Instant::now() + Duration::MAX` panics; the pop must not
        let q = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert!(matches!(q.pop_timeout(Duration::MAX), Popped::Item(1)));
        q.close();
        assert!(matches!(q.pop_timeout(Duration::MAX), Popped::Closed));
    }

    #[test]
    fn every_holder_wakes_when_the_last_expected_request_is_taken() {
        // history: 3 in the system at once
        let q = Arc::new(BoundedQueue::new(8));
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        for _ in 0..3 {
            assert!(matches!(q.pop_timeout(Duration::ZERO), Popped::Item(_)));
        }
        q.finish(3);
        // two workers each hold one request and wait for the third
        q.try_push(10).unwrap();
        q.try_push(11).unwrap();
        for _ in 0..2 {
            assert!(matches!(q.pop_timeout(Duration::ZERO), Popped::Item(_)));
        }
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the test bounds the holders' wait in real time"
                    )]
                    let close_at = Instant::now() + Duration::from_secs(30);
                    let mut taken = 0;
                    loop {
                        match q.pop_companion(Some(close_at)) {
                            Companion::Item(_) => taken += 1,
                            Companion::AllPresent => return taken,
                            other => panic!("holder stopped on {other:?}"),
                        }
                    }
                })
            })
            .collect();
        while lock(&q.state).holders < 2 {
            assert!(!holders.iter().any(|h| h.is_finished()), "a holder died");
            std::thread::yield_now();
        }
        // one of them takes it; the other must close too, now
        q.try_push(12).unwrap();
        let taken: usize = holders.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(taken, 1);
    }

    #[test]
    fn close_rejects_pushes_but_drains_items() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert!(matches!(q.pop_timeout(Duration::ZERO), Popped::Item(1)));
        assert!(matches!(q.pop_timeout(Duration::ZERO), Popped::Closed));
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match q2.pop_timeout(Duration::from_secs(5)) {
                    Popped::Item(v) => got.push(v),
                    Popped::Closed => return got,
                    Popped::Empty => panic!("5s timeout should not elapse"),
                }
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        q.try_push(7).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![7]);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(64));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let v = p * 1000 + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(PushError::Full(_)) => std::thread::yield_now(),
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match q.pop_timeout(Duration::from_millis(200)) {
                            Popped::Item(v) => got.push(v),
                            Popped::Closed => return got,
                            Popped::Empty => return got,
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expect: Vec<i32> = (0..4)
            .flat_map(|p| (0..100).map(move |i| p * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<i32>::new(0);
    }
}
