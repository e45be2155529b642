//! Poison-recovering lock helpers shared across the workspace.
//!
//! Every `Mutex`/`Condvar` the serving engine and the FL round loop use
//! guards state that stays valid across a panicking holder: counters,
//! rings, FIFO queues, append-only version maps, update accumulators and
//! single-shot completion slots are all updated in place with no multi-step
//! invariants that a mid-update unwind could tear. A poisoned lock
//! therefore carries no information we need — but calling `.unwrap()` on it
//! would *cascade* one panicked thread into panics in every other thread
//! that touches the same lock, wedging queues, registries and waiting
//! clients. These helpers recover the guard via
//! [`PoisonError::into_inner`] instead, which is what lets a worker
//! supervisor treat a panicked worker as an isolated, restartable event.
//!
//! The helpers live in `hs-parallel` (a leaf of the runtime dependency
//! graph — its only workspace dependency is `hs-obs`, which carries its
//! own copy of this helper for the same reason) so both `hs-serve` and
//! `hs-fl` share one definition.

#![expect(
    clippy::disallowed_methods,
    reason = "the poison-recovering helpers are the one home of raw lock and wait calls"
)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Consumes `m` and returns its inner value, recovering it from a poisoned
/// lock.
pub fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] that recovers the guard from a poisoned lock.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] that recovers the guard from a poisoned lock.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_recovers_after_a_holder_panicked() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned(), "the panic must have poisoned the lock");
        assert_eq!(*lock(&m), 7, "helper still reads the value");
        *lock(&m) = 8;
        assert_eq!(*lock(&m), 8, "helper still writes through");
    }

    #[test]
    fn into_inner_recovers_after_a_holder_panicked() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        let m = Arc::into_inner(m).expect("sole owner");
        assert_eq!(into_inner(m), vec![1, 2, 3]);
    }
}
