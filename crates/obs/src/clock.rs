//! The process-wide monotonic clock anchor.
//!
//! Every trace timestamp is nanoseconds since a single process-wide
//! [`Instant`] captured on first use. Using one anchor (instead of raw
//! `Instant`s) gives every thread the same epoch, which is what the Chrome
//! trace-event format needs (`ts` values are comparable across threads)
//! and what keeps span records at plain `u64`s — storable in the lock-free
//! ring without boxing.

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

#[expect(
    clippy::disallowed_methods,
    reason = "the process-wide anchor is the one clock every timestamp derives from"
)]
fn anchor() -> Instant {
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process-wide anchor (first call wins).
///
/// Monotonic and comparable across threads. Saturates at `u64::MAX`
/// (≈ 584 years), which is not a practical concern.
pub fn now_ns() -> u64 {
    let nanos = anchor().elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// Converts an [`Instant`] captured elsewhere (e.g. a request's enqueue
/// time in `crates/serve`) to nanoseconds on the same anchor timeline as
/// [`now_ns`]. Instants predating the anchor clamp to 0.
pub fn instant_ns(t: Instant) -> u64 {
    let a = anchor();
    match t.checked_duration_since(a) {
        Some(d) => u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic_and_anchored() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn instant_roundtrips_onto_anchor_timeline() {
        let before = now_ns();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test maps a raw Instant onto the anchor"
        )]
        let t = Instant::now();
        let after = now_ns();
        let ns = instant_ns(t);
        assert!(ns >= before && ns <= after, "{before} <= {ns} <= {after}");
    }

    #[test]
    fn pre_anchor_instant_clamps_to_zero() {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test maps a raw Instant onto the anchor"
        )]
        let t = Instant::now();
        // Force anchor initialisation after `t` was captured in a fresh
        // process this would clamp; in a shared test binary the anchor may
        // already exist, so only assert no panic and ordering sanity.
        let _ = now_ns();
        let ns = instant_ns(t);
        assert!(ns <= now_ns());
    }
}
