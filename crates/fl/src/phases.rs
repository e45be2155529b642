//! Round-phase tracing shims.
//!
//! The round loop in [`crate::simulation`] is a bit-exact module: clippy's
//! `disallowed_methods` bans wall-clock reads there (`docs/LINTS.md`) so
//! recorded experiment numbers replay bit-identically. Tracing, however,
//! *is* a wall-clock consumer — so the clock never appears in the round
//! loop itself. Instead the loop opens named phase spans through this module,
//! and all timestamping happens inside `hs-obs` (the one sanctioned
//! wall-clock home). When `HS_TRACE` is off the guards are inert: one
//! relaxed atomic load, no allocation, no clock read.
//!
//! Phase names emitted per round: `fl_round` (the whole round) with
//! children `cohort_draw`, `fault_triage`, `client_train`, `screen` and
//! `aggregate`. Every span carries the round index as its payload so a
//! Chrome-trace viewer can line rounds up against serving traffic.

use hs_obs::trace::{self, SpanGuard};

/// Opens a phase span named `name` carrying `round` as its payload.
///
/// The span records when the returned guard drops; while live it is the
/// parent of any span opened on the same thread, so `fl_round` naturally
/// adopts the phases opened inside it.
pub(crate) fn phase(name: &'static str, round: usize) -> SpanGuard {
    let guard = trace::span(name);
    guard.set_payload(round as u64);
    guard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_guards_nest_under_the_round_span() {
        let _serial = hs_obs::trace::test_guard();
        trace::set_enabled(true);
        trace::reset();
        {
            let _round = phase("fl_round", 7);
            let _draw = phase("cohort_draw", 7);
        }
        trace::set_enabled(false);
        let snap = trace::snapshot();
        let records: Vec<_> = snap.records().collect();
        let round = records.iter().find(|r| r.name == "fl_round").unwrap();
        let draw = records.iter().find(|r| r.name == "cohort_draw").unwrap();
        assert_eq!(draw.parent, round.span_id);
        assert_eq!(round.payload, 7);
        assert_eq!(draw.payload, 7);
    }

    #[test]
    fn disabled_phase_is_inert() {
        let _serial = hs_obs::trace::test_guard();
        trace::set_enabled(false);
        trace::reset();
        {
            let _p = phase("fl_round", 1);
        }
        assert_eq!(trace::snapshot().total_records(), 0);
    }
}
