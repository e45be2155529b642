//! Deterministic, seedable fault injection for the simulated device fleet.
//!
//! The paper's subject is *system-induced* heterogeneity, and real fleets
//! exhibit it on the systems axis too: slow devices, devices that vanish
//! mid-round, flaky uplinks and corrupted payloads. [`FaultPlan`] describes
//! a fleet-wide fault mix along those axes; [`FaultInjector`] turns it into
//! per-`(client, round)` outcomes that are a pure function of the plan's
//! seed — two runs with the same plan see bit-identical fault sequences,
//! which is what makes chaos experiments reproducible and debuggable.
//!
//! The injector also models *persistent* compute heterogeneity: each client
//! owns a fixed compute factor (optionally weighted by its device's
//! [`Tier`]), so the same clients are slow every round — matching how real
//! fleets behave, and what deadline-driven semi-synchronous FL rounds must
//! cope with.

#![deny(clippy::disallowed_types)]

use crate::{FleetSpec, Tier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Mixing constants for deriving independent per-(client, round) streams
/// from one seed (splitmix64-style odd multipliers, same family the FL
/// round loop uses).
const CLIENT_MIX: u64 = 0x9e37_79b9_7f4a_7c15;
const ROUND_MIX: u64 = 0xbf58_476d_1ce4_e5b9;
const FACTOR_MIX: u64 = 0x94d0_49bb_1331_11eb;

/// A fleet-wide fault mix: per-round probabilities for each failure axis.
///
/// The four rates are mutually exclusive per `(client, round)` draw (a
/// client crashes *or* straggles *or* loses its upload *or* corrupts its
/// update), so their sum must not exceed 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed every fault draw derives from.
    pub seed: u64,
    /// Probability a client is a compute straggler in a given round.
    pub straggler_rate: f32,
    /// Multiplicative slowdown range `(min, max)` sampled per straggler
    /// round (e.g. `(2.0, 10.0)`: a straggler runs 2–10× slower).
    pub straggler_slowdown: (f32, f32),
    /// Probability a client crashes mid-round (vanishes, no update).
    pub crash_rate: f32,
    /// Probability a client's update delivery fails in transport (the
    /// client finishes training but its upload is lost).
    pub transport_drop_rate: f32,
    /// Probability a client returns a corrupted weight vector.
    pub corrupt_rate: f32,
}

impl FaultPlan {
    /// The fault-free plan: every client is healthy every round.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            straggler_rate: 0.0,
            straggler_slowdown: (2.0, 10.0),
            crash_rate: 0.0,
            transport_drop_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }

    /// A plan with the given straggler/crash/corruption rates, the default
    /// 2–10× straggler slowdown and no transport faults.
    pub fn with_rates(seed: u64, straggler: f32, crash: f32, corrupt: f32) -> Self {
        FaultPlan {
            straggler_rate: straggler,
            crash_rate: crash,
            corrupt_rate: corrupt,
            ..FaultPlan::none(seed)
        }
    }

    /// Validates the plan.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`, the rates sum past 1, or the
    /// slowdown range is not `1.0 <= min <= max` and finite.
    pub fn validate(&self) {
        for (name, rate) in [
            ("straggler_rate", self.straggler_rate),
            ("crash_rate", self.crash_rate),
            ("transport_drop_rate", self.transport_drop_rate),
            ("corrupt_rate", self.corrupt_rate),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} must be in [0, 1], got {rate}"
            );
        }
        let total =
            self.straggler_rate + self.crash_rate + self.transport_drop_rate + self.corrupt_rate;
        assert!(
            total <= 1.0 + 1e-6,
            "fault rates are mutually exclusive and must sum to <= 1, got {total}"
        );
        let (lo, hi) = self.straggler_slowdown;
        assert!(
            lo.is_finite() && hi.is_finite() && 1.0 <= lo && lo <= hi,
            "straggler_slowdown must satisfy 1.0 <= min <= max, got ({lo}, {hi})"
        );
    }
}

/// How a corrupted update is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Corruption {
    /// NaN/infinity poisoning: a subset of weights becomes non-finite.
    NonFinite,
    /// Garbage values: a subset of weights is replaced with huge finite
    /// values (caught by a norm-bound screen, not a finiteness check).
    Garbage,
}

/// The system behaviour of one client in one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Completes normally at its baseline speed.
    Healthy,
    /// Completes, but this many times slower than its baseline.
    Straggler(f32),
    /// Vanishes mid-round: no update is ever delivered.
    Crash,
    /// Trains to completion but the update upload is lost.
    TransportDrop,
    /// Delivers an update whose weights were corrupted this way.
    Corrupt(Corruption),
}

/// Deterministic fault oracle over a [`FaultPlan`]: every query is a pure
/// function of `(plan.seed, client_id, round)`, so simulations replaying
/// the same plan observe the same faults in the same order regardless of
/// thread scheduling.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// The fleet whose device tiers scale the baseline compute factors
    /// (see [`FaultInjector::compute_factor`]); `None` is tier-agnostic.
    /// Tiers are derived on demand, in O(log device-types) per client.
    fleet: Option<Arc<FleetSpec>>,
}

impl FaultInjector {
    /// Creates an injector with tier-agnostic baseline compute factors.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid (see [`FaultPlan::validate`]).
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        FaultInjector { plan, fleet: None }
    }

    /// Creates an injector whose per-client baseline compute factors are
    /// additionally weighted by each client's device [`Tier`], read off an
    /// O(bytes) [`FleetSpec`]: a client in one of the fleet's device-type
    /// blocks gets that type's tier scaling (low-end 2×, mid 1.3×, high
    /// 1×) — the fleet's compute-heterogeneity axis feeding straight into
    /// round wall-clocks. Ids outside the fleet scale 1×.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid.
    pub fn with_fleet(plan: FaultPlan, fleet: Arc<FleetSpec>) -> Self {
        plan.validate();
        FaultInjector {
            plan,
            fleet: Some(fleet),
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn rng_for(&self, client_id: usize, round: usize, mix: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.plan.seed.wrapping_add(mix)
                ^ (client_id as u64).wrapping_mul(CLIENT_MIX)
                ^ (round as u64).wrapping_mul(ROUND_MIX),
        )
    }

    /// The fault (if any) client `client_id` experiences in `round`.
    pub fn fault(&self, client_id: usize, round: usize) -> FaultKind {
        let mut rng = self.rng_for(client_id, round, 0);
        let u: f32 = rng.gen();
        let p = &self.plan;
        let mut edge = p.crash_rate;
        if u < edge {
            return FaultKind::Crash;
        }
        edge += p.transport_drop_rate;
        if u < edge {
            return FaultKind::TransportDrop;
        }
        edge += p.corrupt_rate;
        if u < edge {
            return FaultKind::Corrupt(if rng.gen_bool(0.5) {
                Corruption::NonFinite
            } else {
                Corruption::Garbage
            });
        }
        edge += p.straggler_rate;
        if u < edge {
            let (lo, hi) = p.straggler_slowdown;
            let slow = if hi > lo { rng.gen_range(lo..hi) } else { lo };
            return FaultKind::Straggler(slow);
        }
        FaultKind::Healthy
    }

    /// The client's persistent baseline compute factor (1.0 = fleet
    /// median): a fixed per-client multiplier in `[0.6, 1.8)` (drawn from
    /// the plan seed), scaled by the client's device tier when the injector
    /// was built with [`FaultInjector::with_fleet`]. Slow clients
    /// stay slow across rounds.
    pub fn compute_factor(&self, client_id: usize) -> f32 {
        let mut rng = StdRng::seed_from_u64(
            self.plan.seed.wrapping_add(FACTOR_MIX) ^ (client_id as u64).wrapping_mul(CLIENT_MIX),
        );
        let base: f32 = rng.gen_range(0.6..1.8);
        let tier = self
            .fleet
            .as_ref()
            .filter(|fleet| client_id < fleet.num_clients())
            .map(|fleet| fleet.tier_of(client_id));
        let tier_scale = match tier {
            Some(Tier::Low) => 2.0,
            Some(Tier::Mid) => 1.3,
            Some(Tier::High) | None => 1.0,
        };
        base * tier_scale
    }

    /// Simulated wall-clock for one client's round: `base_cost` units of
    /// work (e.g. `num_samples × local_epochs`) at the client's baseline
    /// speed, times any straggler slowdown this round. Crashed clients
    /// return `f32::INFINITY` (they never finish).
    pub fn wall_clock(&self, client_id: usize, round: usize, base_cost: f32) -> f32 {
        let base = base_cost * self.compute_factor(client_id);
        match self.fault(client_id, round) {
            FaultKind::Straggler(slow) => base * slow,
            FaultKind::Crash => f32::INFINITY,
            _ => base,
        }
    }

    /// Corrupts a weight vector in place the way `kind` describes,
    /// deterministically for `(client_id, round)`. Roughly 10% of entries
    /// are poisoned (at least one).
    pub fn corrupt(&self, weights: &mut [f32], kind: Corruption, client_id: usize, round: usize) {
        if weights.is_empty() {
            return;
        }
        let mut rng = self.rng_for(client_id, round, 1);
        let mut hit = false;
        for w in weights.iter_mut() {
            if rng.gen_bool(0.1) {
                *w = match kind {
                    Corruption::NonFinite => {
                        if rng.gen_bool(0.5) {
                            f32::NAN
                        } else {
                            f32::INFINITY
                        }
                    }
                    Corruption::Garbage => rng.gen_range(-1.0e6..1.0e6),
                };
                hit = true;
            }
        }
        if !hit {
            weights[0] = match kind {
                Corruption::NonFinite => f32::NAN,
                Corruption::Garbage => 1.0e6,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_plan() -> FaultPlan {
        FaultPlan {
            seed: 42,
            straggler_rate: 0.3,
            straggler_slowdown: (2.0, 10.0),
            crash_rate: 0.1,
            transport_drop_rate: 0.05,
            corrupt_rate: 0.05,
        }
    }

    #[test]
    fn faults_are_deterministic_for_a_fixed_seed() {
        let a = FaultInjector::new(mixed_plan());
        let b = FaultInjector::new(mixed_plan());
        for client in 0..50 {
            for round in 0..20 {
                assert_eq!(a.fault(client, round), b.fault(client, round));
                assert_eq!(
                    a.wall_clock(client, round, 10.0),
                    b.wall_clock(client, round, 10.0)
                );
            }
        }
    }

    #[test]
    fn different_seeds_draw_different_fault_sequences() {
        let a = FaultInjector::new(FaultPlan::with_rates(1, 0.3, 0.2, 0.1));
        let b = FaultInjector::new(FaultPlan::with_rates(2, 0.3, 0.2, 0.1));
        let seq =
            |inj: &FaultInjector| -> Vec<FaultKind> { (0..200).map(|c| inj.fault(c, 0)).collect() };
        assert_ne!(seq(&a), seq(&b));
    }

    #[test]
    fn empirical_rates_match_the_plan() {
        let inj = FaultInjector::new(mixed_plan());
        let n = 20_000usize;
        let mut counts = [0usize; 5]; // healthy, straggler, crash, transport, corrupt
        for i in 0..n {
            let idx = match inj.fault(i % 100, i / 100) {
                FaultKind::Healthy => 0,
                FaultKind::Straggler(s) => {
                    assert!((2.0..=10.0).contains(&s), "slowdown {s} out of range");
                    1
                }
                FaultKind::Crash => 2,
                FaultKind::TransportDrop => 3,
                FaultKind::Corrupt(_) => 4,
            };
            counts[idx] += 1;
        }
        let frac = |c: usize| c as f32 / n as f32;
        assert!((frac(counts[1]) - 0.3).abs() < 0.02, "straggler {counts:?}");
        assert!((frac(counts[2]) - 0.1).abs() < 0.02, "crash {counts:?}");
        assert!(
            (frac(counts[3]) - 0.05).abs() < 0.01,
            "transport {counts:?}"
        );
        assert!((frac(counts[4]) - 0.05).abs() < 0.01, "corrupt {counts:?}");
    }

    #[test]
    fn fault_free_plan_is_always_healthy() {
        let inj = FaultInjector::new(FaultPlan::none(7));
        for client in 0..100 {
            assert_eq!(inj.fault(client, 3), FaultKind::Healthy);
            assert!(inj.wall_clock(client, 3, 5.0).is_finite());
        }
    }

    #[test]
    fn compute_factors_are_persistent_and_heterogeneous() {
        let inj = FaultInjector::new(FaultPlan::none(11));
        let factors: Vec<f32> = (0..50).map(|c| inj.compute_factor(c)).collect();
        // persistent: same answer every query
        assert_eq!(inj.compute_factor(7), factors[7]);
        // heterogeneous: the fleet genuinely spreads
        let min = factors.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = factors.iter().cloned().fold(0.0f32, f32::max);
        assert!(min >= 0.6 && max < 1.8);
        assert!(max / min > 1.5, "factors should spread: {min}..{max}");
    }

    #[test]
    fn tier_weighting_slows_low_end_clients() {
        use crate::{DeviceTypeSpec, FleetSpec};
        let plan = FaultPlan::none(3);
        let types = [Tier::Low, Tier::Mid, Tier::High]
            .into_iter()
            .map(|tier| DeviceTypeSpec {
                name: format!("{tier:?}"),
                tier,
                share: 1.0,
            })
            .collect();
        // one client per type: ids 0, 1, 2 are low, mid, high
        let fleet = Arc::new(FleetSpec::new(3, types, (1, 1), 0));
        let flat = FaultInjector::new(plan);
        let tiered = FaultInjector::with_fleet(plan, fleet);
        assert!(tiered.compute_factor(0) > flat.compute_factor(0));
        assert!(tiered.compute_factor(1) > flat.compute_factor(1));
        assert_eq!(tiered.compute_factor(2), flat.compute_factor(2));
        // an id outside the fleet is tier-agnostic
        assert_eq!(tiered.compute_factor(3), flat.compute_factor(3));
    }

    #[test]
    fn crashed_clients_never_finish() {
        let inj = FaultInjector::new(FaultPlan {
            crash_rate: 1.0,
            ..FaultPlan::none(0)
        });
        assert_eq!(inj.fault(0, 0), FaultKind::Crash);
        assert!(inj.wall_clock(0, 0, 1.0).is_infinite());
    }

    #[test]
    fn corruption_poisons_weights_deterministically() {
        let inj = FaultInjector::new(mixed_plan());
        let mut a = vec![0.5f32; 256];
        let mut b = vec![0.5f32; 256];
        inj.corrupt(&mut a, Corruption::NonFinite, 3, 9);
        inj.corrupt(&mut b, Corruption::NonFinite, 3, 9);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(a.iter().any(|v| !v.is_finite()), "NaN corruption must hit");

        let mut g = vec![0.5f32; 256];
        inj.corrupt(&mut g, Corruption::Garbage, 3, 9);
        assert!(g.iter().all(|v| v.is_finite()), "garbage stays finite");
        assert!(
            g.iter().any(|v| v.abs() > 1.0e3),
            "garbage must blow the norm"
        );

        // a single-element vector is still corrupted (the at-least-one rule)
        let mut tiny = vec![0.1f32];
        inj.corrupt(&mut tiny, Corruption::NonFinite, 0, 0);
        assert!(!tiny[0].is_finite());
    }

    #[test]
    #[should_panic(expected = "must sum to <= 1")]
    fn over_unit_rates_are_rejected() {
        FaultInjector::new(FaultPlan {
            straggler_rate: 0.6,
            crash_rate: 0.6,
            ..FaultPlan::none(0)
        });
    }

    #[test]
    #[should_panic(expected = "straggler_slowdown")]
    fn sub_unit_slowdown_is_rejected() {
        FaultInjector::new(FaultPlan {
            straggler_slowdown: (0.5, 2.0),
            ..FaultPlan::none(0)
        });
    }
}
