//! Cohort sampling strategies for the round loop.
//!
//! The original round loop sampled its cohort by shuffling the *entire*
//! client-id vector — O(fleet) time and memory per round, which caps fleet
//! size long before anything else does. [`CohortStrategy::Uniform`] and
//! [`CohortStrategy::DeviceStratified`] replace that with an O(cohort)
//! draw: a seeded 4-round Feistel network is a bijection on a power-of-two
//! id domain, and cycle-walking (re-applying the permutation until the
//! output lands below the population size) restricts it to a bijection on
//! `0..n` — so mapping positions `0, 1, 2, …, k−1` through it yields `k`
//! *distinct* uniform ids without materializing the other `n − k`.
//!
//! Every draw is a pure function of `(population, cohort, strata, seed)` —
//! no thread-count or iteration-order dependence — so fleet-scale rounds
//! replay bit-identically (see `docs/SCALE.md`).

#![deny(clippy::disallowed_types)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How a round's cohort is drawn from the client population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CohortStrategy {
    /// The legacy sampler: seed a `StdRng`, shuffle all `n` ids, take the
    /// prefix. Bit-compatible with the pre-fleet-scale round loop (and so
    /// [`FlSimulation::new`](crate::FlSimulation::new)'s default, which
    /// keeps recorded experiment numbers) — but O(fleet) per round.
    UniformShuffle,
    /// Uniform O(cohort) sampling via the seeded Feistel permutation;
    /// [`FlSimulation::with_source`](crate::FlSimulation::with_source)'s
    /// default. Ignores strata.
    Uniform,
    /// Heterogeneity-aware O(cohort) sampling: the cohort is divided across
    /// the source's device strata by largest-remainder quotas proportional
    /// to stratum size, then drawn uniformly within each stratum. Every
    /// sizeable device population is represented every round, so
    /// per-device-type statistics (and tier-dependent fault exposure) stay
    /// stable instead of fluctuating with the luck of the uniform draw.
    DeviceStratified,
}

impl CohortStrategy {
    /// Draws `cohort` distinct client ids from `0..num_clients`.
    ///
    /// `strata` are the population's device blocks (ignored except by
    /// [`CohortStrategy::DeviceStratified`]); ranges are clamped to the
    /// population, so a source describing more clients than the simulation
    /// uses still samples correctly. `seed` must already mix the round
    /// index (the round loop passes its per-round sampling seed).
    ///
    /// # Panics
    ///
    /// Panics if `cohort > num_clients`.
    pub fn sample(
        &self,
        num_clients: usize,
        cohort: usize,
        strata: &[Range<usize>],
        seed: u64,
    ) -> Vec<usize> {
        assert!(
            cohort <= num_clients,
            "cohort {cohort} exceeds population {num_clients}"
        );
        match self {
            CohortStrategy::UniformShuffle => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ids: Vec<usize> = (0..num_clients).collect();
                ids.shuffle(&mut rng);
                ids.truncate(cohort);
                ids
            }
            CohortStrategy::Uniform => (0..cohort)
                .map(|pos| feistel_sample(pos as u64, num_clients as u64, seed) as usize)
                .collect(),
            CohortStrategy::DeviceStratified => {
                // clamp strata to the simulated population and drop the
                // empties (a fleet spec may describe more clients)
                let strata: Vec<Range<usize>> = strata
                    .iter()
                    .map(|r| r.start.min(num_clients)..r.end.min(num_clients))
                    .filter(|r| !r.is_empty())
                    .collect();
                if strata.is_empty() {
                    return CohortStrategy::Uniform.sample(num_clients, cohort, &[], seed);
                }
                let sizes: Vec<usize> = strata.iter().map(|r| r.len()).collect();
                let quotas = largest_remainder_quotas(&sizes, cohort);
                let mut ids = Vec::with_capacity(cohort);
                for (t, (range, quota)) in strata.iter().zip(quotas).enumerate() {
                    let stratum_seed = seed ^ (t as u64).wrapping_mul(STRATUM_MIX);
                    for pos in 0..quota {
                        let local = feistel_sample(pos as u64, range.len() as u64, stratum_seed);
                        ids.push(range.start + local as usize);
                    }
                }
                ids
            }
        }
    }
}

/// Stream-separation constant for per-stratum sampling seeds (same mixing
/// family the fault injector and fleet spec use).
const STRATUM_MIX: u64 = 0xe703_7ed1_a0b4_28db;

/// The splitmix64 finalizer, used as the Feistel round function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps position `pos` (`< n`) to a unique id in `0..n` via a seeded
/// 4-round Feistel permutation with cycle-walking: the permutation acts on
/// the smallest even-bit power-of-two domain covering `n`, and out-of-range
/// outputs are fed back through until one lands inside `0..n`. Feeding the
/// output back stays within one cycle of the bijection, so distinct inputs
/// always produce distinct outputs; the expected walk is under 4 steps
/// because the domain is less than 4× the population.
fn feistel_sample(pos: u64, n: u64, seed: u64) -> u64 {
    debug_assert!(pos < n, "position must be inside the population");
    if n == 1 {
        return 0;
    }
    // half-width of the Feistel words; 2 * half bits cover n - 1
    let bits = 64 - (n - 1).leading_zeros();
    let half = bits.div_ceil(2);
    let mask = (1u64 << half) - 1;
    let mut y = pos;
    loop {
        let (mut l, mut r) = (y >> half, y & mask);
        for round in 0..4u64 {
            let f = splitmix64(seed ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ r) & mask;
            (l, r) = (r, l ^ f);
        }
        y = (l << half) | r;
        if y < n {
            return y;
        }
    }
}

/// Splits `k` draws across strata proportionally to their sizes with
/// largest-remainder rounding (ties broken by stratum index), never
/// exceeding a stratum's size. Requires `k <= Σ sizes`.
fn largest_remainder_quotas(sizes: &[usize], k: usize) -> Vec<usize> {
    let total: usize = sizes.iter().sum();
    debug_assert!(k <= total, "quota {k} exceeds population {total}");
    let mut quotas: Vec<usize> = sizes
        .iter()
        .map(|&s| (k as u128 * s as u128 / total as u128) as usize)
        .collect();
    // floor(k·s/total) <= s because k <= total, so no capping needed here;
    // only the remainder distribution below must respect stratum capacity.
    let mut order: Vec<(usize, u128)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| (i, (k as u128 * s as u128) % total as u128))
        .collect();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut leftover = k - quotas.iter().sum::<usize>();
    for &(i, _) in order.iter().cycle() {
        if leftover == 0 {
            break;
        }
        if quotas[i] < sizes[i] {
            quotas[i] += 1;
            leftover -= 1;
        }
    }
    quotas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_cohort(ids: &[usize], n: usize, k: usize) {
        assert_eq!(ids.len(), k);
        #[expect(
            clippy::disallowed_types,
            reason = "test-only distinctness check; only len() is read, never iterated"
        )]
        let distinct: std::collections::HashSet<usize> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), k, "cohort ids must be distinct");
        assert!(ids.iter().all(|&id| id < n), "ids must be in range");
    }

    #[test]
    fn uniform_shuffle_matches_the_legacy_sampler() {
        // the exact code the pre-fleet-scale round loop ran
        let seed = 0xDEAD ^ 3u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..50).collect();
        ids.shuffle(&mut rng);
        let legacy = ids[..12].to_vec();
        let got = CohortStrategy::UniformShuffle.sample(50, 12, &[], seed);
        assert_eq!(got, legacy);
    }

    #[test]
    fn uniform_draws_distinct_in_range_ids() {
        for (n, k) in [(1usize, 1usize), (7, 7), (100, 13), (100_000, 1000)] {
            let ids = CohortStrategy::Uniform.sample(n, k, &[], 42);
            assert_valid_cohort(&ids, n, k);
        }
    }

    #[test]
    fn uniform_full_draw_is_a_permutation() {
        let n = 97;
        let ids = CohortStrategy::Uniform.sample(n, n, &[], 7);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_is_deterministic_and_seed_sensitive() {
        let a = CohortStrategy::Uniform.sample(10_000, 100, &[], 9);
        let b = CohortStrategy::Uniform.sample(10_000, 100, &[], 9);
        let c = CohortStrategy::Uniform.sample(10_000, 100, &[], 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_spreads_over_the_population() {
        // 200 draws from 1000 ids should span most of the range
        let ids = CohortStrategy::Uniform.sample(1000, 200, &[], 3);
        let lo = ids.iter().filter(|&&id| id < 500).count();
        assert!(
            (40..160).contains(&lo),
            "a uniform draw should straddle the median: {lo}/200 below 500"
        );
    }

    #[test]
    fn stratified_respects_quotas() {
        let strata = vec![0..500usize, 500..800, 800..1000];
        let ids = CohortStrategy::DeviceStratified.sample(1000, 100, &strata, 5);
        assert_valid_cohort(&ids, 1000, 100);
        let per: Vec<usize> = strata
            .iter()
            .map(|r| ids.iter().filter(|&&id| r.contains(&id)).count())
            .collect();
        // proportional to 50% / 30% / 20%
        assert_eq!(per, vec![50, 30, 20]);
    }

    #[test]
    fn stratified_covers_every_nonempty_stratum() {
        // even a tiny stratum gets its remainder seat when big enough
        let strata = vec![0..980usize, 980..1000];
        let ids = CohortStrategy::DeviceStratified.sample(1000, 50, &strata, 1);
        assert!(
            ids.iter().any(|&id| id >= 980),
            "2% stratum seated: {ids:?}"
        );
    }

    #[test]
    fn stratified_clamps_strata_to_the_population() {
        // a fleet spec describing 1000 clients, simulated with only 100
        let strata = vec![0..600usize, 600..1000];
        let ids = CohortStrategy::DeviceStratified.sample(100, 20, &strata, 2);
        assert_valid_cohort(&ids, 100, 20);
    }

    #[test]
    fn stratified_full_draw_takes_everyone() {
        let strata = vec![0..6usize, 6..10];
        let mut ids = CohortStrategy::DeviceStratified.sample(10, 10, &strata, 8);
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn quotas_sum_and_respect_capacity() {
        let q = largest_remainder_quotas(&[5, 3, 2], 10);
        assert_eq!(q, vec![5, 3, 2]);
        let q = largest_remainder_quotas(&[997, 2, 1], 999);
        assert_eq!(q.iter().sum::<usize>(), 999);
        assert!(q[0] <= 997 && q[1] <= 2 && q[2] <= 1, "{q:?}");
    }

    #[test]
    #[should_panic(expected = "exceeds population")]
    fn oversized_cohort_is_rejected() {
        let _ = CohortStrategy::Uniform.sample(5, 6, &[], 0);
    }
}
