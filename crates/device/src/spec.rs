//! O(bytes) fleet descriptions for fleet-scale federated simulation.
//!
//! A 100k–1M client fleet cannot afford one materialized dataset — or even
//! one allocated struct — per client. [`FleetSpec`] describes the whole
//! fleet in O(device-types) memory: clients are assigned to device types in
//! contiguous blocks sized by market share (largest-remainder rounding, the
//! same rule `hs_data::assign_clients_by_share` uses), and everything else
//! about a client — its sample count, its dataset seed, its tier — is a
//! pure O(1) function of `(fleet seed, client id)`. [`FleetSpec::client`]
//! returns the per-client [`ClientSpec`] a simulation materializes a
//! dataset from *only when the client is sampled into a cohort*.
//!
//! Determinism contract: every derived quantity is a pure function of the
//! constructor arguments, so two [`FleetSpec`]s built from the same inputs
//! answer every query bit-identically — which is what lets 100k-cohort
//! rounds replay exactly.

#![deny(clippy::disallowed_types)]

use crate::{DeviceProfile, Tier};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Splitmix64-style mixing constants (same family the fault injector and
/// the FL round loop use for deriving independent streams from one seed).
const CLIENT_MIX: u64 = 0x9e37_79b9_7f4a_7c15;
const SAMPLES_MIX: u64 = 0xd6e8_feb8_6659_fd93;
const DATA_MIX: u64 = 0xa076_1d64_78bd_642f;

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One device type in a [`FleetSpec`]: the population-level description a
/// client block derives from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceTypeSpec {
    /// Device type name (used as the per-device evaluation group).
    pub name: String,
    /// Performance tier (feeds the fault injector's compute factors).
    pub tier: Tier,
    /// Market share in `[0, 1]`; shares are normalised over the fleet.
    pub share: f32,
}

/// An O(bytes) description of one client, derived on demand from a
/// [`FleetSpec`] — never stored per client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSpec {
    /// Stable client identifier in `0..fleet.num_clients()`.
    pub id: usize,
    /// Index of the client's device type within [`FleetSpec::types`].
    pub device_type: usize,
    /// The device type's performance tier.
    pub tier: Tier,
    /// Number of local training samples this client owns.
    pub num_samples: usize,
    /// Seed its dataset is synthesized from.
    pub data_seed: u64,
}

/// An entire simulated device fleet in O(device-types) resident memory.
///
/// Clients `0..num_clients` are partitioned into contiguous per-device-type
/// blocks via largest-remainder rounding of the (normalised) market shares;
/// [`FleetSpec::client`] derives a [`ClientSpec`] in O(log types).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    seed: u64,
    num_clients: usize,
    samples_min: usize,
    samples_max: usize,
    types: Vec<DeviceTypeSpec>,
    /// `offsets[t]..offsets[t + 1]` is device type `t`'s client block.
    offsets: Vec<usize>,
}

impl FleetSpec {
    /// Builds a fleet of `num_clients` clients over the given device types,
    /// with per-client sample counts drawn uniformly from `samples` (an
    /// inclusive range) off the fleet seed.
    ///
    /// # Panics
    ///
    /// Panics if there are no clients, no device types, a non-positive
    /// total share, or an empty/inverted sample range.
    pub fn new(
        num_clients: usize,
        types: Vec<DeviceTypeSpec>,
        samples: (usize, usize),
        seed: u64,
    ) -> Self {
        assert!(num_clients > 0, "fleet needs at least one client");
        assert!(!types.is_empty(), "fleet needs at least one device type");
        let (samples_min, samples_max) = samples;
        assert!(
            samples_min >= 1 && samples_min <= samples_max,
            "sample range must satisfy 1 <= min <= max, got {samples_min}..={samples_max}"
        );
        let total_share: f32 = types.iter().map(|t| t.share.max(0.0)).sum();
        assert!(
            total_share > 0.0,
            "device shares must sum to a positive value"
        );

        // largest-remainder assignment of clients to device types, in
        // contiguous blocks (block order = type order). Exactly the rounding
        // rule hs_data::assign_clients_by_share applies, minus the shuffle —
        // contiguity is what makes id -> type a binary search and per-type
        // strata plain ranges.
        let mut counts: Vec<usize> = Vec::with_capacity(types.len());
        let mut remainders: Vec<(usize, f32)> = Vec::with_capacity(types.len());
        let mut assigned = 0usize;
        for (t, ty) in types.iter().enumerate() {
            let exact = num_clients as f32 * ty.share.max(0.0) / total_share;
            let base = exact.floor() as usize;
            counts.push(base);
            assigned += base;
            remainders.push((t, exact - base as f32));
        }
        remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut leftover = num_clients - assigned;
        for &(t, _) in remainders.iter().cycle() {
            if leftover == 0 {
                break;
            }
            counts[t] += 1;
            leftover -= 1;
        }

        let mut offsets = Vec::with_capacity(types.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        debug_assert_eq!(acc, num_clients);

        FleetSpec {
            seed,
            num_clients,
            samples_min,
            samples_max,
            types,
            offsets,
        }
    }

    /// Builds a fleet whose device types (name, tier, market share) come
    /// from real [`DeviceProfile`]s — e.g. [`crate::paper_devices`].
    pub fn from_profiles(
        num_clients: usize,
        profiles: &[DeviceProfile],
        samples: (usize, usize),
        seed: u64,
    ) -> Self {
        let types = profiles
            .iter()
            .map(|p| DeviceTypeSpec {
                name: p.name.clone(),
                tier: p.tier,
                share: p.market_share,
            })
            .collect();
        FleetSpec::new(num_clients, types, samples, seed)
    }

    /// Total number of clients in the fleet.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// The fleet seed every derived quantity mixes from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The device types, in block order.
    pub fn types(&self) -> &[DeviceTypeSpec] {
        &self.types
    }

    /// The contiguous client-id range owned by device type `t` — the
    /// stratum a heterogeneity-aware cohort sampler draws from.
    pub fn stratum(&self, t: usize) -> std::ops::Range<usize> {
        self.offsets[t]..self.offsets[t + 1]
    }

    /// All per-device-type client-id ranges, in block order (some possibly
    /// empty for tiny fleets with many types).
    pub fn strata(&self) -> Vec<std::ops::Range<usize>> {
        (0..self.types.len()).map(|t| self.stratum(t)).collect()
    }

    /// The device type owning `client_id` (O(log types) binary search).
    pub fn device_type_of(&self, client_id: usize) -> usize {
        assert!(
            client_id < self.num_clients,
            "client {client_id} out of range"
        );
        // partition_point returns the first offset > client_id; the block
        // index is one less
        self.offsets.partition_point(|&o| o <= client_id) - 1
    }

    /// The tier of `client_id`'s device type.
    pub fn tier_of(&self, client_id: usize) -> Tier {
        self.types[self.device_type_of(client_id)].tier
    }

    /// Derives the full [`ClientSpec`] for one client. O(log types), no
    /// allocation: everything is mixed from `(seed, client_id)`.
    pub fn client(&self, client_id: usize) -> ClientSpec {
        let device_type = self.device_type_of(client_id);
        let id_mix = (client_id as u64).wrapping_mul(CLIENT_MIX);
        let span = (self.samples_max - self.samples_min + 1) as u64;
        let num_samples =
            self.samples_min + (splitmix64(self.seed ^ SAMPLES_MIX ^ id_mix) % span) as usize;
        let data_seed = splitmix64(self.seed ^ DATA_MIX ^ id_mix);
        ClientSpec {
            id: client_id,
            device_type,
            tier: self.types[device_type].tier,
            num_samples,
            data_seed,
        }
    }

    /// Approximate resident bytes of this description (struct + heap). By
    /// construction this depends on the number of *device types*, never on
    /// `num_clients` — the property the fleet-scale memory tests assert.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .types
                .iter()
                .map(|t| std::mem::size_of::<DeviceTypeSpec>() + t.name.capacity())
                .sum::<usize>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
    }
}

/// Convenience alias: fleet specs are shared across the injector, the
/// sampler and the client source without duplication.
pub type SharedFleet = Arc<FleetSpec>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_devices;

    fn three_types() -> Vec<DeviceTypeSpec> {
        vec![
            DeviceTypeSpec {
                name: "low".into(),
                tier: Tier::Low,
                share: 0.5,
            },
            DeviceTypeSpec {
                name: "mid".into(),
                tier: Tier::Mid,
                share: 0.3,
            },
            DeviceTypeSpec {
                name: "high".into(),
                tier: Tier::High,
                share: 0.2,
            },
        ]
    }

    #[test]
    fn blocks_partition_the_fleet_by_share() {
        let fleet = FleetSpec::new(100, three_types(), (2, 4), 7);
        assert_eq!(fleet.stratum(0), 0..50);
        assert_eq!(fleet.stratum(1), 50..80);
        assert_eq!(fleet.stratum(2), 80..100);
        let total: usize = fleet.strata().iter().map(|r| r.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn largest_remainder_rounds_every_client_somewhere() {
        // shares that do not divide the fleet evenly
        let types = vec![
            DeviceTypeSpec {
                name: "a".into(),
                tier: Tier::Low,
                share: 1.0,
            },
            DeviceTypeSpec {
                name: "b".into(),
                tier: Tier::Mid,
                share: 1.0,
            },
            DeviceTypeSpec {
                name: "c".into(),
                tier: Tier::High,
                share: 1.0,
            },
        ];
        let fleet = FleetSpec::new(10, types, (1, 1), 0);
        let sizes: Vec<usize> = fleet.strata().iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4), "{sizes:?}");
    }

    #[test]
    fn device_type_lookup_matches_the_blocks() {
        let fleet = FleetSpec::new(1000, three_types(), (2, 4), 3);
        for t in 0..3 {
            let r = fleet.stratum(t);
            assert_eq!(fleet.device_type_of(r.start), t);
            assert_eq!(fleet.device_type_of(r.end - 1), t);
        }
        assert_eq!(fleet.tier_of(0), Tier::Low);
        assert_eq!(fleet.tier_of(999), Tier::High);
    }

    #[test]
    fn client_specs_are_deterministic_and_in_range() {
        let a = FleetSpec::new(10_000, three_types(), (2, 6), 42);
        let b = FleetSpec::new(10_000, three_types(), (2, 6), 42);
        for id in [0usize, 1, 17, 9_999] {
            let sa = a.client(id);
            assert_eq!(sa, b.client(id), "specs must replay");
            assert!((2..=6).contains(&sa.num_samples));
            assert_eq!(sa.id, id);
        }
        // different clients get different dataset seeds
        assert_ne!(a.client(0).data_seed, a.client(1).data_seed);
        // different fleet seeds give different dataset seeds
        let c = FleetSpec::new(10_000, three_types(), (2, 6), 43);
        assert_ne!(a.client(0).data_seed, c.client(0).data_seed);
    }

    #[test]
    fn sample_counts_spread_over_the_range() {
        let fleet = FleetSpec::new(1_000, three_types(), (2, 8), 5);
        #[expect(
            clippy::disallowed_types,
            reason = "test-only spread check; only len() is read, never iterated"
        )]
        let counts: std::collections::HashSet<usize> =
            (0..1_000).map(|id| fleet.client(id).num_samples).collect();
        assert!(counts.len() >= 5, "sample counts should spread: {counts:?}");
    }

    #[test]
    fn resident_bytes_are_independent_of_fleet_size() {
        let small = FleetSpec::new(1_000, three_types(), (2, 4), 1);
        let huge = FleetSpec::new(1_000_000, three_types(), (2, 4), 1);
        assert_eq!(small.resident_bytes(), huge.resident_bytes());
    }

    #[test]
    fn from_profiles_carries_the_paper_fleet() {
        let fleet = FleetSpec::from_profiles(100_000, &paper_devices(), (2, 4), 9);
        assert_eq!(fleet.types().len(), 9);
        // S6 owns the largest block (38% market share)
        let sizes: Vec<usize> = fleet.strata().iter().map(|r| r.len()).collect();
        let max_t = (0..9).max_by_key(|&t| sizes[t]).unwrap();
        assert_eq!(fleet.types()[max_t].name, "S6");
        assert!((sizes[max_t] as f32 / 100_000.0 - 0.38).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_fleet_is_rejected() {
        let _ = FleetSpec::new(0, three_types(), (1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "sample range")]
    fn inverted_sample_range_is_rejected() {
        let _ = FleetSpec::new(10, three_types(), (5, 2), 0);
    }
}
