//! Lazy per-client dataset synthesis for fleet-scale federated simulation.
//!
//! A 100k-client fleet cannot hold one materialized [`Dataset`] per client:
//! at even a few KiB each that is gigabytes of resident tensors, almost all
//! of them never sampled into any cohort. [`LazyClientSet`] keeps only the
//! O(bytes) recipe — a shared [`hs_device::FleetSpec`] plus one
//! [`JitterProfile`] per device *type* — and synthesizes a client's dataset
//! from its [`ClientSpec`](hs_device::ClientSpec) seed **only when that
//! client is sampled**, letting the round loop drop the tensors again as
//! soon as local training finishes. Resident memory is therefore O(cohort),
//! independent of fleet size.
//!
//! Synthesis is a pure function of `(fleet seed, client id)`: the same
//! client always regenerates the same samples bit for bit, across rounds
//! and across processes — the property that keeps fleet-scale rounds
//! exactly replayable.

#![deny(clippy::disallowed_types)]

use crate::{Dataset, Labels, SceneGenerator};
use hs_device::{random_jitter_profiles, FleetSpec, JitterProfile, SharedFleet};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// An O(bytes) description of every client's local dataset, synthesized on
/// demand per sampled client (see the module docs).
///
/// Heterogeneity model: all clients share one procedural
/// [`SceneGenerator`]; each device *type* renders scenes through its own
/// [`JitterProfile`] (the paper's synthetic-CIFAR injection mechanism), so
/// clients on different device types see systematically different pixel
/// statistics for the same content.
#[derive(Debug, Clone)]
pub struct LazyClientSet {
    fleet: SharedFleet,
    generator: SceneGenerator,
    profiles: Vec<JitterProfile>,
    num_classes: usize,
}

impl LazyClientSet {
    /// Builds the client set over `fleet`, with `num_classes` procedural
    /// classes at `image_size` pixels and one jitter profile per device
    /// type derived from `jitter_seed`.
    pub fn new(
        fleet: SharedFleet,
        num_classes: usize,
        image_size: usize,
        jitter_seed: u64,
    ) -> Self {
        let generator = SceneGenerator::new(num_classes, image_size);
        // same constant build_jitter_datasets mixes in, so a LazyClientSet
        // and an eager jitter build with the same seed see the same profiles
        let profiles = random_jitter_profiles(fleet.types().len(), jitter_seed ^ 0xC1FA_0100);
        LazyClientSet {
            fleet,
            generator,
            profiles,
            num_classes,
        }
    }

    /// The underlying fleet description.
    pub fn fleet(&self) -> &FleetSpec {
        &self.fleet
    }

    /// A clone of the shared fleet handle (for wiring the same spec into a
    /// fault injector or sampler).
    pub fn shared_fleet(&self) -> SharedFleet {
        Arc::clone(&self.fleet)
    }

    /// Number of clients described.
    pub fn num_clients(&self) -> usize {
        self.fleet.num_clients()
    }

    /// Number of local samples `client_id` owns — O(1), no synthesis.
    pub fn num_samples(&self, client_id: usize) -> usize {
        self.fleet.client(client_id).num_samples
    }

    /// The device-type name `client_id` belongs to.
    pub fn device_name(&self, client_id: usize) -> &str {
        &self.fleet.types()[self.fleet.client(client_id).device_type].name
    }

    /// Synthesizes `client_id`'s local dataset: classes and scenes drawn
    /// from the client's `data_seed`, rendered through its device type's
    /// jitter profile. Deterministic per client; call it when the client is
    /// sampled, drop the result when training finishes.
    pub fn synthesize(&self, client_id: usize) -> Dataset {
        let spec = self.fleet.client(client_id);
        let profile = &self.profiles[spec.device_type];
        let mut rng = StdRng::seed_from_u64(spec.data_seed);
        let mut x = Vec::with_capacity(spec.num_samples);
        let mut y = Vec::with_capacity(spec.num_samples);
        for _ in 0..spec.num_samples {
            let class = rng.gen_range(0..self.num_classes);
            let img = profile.apply(&self.generator.generate(class, &mut rng));
            x.push(Tensor::from_vec(
                img.data,
                &[img.channels, img.height, img.width],
            ));
            y.push(class);
        }
        Dataset::new(x, Labels::Classes(y))
    }

    /// Approximate resident bytes of the description (fleet spec + jitter
    /// profiles + generator). Depends on the number of device types, never
    /// on the number of clients — the fleet-scale memory contract.
    pub fn resident_bytes(&self) -> usize {
        self.fleet.resident_bytes()
            + std::mem::size_of::<Self>()
            + self.profiles.capacity() * std::mem::size_of::<JitterProfile>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_device::paper_devices;

    fn tiny_set(num_clients: usize) -> LazyClientSet {
        let fleet = Arc::new(FleetSpec::from_profiles(
            num_clients,
            &paper_devices(),
            (2, 5),
            11,
        ));
        LazyClientSet::new(fleet, 4, 8, 11)
    }

    #[test]
    fn synthesis_is_deterministic_per_client() {
        let set = tiny_set(1000);
        let a = set.synthesize(437);
        let b = set.synthesize(437);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.x, b.x, "same client must regenerate identical tensors");
    }

    #[test]
    fn different_clients_get_different_data() {
        let set = tiny_set(1000);
        let a = set.synthesize(0);
        let b = set.synthesize(1);
        assert!(a.labels != b.labels || a.x != b.x);
    }

    #[test]
    fn sample_count_matches_the_spec_without_synthesis() {
        let set = tiny_set(200);
        for id in [0usize, 50, 199] {
            assert_eq!(set.synthesize(id).len(), set.num_samples(id));
            assert!((2..=5).contains(&set.num_samples(id)));
        }
    }

    #[test]
    fn tensors_have_image_shape_and_valid_labels() {
        let set = tiny_set(50);
        let ds = set.synthesize(7);
        assert_eq!(ds.x[0].dims(), &[3, 8, 8]);
        match &ds.labels {
            Labels::Classes(y) => assert!(y.iter().all(|&c| c < 4)),
            other => panic!("expected class labels, got {other:?}"),
        }
    }

    #[test]
    fn resident_bytes_are_independent_of_fleet_size() {
        let small = tiny_set(100);
        let huge = tiny_set(1_000_000);
        assert_eq!(small.resident_bytes(), huge.resident_bytes());
    }

    #[test]
    fn device_types_shape_the_rendition() {
        // two clients on different device types, forced to the same data
        // seed content check is awkward; instead check the profile lookup
        // path: names come from the paper fleet
        let set = tiny_set(1000);
        #[expect(
            clippy::disallowed_types,
            reason = "test-only coverage check; only len() is read, never iterated"
        )]
        let names: std::collections::HashSet<&str> = (0..1000)
            .step_by(97)
            .map(|id| set.device_name(id))
            .collect();
        assert!(names.len() >= 2, "a 1000-client fleet spans device types");
    }
}
