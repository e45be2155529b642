//! The model registry: named, versioned checkpoint blobs and the atomic
//! hot-swap contract between a training loop and a server.
//!
//! A publisher (e.g. the FL simulation via its `checkpoint_every` hook)
//! calls [`ModelRegistry::publish`] with a fresh global model; the registry
//! serialises it to checkpoint bytes, assigns the next version number and
//! appends it under the model's name. A server's supervisor polls
//! [`ModelRegistry::latest`] every tick, builds a new version into one
//! network once and swaps it in for the next batch — every batch therefore
//! runs on exactly one published version, to completion (no torn weights;
//! pinned by the hot-swap atomicity test in `hs-serve`).
//!
//! Versions are retained (bounded by [`ModelRegistry::retain`]) so a sweep
//! can pin, compare or roll back to a specific version.

use hs_nn::Network;
use hs_parallel::sync::lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One published model version: an immutable checkpoint blob plus its
/// identity. Shared by `Arc`, so reading it never copies the blob — a
/// server deserialises straight from it, once per version.
#[derive(Debug)]
pub struct ModelVersion {
    /// Registry name the version was published under.
    pub name: String,
    /// Process-wide monotonic version number (1-based).
    pub version: u64,
    /// Checkpoint bytes (see `hs_nn`'s checkpoint format docs).
    pub bytes: Vec<u8>,
}

/// A named, versioned store of checkpoint blobs with atomic publication.
#[derive(Default)]
pub struct ModelRegistry {
    models: Mutex<HashMap<String, Vec<Arc<ModelVersion>>>>,
    next_version: AtomicU64,
    /// Maximum versions kept per name (oldest evicted first); 0 = unlimited.
    retain: usize,
}

impl ModelRegistry {
    /// Creates an empty registry keeping every published version.
    pub fn new() -> Self {
        ModelRegistry {
            models: Mutex::new(HashMap::new()),
            next_version: AtomicU64::new(1),
            retain: 0,
        }
    }

    /// Creates a registry keeping at most `retain` versions per model name
    /// (0 = unlimited). The latest version is never evicted.
    pub fn with_retention(retain: usize) -> Self {
        ModelRegistry {
            retain,
            ..ModelRegistry::new()
        }
    }

    /// Publishes pre-serialised checkpoint bytes under `name`, returning
    /// the assigned version number. The append is atomic: readers see
    /// either the registry before or after this version, never a partially
    /// published blob.
    pub fn publish_bytes(&self, name: &str, bytes: Vec<u8>) -> u64 {
        let mut models = lock(&self.models);
        // version assignment happens INSIDE the critical section: assigning
        // outside would let two concurrent publishers append out of order,
        // regressing latest() to the older model (and letting retention
        // evict the newer one)
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(ModelVersion {
            name: name.to_string(),
            version,
            bytes,
        });
        let versions = models.entry(name.to_string()).or_default();
        versions.push(entry);
        if self.retain > 0 && versions.len() > self.retain {
            let drop_n = versions.len() - self.retain;
            versions.drain(..drop_n);
        }
        version
    }

    /// Serialises `net` to checkpoint bytes and publishes them under
    /// `name`, returning the assigned version number.
    pub fn publish(&self, name: &str, net: &mut Network) -> u64 {
        self.publish_bytes(name, net.to_checkpoint_bytes())
    }

    /// The most recently published version under `name`, if any.
    pub fn latest(&self, name: &str) -> Option<Arc<ModelVersion>> {
        lock(&self.models).get(name).and_then(|v| v.last()).cloned()
    }

    /// The most recent version *number* under `name`.
    pub fn latest_version(&self, name: &str) -> Option<u64> {
        self.latest(name).map(|m| m.version)
    }

    /// A specific retained version under `name`.
    pub fn get(&self, name: &str, version: u64) -> Option<Arc<ModelVersion>> {
        lock(&self.models)
            .get(name)
            .and_then(|v| v.iter().find(|m| m.version == version))
            .cloned()
    }

    /// Retained version numbers under `name`, ascending.
    pub fn versions(&self, name: &str) -> Vec<u64> {
        lock(&self.models)
            .get(name)
            .map(|v| v.iter().map(|m| m.version).collect())
            .unwrap_or_default()
    }

    /// Every model name with at least one retained version, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.models).keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_nn::{Linear, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(Sequential::new(vec![Box::new(Linear::new(4, 3, &mut rng))]))
    }

    #[test]
    fn publish_assigns_monotonic_versions_and_latest_tracks() {
        let reg = ModelRegistry::new();
        let v1 = reg.publish("cnn", &mut tiny_net(1));
        let v2 = reg.publish("cnn", &mut tiny_net(2));
        let v3 = reg.publish("other", &mut tiny_net(3));
        assert!(v1 < v2 && v2 < v3);
        assert_eq!(reg.latest_version("cnn"), Some(v2));
        assert_eq!(reg.latest_version("other"), Some(v3));
        assert_eq!(reg.latest_version("missing"), None);
        assert_eq!(reg.versions("cnn"), vec![v1, v2]);
        assert_eq!(reg.names(), vec!["cnn".to_string(), "other".to_string()]);
    }

    #[test]
    fn published_bytes_load_back_into_a_replica() {
        let reg = ModelRegistry::new();
        let mut original = tiny_net(7);
        reg.publish("m", &mut original);
        let latest = reg.latest("m").unwrap();
        let mut replica = tiny_net(8);
        replica.load_checkpoint_bytes(&latest.bytes).unwrap();
        assert_eq!(replica.weights(), original.weights());
    }

    #[test]
    fn retention_evicts_oldest_but_keeps_latest() {
        let reg = ModelRegistry::with_retention(2);
        let _v1 = reg.publish("m", &mut tiny_net(1));
        let v2 = reg.publish("m", &mut tiny_net(2));
        let v3 = reg.publish("m", &mut tiny_net(3));
        assert_eq!(reg.versions("m"), vec![v2, v3]);
        assert_eq!(reg.latest_version("m"), Some(v3));
    }

    #[test]
    fn concurrent_publishers_never_tear_the_latest_pointer() {
        let reg = Arc::new(ModelRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        reg.publish("m", &mut tiny_net(t * 100 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.versions("m").len(), 40);
        // versions are strictly ascending in the retained list
        let versions = reg.versions("m");
        assert!(versions.windows(2).all(|w| w[0] < w[1]));
    }
}
