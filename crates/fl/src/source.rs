//! Where client training data comes from.
//!
//! [`FlSimulation`](crate::FlSimulation) holds one [`ClientSource`] and asks
//! it for a client's dataset **when that client is sampled into a cohort**.
//! Two sources cover the paper's two populations:
//!
//! * `Vec<ClientData>` — the resident population (the captured nine-device
//!   fleet): every dataset is built up front, and
//!   [`with_dataset`](ClientSource::with_dataset) lends the stored one, so
//!   a round copies no client data.
//! * [`LazyClientSet`] — the fleet-scale population: only the O(bytes)
//!   description is resident, a sampled client's dataset is synthesized for
//!   its local update and dropped when training finishes.
//!
//! Metadata queries (`num_samples`, used for deadline costing) must stay
//! O(1) and allocation-free so the semi-sync scheduler can cost an
//! over-provisioned cohort without synthesizing anyone.

use crate::ClientData;
use hs_data::{Dataset, LazyClientSet};
use std::ops::Range;

/// An on-demand provider of per-client training data (see module docs).
///
/// Implementations must be deterministic: `materialize(id)` returns
/// bit-identical data on every call, in any order, from any thread — that
/// is what makes fleet-scale rounds exactly replayable.
pub trait ClientSource: Send + Sync {
    /// Number of clients this source describes.
    fn num_clients(&self) -> usize;

    /// Number of local samples `client_id` owns, **without** synthesizing
    /// the data. O(1); used for deadline cost modelling every round.
    fn num_samples(&self, client_id: usize) -> usize;

    /// Produces `client_id`'s local dataset. Called only for sampled
    /// clients; the caller drops the dataset when training completes.
    fn materialize(&self, client_id: usize) -> Dataset;

    /// Runs `f` over `client_id`'s dataset: the round loop's only data
    /// access. Defaults to `f(&self.materialize(client_id))`, so the
    /// dataset lives exactly as long as the call; a source that holds its
    /// datasets lends them instead.
    fn with_dataset(&self, client_id: usize, f: &mut dyn FnMut(&Dataset)) {
        f(&self.materialize(client_id));
    }

    /// The population's device strata (contiguous client-id ranges per
    /// device type), for heterogeneity-aware cohort sampling. Defaults to
    /// one stratum covering everyone.
    #[allow(
        clippy::single_range_in_vec_init,
        reason = "one all-covering stratum, not a collected range"
    )]
    fn strata(&self) -> Vec<Range<usize>> {
        vec![0..self.num_clients()]
    }
}

/// The resident population: client `i` is `self[i]`.
impl ClientSource for Vec<ClientData> {
    fn num_clients(&self) -> usize {
        self.len()
    }

    fn num_samples(&self, client_id: usize) -> usize {
        self[client_id].data.len()
    }

    fn materialize(&self, client_id: usize) -> Dataset {
        self[client_id].data.clone()
    }

    fn with_dataset(&self, client_id: usize, f: &mut dyn FnMut(&Dataset)) {
        f(&self[client_id].data);
    }
}

impl ClientSource for LazyClientSet {
    fn num_clients(&self) -> usize {
        LazyClientSet::num_clients(self)
    }

    fn num_samples(&self, client_id: usize) -> usize {
        LazyClientSet::num_samples(self, client_id)
    }

    fn materialize(&self, client_id: usize) -> Dataset {
        self.synthesize(client_id)
    }

    fn strata(&self) -> Vec<Range<usize>> {
        self.fleet().strata()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_data::Labels;
    use hs_device::{paper_devices, FleetSpec};
    use hs_tensor::Tensor;
    use std::sync::Arc;

    #[test]
    fn lazy_client_set_is_a_client_source() {
        let fleet = Arc::new(FleetSpec::from_profiles(500, &paper_devices(), (2, 4), 1));
        let set = LazyClientSet::new(fleet, 4, 8, 1);
        let source: &dyn ClientSource = &set;
        assert_eq!(source.num_clients(), 500);
        assert_eq!(source.strata().len(), 9);
        let id = 123;
        assert_eq!(source.materialize(id).len(), source.num_samples(id));
        let mut lent = 0;
        source.with_dataset(id, &mut |data| lent = data.len());
        assert_eq!(lent, source.num_samples(id));
    }

    #[test]
    fn resident_clients_lend_the_stored_dataset() {
        let clients: Vec<ClientData> = (0..3)
            .map(|id| ClientData {
                id,
                device: format!("dev-{id}"),
                data: Dataset::new(
                    (0..id + 1).map(|_| Tensor::zeros(&[2])).collect(),
                    Labels::Classes(vec![0; id + 1]),
                ),
            })
            .collect();
        let source: &dyn ClientSource = &clients;
        assert_eq!(source.num_clients(), 3);
        assert_eq!(source.strata(), vec![0..3]);
        for (id, client) in clients.iter().enumerate() {
            assert_eq!(source.num_samples(id), id + 1);
            let mut calls = 0;
            source.with_dataset(id, &mut |data| {
                assert!(std::ptr::eq(data, &client.data), "client {id} was copied");
                calls += 1;
            });
            assert_eq!(calls, 1);
        }
    }
}
