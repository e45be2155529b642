//! Where client training data comes from.
//!
//! The original [`FlSimulation`](crate::FlSimulation) constructor takes a
//! `Vec<ClientData>` — every client's dataset materialized up front, which
//! is O(fleet) resident memory and rules out 100k+ populations. A
//! [`ClientSource`] inverts that: the simulation holds only the O(bytes)
//! description and asks for a client's dataset **when that client is
//! sampled into a cohort**, dropping it again when local training
//! finishes. Metadata queries (`num_samples`, used for deadline costing)
//! must stay O(1) and allocation-free so the semi-sync scheduler can cost
//! an over-provisioned cohort without synthesizing anyone.

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
    use hs_device::{paper_devices, FleetSpec};
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
    }
}
