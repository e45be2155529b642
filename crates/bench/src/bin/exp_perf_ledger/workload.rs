//! What a driver workload supplies to the shared run skeleton (`run.rs`):
//! its seeded set-up, its simulation, its served model and its fixed work.
//! Both workloads run the paper's whole loop — set-up → FL rounds →
//! per-device evaluation → serve the global model — so both report every
//! end-to-end metric; they differ in which layers carry the time.

use crate::fl_phase::{RoundProbeSpec, TraceHooks};
use crate::serve_phase::ServeModel;
use hs_data::Dataset;
use hs_fl::{ClientSource, FlSimulation};
use hs_tensor::Tensor;
use std::sync::Arc;

/// The fixed work of one run. A pure function of `--seconds` (never of a
/// clock), so two commits measured with the same arguments do the same
/// work; the constants behind it were sized on the reference host so that
/// the timed phases together last about `--seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Timed repetitions of each phase (one more, discarded, runs first).
    pub reps: usize,
    /// Times the FL set-up is repeated (the serve set-up runs once per
    /// repetition).
    pub setup_reps: usize,
    /// `run_round` calls per repetition.
    pub rounds: usize,
    /// `evaluate_per_device` sweeps per repetition.
    pub eval_sweeps: usize,
    /// Requests per `sat` repetition (window 8).
    pub sat_requests: usize,
    /// `sat` repetitions per cycle, back to back on the same server: where
    /// a repetition is short against the cycle, more of them give the quiet
    /// composite more executions of every slice to choose from.
    pub sat_passes: usize,
    /// Requests per `solo` repetition (window 1).
    pub solo_requests: usize,
    /// Open-loop diagnostic rates (req/s): light, medium, overload.
    pub open_rates: [f64; 3],
    /// Length of each open-loop diagnostic phase.
    pub open_secs: f64,
}

/// Scales a per-second work constant by the run length, never below `min`.
pub fn scaled(per_second: f64, seconds: f64, min: usize) -> usize {
    ((per_second * seconds).round() as usize).max(min)
}

pub trait Workload {
    /// Everything the seeded set-up produces.
    type Inputs;

    const NAME: &'static str;
    /// Client minibatch size (also the batch of the `forward_backward`
    /// probe).
    const TRAIN_BATCH: usize;

    fn sizes(seconds: f64) -> Sizes;

    /// The FL set-up the product pays before the first round: dataset
    /// capture or fleet + source construction. Timed as part of `setup_s`.
    fn set_up(seed: u64) -> Self::Inputs;

    /// Fingerprint of the generated training inputs (equal across set-up
    /// repetitions of one seed).
    fn inputs_fingerprint(inputs: &Self::Inputs) -> u64;

    /// A fresh simulation over `inputs`; with hooks, every call it makes
    /// back into a layer goes through a traced wrapper.
    fn simulation(inputs: &Self::Inputs, hooks: Option<&Arc<TraceHooks>>) -> FlSimulation;

    /// The lazy client source, where the workload has one.
    fn source(inputs: &Self::Inputs) -> Option<Arc<dyn ClientSource>>;

    /// Arguments to replay a round's server-side steps (traced pass).
    fn round_probe(inputs: &Self::Inputs) -> RoundProbeSpec;

    /// Named per-device test sets for `evaluate_per_device`.
    fn device_tests(inputs: &Self::Inputs) -> &[(String, Dataset)];

    /// One real client dataset for the `nn`/`core` probes.
    fn probe_client(inputs: &Self::Inputs) -> Dataset;

    /// Bytes of client state resident between rounds.
    fn resident_client_bytes(inputs: &Self::Inputs) -> usize;

    fn serve_model() -> ServeModel;

    /// The 64 seeded samples the request generators cycle.
    fn request_pool(inputs: &Self::Inputs) -> Vec<Tensor>;
}

/// Size of the request pool.
pub const POOL: usize = 64;
