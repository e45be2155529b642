//! Fleet-scale federated rounds: lazy O(bytes) client state + sharded
//! tree-reduce aggregation exercised at 100k-client populations.
//!
//! The study builds a fleet spec over the paper's nine device types,
//! attaches the fault injector to the same spec (tier-dependent compute
//! factors for 100k clients without a per-client tier table), and runs
//! deadline-driven semi-synchronous rounds with a ~1k cohort drawn by the
//! O(cohort) stratified sampler. It reports:
//!
//! * **resident client-state bytes** — the lazy description's size, which
//!   is independent of fleet size (the tentpole memory claim; the
//!   root-level `fleet_scale` integration test asserts the allocator-level
//!   version of the same claim),
//! * **round wall-clock** at fleet sizes spanning 2k → 100k with the same
//!   cohort, demonstrating rounds cost O(cohort), not O(fleet),
//! * **replay determinism** — the whole faulted run is repeated and must
//!   reproduce stats and aggregated weights bit for bit.

use hs_data::LazyClientSet;
use hs_device::{paper_devices, FaultInjector, FaultPlan, FleetSpec};
use hs_fl::{
    AggregationMethod, CohortStrategy, FedAvgTrainer, FlConfig, FlSimulation, LossKind,
    ModelFactory, RoundStats, SemiSyncPolicy,
};
use hs_nn::{Flatten, Linear, Network, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for [`fleet_scale_study`].
#[derive(Debug, Clone)]
pub struct FleetScaleConfig {
    /// Fleet sizes to sweep (each runs the same cohort size).
    pub fleet_sizes: Vec<usize>,
    /// The fleet size whose run is replayed for the determinism check
    /// (must appear in `fleet_sizes`).
    pub replay_fleet: usize,
    /// Clients per round before over-provisioning.
    pub clients_per_round: usize,
    /// Communication rounds per fleet size.
    pub rounds: usize,
    /// Per-client sample range.
    pub samples: (usize, usize),
    /// Image edge length for the synthesized scenes.
    pub image_size: usize,
    /// Number of procedural classes.
    pub num_classes: usize,
    /// The fault mix.
    pub plan: FaultPlan,
    /// Semi-sync round policy.
    pub policy: SemiSyncPolicy,
    /// Base seed.
    pub seed: u64,
}

impl FleetScaleConfig {
    /// The headline configuration: 100k-client fleet, ~1k cohort
    /// (800 × 1.25 over-provision), two faulted semi-sync rounds, plus
    /// smaller fleets for the O(cohort) scaling comparison.
    pub fn quick() -> Self {
        FleetScaleConfig {
            fleet_sizes: vec![2_000, 20_000, 100_000],
            replay_fleet: 100_000,
            clients_per_round: 800,
            rounds: 2,
            samples: (2, 4),
            image_size: 8,
            num_classes: 4,
            plan: FaultPlan {
                seed: 0xF1EE7,
                straggler_rate: 0.2,
                straggler_slowdown: (2.0, 8.0),
                crash_rate: 0.05,
                transport_drop_rate: 0.03,
                corrupt_rate: 0.02,
            },
            policy: SemiSyncPolicy {
                over_provision: 1.25,
                deadline_factor: 2.0,
                norm_bound_factor: 8.0,
            },
            seed: 0xF1EE7,
        }
    }

    /// A seconds-scale configuration for unit tests.
    pub fn tiny() -> Self {
        let mut cfg = Self::quick();
        cfg.fleet_sizes = vec![500, 5_000];
        cfg.replay_fleet = 5_000;
        cfg.clients_per_round = 40;
        cfg.rounds = 1;
        cfg
    }

    /// Derives the per-fleet-size [`FlConfig`].
    fn fl_config(&self, fleet: usize) -> FlConfig {
        let mut config = FlConfig::tiny();
        config.num_clients = fleet;
        config.clients_per_round = self.clients_per_round;
        config.rounds = self.rounds;
        config.batch_size = 2;
        config.local_epochs = 1;
        config.seed = self.seed;
        config
    }
}

/// One fleet size's measurements.
#[derive(Debug, Clone, serde::ToJson)]
pub struct FleetSizeRow {
    /// Total clients described by the fleet spec.
    pub fleet_size: usize,
    /// Over-provisioned cohort actually selected each round.
    pub cohort_size: usize,
    /// Resident bytes of the lazy client description (spec + jitter
    /// profiles) — flat across fleet sizes.
    pub resident_client_bytes: usize,
    /// Mean wall-clock per round, milliseconds.
    pub round_ms: f64,
    /// Updates aggregated over all rounds.
    pub completed: usize,
    /// Cohort members dropped or rejected over all rounds (crash +
    /// transport + deadline + screen).
    pub dropped: usize,
}

/// The full study output.
#[derive(Debug, Clone, serde::ToJson)]
pub struct FleetScaleReport {
    /// One row per fleet size, in sweep order.
    pub rows: Vec<FleetSizeRow>,
    /// Whether the replayed run reproduced round stats and aggregated
    /// weights bit for bit.
    pub replay_bit_identical: bool,
    /// Round stats of the headline (largest) fleet's run.
    pub headline_rounds: Vec<RoundStats>,
}

/// Tiny MLP over the synthesized scenes — the model is deliberately small
/// so the harness measures round *mechanics* (sampling, synthesis,
/// training fan-out, screening, aggregation), not kernel throughput.
fn tiny_mlp(image_size: usize, classes: usize) -> ModelFactory {
    Box::new(move |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(3 * image_size * image_size, 16, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(16, classes, &mut rng)),
        ]))
    })
}

/// Builds the simulation for one fleet size.
fn build_simulation(cfg: &FleetScaleConfig, fleet_size: usize) -> (FlSimulation, usize) {
    let fleet = Arc::new(FleetSpec::from_profiles(
        fleet_size,
        &paper_devices(),
        cfg.samples,
        cfg.seed,
    ));
    let source = Arc::new(LazyClientSet::new(
        Arc::clone(&fleet),
        cfg.num_classes,
        cfg.image_size,
        cfg.seed,
    ));
    let resident = source.resident_bytes();
    let sim = FlSimulation::with_source(
        cfg.fl_config(fleet_size),
        source,
        tiny_mlp(cfg.image_size, cfg.num_classes),
        Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
        AggregationMethod::FedAvg,
    )
    .with_cohort_strategy(CohortStrategy::DeviceStratified)
    .with_faults(FaultInjector::with_fleet(cfg.plan, fleet), cfg.policy);
    (sim, resident)
}

/// Runs the fleet-scale study (see module docs).
pub fn fleet_scale_study(cfg: &FleetScaleConfig) -> FleetScaleReport {
    let mut rows = Vec::with_capacity(cfg.fleet_sizes.len());
    let mut headline_rounds = Vec::new();
    for &fleet_size in &cfg.fleet_sizes {
        let (mut sim, resident_client_bytes) = build_simulation(cfg, fleet_size);
        #[expect(
            clippy::disallowed_methods,
            reason = "the study reports each fleet size's wall-clock"
        )]
        let start = Instant::now();
        let history = sim.run();
        let elapsed = start.elapsed().as_secs_f64() * 1_000.0;
        let completed: usize = history.iter().map(|r| r.completed).sum();
        let dropped: usize = history
            .iter()
            .map(|r| {
                r.dropped_deadline + r.dropped_crash + r.dropped_transport + r.rejected_corrupt
            })
            .sum();
        rows.push(FleetSizeRow {
            fleet_size,
            cohort_size: history.first().map_or(0, |r| r.participants.len()),
            resident_client_bytes,
            round_ms: elapsed / cfg.rounds as f64,
            completed,
            dropped,
        });
        if fleet_size == *cfg.fleet_sizes.last().expect("non-empty sweep") {
            headline_rounds = history;
        }
    }

    // determinism: rebuild and rerun the replay fleet twice, compare bits
    let replay_bit_identical = {
        let (mut a, _) = build_simulation(cfg, cfg.replay_fleet);
        let (mut b, _) = build_simulation(cfg, cfg.replay_fleet);
        let ha = a.run();
        let hb = b.run();
        let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        ha == hb && bits(a.global_weights()) == bits(b.global_weights())
    };

    FleetScaleReport {
        rows,
        replay_bit_identical,
        headline_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_study_is_deterministic_and_flat_in_memory() {
        let cfg = FleetScaleConfig::tiny();
        let report = fleet_scale_study(&cfg);
        assert_eq!(report.rows.len(), 2);
        assert!(report.replay_bit_identical);
        // resident client state does not grow with the fleet
        assert_eq!(
            report.rows[0].resident_client_bytes,
            report.rows[1].resident_client_bytes
        );
        // every round actually aggregated most of the cohort
        for row in &report.rows {
            assert!(row.completed > 0, "{row:?}");
            assert!(row.cohort_size >= cfg.clients_per_round);
        }
    }

    #[test]
    fn configs_validate() {
        for cfg in [FleetScaleConfig::quick(), FleetScaleConfig::tiny()] {
            cfg.policy.validate();
            assert!(cfg.fleet_sizes.contains(&cfg.replay_fleet));
        }
    }
}
