//! The chaos experiment: a fixed-seed fault mix driven against the full
//! FL → registry → serving closed loop.
//!
//! One run exercises every robustness mechanism the stack has at once:
//!
//! - the **FL side** trains the CIFAR-synth CNN under an
//!   [`hs_device::FaultPlan`] (stragglers, crashes, transport drops,
//!   corrupted updates) with deadline-driven semi-synchronous rounds and
//!   pre-aggregation screens ([`hs_fl::SemiSyncPolicy`]), publishing global
//!   checkpoints into an [`hs_serve::ModelRegistry`] as it goes;
//! - the **serving side** hot-swaps those checkpoints into a live
//!   dynamically batched server while a closed-loop load generator with
//!   retry/backoff ([`crate::serving_load::RetryPolicy`]) hammers it, and a
//!   worker panic is injected mid-run so the supervisor's respawn path runs
//!   under real traffic;
//! - the **report** compares faulty-run accuracy against a fault-free
//!   baseline of the same population and seeds, and computes served
//!   availability (completions over answerable requests, shed excluded).
//!
//! Everything on the FL side is deterministic in the seeds: two runs of the
//! same [`ChaosConfig`] produce bit-identical round histories and
//! accuracies (the serving-side latency numbers naturally vary with
//! scheduling). `exp chaos` runs it; `tests/chaos_e2e.rs`
//! asserts the acceptance bar at a small scale.

use super::federated::{population_from_datasets, run_fl_method, Method};
use crate::serving_load::{closed_loop, LoadOutcome, RetryPolicy};
use crate::Scale;
use hs_data::build_jitter_datasets;
use hs_device::{FaultInjector, FaultPlan};
use hs_fl::{AggregationMethod, FedAvgTrainer, FlSimulation, LossKind, RoundStats, SemiSyncPolicy};
use hs_metrics::mean;
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_serve::{BatchPolicy, MetricsSnapshot, ModelRegistry, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Configuration of one chaos run: the population scale, the fault mix, the
/// semi-sync round policy and the serving-load shape.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Dataset / FL scale (the CIFAR-synth population is built from
    /// `scale.cifar` with `scale.seed`).
    pub scale: Scale,
    /// The device-fleet fault mix.
    pub plan: FaultPlan,
    /// Deadline-driven semi-synchronous round policy.
    pub policy: SemiSyncPolicy,
    /// Publish a global checkpoint into the registry every this many rounds.
    pub checkpoint_every: usize,
    /// Fire [`Server::inject_worker_panic`] halfway through the load, so the
    /// supervisor's respawn path runs under traffic.
    pub inject_worker_panic: bool,
    /// Serving worker threads.
    pub workers: usize,
    /// Serving admission-queue capacity.
    pub queue_capacity: usize,
    /// Closed-loop load: concurrent clients.
    pub load_concurrency: usize,
    /// Closed-loop load: requests per client.
    pub load_per_client: usize,
    /// Retry budget per request (decorrelated-jitter backoff on
    /// `Backpressure`/`Shed`).
    pub retry_attempts: u32,
}

impl ChaosConfig {
    /// The paper-style chaos mix at the given scale: 30% stragglers
    /// (1.5–4× slowdown), 10% crashes, 5% corrupted updates, plus a 5%
    /// transport-drop rate and an injected worker panic.
    pub fn with_scale(scale: Scale) -> Self {
        let mut plan = FaultPlan::with_rates(scale.seed ^ 0xC4A05, 0.30, 0.10, 0.05);
        plan.transport_drop_rate = 0.05;
        plan.straggler_slowdown = (1.5, 4.0);
        ChaosConfig {
            scale,
            plan,
            policy: SemiSyncPolicy::default(),
            checkpoint_every: 1,
            inject_worker_panic: true,
            workers: 2,
            queue_capacity: 256,
            load_concurrency: 4,
            load_per_client: 150,
            retry_attempts: 50,
        }
    }

    /// Quick-scale chaos run (the CI smoke configuration).
    pub fn quick() -> Self {
        ChaosConfig::with_scale(Scale::quick())
    }

    /// Tiny-scale chaos run (integration tests; seconds).
    pub fn tiny() -> Self {
        let mut scale = Scale::tiny();
        // enough clients and rounds that partial-cohort aggregation has
        // something to aggregate every round under the 45% drop mix
        scale.fl.num_clients = 12;
        scale.fl.clients_per_round = 6;
        scale.fl.rounds = 6;
        scale.cifar.train_per_class = 4;
        ChaosConfig::with_scale(scale)
    }
}

/// The outcome of one chaos run, serialised by `exp chaos --json-out`.
#[derive(Debug, Clone, serde::ToJson)]
pub struct ChaosReport {
    /// Mean per-device accuracy of the fault-free baseline run.
    pub baseline_accuracy: f32,
    /// Mean per-device accuracy of the faulty semi-sync run.
    pub faulty_accuracy: f32,
    /// `baseline - faulty`, percentage points (negative when faults helped).
    pub accuracy_gap_pp: f32,
    /// Updates aggregated across all faulty rounds.
    pub completed: usize,
    /// Deadline drops across all faulty rounds.
    pub dropped_deadline: usize,
    /// Crash drops across all faulty rounds.
    pub dropped_crash: usize,
    /// Transport drops across all faulty rounds.
    pub dropped_transport: usize,
    /// Screen rejections across all faulty rounds.
    pub rejected_corrupt: usize,
    /// Per-round statistics of the faulty run (deterministic in the seeds).
    pub rounds: Vec<RoundStats>,
    /// Aggregated load-generator outcome (every request accounted for).
    pub load: LoadOutcome,
    /// Served availability: `ok / (ok + rejected + expired + aborted)` —
    /// shed requests excluded, per the brownout contract.
    pub availability: f64,
    /// Server metrics after the load (worker panics/restarts, shed, batch
    /// histogram).
    pub serving: MetricsSnapshot,
    /// `Server::in_flight()` after the load: admitted requests the server
    /// never counted out (0 unless one leaked).
    pub in_flight_after_load: usize,
}

fn serving_replica(vision: VisionConfig) -> impl Fn() -> hs_nn::Network + Send + Sync + Clone {
    move || {
        let mut rng = StdRng::seed_from_u64(7);
        build_vision_model(ModelKind::SimpleCnn, vision, &mut rng)
    }
}

/// Runs the chaos experiment: fault-free baseline, then the faulty
/// semi-sync FL run feeding a live server under retrying closed-loop load
/// with a mid-run injected worker panic.
pub fn chaos_study(cfg: &ChaosConfig) -> ChaosReport {
    cfg.plan.validate();
    let scale = &cfg.scale;
    let datasets = build_jitter_datasets(scale.cifar, scale.seed);
    let vision = VisionConfig::new(3, scale.cifar.num_classes, scale.cifar.image_size);
    let (clients, tests) = population_from_datasets(&datasets, scale, false);

    // --- baseline: the same population, seeds and trainer, no faults
    let baseline = run_fl_method(
        scale,
        Method::FedAvg,
        ModelKind::SimpleCnn,
        vision,
        clients.clone(),
        &tests,
    );

    // --- faulty run: semi-sync rounds publishing into a live registry
    let mut sim = FlSimulation::new(
        scale.fl,
        clients,
        super::model_factory(ModelKind::SimpleCnn, vision),
        Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
        AggregationMethod::FedAvg,
    )
    .with_faults(FaultInjector::new(cfg.plan), cfg.policy);

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("global", &mut sim.global_model());
    let input_dims = [3, scale.cifar.image_size, scale.cifar.image_size];
    let server = Server::start(
        Arc::clone(&registry),
        "global",
        serving_replica(vision),
        &input_dims,
        ServerConfig::new(cfg.workers, cfg.queue_capacity, BatchPolicy::new(8, 500)),
    )
    .expect("chaos server must start");

    let mut sample_rng = StdRng::seed_from_u64(scale.seed ^ 0x10AD);
    let sample = Tensor::rand_uniform(&input_dims, 0.0, 1.0, &mut sample_rng);
    let retry = RetryPolicy::new(cfg.retry_attempts, scale.seed ^ 0xBAC0FF);

    let (rounds, load) = std::thread::scope(|scope| {
        // load thread: half the requests, the injected panic, the other half
        // — so the supervisor respawn happens under live traffic while the
        // FL run keeps hot-swapping checkpoints in
        let load_handle = scope.spawn(|| {
            let client = server.client();
            let first = cfg.load_per_client / 2;
            let mut outcome = closed_loop(
                &client,
                cfg.load_concurrency,
                first,
                &sample,
                None,
                Some(&retry),
            );
            if cfg.inject_worker_panic {
                server.inject_worker_panic();
            }
            let second = closed_loop(
                &client,
                cfg.load_concurrency,
                cfg.load_per_client - first,
                &sample,
                None,
                Some(&retry),
            );
            outcome.ok += second.ok;
            outcome.rejected += second.rejected;
            outcome.expired += second.expired;
            outcome.shed += second.shed;
            outcome.aborted += second.aborted;
            outcome.retries += second.retries;
            outcome.gave_up += second.gave_up;
            outcome.elapsed_ms += second.elapsed_ms;
            outcome
        });
        let registry = Arc::clone(&registry);
        let rounds = sim.run_with_checkpoints(cfg.checkpoint_every, move |_done, model| {
            registry.publish("global", model);
        });
        (rounds, load_handle.join().expect("load thread panicked"))
    });

    let serving = server.metrics();
    let in_flight_after_load = server.in_flight();
    server.shutdown();

    let faulty_accs: Vec<f32> = sim
        .evaluate_per_device(&tests)
        .iter()
        .map(|g| g.accuracy)
        .collect();
    let faulty_accuracy = mean(&faulty_accs);
    let availability = load.availability_excluding_shed();

    let sum = |f: fn(&RoundStats) -> usize| rounds.iter().map(f).sum::<usize>();
    ChaosReport {
        baseline_accuracy: baseline.average,
        faulty_accuracy,
        accuracy_gap_pp: (baseline.average - faulty_accuracy) * 100.0,
        completed: sum(|r| r.completed),
        dropped_deadline: sum(|r| r.dropped_deadline),
        dropped_crash: sum(|r| r.dropped_crash),
        dropped_transport: sum(|r| r.dropped_transport),
        rejected_corrupt: sum(|r| r.rejected_corrupt),
        rounds,
        load,
        availability,
        serving,
        in_flight_after_load,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_config_presets_carry_the_paper_fault_mix() {
        for cfg in [ChaosConfig::quick(), ChaosConfig::tiny()] {
            cfg.plan.validate();
            assert_eq!(cfg.plan.straggler_rate, 0.30);
            assert_eq!(cfg.plan.crash_rate, 0.10);
            assert_eq!(cfg.plan.corrupt_rate, 0.05);
            assert_eq!(cfg.plan.transport_drop_rate, 0.05);
            assert!(cfg.inject_worker_panic);
        }
    }
}
