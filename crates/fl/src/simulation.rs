//! The federated-learning round loop.
//!
//! The loop reads client data through one [`ClientSource`], whatever the
//! population: a resident `Vec<ClientData>` ([`FlSimulation::new`]) lends
//! its stored datasets, an on-demand source ([`FlSimulation::with_source`])
//! synthesizes a sampled client's dataset for its local update only. The
//! two differ in their default cohort sampler, not in the round.
//!
//! Every network the loop runs inference on is fused
//! ([`Network::fuse_inference`]) where the loop builds it: each worker's
//! training replica, whose inference forward is a client's `L_init`
//! ([`crate::initial_loss`]), and the replica
//! [`FlSimulation::evaluate_per_device`] scores. That is the plan
//! `hs_serve` answers with, so the losses and accuracies the loop reports
//! are the served model's. Fusion leaves training and the weight layout bit
//! for bit as they are, so local SGD, aggregation and
//! [`FlSimulation::global_weights`] do not see it.
//! [`FlSimulation::global_model`] stays unfused: it is the checkpoint the
//! loop publishes.

#![deny(clippy::disallowed_types)]

use crate::{
    per_device_accuracy, screen_updates_sharded, AggregationMethod, ClientContext, ClientData,
    ClientSource, ClientTrainer, ClientUpdate, CohortStrategy, FlConfig,
};
use hs_data::Dataset;
use hs_device::{Corruption, FaultInjector, FaultKind};
use hs_metrics::GroupAccuracy;
use hs_nn::Network;
use hs_parallel::sync;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Builds a fresh, structurally identical model replica. The argument is a
/// seed for weight initialisation; replicas always have their weights
/// overwritten with the global model before use, so the seed only matters for
/// the very first global model.
pub type ModelFactory = Box<dyn Fn(u64) -> Network + Send + Sync>;

/// Policy knobs for deadline-driven semi-synchronous rounds (the fleet-
/// realistic round semantics: over-provision the cohort, wait until a
/// deadline, aggregate whoever made it).
///
/// Attached to an [`FlSimulation`] together with a
/// [`FaultInjector`] via [`FlSimulation::with_faults`]; without one the
/// simulation runs the classic fully synchronous round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemiSyncPolicy {
    /// Cohort over-provisioning: each round selects
    /// `ceil(clients_per_round × over_provision)` clients (capped at the
    /// population) so deadline drops still leave ≈ `clients_per_round`
    /// completions. Must be ≥ 1.
    pub over_provision: f32,
    /// The round deadline as a multiple of the cohort's *median fault-free*
    /// wall-clock: clients whose simulated time exceeds
    /// `deadline_factor × median` are dropped. Must be > 0.
    pub deadline_factor: f32,
    /// Norm-bound screen aggressiveness passed to
    /// [`screen_updates`](crate::screen_updates): updates whose delta norm
    /// exceeds this multiple of the cohort median are rejected before
    /// aggregation. `0` disables the norm screen (the non-finite screen
    /// always runs).
    pub norm_bound_factor: f32,
}

impl Default for SemiSyncPolicy {
    fn default() -> Self {
        SemiSyncPolicy {
            over_provision: 1.5,
            deadline_factor: 2.0,
            norm_bound_factor: 8.0,
        }
    }
}

impl SemiSyncPolicy {
    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `over_provision < 1`, `deadline_factor <= 0`, or
    /// `norm_bound_factor < 0` (or any knob is non-finite).
    pub fn validate(&self) {
        assert!(
            self.over_provision.is_finite() && self.over_provision >= 1.0,
            "over_provision must be >= 1, got {}",
            self.over_provision
        );
        assert!(
            self.deadline_factor.is_finite() && self.deadline_factor > 0.0,
            "deadline_factor must be positive, got {}",
            self.deadline_factor
        );
        assert!(
            self.norm_bound_factor.is_finite() && self.norm_bound_factor >= 0.0,
            "norm_bound_factor must be >= 0, got {}",
            self.norm_bound_factor
        );
    }
}

/// Summary statistics of one communication round.
///
/// The JSON shape (field order = declaration order) comes from
/// `#[derive(serde::ToJson)]` — the derive that replaced the hand-written
/// impl; `round_stats_json_shape_is_stable` pins the output.
///
/// In a fault-free fully synchronous round `completed == participants.len()`
/// and every drop/reject counter is zero; under [`FlSimulation::with_faults`]
/// the counters partition the cohort:
/// `completed + dropped_deadline + dropped_crash + dropped_transport +
/// rejected_corrupt == participants.len()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, serde::ToJson)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Sample-weighted mean of the aggregated clients' training losses
    /// (NaN if no update survived to aggregation).
    pub mean_train_loss: f32,
    /// Sample-weighted mean of the aggregated clients' initial losses
    /// (NaN if no update survived to aggregation).
    pub mean_init_loss: f32,
    /// The EMA of the aggregated training loss after this round
    /// (the paper's `L_EMA`).
    pub loss_ema: f32,
    /// Ids of the clients selected into the round's cohort (over-provisioned
    /// under semi-sync; not all of them necessarily completed).
    pub participants: Vec<usize>,
    /// Updates that were delivered, screened clean and aggregated.
    pub completed: usize,
    /// Clients dropped because their simulated wall-clock missed the round
    /// deadline (stragglers).
    pub dropped_deadline: usize,
    /// Clients that crashed mid-round and never reported back.
    pub dropped_crash: usize,
    /// Clients whose finished update was lost in transport.
    pub dropped_transport: usize,
    /// Delivered updates rejected by the pre-aggregation screens
    /// (non-finite weights/losses or norm-bound violations).
    pub rejected_corrupt: usize,
    /// Median simulated client wall-clock among clients that finished
    /// compute this round (0 when fault simulation is off).
    pub sim_time_p50: f32,
    /// 95th-percentile simulated client wall-clock — the straggler tail
    /// (0 when fault simulation is off).
    pub sim_time_p95: f32,
    /// Worst simulated client wall-clock (0 when fault simulation is off).
    pub sim_time_max: f32,
    /// The round deadline in the same simulated-time units
    /// (0 when fault simulation is off).
    pub deadline: f32,
}

/// The order a round's workers claim its trainees in: most samples first,
/// ties by ascending client id. A permutation of `trainees`; it decides only
/// which worker trains whom and when, never the numerics (updates are
/// re-sorted by client id before screening).
fn longest_first(trainees: &[usize], num_samples: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut order = trainees.to_vec();
    order.sort_by_cached_key(|&cid| (std::cmp::Reverse(num_samples(cid)), cid));
    order
}

/// A complete federated-learning simulation: clients, model, local-update
/// strategy and aggregation rule.
pub struct FlSimulation {
    config: FlConfig,
    clients: Arc<dyn ClientSource>,
    cohort_strategy: CohortStrategy,
    model_factory: ModelFactory,
    trainer: Box<dyn ClientTrainer>,
    aggregation: AggregationMethod,
    global_weights: Vec<f32>,
    loss_ema: f32,
    rounds_run: usize,
    faults: Option<(FaultInjector, SemiSyncPolicy)>,
}

impl FlSimulation {
    /// Creates a simulation over a resident population: every client's
    /// dataset is held for the whole run and lent to its local updates.
    /// The initial global model comes from `model_factory(config.seed)`.
    /// Draws cohorts with [`CohortStrategy::UniformShuffle`], the sampler
    /// every recorded experiment over a resident population used.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or there are fewer clients than
    /// `config.num_clients` requires.
    pub fn new(
        config: FlConfig,
        clients: Vec<ClientData>,
        model_factory: ModelFactory,
        trainer: Box<dyn ClientTrainer>,
        aggregation: AggregationMethod,
    ) -> Self {
        Self::with_source(
            config,
            Arc::new(clients),
            model_factory,
            trainer,
            aggregation,
        )
        .with_cohort_strategy(CohortStrategy::UniformShuffle)
    }

    /// Creates a simulation over any [`ClientSource`]; with an on-demand
    /// one (the **fleet-scale** path) resident client state is the source's
    /// O(bytes) description, and a sampled client's dataset exists only
    /// while its local update runs. Defaults to the O(cohort)
    /// [`CohortStrategy::Uniform`] sampler (see
    /// [`with_cohort_strategy`](Self::with_cohort_strategy)).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the source describes fewer
    /// clients than `config.num_clients` requires.
    pub fn with_source(
        config: FlConfig,
        clients: Arc<dyn ClientSource>,
        model_factory: ModelFactory,
        trainer: Box<dyn ClientTrainer>,
        aggregation: AggregationMethod,
    ) -> Self {
        config.validate();
        assert!(
            clients.num_clients() >= config.num_clients,
            "need at least {} clients, got {}",
            config.num_clients,
            clients.num_clients()
        );
        let mut initial = model_factory(config.seed);
        let global_weights = initial.weights();
        FlSimulation {
            config,
            clients,
            cohort_strategy: CohortStrategy::Uniform,
            model_factory,
            trainer,
            aggregation,
            global_weights,
            // NaN marks "no EMA yet": every comparison against it is false,
            // so bias-gated strategies stay conservative in round 0.
            loss_ema: f32::NAN,
            rounds_run: 0,
            faults: None,
        }
    }

    /// Replaces the cohort sampling strategy (e.g.
    /// [`CohortStrategy::DeviceStratified`] to guarantee every device
    /// stratum representation each round). Changing the strategy changes
    /// which clients are drawn, so it must be set before the first round.
    pub fn with_cohort_strategy(mut self, strategy: CohortStrategy) -> Self {
        assert_eq!(
            self.rounds_run, 0,
            "cohort strategy must be fixed before the first round"
        );
        self.cohort_strategy = strategy;
        self
    }

    /// Switches the simulation to deadline-driven **semi-synchronous**
    /// rounds with fault injection: each round over-provisions the cohort
    /// per `policy`, simulates every cohort member's wall-clock from the
    /// injector's fault draws and persistent compute factors, drops crashed
    /// / transport-failed / deadline-missing clients, corrupts the updates
    /// the injector marks, and screens the survivors (non-finite + norm
    /// bound) before aggregating the partial cohort.
    ///
    /// Everything downstream of the plan seed is deterministic: the same
    /// seed and plan replay bit-identical drop/reject sequences and
    /// aggregated weights.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid (see [`SemiSyncPolicy::validate`]).
    pub fn with_faults(mut self, injector: FaultInjector, policy: SemiSyncPolicy) -> Self {
        policy.validate();
        self.faults = Some((injector, policy));
        self
    }

    /// The simulation configuration.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// The current global weight vector.
    pub fn global_weights(&self) -> &[f32] {
        &self.global_weights
    }

    /// The current EMA of the aggregated training loss (NaN before the first
    /// round).
    pub fn loss_ema(&self) -> f32 {
        self.loss_ema
    }

    /// The name of the local-update strategy in use.
    pub fn trainer_name(&self) -> &'static str {
        self.trainer.name()
    }

    /// Builds a model replica loaded with the current global weights.
    ///
    /// The replica is *unfused*, layer for layer what the factory builds:
    /// it is what [`run_with_checkpoints`](Self::run_with_checkpoints)
    /// publishes, and a checkpoint names its buffers after the top-level
    /// layers, which [`Network::fuse_inference`] renames. A consumer that
    /// serves it fuses it itself, as `hs_serve` does.
    pub fn global_model(&self) -> Network {
        let mut net = (self.model_factory)(self.config.seed);
        net.set_weights(&self.global_weights);
        net
    }

    /// A fresh factory replica with its inference plan fused: the network
    /// every inference in the loop runs on (see the module docs).
    fn fused_replica(&self) -> Network {
        let mut net = (self.model_factory)(self.config.seed);
        net.fuse_inference();
        net
    }

    /// Runs one communication round: sample the cohort, run local updates
    /// (in parallel on the shared [`hs_parallel`] pool), aggregate and
    /// update the loss EMA.
    ///
    /// Without [`FlSimulation::with_faults`] this is the classic fully
    /// synchronous round: exactly `K` clients, all of them complete. With
    /// faults attached the round is semi-synchronous — the cohort is
    /// over-provisioned, per-client wall-clocks are simulated from the
    /// fault plan, clients that crash / lose their upload / miss the
    /// deadline are dropped without training (their outcome is decided
    /// before any compute is spent), corrupted updates are screened out
    /// before aggregation, and the partial cohort is aggregated with the
    /// usual sample-count weighting.
    ///
    /// Client training shares one process-wide pool with inference shards
    /// and training bands: while clients fan out here, a client's banded
    /// convolutions detect they are already on a pool worker and run
    /// inline, so a round never oversubscribes the machine.
    pub fn run_round(&mut self) -> RoundStats {
        let round = self.rounds_run;
        // tracing never reads the clock *here* — this module is bit-exact
        // and replayed; all timestamping lives inside the phase guards
        // (see `crate::phases`), which are inert unless tracing is on
        let _round_span = crate::phases::phase("fl_round", round);
        let sample_seed = self.config.seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let k = self.config.clients_per_round;
        let cohort_size = match &self.faults {
            Some((_, policy)) => ((k as f32 * policy.over_provision).ceil() as usize)
                .clamp(k, self.config.num_clients),
            None => k,
        };
        let draw_span = crate::phases::phase("cohort_draw", round);
        let strata = match self.cohort_strategy {
            CohortStrategy::DeviceStratified => self.clients.strata(),
            _ => Vec::new(),
        };
        let selected =
            self.cohort_strategy
                .sample(self.config.num_clients, cohort_size, &strata, sample_seed);
        drop(draw_span);

        // --- simulate the cohort's system behaviour and decide who trains
        let mut dropped_crash = 0usize;
        let mut dropped_transport = 0usize;
        let mut dropped_deadline = 0usize;
        let mut corrupt_marks: Vec<(usize, Corruption)> = Vec::new();
        let mut times: Vec<f32> = Vec::new();
        let mut deadline = 0.0f32;
        // owned only on the fault path; fault-free rounds train `selected`
        // as-is without cloning it
        let triage_span = crate::phases::phase("fault_triage", round);
        let to_train_owned: Option<Vec<usize>> = if let Some((injector, policy)) = &self.faults {
            // one unit of work per sample per local epoch; sample counts are
            // O(1) metadata — no dataset is materialized to cost the cohort
            let base_cost =
                |cid: usize| self.clients.num_samples(cid) as f32 * self.config.local_epochs as f32;
            let mut healthy: Vec<f32> = selected
                .iter()
                .map(|&c| base_cost(c) * injector.compute_factor(c))
                .collect();
            // total_cmp: a NaN compute factor must not panic the round loop
            // (it would rank last and stretch the deadline instead)
            healthy.sort_by(f32::total_cmp);
            deadline = policy.deadline_factor * healthy[healthy.len() / 2];

            let mut trainees = Vec::with_capacity(selected.len());
            for &cid in &selected {
                let wall = injector.wall_clock(cid, round, base_cost(cid));
                if wall.is_finite() {
                    times.push(wall);
                }
                match injector.fault(cid, round) {
                    FaultKind::Crash => dropped_crash += 1,
                    FaultKind::TransportDrop => dropped_transport += 1,
                    _ if wall > deadline => dropped_deadline += 1,
                    FaultKind::Corrupt(kind) => {
                        corrupt_marks.push((cid, kind));
                        trainees.push(cid);
                    }
                    FaultKind::Healthy | FaultKind::Straggler(_) => trainees.push(cid),
                }
            }
            Some(trainees)
        } else {
            None
        };
        let to_train: &[usize] = to_train_owned.as_deref().unwrap_or(&selected);
        drop(triage_span);

        let updates = Mutex::new(Vec::<ClientUpdate>::with_capacity(to_train.len()));
        let train_span = crate::phases::phase("client_train", round);
        // clients differ in size by an order of magnitude, so the workers
        // claim them one at a time, biggest first, instead of each taking a
        // fixed share of the cohort; one replica per worker, fused, so each
        // client's `L_init` forward runs the plan the server serves
        let order = longest_first(to_train, |cid| self.clients.num_samples(cid));
        let global = &self.global_weights;
        let config = self.config;
        let loss_ema = self.loss_ema;
        hs_parallel::for_each_claimed(
            order.len(),
            hs_parallel::num_threads(),
            || self.fused_replica(),
            |net, claimed| {
                let client_id = order[claimed];
                net.set_weights(global);
                net.zero_grad();
                let ctx = ClientContext {
                    round,
                    loss_ema,
                    lr: config.lr,
                    batch_size: config.batch_size,
                    local_epochs: config.local_epochs,
                    global_weights: global,
                    client_id,
                };
                let mut client_rng = StdRng::seed_from_u64(
                    config.seed
                        ^ (client_id as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
                        ^ (round as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
                );
                // an on-demand source's dataset lives exactly as long as
                // this call — O(cohort) resident state
                self.clients.with_dataset(client_id, &mut |data| {
                    let update = self.trainer.client_update(net, data, &ctx, &mut client_rng);
                    sync::lock(&updates).push(update);
                });
            },
        );

        let mut updates = sync::into_inner(updates);
        drop(train_span);
        // deterministic aggregation order regardless of which worker
        // claimed which client, and when
        updates.sort_by_key(|u| u.client_id);

        // inject the marked corruptions into the delivered updates, then
        // screen before they can reach aggregation
        let screen_span = crate::phases::phase("screen", round);
        let norm_bound_factor = if let Some((injector, policy)) = &self.faults {
            for &(cid, kind) in &corrupt_marks {
                if let Some(u) = updates.iter_mut().find(|u| u.client_id == cid) {
                    injector.corrupt(&mut u.weights, kind, cid, round);
                }
            }
            policy.norm_bound_factor
        } else {
            // classic path: only the non-finite screen (norm screen off so
            // fault-free results are bit-identical to the original loop)
            0.0
        };
        let (accepted, rejected) =
            screen_updates_sharded(&self.global_weights, updates, norm_bound_factor);
        let completed = accepted.len();
        let rejected_corrupt = rejected.len();
        drop(screen_span);

        let aggregate_span = crate::phases::phase("aggregate", round);
        let (mean_train_loss, mean_init_loss) = if accepted.is_empty() {
            // nothing survived: the global model and the EMA stand
            (f32::NAN, f32::NAN)
        } else {
            let total: f32 = accepted
                .iter()
                .map(|u| u.num_samples as f32)
                .sum::<f32>()
                .max(1.0);
            let train = accepted
                .iter()
                .map(|u| u.train_loss * u.num_samples as f32)
                .sum::<f32>()
                / total;
            let init = accepted
                .iter()
                .map(|u| u.init_loss * u.num_samples as f32)
                .sum::<f32>()
                / total;
            // the owning aggregate: accepted updates move into the sharded
            // tree-reduce, which recycles their buffers instead of cloning
            self.global_weights = self
                .aggregation
                .aggregate_owned(&self.global_weights, accepted);
            (train, init)
        };
        drop(aggregate_span);
        if mean_train_loss.is_finite() {
            // paper Eq. 1: L_EMA ← α · L_cur + (1 − α) · L_EMA
            self.loss_ema = if self.loss_ema.is_nan() {
                mean_train_loss
            } else {
                self.config.ema_alpha * mean_train_loss
                    + (1.0 - self.config.ema_alpha) * self.loss_ema
            };
        }
        self.rounds_run += 1;

        times.sort_by(f32::total_cmp);
        let pct = |q: f32| {
            if times.is_empty() {
                0.0
            } else {
                times[((times.len() - 1) as f32 * q).round() as usize]
            }
        };

        RoundStats {
            round,
            mean_train_loss,
            mean_init_loss,
            loss_ema: self.loss_ema,
            participants: selected,
            completed,
            dropped_deadline,
            dropped_crash,
            dropped_transport,
            rejected_corrupt,
            sim_time_p50: pct(0.5),
            sim_time_p95: pct(0.95),
            sim_time_max: times.last().copied().unwrap_or(0.0),
            deadline,
        }
    }

    /// Runs `config.rounds` communication rounds.
    pub fn run(&mut self) -> Vec<RoundStats> {
        (0..self.config.rounds).map(|_| self.run_round()).collect()
    }

    /// Runs `config.rounds` communication rounds, invoking `publish` with a
    /// fresh global-model replica every `checkpoint_every` rounds and after
    /// the final round — the checkpointing hook a serving deployment plugs
    /// a model registry into (e.g. `hs_serve::ModelRegistry::publish`), so
    /// a training run keeps publishing improved global models *while they
    /// are being served*.
    ///
    /// The hook receives the number of rounds completed so far and a model
    /// loaded with the current global weights; it may serialise, register
    /// or evaluate it freely without disturbing the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every` is zero.
    pub fn run_with_checkpoints<F>(
        &mut self,
        checkpoint_every: usize,
        mut publish: F,
    ) -> Vec<RoundStats>
    where
        F: FnMut(usize, &mut Network),
    {
        assert!(checkpoint_every > 0, "checkpoint_every must be positive");
        let rounds = self.config.rounds;
        let mut history = Vec::with_capacity(rounds);
        for r in 0..rounds {
            history.push(self.run_round());
            if (r + 1) % checkpoint_every == 0 || r + 1 == rounds {
                let mut model = self.global_model();
                publish(self.rounds_run, &mut model);
            }
        }
        history
    }

    /// Evaluates the current global model on per-device test sets, returning
    /// one accuracy per device type.
    ///
    /// The global weights run through a fused replica, the plan `hs_serve`
    /// answers with, so the accuracies are those of the model a serving
    /// deployment of [`global_model`](Self::global_model) returns.
    pub fn evaluate_per_device(&self, device_tests: &[(String, Dataset)]) -> Vec<GroupAccuracy> {
        let mut net = self.fused_replica();
        net.set_weights(&self.global_weights);
        per_device_accuracy(&net, device_tests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FedAvgTrainer, LossKind};
    use hs_data::{Dataset, Labels};
    use hs_nn::{Linear, Relu, Sequential};
    use hs_tensor::Tensor;

    fn factory() -> ModelFactory {
        Box::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Network::new(Sequential::new(vec![
                Box::new(Linear::new(4, 16, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Linear::new(16, 3, &mut rng)),
            ]))
        })
    }

    fn client(id: usize, samples: usize) -> ClientData {
        let mut rng = StdRng::seed_from_u64(id as u64 + 100);
        let x: Vec<Tensor> = (0..samples)
            .map(|i| {
                let mut t = Tensor::rand_uniform(&[4], -0.2, 0.2, &mut rng);
                t.as_mut_slice()[i % 3] += 1.0;
                t
            })
            .collect();
        ClientData {
            id,
            device: format!("dev-{}", id % 2),
            data: Dataset::new(x, Labels::Classes((0..samples).map(|i| i % 3).collect())),
        }
    }

    fn clients(n: usize, samples: usize) -> Vec<ClientData> {
        (0..n).map(|id| client(id, samples)).collect()
    }

    fn test_set() -> Vec<(String, Dataset)> {
        let mut rng = StdRng::seed_from_u64(999);
        let mut build = || {
            let x: Vec<Tensor> = (0..9)
                .map(|i| {
                    let mut t = Tensor::rand_uniform(&[4], -0.2, 0.2, &mut rng);
                    t.as_mut_slice()[i % 3] += 1.0;
                    t
                })
                .collect();
            Dataset::new(x, Labels::Classes((0..9).map(|i| i % 3).collect()))
        };
        vec![("dev-0".into(), build()), ("dev-1".into(), build())]
    }

    fn simulation(rounds: usize) -> FlSimulation {
        let mut config = FlConfig::tiny();
        config.rounds = rounds;
        config.num_clients = 4;
        config.clients_per_round = 2;
        FlSimulation::new(
            config,
            clients(4, 9),
            factory(),
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
            AggregationMethod::FedAvg,
        )
    }

    #[test]
    fn round_selects_k_clients_and_updates_ema() {
        let mut sim = simulation(1);
        assert!(sim.loss_ema().is_nan());
        let stats = sim.run_round();
        assert_eq!(stats.participants.len(), 2);
        assert!(stats.mean_train_loss.is_finite());
        assert!(sim.loss_ema().is_finite());
    }

    #[test]
    fn training_improves_accuracy_on_a_learnable_problem() {
        let mut sim = simulation(12);
        let before: f32 = sim
            .evaluate_per_device(&test_set())
            .iter()
            .map(|g| g.accuracy)
            .sum::<f32>()
            / 2.0;
        let history = sim.run();
        assert_eq!(history.len(), 12);
        let after: f32 = sim
            .evaluate_per_device(&test_set())
            .iter()
            .map(|g| g.accuracy)
            .sum::<f32>()
            / 2.0;
        assert!(
            after > before || after > 0.85,
            "FL should learn: before {before}, after {after}"
        );
        // loss should broadly decrease over training
        assert!(history.last().unwrap().mean_train_loss < history[0].mean_train_loss);
    }

    #[test]
    fn simulation_is_reproducible_for_a_fixed_seed() {
        let mut a = simulation(3);
        let mut b = simulation(3);
        a.run();
        b.run();
        assert_eq!(a.global_weights(), b.global_weights());
    }

    #[test]
    fn global_model_carries_global_weights() {
        let mut sim = simulation(1);
        sim.run();
        let mut model = sim.global_model();
        assert_eq!(model.weights(), sim.global_weights());
    }

    #[test]
    fn checkpoint_hook_fires_on_schedule_and_carries_global_weights() {
        let mut sim = simulation(5);
        let mut published: Vec<(usize, Vec<f32>)> = Vec::new();
        let history = sim.run_with_checkpoints(2, |rounds_done, model| {
            published.push((rounds_done, model.weights()));
        });
        assert_eq!(history.len(), 5);
        // every 2 rounds plus the final round: after rounds 2, 4 and 5
        assert_eq!(
            published.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![2, 4, 5]
        );
        // the last published model is the final global model
        assert_eq!(published.last().unwrap().1, sim.global_weights());
        // and checkpoints genuinely differ as training progresses
        assert_ne!(published[0].1, published[2].1);
    }

    #[test]
    #[should_panic(expected = "checkpoint_every must be positive")]
    fn checkpoint_every_zero_is_rejected() {
        let mut sim = simulation(1);
        let _ = sim.run_with_checkpoints(0, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn rejects_too_few_clients() {
        let config = FlConfig::tiny();
        let _ = FlSimulation::new(
            config,
            clients(1, 4),
            factory(),
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
            AggregationMethod::FedAvg,
        );
    }

    #[test]
    fn round_stats_json_shape_is_stable() {
        // pins the derived ToJson output byte for byte (field order and
        // names), including the PR-6 robustness counters
        let stats = RoundStats {
            round: 3,
            mean_train_loss: 0.5,
            mean_init_loss: 1.5,
            loss_ema: 0.75,
            participants: vec![1, 4],
            completed: 2,
            dropped_deadline: 1,
            dropped_crash: 2,
            dropped_transport: 3,
            rejected_corrupt: 4,
            sim_time_p50: 1.5,
            sim_time_p95: 2.5,
            sim_time_max: 3.5,
            deadline: 4.5,
        };
        assert_eq!(
            serde::json::to_string(&stats),
            concat!(
                r#"{"round":3,"mean_train_loss":0.5,"mean_init_loss":1.5,"loss_ema":0.75,"#,
                r#""participants":[1,4],"completed":2,"dropped_deadline":1,"dropped_crash":2,"#,
                r#""dropped_transport":3,"rejected_corrupt":4,"sim_time_p50":1.5,"#,
                r#""sim_time_p95":2.5,"sim_time_max":3.5,"deadline":4.5}"#
            )
        );
    }

    // ---- semi-synchronous rounds under fault injection -------------------

    use hs_device::{FaultInjector, FaultPlan};

    fn faulty_simulation(rounds: usize, plan: FaultPlan, policy: SemiSyncPolicy) -> FlSimulation {
        let mut config = FlConfig::tiny();
        config.rounds = rounds;
        config.num_clients = 12;
        config.clients_per_round = 6;
        FlSimulation::new(
            config,
            clients(12, 9),
            factory(),
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
            AggregationMethod::FedAvg,
        )
        .with_faults(FaultInjector::new(plan), policy)
    }

    #[test]
    fn fault_free_semi_sync_round_completes_the_whole_cohort() {
        let mut sim = faulty_simulation(1, FaultPlan::none(5), SemiSyncPolicy::default());
        let stats = sim.run_round();
        // over-provisioned: ceil(6 × 1.5) = 9 selected
        assert_eq!(stats.participants.len(), 9);
        // persistent compute heterogeneity alone can still drop extreme
        // clients at the deadline, but nothing crashes or corrupts
        assert_eq!(stats.dropped_crash + stats.dropped_transport, 0);
        assert_eq!(stats.rejected_corrupt, 0);
        assert_eq!(
            stats.completed + stats.dropped_deadline,
            stats.participants.len()
        );
        assert!(stats.completed >= 6, "deadline 2× median keeps most");
        assert!(stats.deadline > 0.0);
        assert!(stats.sim_time_max >= stats.sim_time_p95);
        assert!(stats.sim_time_p95 >= stats.sim_time_p50);
    }

    #[test]
    fn cohort_counters_partition_the_cohort_under_faults() {
        let plan = FaultPlan {
            seed: 9,
            straggler_rate: 0.3,
            straggler_slowdown: (4.0, 10.0),
            crash_rate: 0.15,
            transport_drop_rate: 0.1,
            corrupt_rate: 0.1,
        };
        let mut sim = faulty_simulation(4, plan, SemiSyncPolicy::default());
        let mut saw_drop = false;
        for stats in sim.run() {
            assert_eq!(
                stats.completed
                    + stats.dropped_deadline
                    + stats.dropped_crash
                    + stats.dropped_transport
                    + stats.rejected_corrupt,
                stats.participants.len(),
                "counters must partition the cohort: {stats:?}"
            );
            saw_drop |= stats.completed < stats.participants.len();
        }
        assert!(saw_drop, "heavy fault mix must drop someone in 4 rounds");
    }

    #[test]
    fn corrupted_updates_never_reach_the_global_model() {
        let plan = FaultPlan {
            seed: 3,
            corrupt_rate: 0.5,
            ..FaultPlan::none(3)
        };
        let mut sim = faulty_simulation(3, plan, SemiSyncPolicy::default());
        let mut rejected_total = 0;
        for stats in sim.run() {
            rejected_total += stats.rejected_corrupt;
            assert!(
                sim.global_weights().iter().all(|w| w.is_finite()),
                "round {}: corruption leaked into the global model",
                stats.round
            );
        }
        assert!(rejected_total > 0, "50% corruption must trigger the screen");
    }

    #[test]
    fn all_crashed_round_leaves_global_model_and_ema_standing() {
        let plan = FaultPlan {
            seed: 1,
            crash_rate: 1.0,
            ..FaultPlan::none(1)
        };
        let mut sim = faulty_simulation(1, plan, SemiSyncPolicy::default());
        let before = sim.global_weights().to_vec();
        let stats = sim.run_round();
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.dropped_crash, stats.participants.len());
        assert!(stats.mean_train_loss.is_nan());
        assert_eq!(sim.global_weights(), &before[..]);
        assert!(sim.loss_ema().is_nan(), "EMA untouched by an empty round");
    }

    #[test]
    fn identical_seed_and_plan_replay_bit_identical_rounds() {
        // the determinism contract: same seed + same fault plan ⇒ identical
        // drop/reject sequences, stats and aggregated weights
        let plan = FaultPlan {
            seed: 77,
            straggler_rate: 0.3,
            straggler_slowdown: (2.0, 10.0),
            crash_rate: 0.1,
            transport_drop_rate: 0.05,
            corrupt_rate: 0.05,
        };
        let mut a = faulty_simulation(5, plan, SemiSyncPolicy::default());
        let mut b = faulty_simulation(5, plan, SemiSyncPolicy::default());
        let ha = a.run();
        let hb = b.run();
        assert_eq!(ha, hb, "round stats must replay bit-identically");
        let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.global_weights()), bits(b.global_weights()));
    }

    // ---- lazy fleet-scale backend ----------------------------------------

    use crate::{ClientSource, CohortStrategy};
    use hs_data::LazyClientSet;
    use hs_device::{paper_devices, FleetSpec};
    use hs_nn::Flatten;
    use std::sync::Arc;

    fn image_factory(classes: usize) -> ModelFactory {
        Box::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Network::new(Sequential::new(vec![
                Box::new(Flatten::new()),
                Box::new(Linear::new(3 * 8 * 8, 8, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Linear::new(8, classes, &mut rng)),
            ]))
        })
    }

    fn lazy_simulation(num_clients: usize, strategy: CohortStrategy) -> FlSimulation {
        let fleet = Arc::new(FleetSpec::from_profiles(
            num_clients,
            &paper_devices(),
            (2, 4),
            21,
        ));
        let source = Arc::new(LazyClientSet::new(Arc::clone(&fleet), 4, 8, 21));
        let mut config = FlConfig::tiny();
        config.rounds = 2;
        config.num_clients = num_clients;
        config.clients_per_round = 6;
        FlSimulation::with_source(
            config,
            source,
            image_factory(4),
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
            AggregationMethod::FedAvg,
        )
        .with_cohort_strategy(strategy)
        .with_faults(
            FaultInjector::with_fleet(FaultPlan::none(21), fleet),
            SemiSyncPolicy::default(),
        )
    }

    #[test]
    fn lazy_simulation_trains_and_replays_bit_identically() {
        let mut a = lazy_simulation(300, CohortStrategy::Uniform);
        let mut b = lazy_simulation(300, CohortStrategy::Uniform);
        let ha = a.run();
        let hb = b.run();
        assert_eq!(ha, hb, "lazy rounds must replay bit-identically");
        assert!(ha[0].completed > 0, "a fault-free round trains someone");
        let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.global_weights()), bits(b.global_weights()));
        // training genuinely happened
        assert!(a.loss_ema().is_finite());
    }

    #[test]
    fn stratified_cohorts_seat_strata_proportionally() {
        let mut sim = lazy_simulation(900, CohortStrategy::DeviceStratified);
        let stats = sim.run_round();
        // cohort ceil(6 × 1.5) = 9: largest-remainder quotas proportional to
        // market share, so every stratum holds ⌊9·share⌋..⌈9·share⌉ seats —
        // the big device types are *guaranteed* representation every round
        let fleet = FleetSpec::from_profiles(900, &paper_devices(), (2, 4), 21);
        let k = stats.participants.len() as f32;
        for (t, r) in fleet.strata().iter().enumerate() {
            let seats = stats
                .participants
                .iter()
                .filter(|id| r.contains(id))
                .count();
            let exact = k * r.len() as f32 / 900.0;
            assert!(
                (seats as f32 - exact).abs() <= 1.0,
                "stratum {t} ({} clients) got {seats} seats, expected ≈{exact:.2}",
                r.len()
            );
        }
    }

    #[test]
    fn cohort_strategy_changes_the_draw_but_not_the_contract() {
        let mut uniform = lazy_simulation(300, CohortStrategy::Uniform);
        let mut strat = lazy_simulation(300, CohortStrategy::DeviceStratified);
        let su = uniform.run_round();
        let ss = strat.run_round();
        assert_ne!(su.participants, ss.participants);
        assert_eq!(su.participants.len(), ss.participants.len());
    }

    #[test]
    fn lazy_and_eager_backends_share_the_round_loop_contract() {
        // the lazy path keeps the cohort-partition invariant under faults
        let plan = FaultPlan {
            seed: 5,
            straggler_rate: 0.3,
            straggler_slowdown: (4.0, 10.0),
            crash_rate: 0.2,
            transport_drop_rate: 0.1,
            corrupt_rate: 0.1,
        };
        let fleet = Arc::new(FleetSpec::from_profiles(200, &paper_devices(), (2, 4), 8));
        let source = Arc::new(LazyClientSet::new(Arc::clone(&fleet), 4, 8, 8));
        let mut config = FlConfig::tiny();
        config.rounds = 3;
        config.num_clients = 200;
        config.clients_per_round = 8;
        let mut sim = FlSimulation::with_source(
            config,
            source,
            image_factory(4),
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
            AggregationMethod::FedAvg,
        )
        .with_faults(
            FaultInjector::with_fleet(plan, fleet),
            SemiSyncPolicy::default(),
        );
        for stats in sim.run() {
            assert_eq!(
                stats.completed
                    + stats.dropped_deadline
                    + stats.dropped_crash
                    + stats.dropped_transport
                    + stats.rejected_corrupt,
                stats.participants.len(),
                "counters must partition the cohort: {stats:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cohort strategy must be fixed")]
    fn strategy_change_after_a_round_is_rejected() {
        let mut sim = simulation(1);
        sim.run_round();
        let _ = sim.with_cohort_strategy(CohortStrategy::Uniform);
    }

    #[test]
    fn source_metadata_is_consistent_with_materialization() {
        let fleet = Arc::new(FleetSpec::from_profiles(100, &paper_devices(), (2, 4), 3));
        let source = LazyClientSet::new(fleet, 4, 8, 3);
        for id in [0usize, 42, 99] {
            assert_eq!(
                source.materialize(id).len(),
                ClientSource::num_samples(&source, id)
            );
        }
    }

    #[test]
    #[should_panic(expected = "over_provision must be >= 1")]
    fn sub_unit_over_provision_is_rejected() {
        let _ = faulty_simulation(
            1,
            FaultPlan::none(0),
            SemiSyncPolicy {
                over_provision: 0.5,
                ..SemiSyncPolicy::default()
            },
        );
    }

    // ---- work-conserving client fan-out ----------------------------------

    #[test]
    fn claim_order_is_a_longest_first_permutation_with_id_tie_break() {
        // sample count = a pure function of the id, with plenty of ties
        let size = |cid: usize| [7usize, 3, 7, 1, 12, 3, 7][cid % 7];
        let trainees = vec![19usize, 4, 11, 0, 6, 2, 9, 13, 5, 1];
        let order = longest_first(&trainees, size);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let mut expect = trainees.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect, "a permutation of the trainees");
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                size(a) > size(b) || (size(a) == size(b) && a < b),
                "{a} ({}) before {b} ({})",
                size(a),
                size(b)
            );
        }
        // pure: the input's order does not matter, nor does asking twice
        let mut reversed = trainees.clone();
        reversed.reverse();
        assert_eq!(longest_first(&reversed, size), order);
        assert_eq!(longest_first(&trainees, size), order);
        assert!(longest_first(&[], size).is_empty());
    }

    /// Clients whose sizes differ 20×, as a capture fleet's do.
    fn skewed_clients(n: usize) -> Vec<ClientData> {
        (0..n)
            .map(|id| client(id, 3 + 6 * ((id * 7) % 10)))
            .collect()
    }

    /// Records the order `client_update` is entered in, then trains as
    /// FedAvg does.
    struct RecordingTrainer {
        inner: FedAvgTrainer,
        seen: Arc<Mutex<Vec<usize>>>,
    }

    impl ClientTrainer for RecordingTrainer {
        fn client_update(
            &self,
            net: &mut Network,
            data: &Dataset,
            ctx: &ClientContext<'_>,
            rng: &mut StdRng,
        ) -> ClientUpdate {
            sync::lock(&self.seen).push(ctx.client_id);
            self.inner.client_update(net, data, ctx, rng)
        }

        fn name(&self) -> &'static str {
            "recording"
        }
    }

    /// Restores the default fan-out width when dropped.
    struct DefaultThreads;
    impl Drop for DefaultThreads {
        fn drop(&mut self) {
            hs_parallel::set_num_threads(None);
        }
    }

    #[test]
    fn every_trainee_is_trained_once_and_the_heaviest_is_claimed_first() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let population = skewed_clients(16);
        let sizes: Vec<usize> = population.iter().map(|c| c.data.len()).collect();
        let mut config = FlConfig::tiny();
        config.num_clients = 16;
        config.clients_per_round = 9;
        let mut sim = FlSimulation::new(
            config,
            population,
            factory(),
            Box::new(RecordingTrainer {
                inner: FedAvgTrainer::new(LossKind::CrossEntropy),
                seen: Arc::clone(&seen),
            }),
            AggregationMethod::FedAvg,
        );

        // however many workers claim: each participant exactly once
        let stats = sim.run_round();
        let mut trained = std::mem::take(&mut *sync::lock(&seen));
        trained.sort_unstable();
        let mut cohort = stats.participants.clone();
        cohort.sort_unstable();
        assert_eq!(trained, cohort);
        assert_eq!(stats.completed, cohort.len());

        // one worker: the recorded order IS the claim order
        let _restore = DefaultThreads;
        hs_parallel::set_num_threads(Some(1));
        let stats = sim.run_round();
        let claimed = std::mem::take(&mut *sync::lock(&seen));
        assert_eq!(
            claimed,
            longest_first(&stats.participants, |cid| sizes[cid])
        );
        let heaviest = stats.participants.iter().map(|&c| sizes[c]).max().unwrap();
        assert_eq!(sizes[claimed[0]], heaviest);
    }

    #[test]
    fn skewed_cohorts_replay_bit_identically_on_both_backends_with_and_without_faults() {
        let plan = FaultPlan {
            seed: 31,
            straggler_rate: 0.3,
            straggler_slowdown: (2.0, 10.0),
            crash_rate: 0.1,
            transport_drop_rate: 0.05,
            corrupt_rate: 0.1,
        };
        let eager = |faults: bool| {
            let mut config = FlConfig::tiny();
            config.rounds = 3;
            config.num_clients = 16;
            config.clients_per_round = 8;
            let sim = FlSimulation::new(
                config,
                skewed_clients(16),
                factory(),
                Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
                AggregationMethod::FedAvg,
            );
            if faults {
                sim.with_faults(FaultInjector::new(plan), SemiSyncPolicy::default())
            } else {
                sim
            }
        };
        let lazy = |faults: bool| {
            // 2..=24 samples per client
            let fleet = Arc::new(FleetSpec::from_profiles(200, &paper_devices(), (2, 24), 13));
            let source = Arc::new(LazyClientSet::new(Arc::clone(&fleet), 4, 8, 13));
            let mut config = FlConfig::tiny();
            config.rounds = 3;
            config.num_clients = 200;
            config.clients_per_round = 8;
            let sim = FlSimulation::with_source(
                config,
                source,
                image_factory(4),
                Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
                AggregationMethod::FedAvg,
            );
            if faults {
                sim.with_faults(
                    FaultInjector::with_fleet(plan, fleet),
                    SemiSyncPolicy::default(),
                )
            } else {
                sim
            }
        };
        let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let builders: [(&str, &dyn Fn(bool) -> FlSimulation); 2] =
            [("eager", &eager), ("lazy", &lazy)];
        for (backend, build) in builders {
            for faults in [false, true] {
                let mut first = build(faults);
                let history = first.run();
                assert!(history.iter().any(|r| r.completed > 0));
                for _ in 0..2 {
                    let mut again = build(faults);
                    assert_eq!(
                        again.run(),
                        history,
                        "{backend}, faults={faults}: round stats must replay"
                    );
                    assert_eq!(
                        bits(again.global_weights()),
                        bits(first.global_weights()),
                        "{backend}, faults={faults}: weights must replay bit for bit"
                    );
                }
            }
        }
    }
}
