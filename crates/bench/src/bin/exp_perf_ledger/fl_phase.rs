//! The federated-learning phase shared by both workloads: fixed-work
//! repetitions of `FlSimulation::run_round` + `evaluate_per_device`, their
//! output checks, and the traced-pass wrappers around every call the round
//! loop makes back into a layer.

use crate::trace::{Recorder, ROOT};
use hs_data::Dataset;
use hs_device::{FaultInjector, FaultPlan};
use hs_fl::{
    screen_updates_sharded, AggregationMethod, ClientContext, ClientSource, ClientTrainer,
    ClientUpdate, CohortStrategy, FlSimulation, ModelFactory, RoundStats,
};
use hs_nn::Network;
use hs_parallel::sync;
use rand::rngs::StdRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The fault mix of `FleetScaleConfig::quick()` (20 % stragglers at 2–8×,
/// 5 % crash, 3 % transport, 2 % corrupt).
pub fn fleet_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        straggler_rate: 0.2,
        straggler_slowdown: (2.0, 8.0),
        crash_rate: 0.05,
        transport_drop_rate: 0.03,
        corrupt_rate: 0.02,
    }
}

/// FNV-1a over the bit patterns — equal hashes across repetitions are the
/// "bit-identical replay" and "same dataset" checks.
pub fn fingerprint(chunks: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for bits in chunks {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn weights_fingerprint(weights: &[f32]) -> u64 {
    fingerprint(weights.iter().map(|w| w.to_bits()))
}

pub fn dataset_fingerprint<'a>(sets: impl IntoIterator<Item = &'a Dataset>) -> u64 {
    fingerprint(
        sets.into_iter()
            .flat_map(|d| d.x.iter())
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits())),
    )
}

/// The cohort-conservation law every round must satisfy.
pub fn round_conserves_cohort(s: &RoundStats) -> bool {
    s.participants.len()
        == s.completed
            + s.dropped_deadline
            + s.dropped_crash
            + s.dropped_transport
            + s.rejected_corrupt
}

/// One fixed-work repetition: `rounds` rounds on a fresh simulation, then
/// `eval_sweeps` per-device evaluations of the resulting global model.
pub struct RepResult {
    pub round_ns: Vec<u64>,
    /// Wall time of each `evaluate_per_device` sweep.
    pub eval_ns: Vec<u64>,
    pub stats: Vec<RoundStats>,
    pub weights_fp: u64,
    /// Rounds that broke cohort conservation, plus one if an evaluation
    /// returned a non-finite accuracy or the wrong number of groups.
    pub failed_ops: u64,
    pub attempted_ops: u64,
}

pub fn run_rep(
    sim: &mut FlSimulation,
    rounds: usize,
    tests: &[(String, Dataset)],
    eval_sweeps: usize,
) -> RepResult {
    let mut round_ns = Vec::with_capacity(rounds);
    let mut stats = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = hs_obs::now_ns();
        let s = sim.run_round();
        round_ns.push(hs_obs::now_ns() - t);
        stats.push(s);
    }
    let mut failed_ops = stats.iter().filter(|s| !round_conserves_cohort(s)).count() as u64;
    let mut eval_ns = Vec::with_capacity(eval_sweeps);
    for _ in 0..eval_sweeps {
        let t = hs_obs::now_ns();
        let groups = sim.evaluate_per_device(tests);
        eval_ns.push(hs_obs::now_ns() - t);
        if groups.len() != tests.len() || groups.iter().any(|g| !g.accuracy.is_finite()) {
            failed_ops += 1;
        }
    }
    RepResult {
        round_ns,
        eval_ns,
        weights_fp: weights_fingerprint(sim.global_weights()),
        stats,
        failed_ops,
        attempted_ops: (rounds + eval_sweeps) as u64,
    }
}

/// Shared state of a traced repetition: the recorder, the id of the round
/// span currently open on the driving thread (children recorded on pool
/// threads name it as parent), and what the wrappers observed.
pub struct TraceHooks {
    pub rec: Recorder,
    round_span: AtomicU32,
    round: AtomicU64,
    /// Every update the real trainer returned this round, for the
    /// between-round screen/aggregate probes.
    captured: Mutex<Vec<ClientUpdate>>,
    pub clients: AtomicU64,
    pub switch1: AtomicU64,
    pub switch2: AtomicU64,
}

impl TraceHooks {
    pub fn new() -> Arc<Self> {
        Arc::new(TraceHooks {
            rec: Recorder::new(true),
            round_span: AtomicU32::new(ROOT),
            round: AtomicU64::new(0),
            captured: Mutex::new(Vec::new()),
            clients: AtomicU64::new(0),
            switch1: AtomicU64::new(0),
            switch2: AtomicU64::new(0),
        })
    }

    fn parent(&self) -> (u32, u64) {
        // Relaxed: the ids are statistics attached to spans; the pool's own
        // queue hand-off orders them before any task of the round runs
        (
            self.round_span.load(Ordering::Relaxed),
            self.round.load(Ordering::Relaxed),
        )
    }
}

/// `ClientTrainer` wrapper: a `client_update` span per call, the switch
/// outcomes HeteroSwitch's selective policy took (re-derived from the
/// losses it reports against the `loss_ema` it was handed), and a copy of
/// the update for the screen/aggregate probes.
pub struct TracedTrainer {
    pub inner: Box<dyn ClientTrainer>,
    pub hooks: Arc<TraceHooks>,
}

impl ClientTrainer for TracedTrainer {
    fn client_update(
        &self,
        net: &mut Network,
        data: &Dataset,
        ctx: &ClientContext<'_>,
        rng: &mut StdRng,
    ) -> ClientUpdate {
        let (parent, op) = self.hooks.parent();
        let update = {
            let _span = self.hooks.rec.span("client_update", parent, op);
            self.inner.client_update(net, data, ctx, rng)
        };
        let switch1 = update.init_loss < ctx.loss_ema;
        self.hooks.clients.fetch_add(1, Ordering::Relaxed);
        self.hooks
            .switch1
            .fetch_add(u64::from(switch1), Ordering::Relaxed);
        self.hooks.switch2.fetch_add(
            u64::from(switch1 && update.train_loss < ctx.loss_ema),
            Ordering::Relaxed,
        );
        sync::lock(&self.hooks.captured).push(update.clone());
        update
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `ClientSource` wrapper: a `materialize` span per synthesized client.
pub struct TracedSource {
    pub inner: Arc<dyn ClientSource>,
    pub hooks: Arc<TraceHooks>,
}

impl ClientSource for TracedSource {
    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }

    fn num_samples(&self, client_id: usize) -> usize {
        self.inner.num_samples(client_id)
    }

    fn materialize(&self, client_id: usize) -> Dataset {
        let (parent, op) = self.hooks.parent();
        let _span = self.hooks.rec.span("materialize", parent, op);
        self.inner.materialize(client_id)
    }

    fn strata(&self) -> Vec<Range<usize>> {
        self.inner.strata()
    }
}

/// `ModelFactory` wrapper: a `replica_build` span per replica.
pub fn traced_factory(inner: ModelFactory, hooks: Arc<TraceHooks>) -> ModelFactory {
    Box::new(move |seed| {
        let (parent, op) = hooks.parent();
        let _span = hooks.rec.span("replica_build", parent, op);
        inner(seed)
    })
}

/// What the between-round probes need to replay a round's server-side
/// steps on that round's own inputs.
pub struct RoundProbeSpec {
    pub strategy: CohortStrategy,
    pub num_clients: usize,
    pub strata: Vec<Range<usize>>,
    pub injector: FaultInjector,
    pub norm_bound_factor: f32,
}

/// Runs one traced repetition. Each round gets a `round` span whose
/// children are the wrapper spans; after the round returns, the server-side
/// steps the wrappers cannot see (`CohortStrategy::sample`, the
/// `FaultInjector` triage calls, `screen_updates_sharded`,
/// `AggregationMethod::aggregate_owned`) are re-run on that round's cohort
/// and captured updates as `probe.*` root spans carrying the round's
/// operation id. Returns the per-round wall times.
pub fn run_traced_rep(
    sim: &mut FlSimulation,
    rounds: usize,
    source: Option<&dyn ClientSource>,
    hooks: &TraceHooks,
    probe: &RoundProbeSpec,
) -> Vec<u64> {
    let rec = &hooks.rec;
    let mut round_ns = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let global_before = sim.global_weights().to_vec();
        hooks.round.store(round as u64, Ordering::Relaxed);
        let stats = {
            let span = rec.span("round", ROOT, round as u64);
            hooks.round_span.store(span.id(), Ordering::Relaxed);
            let t = hs_obs::now_ns();
            let stats = sim.run_round();
            round_ns.push(hs_obs::now_ns() - t);
            stats
        };
        hooks.round_span.store(ROOT, Ordering::Relaxed);

        let op = round as u64;
        let cohort = &stats.participants;
        {
            let _s = rec.span("probe.cohort_draw", ROOT, op);
            // same arguments as the round (its sampling seed mixes the
            // round index the same way)
            let seed = sim.config().seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let drawn = probe
                .strategy
                .sample(probe.num_clients, cohort.len(), &probe.strata, seed);
            std::hint::black_box(drawn);
        }
        {
            let _s = rec.span("probe.fault_triage", ROOT, op);
            let mut acc = 0.0f32;
            for &cid in cohort {
                // one local epoch: the round's cost model is samples × epochs
                let cost = source.map_or(1, |s| s.num_samples(cid)) as f32;
                acc += cost * probe.injector.compute_factor(cid);
                acc += probe.injector.wall_clock(cid, round, cost);
                std::hint::black_box(probe.injector.fault(cid, round));
            }
            std::hint::black_box(acc);
        }
        let mut updates = std::mem::take(&mut *sync::lock(&hooks.captured));
        updates.sort_by_key(|u| u.client_id);
        if updates.is_empty() {
            continue;
        }
        let accepted = {
            let _s = rec.span("probe.screen", ROOT, op);
            screen_updates_sharded(&global_before, updates, probe.norm_bound_factor).0
        };
        if !accepted.is_empty() {
            let _s = rec.span("probe.aggregate", ROOT, op);
            std::hint::black_box(
                AggregationMethod::FedAvg.aggregate_owned(&global_before, accepted),
            );
        }
    }
    round_ns
}
