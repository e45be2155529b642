//! Workload `fleet_mlp` — the `fl` and `serve` layers used the opposite
//! way: a trivial model, so time goes to mechanics.
//!
//! Set-up: `FleetSpec::from_profiles(100_000, paper_devices(), (2, 4))`
//! and a `LazyClientSet` (8 px, 4 classes) — O(bytes), no capture.
//! FL: the headline cell of `FleetScaleConfig::quick()` rebuilt from public
//! API — 3·8·8 → 16 → 4 MLP, `FedAvgTrainer`,
//! `CohortStrategy::DeviceStratified`, K = 800 × 1.25 over-provision, fault
//! mix 20 % stragglers / 5 % crash / 3 % transport / 2 % corrupt,
//! `SemiSyncPolicy { 1.25, 2.0, 8.0 }`. A round is cohort draw, fault
//! triage, lazy synthesis, pool fan-out, screening and tree-reduce.
//! Serve: that MLP — well under a microsecond of compute per request, so
//! admission, `BoundedQueue`, batch assembly, completion slots and
//! `ServerMetrics` are what is measured.
//!
//! Every seed here derives from `--seed`: cohorts are 1 000 homogeneous
//! clients, so the draw cannot move the work by more than a fraction of a
//! percent.

use crate::fl_phase::{
    dataset_fingerprint, fleet_fault_plan, traced_factory, RoundProbeSpec, TraceHooks,
    TracedSource, TracedTrainer,
};
use crate::serve_phase::ServeModel;
use crate::workload::{scaled, Sizes, Workload, POOL};
use hs_data::{Dataset, LazyClientSet};
use hs_device::{paper_devices, FaultInjector, FleetSpec};
use hs_fl::{
    AggregationMethod, ClientSource, ClientTrainer, CohortStrategy, FedAvgTrainer, FlConfig,
    FlSimulation, LossKind, ModelFactory, SemiSyncPolicy,
};
use hs_nn::{Flatten, Linear, Network, Relu, Sequential};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const FLEET: usize = 100_000;
const CLIENTS_PER_ROUND: usize = 800;
const SAMPLES: (usize, usize) = (2, 4);
const IMAGE: usize = 8;
const CLASSES: usize = 4;
/// Clients per device type merged into that type's test set.
const TEST_CLIENTS: usize = 40;
const POLICY: SemiSyncPolicy = SemiSyncPolicy {
    over_provision: 1.25,
    deadline_factor: 2.0,
    norm_bound_factor: 8.0,
};

pub struct FleetMlp;

pub struct FleetInputs {
    seed: u64,
    fleet: Arc<FleetSpec>,
    source: Arc<LazyClientSet>,
    tests: Vec<(String, Dataset)>,
}

fn model(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::new(Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Linear::new(3 * IMAGE * IMAGE, 16, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, CLASSES, &mut rng)),
    ]))
}

impl Workload for FleetMlp {
    type Inputs = FleetInputs;

    const NAME: &'static str = "fleet_mlp";
    const TRAIN_BATCH: usize = 2;

    fn sizes(seconds: f64) -> Sizes {
        Sizes {
            reps: 15,
            setup_reps: 9,
            rounds: scaled(1.0, seconds, 2),
            eval_sweeps: scaled(4.0, seconds, 1),
            sat_requests: scaled(1400.0, seconds, 64),
            sat_passes: 3,
            solo_requests: scaled(13.0, seconds, 16),
            open_rates: [20_000.0, 40_000.0, 400_000.0],
            open_secs: (seconds / 16.0).clamp(0.2, 4.0),
        }
    }

    fn set_up(seed: u64) -> FleetInputs {
        let fleet = Arc::new(FleetSpec::from_profiles(
            FLEET,
            &paper_devices(),
            SAMPLES,
            seed,
        ));
        let source = Arc::new(LazyClientSet::new(Arc::clone(&fleet), CLASSES, IMAGE, seed));
        let tests = fleet
            .strata()
            .into_iter()
            .zip(fleet.types())
            .map(|(stratum, ty)| {
                let mut merged = Dataset::empty();
                for id in stratum.take(TEST_CLIENTS) {
                    merged.extend(&source.synthesize(id));
                }
                (ty.name.clone(), merged)
            })
            .collect();
        FleetInputs {
            seed,
            fleet,
            source,
            tests,
        }
    }

    fn inputs_fingerprint(inputs: &FleetInputs) -> u64 {
        dataset_fingerprint(inputs.tests.iter().map(|(_, d)| d))
    }

    fn simulation(inputs: &FleetInputs, hooks: Option<&Arc<TraceHooks>>) -> FlSimulation {
        let config = FlConfig {
            num_clients: FLEET,
            clients_per_round: CLIENTS_PER_ROUND,
            batch_size: Self::TRAIN_BATCH,
            local_epochs: 1,
            rounds: 1,
            lr: 0.1,
            ema_alpha: 0.9,
            seed: inputs.seed,
        };
        let mut trainer: Box<dyn ClientTrainer> =
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy));
        let mut factory: ModelFactory = Box::new(model);
        let mut source: Arc<dyn ClientSource> = inputs.source.clone();
        if let Some(hooks) = hooks {
            trainer = Box::new(TracedTrainer {
                inner: trainer,
                hooks: Arc::clone(hooks),
            });
            factory = traced_factory(factory, Arc::clone(hooks));
            source = Arc::new(TracedSource {
                inner: source,
                hooks: Arc::clone(hooks),
            });
        }
        FlSimulation::with_source(config, source, factory, trainer, AggregationMethod::FedAvg)
            .with_cohort_strategy(CohortStrategy::DeviceStratified)
            .with_faults(
                FaultInjector::with_fleet(fleet_fault_plan(inputs.seed), Arc::clone(&inputs.fleet)),
                POLICY,
            )
    }

    fn source(inputs: &FleetInputs) -> Option<Arc<dyn ClientSource>> {
        Some(inputs.source.clone())
    }

    fn round_probe(inputs: &FleetInputs) -> RoundProbeSpec {
        RoundProbeSpec {
            strategy: CohortStrategy::DeviceStratified,
            num_clients: FLEET,
            strata: inputs.fleet.strata(),
            injector: FaultInjector::with_fleet(
                fleet_fault_plan(inputs.seed),
                Arc::clone(&inputs.fleet),
            ),
            norm_bound_factor: POLICY.norm_bound_factor,
        }
    }

    fn device_tests(inputs: &FleetInputs) -> &[(String, Dataset)] {
        &inputs.tests
    }

    fn probe_client(inputs: &FleetInputs) -> Dataset {
        inputs.source.synthesize(0)
    }

    fn resident_client_bytes(inputs: &FleetInputs) -> usize {
        inputs.source.resident_bytes()
    }

    fn serve_model() -> ServeModel {
        ServeModel {
            name: "fleet_mlp",
            factory: Arc::new(|| model(0)),
            input_dims: vec![3, IMAGE, IMAGE],
        }
    }

    fn request_pool(inputs: &FleetInputs) -> Vec<Tensor> {
        let mut pool = Vec::with_capacity(POOL);
        let mut id = FLEET / 2;
        while pool.len() < POOL {
            pool.extend(inputs.source.synthesize(id).x);
            id += 1;
        }
        pool.truncate(POOL);
        pool
    }
}
