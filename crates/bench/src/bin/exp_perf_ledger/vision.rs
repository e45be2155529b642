//! Workload `vision` — the paper's Table 4 path.
//!
//! Set-up: the nine `paper_devices()` photograph the same 12-class
//! `SceneGenerator` scenes (48 px scene → 32 px tensor,
//! `CaptureMode::Processed`, 10 train + 3 test per class per device =
//! 1 404 `capture_sample` calls), split by market share into 45 clients.
//! FL: `HeteroSwitchTrainer` (`Policy::Selective`,
//! `TransformKind::paper_vision()`) on MobileNetV3-small, K = 8, batch 10,
//! one local epoch. Serve: the trained MobileNetV3-small.
//!
//! `nn` training kernels and `core` (transform + SWAD) do most of the FL
//! work, fused+planned `Network::infer` most of the serving work; `fl` and
//! `serve` mechanics are small here. The set-up is the only place `isp`,
//! `device` and `data::capture` do the work.
//!
//! `--seed` drives every pixel (scenes, sensor noise); the *structure* —
//! which device each client owns, which clients each round draws, batch
//! order, initial weights — is pinned by [`STRUCTURE_SEED`]. Clients differ
//! 12× in size, so a seed-dependent cohort draw would move `round_ms` by
//! which clients it happened to pick, not by how fast the code ran.

use crate::fl_phase::{
    dataset_fingerprint, fleet_fault_plan, traced_factory, RoundProbeSpec, TraceHooks,
    TracedTrainer,
};
use crate::serve_phase::ServeModel;
use crate::workload::{scaled, Sizes, Workload, POOL};
use heteroswitch::{HeteroSwitchConfig, HeteroSwitchTrainer, Policy, TransformKind};
use hs_data::{
    assign_clients_by_share, build_device_datasets, split_evenly, CaptureMode, Dataset,
    Imagenet12Config,
};
use hs_device::{paper_devices, FaultInjector};
use hs_fl::{
    AggregationMethod, ClientData, ClientSource, ClientTrainer, CohortStrategy, FlConfig,
    FlSimulation, LossKind, ModelFactory,
};
use hs_nn::models::{mobilenet_v3_small, VisionConfig};
use hs_nn::Network;
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const STRUCTURE_SEED: u64 = 0x5EED_0F7A_B1E4;
const NUM_CLIENTS: usize = 45;
const CLIENTS_PER_ROUND: usize = 8;
const CLASSES: usize = 12;
const IMAGE: usize = 32;

pub struct Vision;

pub struct VisionInputs {
    clients: Vec<ClientData>,
    tests: Vec<(String, Dataset)>,
}

fn model(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    mobilenet_v3_small(VisionConfig::new(3, CLASSES, IMAGE), &mut rng)
}

fn fl_config() -> FlConfig {
    FlConfig {
        num_clients: NUM_CLIENTS,
        clients_per_round: CLIENTS_PER_ROUND,
        batch_size: Vision::TRAIN_BATCH,
        local_epochs: 1,
        rounds: 1,
        lr: 0.1,
        ema_alpha: 0.9,
        seed: STRUCTURE_SEED,
    }
}

impl Workload for Vision {
    type Inputs = VisionInputs;

    const NAME: &'static str = "vision";
    const TRAIN_BATCH: usize = 10;

    fn sizes(seconds: f64) -> Sizes {
        Sizes {
            reps: 10,
            setup_reps: 3,
            rounds: scaled(0.24, seconds, 2),
            eval_sweeps: scaled(0.08, seconds, 1),
            sat_requests: scaled(76.0, seconds, 64),
            sat_passes: 1,
            solo_requests: scaled(10.0, seconds, 16),
            // ≈ 40 %, 70 % and 150 % of the seed commit's `sat` throughput
            open_rates: [1500.0, 2700.0, 5700.0],
            open_secs: (seconds / 16.0).clamp(0.2, 4.0),
        }
    }

    fn set_up(seed: u64) -> VisionInputs {
        let devices = paper_devices();
        let cfg = Imagenet12Config {
            num_classes: CLASSES,
            image_size: IMAGE,
            scene_size: 48,
            train_per_class: 10,
            test_per_class: 3,
            mode: CaptureMode::Processed,
        };
        let datasets = build_device_datasets(&devices, cfg, seed);

        // clients per device follow market share; each device's training
        // set is split evenly among its clients
        let shares: Vec<f32> = datasets.iter().map(|d| d.share).collect();
        let assignment = assign_clients_by_share(&shares, NUM_CLIENTS, STRUCTURE_SEED);
        let mut clients: Vec<Option<ClientData>> = (0..NUM_CLIENTS).map(|_| None).collect();
        for (device_idx, ds) in datasets.iter().enumerate() {
            let ids: Vec<usize> = (0..NUM_CLIENTS)
                .filter(|&c| assignment[c] == device_idx)
                .collect();
            if ids.is_empty() {
                continue;
            }
            let shards = split_evenly(&ds.train, ids.len(), STRUCTURE_SEED ^ device_idx as u64);
            for (id, data) in ids.into_iter().zip(shards) {
                clients[id] = Some(ClientData {
                    id,
                    device: ds.device.clone(),
                    data,
                });
            }
        }
        VisionInputs {
            clients: clients
                .into_iter()
                .map(|c| c.expect("every client is assigned a device"))
                .collect(),
            tests: datasets.into_iter().map(|d| (d.device, d.test)).collect(),
        }
    }

    fn inputs_fingerprint(inputs: &VisionInputs) -> u64 {
        dataset_fingerprint(inputs.clients.iter().map(|c| &c.data))
    }

    fn simulation(inputs: &VisionInputs, hooks: Option<&Arc<TraceHooks>>) -> FlSimulation {
        let mut trainer: Box<dyn ClientTrainer> = Box::new(HeteroSwitchTrainer::new(
            HeteroSwitchConfig {
                transform: TransformKind::paper_vision(),
            },
            LossKind::CrossEntropy,
            Policy::Selective,
        ));
        let mut factory: ModelFactory = Box::new(model);
        if let Some(hooks) = hooks {
            trainer = Box::new(TracedTrainer {
                inner: trainer,
                hooks: Arc::clone(hooks),
            });
            factory = traced_factory(factory, Arc::clone(hooks));
        }
        FlSimulation::new(
            fl_config(),
            inputs.clients.clone(),
            factory,
            trainer,
            AggregationMethod::FedAvg,
        )
    }

    fn source(_: &VisionInputs) -> Option<Arc<dyn ClientSource>> {
        None
    }

    fn round_probe(_: &VisionInputs) -> RoundProbeSpec {
        RoundProbeSpec {
            // what `FlSimulation::new` uses: the eager default sampler, one
            // stratum, non-finite screen only; this workload injects no
            // faults, so the triage probe runs a flat injector over the
            // cohort just to place that layer's cost
            strategy: CohortStrategy::UniformShuffle,
            num_clients: NUM_CLIENTS,
            strata: Vec::new(),
            injector: FaultInjector::new(fleet_fault_plan(STRUCTURE_SEED)),
            norm_bound_factor: 0.0,
        }
    }

    fn device_tests(inputs: &VisionInputs) -> &[(String, Dataset)] {
        &inputs.tests
    }

    fn probe_client(inputs: &VisionInputs) -> Dataset {
        inputs
            .clients
            .iter()
            .map(|c| &c.data)
            .max_by_key(|d| d.len())
            .expect("population is non-empty")
            .clone()
    }

    fn resident_client_bytes(inputs: &VisionInputs) -> usize {
        inputs
            .clients
            .iter()
            .flat_map(|c| c.data.x.iter())
            .map(|t| t.len() * std::mem::size_of::<f32>())
            .sum()
    }

    fn serve_model() -> ServeModel {
        ServeModel {
            name: "mobilenet_v3_small",
            factory: Arc::new(|| model(0)),
            input_dims: vec![3, IMAGE, IMAGE],
        }
    }

    fn request_pool(inputs: &VisionInputs) -> Vec<Tensor> {
        // held-out captures, round-robin over the nine devices
        let per_device = POOL.div_ceil(inputs.tests.len());
        let mut pool: Vec<Tensor> = (0..per_device)
            .flat_map(|i| inputs.tests.iter().map(move |(_, t)| t.x[i].clone()))
            .collect();
        pool.truncate(POOL);
        pool
    }
}
