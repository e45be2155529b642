//! Characterization experiments (paper Sec. 3): the cross-device degradation
//! matrix, the RAW-data variant, the ISP-stage ablation and the
//! homogeneous-vs-heterogeneous client comparison of Fig. 1.

use crate::Scale;
use hs_data::{
    build_device_datasets, capture_sample, CaptureMode, Dataset, DeviceDataset, Labels,
    SceneGenerator,
};
use hs_device::{paper_devices, DeviceProfile, SensorModel};
use hs_fl::{
    evaluate_accuracy, AggregationMethod, ClientData, FedAvgTrainer, FlSimulation, LossKind,
};
use hs_isp::{IspConfig, IspStage};
use hs_metrics::DegradationMatrix;
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::{CrossEntropyLoss, Network, Sgd};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Trains a model centrally (single worker, plain SGD) on one dataset —
/// the setting of the paper's characterization experiments, where one model
/// is trained per device type.
pub fn train_centralized(
    kind: ModelKind,
    cfg: VisionConfig,
    train: &Dataset,
    epochs: usize,
    lr: f32,
    batch_size: usize,
    seed: u64,
) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = build_vision_model(kind, cfg, &mut rng);
    let mut opt = Sgd::new(lr);
    for _ in 0..epochs {
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);
        for batch in order.chunks(batch_size.max(1)) {
            let (x, target) = train.batch(batch);
            net.forward_backward(&x, &target, &CrossEntropyLoss);
            opt.step(&mut net);
        }
    }
    net
}

/// Paper Table 2 (processed data) and Fig. 2 (RAW data): train one model per
/// device type and evaluate it on every device type's test set.
pub fn cross_device_matrix(scale: &Scale, mode: CaptureMode) -> DegradationMatrix {
    let mut cfg = scale.imagenet;
    cfg.mode = mode;
    let devices = paper_devices();
    let datasets = build_device_datasets(&devices, cfg, scale.seed);
    let vision = VisionConfig::new(3, cfg.num_classes, cfg.image_size);

    let names: Vec<String> = datasets.iter().map(|d| d.device.clone()).collect();
    let mut accuracy = Vec::with_capacity(datasets.len());
    for (i, train_ds) in datasets.iter().enumerate() {
        let net = train_centralized(
            scale.model,
            vision,
            &train_ds.train,
            scale.centralized_epochs,
            scale.centralized_lr,
            scale.fl.batch_size,
            scale.seed + i as u64,
        );
        let row: Vec<f32> = datasets
            .iter()
            .map(|test_ds| evaluate_accuracy(&net, &test_ds.test))
            .collect();
        accuracy.push(row);
    }
    DegradationMatrix::new(names, accuracy)
}

/// One row of the ISP-ablation result (paper Fig. 3).
#[derive(Debug, Clone, serde::ToJson)]
pub struct IspAblationRow {
    /// The ISP stage that was modified at test time.
    pub stage: IspStage,
    /// Which Table 3 option replaced the baseline ("option1" or "option2").
    pub option: &'static str,
    /// Accuracy on test data processed with the modified pipeline.
    pub accuracy: f32,
    /// Relative degradation versus the baseline-pipeline test accuracy.
    pub degradation: f32,
}

/// Captures a train/test dataset pair for one neutral sensor with an
/// arbitrary ISP configuration.
fn capture_with_isp(scale: &Scale, isp: IspConfig, seed: u64) -> (Dataset, Dataset) {
    let cfg = scale.imagenet;
    let generator = SceneGenerator::new(cfg.num_classes, cfg.scene_size);
    let device = DeviceProfile {
        name: "reference".into(),
        vendor: hs_device::Vendor::Google,
        tier: hs_device::Tier::High,
        market_share: 1.0,
        sensor: SensorModel {
            // a mildly tinted, slightly noisy sensor: white balance has to do
            // real work, as on the physical devices
            color_response: [1.15, 1.0, 0.88],
            read_noise: 0.008,
            shot_noise: 0.015,
            ..SensorModel::ideal(cfg.scene_size, cfg.scene_size)
        },
        isp,
    };
    let mut scene_rng = StdRng::seed_from_u64(seed);
    let mut capture_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let build = |per_class: usize, scene_rng: &mut StdRng, capture_rng: &mut StdRng| {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for class in 0..cfg.num_classes {
            for _ in 0..per_class {
                let scene = generator.generate(class, scene_rng);
                x.push(capture_sample(
                    &device,
                    &scene,
                    CaptureMode::Processed,
                    cfg.image_size,
                    capture_rng,
                ));
                y.push(class);
            }
        }
        Dataset::new(x, Labels::Classes(y))
    };
    let train = build(cfg.train_per_class, &mut scene_rng, &mut capture_rng);
    let test = build(cfg.test_per_class, &mut scene_rng, &mut capture_rng);
    (train, test)
}

/// Paper Fig. 3: train with the Table 3 baseline ISP, then test while each
/// stage in turn is replaced by its Option 1 / Option 2 variant.
pub fn isp_ablation(scale: &Scale) -> Vec<IspAblationRow> {
    let cfg = scale.imagenet;
    let vision = VisionConfig::new(3, cfg.num_classes, cfg.image_size);
    let baseline_isp = IspConfig::baseline();
    let (train, baseline_test) = capture_with_isp(scale, baseline_isp, scale.seed);
    let net = train_centralized(
        scale.model,
        vision,
        &train,
        scale.centralized_epochs,
        scale.centralized_lr,
        scale.fl.batch_size,
        scale.seed,
    );
    let baseline_acc = evaluate_accuracy(&net, &baseline_test).max(1e-6);

    let mut rows = Vec::new();
    for stage in IspStage::all() {
        for (option, isp) in [
            ("option1", baseline_isp.with_stage_option1(stage)),
            ("option2", baseline_isp.with_stage_option2(stage)),
        ] {
            if isp == baseline_isp {
                continue; // this option does not differ from the baseline for this stage
            }
            let (_, test) = capture_with_isp(scale, isp, scale.seed);
            let accuracy = evaluate_accuracy(&net, &test);
            rows.push(IspAblationRow {
                stage,
                option,
                accuracy,
                degradation: (baseline_acc - accuracy) / baseline_acc,
            });
        }
    }
    rows
}

/// The two arms of paper Fig. 1: a FedAvg global model's mean per-device
/// accuracy.
#[derive(Debug, Clone, serde::ToJson)]
pub struct HomoVsHetero {
    /// Every client is the same device type.
    pub homogeneous: f32,
    /// Clients span the whole fleet.
    pub heterogeneous: f32,
}

/// Paper Fig. 1: the accuracy of a FedAvg global model when all clients use
/// the same device type (homogeneous) versus a mix of device types
/// (heterogeneous).
pub fn homo_vs_hetero(scale: &Scale) -> HomoVsHetero {
    let devices = paper_devices();
    let datasets = build_device_datasets(&devices, scale.imagenet, scale.seed);
    let vision = VisionConfig::new(3, scale.imagenet.num_classes, scale.imagenet.image_size);

    let run = |device_subset: &[DeviceDataset]| -> f32 {
        let clients = spread_clients(device_subset, scale.fl.num_clients, scale.seed);
        let tests: Vec<(String, Dataset)> = device_subset
            .iter()
            .map(|d| (d.device.clone(), d.test.clone()))
            .collect();
        let mut sim = FlSimulation::new(
            scale.fl,
            clients,
            super::model_factory(scale.model, vision),
            Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
            AggregationMethod::FedAvg,
        );
        sim.run();
        let groups = sim.evaluate_per_device(&tests);
        groups.iter().map(|g| g.accuracy).sum::<f32>() / groups.len() as f32
    };

    // homogeneous: every client is a Pixel2 (a mid-range, middle-of-the-pack
    // device); heterogeneous: clients span the full fleet
    HomoVsHetero {
        homogeneous: run(&datasets[1..2]),
        heterogeneous: run(&datasets),
    }
}

/// Distributes `num_clients` clients uniformly over the given per-device
/// datasets, splitting each device's training data among its clients.
pub(crate) fn spread_clients(
    datasets: &[DeviceDataset],
    num_clients: usize,
    seed: u64,
) -> Vec<ClientData> {
    let shares: Vec<f32> = datasets.iter().map(|_| 1.0).collect();
    build_population_with_shares(datasets, &shares, num_clients, seed)
}

/// Builds a client population where the number of clients per device type
/// follows `shares`.
pub(crate) fn build_population_with_shares(
    datasets: &[DeviceDataset],
    shares: &[f32],
    num_clients: usize,
    seed: u64,
) -> Vec<ClientData> {
    let assignment = hs_data::assign_clients_by_share(shares, num_clients, seed);
    // count clients per device to split each device's data accordingly
    let mut per_device_clients: Vec<Vec<usize>> = vec![Vec::new(); datasets.len()];
    for (client, &device) in assignment.iter().enumerate() {
        per_device_clients[device].push(client);
    }
    let mut clients: Vec<Option<ClientData>> = (0..num_clients).map(|_| None).collect();
    for (device_idx, client_ids) in per_device_clients.iter().enumerate() {
        if client_ids.is_empty() {
            continue;
        }
        let shards = hs_data::split_evenly(
            &datasets[device_idx].train,
            client_ids.len(),
            seed ^ device_idx as u64,
        );
        for (&client_id, shard) in client_ids.iter().zip(shards) {
            // guarantee each client has at least one sample by falling back to
            // the full device dataset when the shard came out empty
            let data = if shard.is_empty() {
                datasets[device_idx].train.clone()
            } else {
                shard
            };
            clients[client_id] = Some(ClientData {
                id: client_id,
                device: datasets[device_idx].device.clone(),
                data,
            });
        }
    }
    clients
        .into_iter()
        .enumerate()
        .map(|(id, c)| {
            c.unwrap_or_else(|| ClientData {
                id,
                device: datasets[0].device.clone(),
                data: datasets[0].train.clone(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_device_matrix_has_fleet_dimensions() {
        let scale = Scale::tiny();
        let matrix = cross_device_matrix(&scale, CaptureMode::Processed);
        assert_eq!(matrix.devices().len(), 9);
        // diagonal degradation is zero by construction
        assert_eq!(matrix.degradation(0, 0), 0.0);
        assert!(matrix.overall_mean_degradation().is_finite());
    }

    #[test]
    fn isp_ablation_covers_every_stage() {
        let scale = Scale::tiny();
        let rows = isp_ablation(&scale);
        let stages: std::collections::HashSet<_> = rows.iter().map(|r| r.stage).collect();
        assert_eq!(stages.len(), 6, "every ISP stage must appear");
        assert!(rows.iter().all(|r| r.accuracy.is_finite()));
    }

    #[test]
    fn client_spreading_covers_all_clients() {
        let scale = Scale::tiny();
        let devices = paper_devices();
        let datasets = build_device_datasets(&devices[..3], scale.imagenet, 1);
        let clients = spread_clients(&datasets, 7, 3);
        assert_eq!(clients.len(), 7);
        assert!(clients.iter().all(|c| !c.data.is_empty()));
    }
}
