//! Federated experiments: the Table 4 method comparison, fairness (Fig. 4),
//! domain generalization (Fig. 5), model architectures (Table 5), the
//! FLAIR-style study (Table 6), synthetic CIFAR (Fig. 8), the ECG study
//! (Sec. 6.6) and the hyper-parameter sensitivity sweep (Fig. 9).

use super::characterization::{build_population_with_shares, spread_clients};
use crate::Scale;
use heteroswitch::{HeteroSwitchConfig, HeteroSwitchTrainer, Policy, TransformKind};
use hs_data::{
    build_device_datasets, build_ecg_datasets, build_flair_datasets, build_jitter_datasets,
    Dataset, DeviceDataset,
};
use hs_device::paper_devices;
use hs_fl::{
    evaluate_average_precision, evaluate_heart_rate, AggregationMethod, ClientData, ClientTrainer,
    FedAvgTrainer, FedProxTrainer, FlConfig, FlSimulation, LossKind, RoundStats, ScaffoldTrainer,
};
use hs_metrics::{heart_rate_deviation, mean, population_variance, worst_case, GroupAccuracy};
use hs_nn::models::{ModelKind, VisionConfig};
use hs_nn::{Linear, Network, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The methods compared in the paper's Table 4 (plus the Table 6 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// FedAvg baseline.
    FedAvg,
    /// Always-on ISP transformation (Table 4 ablation row).
    IspTransformation,
    /// Always-on ISP transformation + SWAD (Table 4 ablation row).
    IspTransformationSwad,
    /// Full HeteroSwitch (selective switching).
    HeteroSwitch,
    /// q-FedAvg (Li et al., 2019), `q = 1e-6` per the paper's grid search.
    QFedAvg,
    /// FedProx (Li et al., 2020), `μ = 0.1` per the paper's grid search.
    FedProx,
    /// Scaffold (Karimireddy et al., 2020).
    Scaffold,
}

impl Method {
    /// The methods in the paper's Table 4 row order.
    pub fn table4() -> [Method; 7] {
        [
            Method::FedAvg,
            Method::IspTransformation,
            Method::IspTransformationSwad,
            Method::HeteroSwitch,
            Method::QFedAvg,
            Method::FedProx,
            Method::Scaffold,
        ]
    }

    /// The methods in the paper's Table 6 row order.
    pub fn table6() -> [Method; 4] {
        [
            Method::FedAvg,
            Method::HeteroSwitch,
            Method::QFedAvg,
            Method::FedProx,
        ]
    }

    /// Table-row label.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::FedAvg => "FedAvg",
            Method::IspTransformation => "ISP Transformation",
            Method::IspTransformationSwad => "ISP Transformation + SWAD",
            Method::HeteroSwitch => "HeteroSwitch",
            Method::QFedAvg => "q-FedAvg",
            Method::FedProx => "FedProx",
            Method::Scaffold => "Scaffold",
        }
    }

    /// Builds the client trainer and aggregation rule for this method.
    pub fn build(
        &self,
        loss: LossKind,
        transform: TransformKind,
        fl: &FlConfig,
    ) -> (Box<dyn ClientTrainer>, AggregationMethod) {
        let hs_cfg = HeteroSwitchConfig { transform };
        match self {
            Method::FedAvg => (
                Box::new(FedAvgTrainer::new(loss)),
                AggregationMethod::FedAvg,
            ),
            Method::IspTransformation => (
                Box::new(HeteroSwitchTrainer::new(
                    hs_cfg,
                    loss,
                    Policy::AlwaysTransform,
                )),
                AggregationMethod::FedAvg,
            ),
            Method::IspTransformationSwad => (
                Box::new(HeteroSwitchTrainer::new(
                    hs_cfg,
                    loss,
                    Policy::AlwaysTransformAndSwad,
                )),
                AggregationMethod::FedAvg,
            ),
            Method::HeteroSwitch => (
                Box::new(HeteroSwitchTrainer::new(hs_cfg, loss, Policy::Selective)),
                AggregationMethod::FedAvg,
            ),
            Method::QFedAvg => (
                Box::new(FedAvgTrainer::new(loss)),
                AggregationMethod::QFedAvg { q: 1e-6, lr: fl.lr },
            ),
            Method::FedProx => (
                Box::new(FedProxTrainer::new(loss, 0.1)),
                AggregationMethod::FedAvg,
            ),
            Method::Scaffold => (
                Box::new(ScaffoldTrainer::new(loss, fl.num_clients)),
                AggregationMethod::FedAvg,
            ),
        }
    }
}

/// Per-method result over per-device accuracies (the columns of Table 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodResult {
    /// Method name.
    pub method: String,
    /// Per-device accuracy of the final global model.
    pub per_device: Vec<GroupAccuracy>,
    /// Worst-case (DG) accuracy across device types.
    pub worst_case: f32,
    /// Variance of accuracy across device types (fairness), in percentage
    /// points squared to match the paper's scale.
    pub variance: f32,
    /// Mean accuracy across device types.
    pub average: f32,
    /// Per-round training statistics of the run that produced this result
    /// (empty when the experiment only evaluates a pre-trained model).
    pub rounds: Vec<RoundStats>,
}

impl MethodResult {
    /// Computes the summary statistics from per-device accuracies.
    pub fn from_groups(method: String, per_device: Vec<GroupAccuracy>) -> Self {
        let values: Vec<f32> = per_device.iter().map(|g| g.accuracy).collect();
        let percent: Vec<f32> = values.iter().map(|v| v * 100.0).collect();
        MethodResult {
            method,
            worst_case: worst_case(&values),
            variance: population_variance(&percent),
            average: mean(&values),
            per_device,
            rounds: Vec::new(),
        }
    }
}

impl serde::json::ToJson for MethodResult {
    fn to_json(&self) -> serde::json::JsonValue {
        use serde::json::{JsonValue, ToJson};
        JsonValue::obj(vec![
            ("method", ToJson::to_json(&self.method)),
            ("per_device", ToJson::to_json(&self.per_device)),
            ("worst_case", ToJson::to_json(&self.worst_case)),
            ("variance", ToJson::to_json(&self.variance)),
            ("average", ToJson::to_json(&self.average)),
            ("rounds", ToJson::to_json(&self.rounds)),
        ])
    }
}

/// Builds the FL client population and per-device test sets for the
/// nine-device fleet, with client counts following the paper's market shares.
pub fn build_fl_population(scale: &Scale) -> (Vec<ClientData>, Vec<(String, Dataset)>) {
    let devices = paper_devices();
    let datasets = build_device_datasets(&devices, scale.imagenet, scale.seed);
    population_from_datasets(&datasets, scale, true)
}

/// Converts per-device datasets into an FL population plus named test sets.
pub(crate) fn population_from_datasets(
    datasets: &[DeviceDataset],
    scale: &Scale,
    use_shares: bool,
) -> (Vec<ClientData>, Vec<(String, Dataset)>) {
    let clients = if use_shares {
        let shares: Vec<f32> = datasets.iter().map(|d| d.share).collect();
        build_population_with_shares(datasets, &shares, scale.fl.num_clients, scale.seed)
    } else {
        spread_clients(datasets, scale.fl.num_clients, scale.seed)
    };
    let tests: Vec<(String, Dataset)> = datasets
        .iter()
        .map(|d| (d.device.clone(), d.test.clone()))
        .collect();
    (clients, tests)
}

/// Runs one FL method to completion and evaluates it per device type.
pub fn run_fl_method(
    scale: &Scale,
    method: Method,
    model: ModelKind,
    vision: VisionConfig,
    clients: Vec<ClientData>,
    tests: &[(String, Dataset)],
) -> MethodResult {
    let (trainer, aggregation) = method.build(
        LossKind::CrossEntropy,
        TransformKind::paper_vision(),
        &scale.fl,
    );
    let mut sim = FlSimulation::new(
        scale.fl,
        clients,
        super::model_factory(model, vision),
        trainer,
        aggregation,
    );
    let rounds = sim.run();
    let mut result =
        MethodResult::from_groups(method.as_str().to_string(), sim.evaluate_per_device(tests));
    result.rounds = rounds;
    result
}

/// Paper Table 4: every method on the nine-device fleet under the
/// market-share client mix.
pub fn method_suite(scale: &Scale, methods: &[Method]) -> Vec<MethodResult> {
    let vision = VisionConfig::new(3, scale.imagenet.num_classes, scale.imagenet.image_size);
    let (clients, tests) = build_fl_population(scale);
    methods
        .iter()
        .map(|&m| run_fl_method(scale, m, scale.model, vision, clients.clone(), &tests))
        .collect()
}

/// Paper Fig. 4: per-device degradation of the FedAvg global model relative
/// to the dominant devices (Galaxy S9 and S6). Returns
/// `(device, accuracy, degradation_vs_dominant)` rows.
pub fn fairness_vs_dominant(scale: &Scale) -> Vec<(String, f32, f32)> {
    let vision = VisionConfig::new(3, scale.imagenet.num_classes, scale.imagenet.image_size);
    let (clients, tests) = build_fl_population(scale);
    let result = run_fl_method(scale, Method::FedAvg, scale.model, vision, clients, &tests);
    let dominant = result
        .per_device
        .iter()
        .filter(|g| g.group == "S9" || g.group == "S6")
        .map(|g| g.accuracy)
        .fold(0.0f32, f32::max)
        .max(1e-6);
    result
        .per_device
        .iter()
        .map(|g| {
            (
                g.group.clone(),
                g.accuracy,
                (dominant - g.accuracy) / dominant,
            )
        })
        .collect()
}

/// Paper Fig. 5: leave-one-device-out domain generalization. For each held
/// out device, train FedAvg on the remaining devices and report the accuracy
/// on the held-out device relative to the all-device baseline.
pub fn dg_leave_one_out(scale: &Scale) -> Vec<(String, f32, f32)> {
    let devices = paper_devices();
    let datasets = build_device_datasets(&devices, scale.imagenet, scale.seed);
    let vision = VisionConfig::new(3, scale.imagenet.num_classes, scale.imagenet.image_size);

    // baseline: all devices participate equally
    let (clients, tests) = population_from_datasets(&datasets, scale, false);
    let baseline = run_fl_method(scale, Method::FedAvg, scale.model, vision, clients, &tests);

    datasets
        .iter()
        .enumerate()
        .map(|(i, held_out)| {
            let remaining: Vec<DeviceDataset> = datasets
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, d)| d.clone())
                .collect();
            let (clients, _) = population_from_datasets(&remaining, scale, false);
            let tests = vec![(held_out.device.clone(), held_out.test.clone())];
            let result = run_fl_method(scale, Method::FedAvg, scale.model, vision, clients, &tests);
            let excluded_acc = result.per_device[0].accuracy;
            let baseline_acc = baseline
                .per_device
                .iter()
                .find(|g| g.group == held_out.device)
                .map(|g| g.accuracy)
                .unwrap_or(0.0)
                .max(1e-6);
            (
                held_out.device.clone(),
                excluded_acc,
                (baseline_acc - excluded_acc) / baseline_acc,
            )
        })
        .collect()
}

/// Paper Table 5: FedAvg vs HeteroSwitch across model architectures.
pub fn table5_models(
    scale: &Scale,
    models: &[ModelKind],
) -> Vec<(ModelKind, MethodResult, MethodResult)> {
    let vision = VisionConfig::new(3, scale.imagenet.num_classes, scale.imagenet.image_size);
    let (clients, tests) = build_fl_population(scale);
    models
        .iter()
        .map(|&model| {
            let fedavg = run_fl_method(
                scale,
                Method::FedAvg,
                model,
                vision,
                clients.clone(),
                &tests,
            );
            let hetero = run_fl_method(
                scale,
                Method::HeteroSwitch,
                model,
                vision,
                clients.clone(),
                &tests,
            );
            (model, fedavg, hetero)
        })
        .collect()
}

/// One row of the FLAIR-style comparison (paper Table 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlairResult {
    /// Method name.
    pub method: String,
    /// Mean averaged precision across device types (percent).
    pub averaged_precision: f32,
    /// Variance of averaged precision across device types (percentage points
    /// squared).
    pub variance: f32,
}

/// Paper Table 6: multi-label averaged precision on the synthetic FLAIR-style
/// dataset for FedAvg, HeteroSwitch, q-FedAvg and FedProx.
pub fn table6_flair(scale: &Scale, methods: &[Method]) -> Vec<FlairResult> {
    let datasets = build_flair_datasets(scale.flair, scale.seed);
    let vision = VisionConfig::new(3, scale.flair.num_labels, scale.flair.image_size);
    let (clients, tests) = population_from_datasets(&datasets, scale, false);

    methods
        .iter()
        .map(|&method| {
            let (trainer, aggregation) =
                method.build(LossKind::Bce, TransformKind::paper_vision(), &scale.fl);
            let mut sim = FlSimulation::new(
                scale.fl,
                clients.clone(),
                super::model_factory(scale.model, vision),
                trainer,
                aggregation,
            );
            sim.run();
            let net = sim.global_model();
            let aps: Vec<f32> = tests
                .iter()
                .map(|(_, test)| evaluate_average_precision(&net, test) * 100.0)
                .collect();
            FlairResult {
                method: method.as_str().to_string(),
                averaged_precision: mean(&aps),
                variance: population_variance(&aps),
            }
        })
        .collect()
}

/// Paper Fig. 8: per-synthetic-device accuracy on the jittered CIFAR-style
/// dataset, FedAvg vs HeteroSwitch.
pub fn synthetic_cifar_study(scale: &Scale) -> (MethodResult, MethodResult) {
    let datasets = build_jitter_datasets(scale.cifar, scale.seed);
    let vision = VisionConfig::new(3, scale.cifar.num_classes, scale.cifar.image_size);
    let (clients, tests) = population_from_datasets(&datasets, scale, false);
    let fedavg = run_fl_method(
        scale,
        Method::FedAvg,
        ModelKind::SimpleCnn,
        vision,
        clients.clone(),
        &tests,
    );
    let hetero = run_fl_method(
        scale,
        Method::HeteroSwitch,
        ModelKind::SimpleCnn,
        vision,
        clients,
        &tests,
    );
    (fedavg, hetero)
}

/// Result of the ECG sensor-heterogeneity study (paper Sec. 6.6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EcgResult {
    /// Method name.
    pub method: String,
    /// Mean relative heart-rate deviation (percent) across sensor types.
    pub mean_deviation: f32,
    /// Per-sensor deviation rows.
    pub per_sensor: Vec<(String, f32)>,
}

/// Builds the small regression MLP used for the ECG study.
fn ecg_model_factory(window: usize) -> hs_fl::ModelFactory {
    Box::new(move |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(Sequential::new(vec![
            Box::new(Linear::new(window, 64, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(64, 32, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(32, 1, &mut rng)),
        ]))
    })
}

/// Paper Sec. 6.6: FedAvg vs HeteroSwitch (with the random Gaussian filter)
/// on the four-sensor ECG dataset; the metric is the relative heart-rate
/// deviation on each sensor's rendition of the same test signals.
pub fn ecg_study(scale: &Scale) -> Vec<EcgResult> {
    let datasets = build_ecg_datasets(scale.ecg, scale.seed);
    let (clients, tests) = population_from_datasets(&datasets, scale, false);

    [Method::FedAvg, Method::HeteroSwitch]
        .iter()
        .map(|&method| {
            let (trainer, aggregation) =
                method.build(LossKind::Mse, TransformKind::paper_ecg(), &scale.fl);
            let mut sim = FlSimulation::new(
                scale.fl,
                clients.clone(),
                ecg_model_factory(scale.ecg.window),
                trainer,
                aggregation,
            );
            sim.run();
            let net = sim.global_model();
            let per_sensor: Vec<(String, f32)> = tests
                .iter()
                .map(|(sensor, test)| {
                    let (pred, actual) = evaluate_heart_rate(&net, test, 200.0);
                    (sensor.clone(), heart_rate_deviation(&pred, &actual))
                })
                .collect();
            let deviations: Vec<f32> = per_sensor.iter().map(|(_, d)| *d).collect();
            EcgResult {
                method: method.as_str().to_string(),
                mean_deviation: mean(&deviations),
                per_sensor,
            }
        })
        .collect()
}

/// One point of the hyper-parameter sensitivity sweep (paper Fig. 9).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// Which hyper-parameter was varied.
    pub parameter: String,
    /// The value it was set to.
    pub value: f32,
    /// Mean accuracy across device types with that value.
    pub accuracy: f32,
}

/// Paper Fig. 9 / Appendix A.2: sensitivity of the FedAvg global accuracy to
/// the learning rate, minibatch size, local epochs and round count.
pub fn sensitivity_sweep(scale: &Scale) -> Vec<SensitivityPoint> {
    let vision = VisionConfig::new(3, scale.imagenet.num_classes, scale.imagenet.image_size);
    let (clients, tests) = build_fl_population(scale);
    let mut points = Vec::new();
    let base = scale.fl;

    let run_with = |fl: FlConfig, clients: Vec<ClientData>| -> f32 {
        let mut s = *scale;
        s.fl = fl;
        let result = run_fl_method(&s, Method::FedAvg, scale.model, vision, clients, &tests);
        result.average
    };

    for &lr in &[0.01f32, 0.1, 0.3] {
        let mut fl = base;
        fl.lr = lr;
        points.push(SensitivityPoint {
            parameter: "learning_rate".into(),
            value: lr,
            accuracy: run_with(fl, clients.clone()),
        });
    }
    for &batch in &[2usize, 10] {
        let mut fl = base;
        fl.batch_size = batch;
        points.push(SensitivityPoint {
            parameter: "batch_size".into(),
            value: batch as f32,
            accuracy: run_with(fl, clients.clone()),
        });
    }
    for &epochs in &[1usize, 3] {
        let mut fl = base;
        fl.local_epochs = epochs;
        points.push(SensitivityPoint {
            parameter: "local_epochs".into(),
            value: epochs as f32,
            accuracy: run_with(fl, clients.clone()),
        });
    }
    for &rounds in &[base.rounds / 2, base.rounds] {
        let mut fl = base;
        fl.rounds = rounds.max(1);
        points.push(SensitivityPoint {
            parameter: "rounds".into(),
            value: rounds as f32,
            accuracy: run_with(fl, clients.clone()),
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_labels_are_unique_and_cover_table4() {
        let labels: std::collections::HashSet<_> =
            Method::table4().iter().map(|m| m.as_str()).collect();
        assert_eq!(labels.len(), 7);
        assert_eq!(Method::table6().len(), 4);
    }

    #[test]
    fn population_builder_respects_market_shares() {
        let scale = Scale::tiny();
        let (clients, tests) = build_fl_population(&scale);
        assert_eq!(clients.len(), scale.fl.num_clients);
        assert_eq!(tests.len(), 9);
        // the dominant device (S6, 38% share) must own the most clients
        let count = |device: &str| clients.iter().filter(|c| c.device == device).count();
        assert!(count("S6") >= count("Pixel5"));
        assert!(clients.iter().all(|c| !c.data.is_empty()));
    }

    #[test]
    fn fedavg_and_heteroswitch_run_end_to_end_at_tiny_scale() {
        let scale = Scale::tiny();
        let results = method_suite(&scale, &[Method::FedAvg, Method::HeteroSwitch]);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.per_device.len(), 9);
            assert!(r.average >= 0.0 && r.average <= 1.0);
            assert!(r.worst_case <= r.average + 1e-6);
            assert!(r.variance >= 0.0);
        }
    }

    #[test]
    fn ecg_study_reports_all_four_sensors() {
        let scale = Scale::tiny();
        let results = ecg_study(&scale);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.per_sensor.len(), 4);
            assert!(r.mean_deviation.is_finite());
        }
    }
}
