//! Experiment implementations, one function per paper table/figure.
//!
//! [`EXPERIMENTS`], the experiment index, maps each paper artifact to the
//! function that regenerates it and the name the `exp` binary runs it by.

mod chaos;
mod characterization;
mod federated;
mod fleet_scale;
mod index;
mod swad_study;

pub use chaos::{chaos_study, ChaosConfig, ChaosReport};
pub use characterization::{
    cross_device_matrix, homo_vs_hetero, isp_ablation, train_centralized, HomoVsHetero,
    IspAblationRow,
};
pub use federated::{
    build_fl_population, dg_leave_one_out, ecg_study, fairness_vs_dominant, method_suite,
    run_fl_method, sensitivity_sweep, synthetic_cifar_study, table5_models, table6_flair,
    DeviceDegradation, EcgResult, FlairResult, Method, MethodResult, SensitivityPoint,
    SensorDeviation,
};
pub use fleet_scale::{fleet_scale_study, FleetScaleConfig, FleetScaleReport, FleetSizeRow};
pub use index::{usage, Command, Experiment, Report, EXPERIMENTS};
pub use swad_study::{swad_robustness, RobustnessRow, TrainingVariant};

use hs_fl::ModelFactory;
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a [`ModelFactory`] for the given architecture and vision
/// configuration.
pub fn model_factory(kind: ModelKind, cfg: VisionConfig) -> ModelFactory {
    Box::new(move |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        build_vision_model(kind, cfg, &mut rng)
    })
}
