//! The SWA-vs-SWAD robustness study (paper Fig. 7).
//!
//! A model is trained centrally with random data transformations at a low
//! degree (0.3); the trained weights (last iterate, per-epoch SWA average or
//! per-batch SWAD average) are then evaluated on test data distorted by each
//! transformation at increasing degrees, and the degradation relative to the
//! clean test accuracy is reported.

use crate::Scale;
use heteroswitch::{
    affine_transform, gaussian_noise, random_gamma, random_white_balance, AveragingMode,
    WeightAverager,
};
use hs_data::{build_device_datasets, Dataset, Labels};
use hs_device::paper_devices;
use hs_fl::evaluate_accuracy;
use hs_metrics::mean;
use hs_nn::models::VisionConfig;
use hs_nn::{CrossEntropyLoss, Sgd};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The three training variants compared in Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrainingVariant {
    /// Random transformation only (last SGD iterate).
    TransformOnly,
    /// Transformation + conventional per-epoch SWA.
    TransformSwa,
    /// Transformation + per-batch SWAD.
    TransformSwad,
}

impl TrainingVariant {
    /// All variants in the figure's order.
    pub fn all() -> [TrainingVariant; 3] {
        [
            TrainingVariant::TransformOnly,
            TrainingVariant::TransformSwa,
            TrainingVariant::TransformSwad,
        ]
    }

    /// Display label.
    pub fn as_str(&self) -> &'static str {
        match self {
            TrainingVariant::TransformOnly => "Transform only",
            TrainingVariant::TransformSwa => "Transform + SWA",
            TrainingVariant::TransformSwad => "Transform + SWAD",
        }
    }
}

impl serde::json::ToJson for TrainingVariant {
    /// The variant's [`TrainingVariant::as_str`] label.
    fn to_json(&self) -> serde::json::JsonValue {
        serde::json::ToJson::to_json(self.as_str())
    }
}

/// One row of the Fig. 7 result: a training variant evaluated against one
/// test-time transformation.
#[derive(Debug, Clone, Serialize, Deserialize, serde::ToJson)]
pub struct RobustnessRow {
    /// Training variant.
    pub variant: TrainingVariant,
    /// Test-time transformation name (Affine, Gaussian, WB, Gamma).
    pub transformation: String,
    /// Mean quality degradation over the degree sweep, relative to the
    /// clean-test accuracy.
    pub degradation: f32,
}

/// Names and appliers of the Fig. 7 test-time transformations.
fn apply_named(name: &str, image: &Tensor, degree: f32, rng: &mut StdRng) -> Tensor {
    match name {
        "Affine" => affine_transform(image, degree, rng),
        "Gaussian" => gaussian_noise(image, degree, rng),
        "WB" => random_white_balance(image, degree, rng),
        "Gamma" => random_gamma(image, degree, rng),
        _ => unreachable!("unknown transformation {name}"),
    }
}

fn transform_test_set(data: &Dataset, name: &str, degree: f32, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Tensor> = data
        .x
        .iter()
        .map(|img| apply_named(name, img, degree, &mut rng))
        .collect();
    let labels = match &data.labels {
        Labels::Classes(c) => Labels::Classes(c.clone()),
        other => panic!("robustness study expects class labels, got {other:?}"),
    };
    Dataset::new(x, labels)
}

/// Runs the Fig. 7 study: train each variant once, evaluate against every
/// transformation over degrees 0.3–0.9.
pub fn swad_robustness(scale: &Scale) -> Vec<RobustnessRow> {
    // single-device (reference) data: the study uses the original 12-class
    // dataset without federated training
    let devices = paper_devices();
    let datasets = build_device_datasets(&devices[..1], scale.imagenet, scale.seed);
    let train = &datasets[0].train;
    let test = &datasets[0].test;
    let vision = VisionConfig::new(3, scale.imagenet.num_classes, scale.imagenet.image_size);

    let degrees = [0.3f32, 0.5, 0.7, 0.9];
    let transformations = ["Affine", "Gaussian", "WB", "Gamma"];
    let mut rows = Vec::new();

    for variant in TrainingVariant::all() {
        // train with low-degree random transformations (degree 0.3), tracking
        // the requested weight average
        let mut rng = StdRng::seed_from_u64(scale.seed);
        let mut net = hs_nn::models::build_vision_model(scale.model, vision, &mut rng);
        let mut opt = Sgd::new(scale.centralized_lr);
        let mut averager = match variant {
            TrainingVariant::TransformOnly => None,
            TrainingVariant::TransformSwa => {
                Some(WeightAverager::new(AveragingMode::PerEpoch, &net.weights()))
            }
            TrainingVariant::TransformSwad => {
                Some(WeightAverager::new(AveragingMode::PerBatch, &net.weights()))
            }
        };
        for _epoch in 0..scale.centralized_epochs {
            let mut order: Vec<usize> = (0..train.len()).collect();
            order.shuffle(&mut rng);
            for batch in order.chunks(scale.fl.batch_size.max(1)) {
                // random low-degree transformation of the batch
                let name = transformations[rng.gen_range_usize(transformations.len())];
                let indices: Vec<usize> = batch.to_vec();
                let subset = train.subset(&indices);
                let transformed = transform_test_set(&subset, name, 0.3, scale.seed ^ 0x51AD);
                let (x, target) = transformed.full_batch();
                net.forward_backward(&x, &target, &CrossEntropyLoss);
                opt.step(&mut net);
                if let Some(avg) = averager.as_mut() {
                    avg.on_batch_end(&net.weights());
                }
            }
            if let Some(avg) = averager.as_mut() {
                avg.on_epoch_end(&net.weights());
            }
        }
        if let Some(avg) = averager {
            net.set_weights(avg.average());
        }

        let clean_acc = evaluate_accuracy(&net, test).max(1e-6);
        for name in transformations {
            let degradations: Vec<f32> = degrees
                .iter()
                .map(|&degree| {
                    let distorted = transform_test_set(test, name, degree, scale.seed ^ 0x7e57);
                    let acc = evaluate_accuracy(&net, &distorted);
                    (clean_acc - acc) / clean_acc
                })
                .collect();
            rows.push(RobustnessRow {
                variant,
                transformation: name.to_string(),
                degradation: mean(&degradations),
            });
        }
    }
    rows
}

/// Small helper so the RNG usage above stays on `StdRng` only.
trait RangeUsize {
    fn gen_range_usize(&mut self, upper: usize) -> usize;
}

impl RangeUsize for StdRng {
    fn gen_range_usize(&mut self, upper: usize) -> usize {
        use rand::Rng;
        self.gen_range(0..upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robustness_rows_cover_all_variants_and_transformations() {
        let scale = Scale::tiny();
        let rows = swad_robustness(&scale);
        assert_eq!(rows.len(), 3 * 4);
        let variants: std::collections::HashSet<_> = rows.iter().map(|r| r.variant).collect();
        assert_eq!(variants.len(), 3);
        assert!(rows.iter().all(|r| r.degradation.is_finite()));
    }

    #[test]
    fn variant_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            TrainingVariant::all().iter().map(|v| v.as_str()).collect();
        assert_eq!(labels.len(), 3);
    }
}
