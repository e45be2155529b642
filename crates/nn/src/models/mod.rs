//! The mobile model zoo used by the HeteroSwitch experiments.
//!
//! The paper evaluates MobileNetV3-small (main results), ShuffleNetV2 and
//! SqueezeNet (Table 5), a simple CNN (Fig. 8, synthetic CIFAR) and a small
//! regression DNN for the ECG study (Sec. 6.6). The architectures here keep
//! each model's structural signature (inverted residuals + squeeze-excite,
//! channel-shuffle units, fire modules) at a width and depth that trains in
//! seconds on a CPU, which is what the reproduction needs.

mod ecgnet;
mod mobilenet;
mod shufflenet;
mod simple_cnn;
mod squeezenet;

pub use ecgnet::ecg_net;
pub use mobilenet::mobilenet_v3_small;
pub use shufflenet::shufflenet_v2;
pub use simple_cnn::simple_cnn;
pub use squeezenet::squeezenet;

use crate::Network;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Configuration shared by every vision model constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisionConfig {
    /// Number of input channels (3 for processed RGB, 1 for RAW mosaics).
    pub in_channels: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Square input resolution in pixels.
    pub image_size: usize,
}

impl VisionConfig {
    /// Convenience constructor.
    pub fn new(in_channels: usize, num_classes: usize, image_size: usize) -> Self {
        VisionConfig {
            in_channels,
            num_classes,
            image_size,
        }
    }
}

impl Default for VisionConfig {
    fn default() -> Self {
        VisionConfig {
            in_channels: 3,
            num_classes: 12,
            image_size: 32,
        }
    }
}

/// The architectures evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Small CNN used for the synthetic CIFAR experiment (Fig. 8).
    SimpleCnn,
    /// MobileNetV3-small-style network (main experiments).
    MobileNetV3Small,
    /// ShuffleNetV2-style network (Table 5).
    ShuffleNetV2,
    /// SqueezeNet-style network (Table 5).
    SqueezeNet,
}

impl ModelKind {
    /// Human-readable name matching the paper's tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            ModelKind::SimpleCnn => "SimpleCNN",
            ModelKind::MobileNetV3Small => "MobileNetV3-small",
            ModelKind::ShuffleNetV2 => "ShuffleNetV2-x0.5",
            ModelKind::SqueezeNet => "SqueezeNet1.1",
        }
    }
}

/// Builds a vision model of the requested architecture.
pub fn build_vision_model(kind: ModelKind, cfg: VisionConfig, rng: &mut StdRng) -> Network {
    match kind {
        ModelKind::SimpleCnn => simple_cnn(cfg, rng),
        ModelKind::MobileNetV3Small => mobilenet_v3_small(cfg, rng),
        ModelKind::ShuffleNetV2 => shufflenet_v2(cfg, rng),
        ModelKind::SqueezeNet => squeezenet(cfg, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::Tensor;
    use rand::SeedableRng;

    fn check_model(kind: ModelKind) {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = VisionConfig::new(3, 12, 32);
        let mut net = build_vision_model(kind, cfg, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 32, 32], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[2, 12], "{kind:?} logits shape");
        let g = net.backward(&Tensor::ones(&[2, 12]));
        assert_eq!(g.dims(), &[2, 3, 32, 32], "{kind:?} input gradient shape");
        assert!(
            net.num_weights() > 1000,
            "{kind:?} should have real capacity"
        );
    }

    #[test]
    fn simple_cnn_forward_backward() {
        check_model(ModelKind::SimpleCnn);
    }

    #[test]
    fn mobilenet_forward_backward() {
        check_model(ModelKind::MobileNetV3Small);
    }

    #[test]
    fn shufflenet_forward_backward() {
        check_model(ModelKind::ShuffleNetV2);
    }

    #[test]
    fn squeezenet_forward_backward() {
        check_model(ModelKind::SqueezeNet);
    }

    #[test]
    fn model_weight_vectors_transfer_between_replicas() {
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(2);
        let cfg = VisionConfig::new(3, 5, 32);
        let mut a = build_vision_model(ModelKind::MobileNetV3Small, cfg, &mut rng1);
        let mut b = build_vision_model(ModelKind::MobileNetV3Small, cfg, &mut rng2);
        assert_eq!(a.num_weights(), b.num_weights());
        b.set_weights(&a.weights());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> = [
            ModelKind::SimpleCnn,
            ModelKind::MobileNetV3Small,
            ModelKind::ShuffleNetV2,
            ModelKind::SqueezeNet,
        ]
        .iter()
        .map(|k| k.as_str())
        .collect();
        assert_eq!(names.len(), 4);
    }
}
