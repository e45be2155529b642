//! Scaled-down MobileNetV3-small-style architecture.

use super::VisionConfig;
use crate::{
    BatchNorm2d, Conv2d, GlobalAvgPool, HardSwish, InvertedResidual, Linear, Network, Sequential,
};
use rand::rngs::StdRng;

/// Builds the MobileNetV3-small-style network used for the paper's main
/// experiments.
///
/// Structure (for a 32×32 input): a stride-2 stem, three inverted-residual
/// bottlenecks (two with squeeze-excite, hard-swish activations as in the
/// original design), a 1×1 feature-mixing head, global average pooling and a
/// linear classifier.
pub fn mobilenet_v3_small(cfg: VisionConfig, rng: &mut StdRng) -> Network {
    Network::new(Sequential::new(vec![
        // stem: /2
        Box::new(Conv2d::new(cfg.in_channels, 16, 3, 2, 1, 1, rng)),
        Box::new(BatchNorm2d::new(16)),
        Box::new(HardSwish::new()),
        // bottlenecks
        Box::new(InvertedResidual::new(16, 32, 16, 3, 1, true, true, rng)),
        Box::new(InvertedResidual::new(16, 48, 24, 3, 2, false, true, rng)),
        Box::new(InvertedResidual::new(24, 64, 32, 3, 2, true, true, rng)),
        // head
        Box::new(Conv2d::new(32, 64, 1, 1, 0, 1, rng)),
        Box::new(BatchNorm2d::new(64)),
        Box::new(HardSwish::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Linear::new(64, cfg.num_classes, rng)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn output_matches_num_classes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mobilenet_v3_small(VisionConfig::new(3, 7, 32), &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(net.forward(&x, false).dims(), &[1, 7]);
    }

    #[test]
    fn works_at_other_resolutions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = mobilenet_v3_small(VisionConfig::new(3, 12, 48), &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 48, 48], 0.0, 1.0, &mut rng);
        assert_eq!(net.forward(&x, false).dims(), &[1, 12]);
    }
}
