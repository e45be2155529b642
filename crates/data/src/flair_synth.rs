//! Synthetic FLAIR-style dataset: multi-label images captured by a long tail
//! of device types (paper Sec. 6.4 / Table 6).
//!
//! FLAIR is a real federated dataset of user photos from more than a thousand
//! device types with multi-label annotations. The stand-in keeps those two
//! structural properties — multi-label supervision and many heterogeneous
//! device types — by compositing several labelled pattern patches into each
//! scene and rendering every scene through a synthetic device profile drawn
//! from [`hs_device::synthetic_fleet`].

use crate::{capture_sample, CaptureMode, Dataset, DeviceDataset, Labels, SceneGenerator};
use hs_device::{synthetic_fleet, DeviceProfile};
use hs_isp::ImageBuf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for [`build_flair_datasets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlairSynthConfig {
    /// Number of distinct labels.
    pub num_labels: usize,
    /// Edge length of the training tensors.
    pub image_size: usize,
    /// Edge length of the canonical scenes.
    pub scene_size: usize,
    /// Number of synthetic device types.
    pub num_devices: usize,
    /// Training samples per device type.
    pub train_per_device: usize,
    /// Test samples per device type.
    pub test_per_device: usize,
}

impl Default for FlairSynthConfig {
    fn default() -> Self {
        FlairSynthConfig {
            num_labels: 8,
            image_size: 32,
            scene_size: 48,
            num_devices: 20,
            train_per_device: 12,
            test_per_device: 6,
        }
    }
}

impl FlairSynthConfig {
    /// A reduced configuration for fast unit tests.
    pub fn tiny() -> Self {
        FlairSynthConfig {
            num_labels: 4,
            image_size: 16,
            scene_size: 24,
            num_devices: 3,
            train_per_device: 4,
            test_per_device: 2,
        }
    }
}

/// Composites a multi-label scene: each active label contributes its class
/// pattern to one quadrant-ish region of the canvas.
fn multi_label_scene(
    generator: &SceneGenerator,
    labels: &[usize],
    scene_size: usize,
    rng: &mut StdRng,
) -> ImageBuf {
    let mut canvas = ImageBuf::zeros(scene_size, scene_size, 3);
    // neutral background
    for v in &mut canvas.data {
        *v = 0.35;
    }
    for &label in labels {
        let patch = generator.generate(label, rng);
        // place the patch in a random sub-region covering roughly half the canvas
        let target = scene_size / 2 + scene_size / 4;
        let patch = patch.resize(target, target);
        let max_off = scene_size - target;
        let off_r = rng.gen_range(0..=max_off);
        let off_c = rng.gen_range(0..=max_off);
        for ch in 0..3 {
            for r in 0..target {
                for c in 0..target {
                    let existing = canvas.get(ch, off_r + r, off_c + c);
                    let incoming = patch.get(ch, r, c);
                    // alpha-blend so overlapping labels both stay visible
                    canvas.set(ch, off_r + r, off_c + c, 0.45 * existing + 0.55 * incoming);
                }
            }
        }
    }
    canvas
}

/// Builds one multi-label train/test dataset per synthetic device type.
///
/// Runs serially on the calling thread: one RNG draws every device's label
/// sets, scenes and capture noise in turn, so device `d`'s data depends on
/// every draw before it. (`build_device_datasets` gives each device its own
/// capture stream, and so can build them on the pool.)
pub fn build_flair_datasets(cfg: FlairSynthConfig, seed: u64) -> Vec<DeviceDataset> {
    let generator = SceneGenerator::new(cfg.num_labels, cfg.scene_size);
    let fleet: Vec<DeviceProfile> = synthetic_fleet(cfg.num_devices, seed ^ 0xF1A1_0001);
    let mut rng = StdRng::seed_from_u64(seed);

    fleet
        .iter()
        .map(|device| {
            let mut build = |count: usize| {
                let mut x = Vec::with_capacity(count);
                let mut hot = Vec::with_capacity(count);
                for _ in 0..count {
                    // FLAIR images typically carry a handful of labels
                    let num_active = rng.gen_range(1..=3.min(cfg.num_labels));
                    let mut labels: Vec<usize> = Vec::new();
                    while labels.len() < num_active {
                        let l = rng.gen_range(0..cfg.num_labels);
                        if !labels.contains(&l) {
                            labels.push(l);
                        }
                    }
                    let scene = multi_label_scene(&generator, &labels, cfg.scene_size, &mut rng);
                    x.push(capture_sample(
                        device,
                        &scene,
                        CaptureMode::Processed,
                        cfg.image_size,
                        &mut rng,
                    ));
                    let mut h = vec![0.0f32; cfg.num_labels];
                    for l in labels {
                        h[l] = 1.0;
                    }
                    hot.push(h);
                }
                Dataset::new(x, Labels::MultiHot(hot))
            };
            let train = build(cfg.train_per_device);
            let test = build(cfg.test_per_device);
            DeviceDataset {
                device: device.name.clone(),
                share: device.market_share,
                train,
                test,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_multilabel_datasets_per_device() {
        let cfg = FlairSynthConfig::tiny();
        let datasets = build_flair_datasets(cfg, 3);
        assert_eq!(datasets.len(), cfg.num_devices);
        for ds in &datasets {
            assert_eq!(ds.train.len(), cfg.train_per_device);
            assert_eq!(ds.test.len(), cfg.test_per_device);
            match &ds.train.labels {
                Labels::MultiHot(hot) => {
                    assert!(hot.iter().all(|h| h.len() == cfg.num_labels));
                    // every sample has at least one active label
                    assert!(hot.iter().all(|h| h.iter().sum::<f32>() >= 1.0));
                }
                _ => panic!("expected multi-hot labels"),
            }
        }
    }

    #[test]
    fn device_types_are_distinct() {
        let cfg = FlairSynthConfig::tiny();
        let datasets = build_flair_datasets(cfg, 4);
        let names: std::collections::HashSet<_> =
            datasets.iter().map(|d| d.device.clone()).collect();
        assert_eq!(names.len(), cfg.num_devices);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FlairSynthConfig::tiny();
        let a = build_flair_datasets(cfg, 9);
        let b = build_flair_datasets(cfg, 9);
        assert_eq!(a[0].train.x[0], b[0].train.x[0]);
        assert_eq!(a[0].train.labels, b[0].train.labels);
    }
}
