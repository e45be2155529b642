//! The per-device 12-class vision dataset standing in for the paper's custom
//! smartphone-captured ImageNet subset (Sec. 3.1).
//!
//! Its datasets feed FL runs that replay bit for bit, so every captured pixel
//! is a pure function of the configuration and the seed: the scenes come
//! from one serial stream, and each device captures them on a stream of its
//! own, whichever pool worker builds it.

#![deny(clippy::disallowed_types)]

use crate::{capture_sample, CaptureMode, Dataset, DeviceDataset, Labels, SceneGenerator};
use hs_device::DeviceProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The 12 ImageNet classes the paper displays on the monitor.
pub const IMAGENET12_CLASSES: [&str; 12] = [
    "Chihuahua",
    "Altar",
    "Cock",
    "Abaya",
    "Ambulance",
    "Loggerhead",
    "Timber Wolf",
    "Tiger Beetle",
    "Accordion",
    "French Loaf",
    "Barber Chair",
    "Orangutan",
];

/// Configuration for [`build_device_datasets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Imagenet12Config {
    /// Number of classes (≤ 12 for quick experiments; the paper uses 12).
    pub num_classes: usize,
    /// Edge length of the training tensors.
    pub image_size: usize,
    /// Edge length of the canonical scenes shown to every device.
    pub scene_size: usize,
    /// Training samples per class per device.
    pub train_per_class: usize,
    /// Test samples per class per device.
    pub test_per_class: usize,
    /// Processed (through the ISP) or RAW capture.
    pub mode: CaptureMode,
}

impl Default for Imagenet12Config {
    fn default() -> Self {
        Imagenet12Config {
            num_classes: 12,
            image_size: 32,
            scene_size: 48,
            train_per_class: 6,
            test_per_class: 3,
            mode: CaptureMode::Processed,
        }
    }
}

impl Imagenet12Config {
    /// A reduced configuration for fast unit tests and CI runs.
    pub fn tiny() -> Self {
        Imagenet12Config {
            num_classes: 4,
            image_size: 16,
            scene_size: 24,
            train_per_class: 2,
            test_per_class: 1,
            mode: CaptureMode::Processed,
        }
    }
}

/// Builds per-device train/test datasets.
///
/// Every device photographs the *same* canonical scenes (the paper shows the
/// same monitor images to all phones), so any difference between two devices'
/// datasets is system-induced: sensor plus ISP.
///
/// The scenes are generated serially; then each device's train and test sets
/// are one task on the shared pool (`hs_parallel`), so at most one device per
/// worker has images in flight. Device `di` captures on its own stream,
/// seeded `seed ^ (0x9e37_79b9 + di)`, so the result, returned in device
/// order, does not depend on the schedule or the thread target.
pub fn build_device_datasets(
    devices: &[DeviceProfile],
    cfg: Imagenet12Config,
    seed: u64,
) -> Vec<DeviceDataset> {
    let generator = SceneGenerator::new(cfg.num_classes, cfg.scene_size);
    // canonical scene sets, shared across devices
    let mut scene_rng = StdRng::seed_from_u64(seed);
    let mut train_scenes = Vec::new();
    let mut test_scenes = Vec::new();
    for class in 0..cfg.num_classes {
        for _ in 0..cfg.train_per_class {
            train_scenes.push((class, generator.generate(class, &mut scene_rng)));
        }
        for _ in 0..cfg.test_per_class {
            test_scenes.push((class, generator.generate(class, &mut scene_rng)));
        }
    }

    let capture = |di: usize| {
        let device = &devices[di];
        let mut capture_rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 + di as u64));
        let mut build = |scenes: &[(usize, hs_isp::ImageBuf)]| {
            let mut x = Vec::with_capacity(scenes.len());
            let mut y = Vec::with_capacity(scenes.len());
            for (class, scene) in scenes {
                x.push(capture_sample(
                    device,
                    scene,
                    cfg.mode,
                    cfg.image_size,
                    &mut capture_rng,
                ));
                y.push(*class);
            }
            Dataset::new(x, Labels::Classes(y))
        };
        let train = build(&train_scenes);
        let test = build(&test_scenes);
        DeviceDataset {
            device: device.name.clone(),
            share: device.market_share,
            train,
            test,
        }
    };
    let mut slots: Vec<Option<DeviceDataset>> = devices.iter().map(|_| None).collect();
    hs_parallel::parallel_chunks_mut(&mut slots, 1, |di, slot| slot[0] = Some(capture(di)));
    slots
        .into_iter()
        .map(|ds| ds.expect("every device is captured"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_device::paper_devices;

    #[test]
    fn builds_one_dataset_per_device() {
        let devices = paper_devices();
        let cfg = Imagenet12Config::tiny();
        let datasets = build_device_datasets(&devices[..3], cfg, 7);
        assert_eq!(datasets.len(), 3);
        for ds in &datasets {
            assert_eq!(ds.train.len(), cfg.num_classes * cfg.train_per_class);
            assert_eq!(ds.test.len(), cfg.num_classes * cfg.test_per_class);
            if let Labels::Classes(labels) = &ds.train.labels {
                assert!(labels.iter().all(|&l| l < cfg.num_classes));
            } else {
                panic!("expected class labels");
            }
        }
    }

    #[test]
    fn devices_see_the_same_content_rendered_differently() {
        let devices = paper_devices();
        let cfg = Imagenet12Config::tiny();
        let datasets = build_device_datasets(&[devices[0].clone(), devices[6].clone()], cfg, 3);
        // same labels in the same order (same canonical scenes) ...
        assert_eq!(datasets[0].train.labels, datasets[1].train.labels);
        // ... but different pixels (system-induced heterogeneity)
        let a = &datasets[0].train.x[0];
        let b = &datasets[1].train.x[0];
        let diff: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum::<f32>()
            / a.len() as f32;
        assert!(diff > 0.01);
    }

    #[test]
    fn generation_is_deterministic() {
        let devices = paper_devices();
        let cfg = Imagenet12Config::tiny();
        let a = build_device_datasets(&devices[..1], cfg, 11);
        let b = build_device_datasets(&devices[..1], cfg, 11);
        assert_eq!(a[0].train.x[0], b[0].train.x[0]);
    }

    #[test]
    fn class_names_cover_twelve_classes() {
        assert_eq!(IMAGENET12_CLASSES.len(), 12);
        let unique: std::collections::BTreeSet<_> = IMAGENET12_CLASSES.iter().collect();
        assert_eq!(unique.len(), 12);
    }
}
