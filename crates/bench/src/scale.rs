//! Experiment scale presets.

use hs_data::{CifarSynthConfig, EcgConfig, FlairSynthConfig, Imagenet12Config};
use hs_fl::FlConfig;
use hs_nn::models::ModelKind;
use serde::{Deserialize, Serialize};

/// Dataset, model and FL sizes for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Per-device 12-class dataset configuration.
    pub imagenet: Imagenet12Config,
    /// Synthetic-CIFAR configuration (Fig. 8).
    pub cifar: CifarSynthConfig,
    /// FLAIR-style configuration (Table 6).
    pub flair: FlairSynthConfig,
    /// ECG configuration (Sec. 6.6).
    pub ecg: EcgConfig,
    /// FL hyper-parameters.
    pub fl: FlConfig,
    /// Model for the main experiments.
    pub model: ModelKind,
    /// Epochs for centralized (per-device) characterization training.
    pub centralized_epochs: usize,
    /// Learning rate for centralized characterization training.
    pub centralized_lr: f32,
    /// Base seed.
    pub seed: u64,
}

impl Scale {
    /// Quick scale: finishes each experiment in minutes on a CPU while
    /// preserving the paper's qualitative trends.
    pub fn quick() -> Self {
        let imagenet = Imagenet12Config {
            num_classes: 8,
            image_size: 16,
            scene_size: 32,
            train_per_class: 5,
            test_per_class: 3,
            ..Imagenet12Config::default()
        };
        let cifar = CifarSynthConfig {
            num_classes: 8,
            image_size: 16,
            train_per_class: 5,
            test_per_class: 3,
            ..CifarSynthConfig::default()
        };
        let flair = FlairSynthConfig {
            num_devices: 8,
            image_size: 16,
            scene_size: 24,
            train_per_device: 10,
            test_per_device: 5,
            ..FlairSynthConfig::default()
        };
        let ecg = EcgConfig {
            train_per_sensor: 30,
            test_per_sensor: 10,
            ..EcgConfig::default()
        };
        let fl = FlConfig {
            num_clients: 20,
            clients_per_round: 5,
            rounds: 40,
            batch_size: 10,
            ..FlConfig::quick()
        };

        Scale {
            imagenet,
            cifar,
            flair,
            ecg,
            fl,
            // The quick preset favours the simple CNN: it converges within the
            // reduced round budget, which is what makes the relative method
            // comparison meaningful at this scale. Table 5 still instantiates
            // the full mobile model zoo explicitly.
            model: ModelKind::SimpleCnn,
            centralized_epochs: 25,
            centralized_lr: 0.05,
            seed: 7,
        }
    }

    /// Tiny scale for unit and integration tests (seconds).
    pub fn tiny() -> Self {
        let mut s = Scale::quick();
        s.imagenet.num_classes = 3;
        s.imagenet.image_size = 8;
        s.imagenet.scene_size = 16;
        s.imagenet.train_per_class = 2;
        s.imagenet.test_per_class = 2;
        s.cifar.num_classes = 3;
        s.cifar.image_size = 8;
        s.cifar.num_device_types = 3;
        s.cifar.train_per_class = 2;
        s.cifar.test_per_class = 2;
        s.flair.num_devices = 3;
        s.flair.num_labels = 3;
        s.flair.image_size = 8;
        s.flair.scene_size = 16;
        s.flair.train_per_device = 4;
        s.flair.test_per_device = 2;
        s.ecg.train_per_sensor = 6;
        s.ecg.test_per_sensor = 3;
        s.ecg.window = 32;
        s.fl.num_clients = 6;
        s.fl.clients_per_round = 2;
        s.fl.rounds = 3;
        s.fl.batch_size = 4;
        s.model = ModelKind::SimpleCnn;
        s.centralized_epochs = 8;
        s
    }

    /// The paper's full-scale configuration (`N = 100`, `K = 20`, `T = 1000`,
    /// 12 classes, 32-pixel inputs). Expect hours of CPU time per experiment.
    pub fn paper() -> Self {
        let mut s = Scale::quick();
        s.imagenet = Imagenet12Config::default();
        s.cifar = CifarSynthConfig::default();
        s.flair = FlairSynthConfig::default();
        s.ecg = EcgConfig::default();
        s.fl = FlConfig::paper();
        s.model = ModelKind::MobileNetV3Small;
        s.centralized_epochs = 60;
        s
    }
}

/// A run size as the command line selects it: `--tiny`, no flag, or
/// `--full`. Each experiment maps it to its own sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// `--tiny`: the smallest run (seconds).
    Tiny,
    /// No size flag: the experiment's default run.
    Default,
    /// `--full`: the paper's scale.
    Full,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_internally_consistent() {
        for scale in [Scale::quick(), Scale::tiny(), Scale::paper()] {
            scale.fl.validate();
            assert!(scale.imagenet.num_classes >= 2);
            assert!(scale.centralized_epochs > 0);
        }
    }

    #[test]
    fn paper_scale_matches_published_fl_setup() {
        let s = Scale::paper();
        assert_eq!(s.fl.num_clients, 100);
        assert_eq!(s.fl.rounds, 1000);
        assert_eq!(s.imagenet.num_classes, 12);
    }
}
