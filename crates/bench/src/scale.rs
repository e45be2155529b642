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

    /// Selects a scale from a command-line argument list: `--full` selects
    /// [`Scale::paper`], `--tiny` selects [`Scale::tiny`], neither selects
    /// [`Scale::quick`]. `--seed N` then replaces the preset's
    /// [`Scale::seed`].
    ///
    /// Any other argument, a second scale flag or `--seed`, or a `--seed`
    /// without an unsigned integer value is an error: a typo must not
    /// silently run another scale or the default seed.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut preset: Option<&str> = None;
        let mut seed = None;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--tiny" | "--full" => {
                    if let Some(first) = preset.replace(arg) {
                        return Err(format!("{first} and {arg} both select a scale"));
                    }
                }
                "--seed" => {
                    let value = args.next().ok_or("--seed requires a value")?;
                    let parsed = value
                        .parse()
                        .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
                    if seed.replace(parsed).is_some() {
                        return Err("--seed given twice".to_string());
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let mut scale = match preset {
            Some("--full") => Scale::paper(),
            Some(_) => Scale::tiny(),
            None => Scale::quick(),
        };
        scale.seed = seed.unwrap_or(scale.seed);
        Ok(scale)
    }
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

    #[test]
    fn from_args_selects_scales() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let parse = |list: &[&str]| Scale::from_args(&args(list));
        assert_eq!(parse(&["--full"]), Ok(Scale::paper()));
        assert_eq!(parse(&["--tiny"]), Ok(Scale::tiny()));
        assert_eq!(parse(&[]), Ok(Scale::quick()));
        let seeded = |mut scale: Scale| {
            scale.seed = 3;
            Ok(scale)
        };
        assert_eq!(parse(&["--seed", "3"]), seeded(Scale::quick()));
        assert_eq!(parse(&["--tiny", "--seed", "3"]), seeded(Scale::tiny()));
        assert_eq!(parse(&["--seed", "3", "--tiny"]), seeded(Scale::tiny()));
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--seed", "--tiny"],
            &["--seed", "3", "--seed", "4"],
            &["--tiny", "--full"],
            &["--tiny", "--tiny"],
            &["--tinny"],
            &["table4"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
