//! The experiment index: the paper's evaluation as one table. Each
//! [`Experiment`] names a paper artifact and the function that regenerates
//! it at a [`Scale`]; the `exp` binary runs one entry or all of them:
//!
//! ```text
//! exp <name|all> [--tiny|--full] [--seed N] [--json-out PATH]
//! ```
//!
//! `--json-out` writes the run's record: the experiment's own record for one
//! name, an object keyed by name for `all`.

use super::{
    cross_device_matrix, dg_leave_one_out, ecg_study, fairness_vs_dominant, homo_vs_hetero,
    isp_ablation, method_suite, sensitivity_sweep, swad_robustness, synthetic_cifar_study,
    table5_models, table6_flair, Method, MethodResult,
};
use crate::Scale;
use hs_data::CaptureMode;
use hs_nn::models::ModelKind;
use serde::json::{JsonValue, ToJson};
use std::path::PathBuf;

/// One paper artifact and the function that regenerates it.
pub struct Experiment {
    /// The name `exp` selects it by.
    pub name: &'static str,
    /// The paper artifact it reproduces, as its table's heading.
    pub artifact: &'static str,
    /// Runs the experiment at a scale.
    pub run: fn(&Scale) -> Report,
}

/// What one experiment run prints under its heading, and records.
pub struct Report {
    /// The printed table, one entry per line.
    pub lines: Vec<String>,
    /// The run's record, as `--json-out` writes it.
    pub json: JsonValue,
}

impl Report {
    fn new(json: JsonValue) -> Report {
        Report {
            lines: Vec::new(),
            json,
        }
    }

    fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }
}

/// Every paper artifact, in the paper's order.
pub static EXPERIMENTS: [Experiment; 13] = [
    Experiment {
        name: "fig1",
        artifact: "Fig. 1: homogeneous vs heterogeneous clients",
        run: fig1,
    },
    Experiment {
        name: "table2",
        artifact: "Table 2: cross-device quality degradation (processed data)",
        run: table2,
    },
    Experiment {
        name: "fig2",
        artifact: "Fig. 2: cross-device degradation on RAW data",
        run: fig2,
    },
    Experiment {
        name: "fig3",
        artifact: "Fig. 3: ISP-stage ablation",
        run: fig3,
    },
    Experiment {
        name: "fig4",
        artifact: "Fig. 4: fairness — degradation vs the dominant devices",
        run: fig4,
    },
    Experiment {
        name: "fig5",
        artifact: "Fig. 5: leave-one-device-out domain generalization",
        run: fig5,
    },
    Experiment {
        name: "fig7",
        artifact: "Fig. 7: SWA vs SWAD robustness",
        run: fig7,
    },
    Experiment {
        name: "table4",
        artifact: "Table 4: method comparison on fairness and DG",
        run: table4,
    },
    Experiment {
        name: "table5",
        artifact: "Table 5: model architectures",
        run: table5,
    },
    Experiment {
        name: "table6",
        artifact: "Table 6: FLAIR-style multi-label evaluation",
        run: table6,
    },
    Experiment {
        name: "fig8",
        artifact: "Fig. 8: synthetic CIFAR with 10 jittered device types",
        run: fig8,
    },
    Experiment {
        name: "ecg",
        artifact: "Sec. 6.6: ECG sensor heterogeneity",
        run: ecg,
    },
    Experiment {
        name: "fig9",
        artifact: "Fig. 9: hyper-parameter sensitivity",
        run: fig9,
    },
];

/// A parsed `exp` command line.
pub struct Command {
    /// The experiment to run; `None` runs every one in [`EXPERIMENTS`].
    pub experiment: Option<&'static Experiment>,
    /// The scale to run at.
    pub scale: Scale,
    /// Where to write the JSON record, if anywhere.
    pub json_out: Option<PathBuf>,
}

impl Command {
    /// Parses `<name|all> [--tiny|--full] [--seed N] [--json-out PATH]`.
    /// An unknown name or flag, a flag without its value, or two scale flags
    /// is an error: a typo must not silently run something else.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let (name, rest) = args.split_first().ok_or("missing experiment name")?;
        let experiment = match name.as_str() {
            "all" => None,
            name => Some(
                EXPERIMENTS
                    .iter()
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment {name:?}"))?,
            ),
        };
        let mut rest = rest.to_vec();
        let json_out = match rest.iter().position(|a| a == "--json-out") {
            Some(i) => {
                let path = rest
                    .get(i + 1)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or("--json-out requires a path")?
                    .into();
                rest.drain(i..=i + 1);
                Some(path)
            }
            None => None,
        };
        Ok(Command {
            experiment,
            scale: Scale::from_args(&rest)?,
            json_out,
        })
    }

    /// The experiments this command runs, in table order.
    pub fn experiments(&self) -> &'static [Experiment] {
        self.experiment
            .map_or(&EXPERIMENTS[..], std::slice::from_ref)
    }
}

/// The `exp` usage line, naming every experiment.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: exp <{}|all> [--tiny|--full] [--seed N] [--json-out PATH]",
        names.join("|")
    )
}

/// A fraction as a percentage with one decimal.
fn pct(fraction: f32) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// A Table 4 / Table 5 row's DG worst case, variance and average columns.
fn summary(result: &MethodResult) -> String {
    format!(
        "{:.2}%\t{:.2}\t{:.2}%",
        result.worst_case * 100.0,
        result.variance,
        result.average * 100.0
    )
}

fn fig1(scale: &Scale) -> Report {
    let r = homo_vs_hetero(scale);
    let drop = (r.homogeneous - r.heterogeneous) / r.homogeneous.max(1e-6);
    let mut report = Report::new(r.to_json());
    report.line(format!(
        "Homogeneous clients accuracy:   {}",
        pct(r.homogeneous)
    ));
    report.line(format!(
        "Heterogeneous clients accuracy: {}",
        pct(r.heterogeneous)
    ));
    report.line(format!("Degradation from heterogeneity: {}", pct(drop)));
    report
}

fn table2(scale: &Scale) -> Report {
    let matrix = cross_device_matrix(scale, CaptureMode::Processed);
    let mut report = Report::new(matrix.to_json());
    report.line(matrix.to_table());
    report.line(format!(
        "Overall mean cross-device degradation: {} (paper reports 19.4%)",
        pct(matrix.overall_mean_degradation())
    ));
    report
}

fn fig2(scale: &Scale) -> Report {
    let raw = cross_device_matrix(scale, CaptureMode::Raw);
    let processed = cross_device_matrix(scale, CaptureMode::Processed);
    let mut report = Report::new(JsonValue::obj(vec![
        ("raw", raw.to_json()),
        ("processed", processed.to_json()),
    ]));
    report.line("Target device\tRAW mean-others degradation\t(min..max)\tProcessed mean-others");
    for (j, device) in raw.devices().iter().enumerate() {
        let mut degradations: Vec<f32> = (0..raw.devices().len())
            .filter(|&i| i != j)
            .map(|i| raw.degradation(i, j))
            .collect();
        degradations.sort_by(f32::total_cmp);
        report.line(format!(
            "{device}\t{}\t({}..{})\t{}",
            pct(raw.mean_others_for_test(j)),
            pct(degradations.first().copied().unwrap_or(0.0)),
            pct(degradations.last().copied().unwrap_or(0.0)),
            pct(processed.mean_others_for_test(j)),
        ));
    }
    report.line(format!(
        "Overall: RAW {} vs processed {} (the paper reports RAW degradation 31.7%-56.4%, above the processed 19.4%)",
        pct(raw.overall_mean_degradation()),
        pct(processed.overall_mean_degradation())
    ));
    report
}

fn fig3(scale: &Scale) -> Report {
    let rows = isp_ablation(scale);
    let mut report = Report::new(rows.to_json());
    report.line("Stage\tOption\tAccuracy\tDegradation");
    for row in &rows {
        report.line(format!(
            "{}\t{}\t{}\t{}",
            row.stage.as_str(),
            row.option,
            pct(row.accuracy),
            pct(row.degradation)
        ));
    }
    report.line("(The paper finds the Color/WB and Tone stages the most damaging to omit.)");
    report
}

fn fig4(scale: &Scale) -> Report {
    let rows = fairness_vs_dominant(scale);
    let mut report = Report::new(rows.to_json());
    report.line("Device\tAccuracy\tDegradation vs dominant");
    for row in &rows {
        let (accuracy, degradation) = (pct(row.accuracy), pct(row.degradation));
        report.line(format!("{}\t{accuracy}\t{degradation}", row.device));
    }
    report
}

fn fig5(scale: &Scale) -> Report {
    let rows = dg_leave_one_out(scale);
    let mut report = Report::new(rows.to_json());
    report.line("Excluded device\tAccuracy when excluded\tDegradation vs all-device baseline");
    for row in &rows {
        report.line(format!(
            "{}\t{}\t{:+.1}%",
            row.device,
            pct(row.accuracy),
            row.degradation * 100.0
        ));
    }
    report.line("(The paper observes that exclusion does not consistently hurt: some older devices even improve.)");
    report
}

fn fig7(scale: &Scale) -> Report {
    let rows = swad_robustness(scale);
    let mut report = Report::new(rows.to_json());
    report.line("Training variant\tTransformation\tMean degradation");
    for row in &rows {
        report.line(format!(
            "{}\t{}\t{}",
            row.variant.as_str(),
            row.transformation,
            pct(row.degradation)
        ));
    }
    report.line("(The paper finds SWAD the most robust variant overall.)");
    report
}

fn table4(scale: &Scale) -> Report {
    let results = method_suite(scale, &Method::table4());
    let mut report = Report::new(results.to_json());
    report.line("Method\tDG worst-case acc\tVariance\tAverage acc");
    for result in &results {
        report.line(format!("{}\t{}", result.method, summary(result)));
    }
    report
}

fn table5(scale: &Scale) -> Report {
    let models = [
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ];
    let rows = table5_models(scale, &models);
    let mut report = Report::new(JsonValue::Arr(
        rows.iter()
            .map(|(model, fedavg, hetero)| {
                let methods = JsonValue::Arr(vec![fedavg.to_json(), hetero.to_json()]);
                JsonValue::obj(vec![
                    ("model", model.as_str().to_json()),
                    ("methods", methods),
                ])
            })
            .collect(),
    ));
    report.line("Model\tMethod\tDG worst-case\tVariance\tAverage");
    for (model, fedavg, hetero) in &rows {
        for result in [fedavg, hetero] {
            let model = model.as_str();
            report.line(format!("{model}\t{}\t{}", result.method, summary(result)));
        }
    }
    report
}

fn table6(scale: &Scale) -> Report {
    let results = table6_flair(scale, &Method::table6());
    let mut report = Report::new(results.to_json());
    report.line("Method\tAveraged precision\tVariance");
    for r in &results {
        report.line(format!(
            "{}\t{:.2}%\t{:.2}",
            r.method, r.averaged_precision, r.variance
        ));
    }
    report
}

fn fig8(scale: &Scale) -> Report {
    let (fedavg, hetero) = synthetic_cifar_study(scale);
    let mut report = Report::new(JsonValue::Arr(vec![fedavg.to_json(), hetero.to_json()]));
    report.line("Device type\tFedAvg acc\tHeteroSwitch acc");
    for (a, b) in fedavg.per_device.iter().zip(&hetero.per_device) {
        let (fedavg, hetero) = (pct(a.accuracy), pct(b.accuracy));
        report.line(format!("{}\t{fedavg}\t{hetero}", a.group));
    }
    report.line(format!(
        "\nSummary: FedAvg avg {} (variance {:.1}); HeteroSwitch avg {} (variance {:.1})",
        pct(fedavg.average),
        fedavg.variance,
        pct(hetero.average),
        hetero.variance
    ));
    report
}

fn ecg(scale: &Scale) -> Report {
    let results = ecg_study(scale);
    let mut report = Report::new(results.to_json());
    for result in &results {
        report.line(format!("Method: {}", result.method));
        for s in &result.per_sensor {
            let (sensor, deviation) = (&s.sensor, s.deviation);
            report.line(format!("  {sensor}: heart-rate deviation {deviation:.1}%"));
        }
        report.line(format!("  mean deviation: {:.1}%", result.mean_deviation));
    }
    report.line("(The paper reports FedAvg at 31.8% deviation vs HeteroSwitch at 18.3%.)");
    report
}

fn fig9(scale: &Scale) -> Report {
    let points = sensitivity_sweep(scale);
    let mut report = Report::new(points.to_json());
    report.line("Parameter\tValue\tAverage accuracy");
    for p in &points {
        report.line(format!("{}\t{}\t{}", p.parameter, p.value, pct(p.accuracy)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn every_experiment_name_is_unique_and_parses() {
        let names: std::collections::BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
        for experiment in &EXPERIMENTS {
            let command = Command::parse(&args(&[experiment.name, "--tiny"])).unwrap();
            assert_eq!(command.experiments()[0].name, experiment.name);
            assert_eq!(command.experiments().len(), 1);
            assert_eq!(command.scale, Scale::tiny());
            assert!(usage().contains(experiment.name));
        }
        let all = Command::parse(&args(&["all", "--json-out", "out.json", "--seed", "3"])).unwrap();
        assert_eq!(all.experiments().len(), EXPERIMENTS.len());
        assert_eq!(all.json_out, Some(PathBuf::from("out.json")));
        assert_eq!(all.scale.seed, 3);
        for bad in [
            &[][..],
            &["table3"],
            &["--tiny", "table4"],
            &["table4", "--tinny"],
            &["table4", "--json-out"],
            &["table4", "--json-out", "--tiny"],
        ] {
            assert!(Command::parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
