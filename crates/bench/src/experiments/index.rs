//! The experiment index: the paper's evaluation as one table, and the
//! systems harnesses as a second. Each [`Experiment`] names what it
//! regenerates and the function that does; the `exp` binary runs one entry,
//! or every paper entry with `all`:
//!
//! ```text
//! exp <name|all> [--tiny|--full] [--seed N] [--json-out PATH]
//! exp <chaos|fleet-scale|serving-sweep> [--tiny] [--json-out PATH]
//! HS_TRACE=1 exp chaos [--tiny] [--json-out PATH] [--trace-out PATH]
//! ```
//!
//! `--json-out` writes the run's record: the entry's own record for one
//! name, an object keyed by name for `all`. `--trace-out` writes the run's
//! Chrome trace. A harness has no paper scale and no seed: `--full` and
//! `--seed` are errors there, as is any flag an entry does not take.

use super::{
    chaos_study, cross_device_matrix, dg_leave_one_out, ecg_study, fairness_vs_dominant,
    fleet_scale_study, homo_vs_hetero, isp_ablation, method_suite, sensitivity_sweep,
    serving_sweep, swad_robustness, synthetic_cifar_study, table5_models, table6_flair,
    ChaosConfig, FleetScaleConfig, Method, MethodResult, SweepRecord,
};
use crate::{LoadOutcome, Preset, Scale};
use hs_data::CaptureMode;
use hs_nn::models::ModelKind;
use serde::json::{JsonValue, ToJson};
use std::path::PathBuf;

/// One entry of the index: what it reproduces and the function that does.
#[derive(Debug)]
pub struct Experiment {
    /// The name `exp` selects it by.
    pub name: &'static str,
    /// What it reproduces, as its output's heading.
    pub artifact: &'static str,
    /// The function that runs it.
    pub run: Run,
}

/// How an entry runs, which fixes the flags it takes.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// A paper artifact at a [`Scale`]: takes `--tiny`, `--full` and
    /// `--seed N`.
    Paper(fn(&Scale) -> Report),
    /// A systems harness at its default size or, with `--tiny`, its
    /// smallest. A `traced` harness also takes `--trace-out PATH`.
    Harness {
        /// Runs the harness at the preset the command selected.
        run: fn(Preset) -> Report,
        /// Whether it takes `--trace-out`.
        traced: bool,
    },
}

impl Experiment {
    /// Whether the entry takes `flag`; every entry takes `--tiny` and
    /// `--json-out`.
    fn takes(&self, flag: &str) -> bool {
        match self.run {
            Run::Paper(_) => flag != "--trace-out",
            Run::Harness { traced, .. } => {
                matches!(flag, "--tiny" | "--json-out") || (traced && flag == "--trace-out")
            }
        }
    }
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

const fn paper(
    name: &'static str,
    artifact: &'static str,
    run: fn(&Scale) -> Report,
) -> Experiment {
    let run = Run::Paper(run);
    Experiment {
        name,
        artifact,
        run,
    }
}

const fn harness(
    name: &'static str,
    artifact: &'static str,
    run: fn(Preset) -> Report,
    traced: bool,
) -> Experiment {
    let run = Run::Harness { run, traced };
    Experiment {
        name,
        artifact,
        run,
    }
}

/// Every paper artifact, in the paper's order.
pub static EXPERIMENTS: [Experiment; 13] = [
    paper("fig1", "Fig. 1: homogeneous vs heterogeneous clients", fig1),
    paper(
        "table2",
        "Table 2: cross-device quality degradation (processed data)",
        table2,
    ),
    paper("fig2", "Fig. 2: cross-device degradation on RAW data", fig2),
    paper("fig3", "Fig. 3: ISP-stage ablation", fig3),
    paper(
        "fig4",
        "Fig. 4: fairness — degradation vs the dominant devices",
        fig4,
    ),
    paper(
        "fig5",
        "Fig. 5: leave-one-device-out domain generalization",
        fig5,
    ),
    paper("fig7", "Fig. 7: SWA vs SWAD robustness", fig7),
    paper(
        "table4",
        "Table 4: method comparison on fairness and DG",
        table4,
    ),
    paper("table5", "Table 5: model architectures", table5),
    paper(
        "table6",
        "Table 6: FLAIR-style multi-label evaluation",
        table6,
    ),
    paper(
        "fig8",
        "Fig. 8: synthetic CIFAR with 10 jittered device types",
        fig8,
    ),
    paper("ecg", "Sec. 6.6: ECG sensor heterogeneity", ecg),
    paper("fig9", "Fig. 9: hyper-parameter sensitivity", fig9),
];

/// The systems harnesses: not paper artifacts, so `all` leaves them out.
pub static HARNESSES: [Experiment; 3] = [
    harness("chaos", "Chaos: faults vs FL -> serving", chaos, true),
    harness("fleet-scale", "Fleet-scale rounds", fleet_scale, false),
    harness("serving-sweep", "Serving load sweep", serving, false),
];

/// A parsed `exp` command line.
#[derive(Debug)]
pub struct Command {
    /// The entry to run; `None` runs every paper entry in [`EXPERIMENTS`].
    pub experiment: Option<&'static Experiment>,
    /// The size preset: `--tiny`, `--full`, or neither.
    pub preset: Preset,
    /// `--seed N`, which replaces the preset scale's seed.
    pub seed: Option<u64>,
    /// Where to write the JSON record, if anywhere.
    pub json_out: Option<PathBuf>,
    /// Where to write the run's Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// The value after `flag`: present and not itself a flag.
fn value<'a>(args: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Stores a flag's value, which may be given once.
fn once<T>(slot: &mut Option<T>, value: T, flag: &str) -> Result<(), String> {
    match slot.replace(value) {
        Some(_) => Err(format!("{flag} given twice")),
        None => Ok(()),
    }
}

impl Command {
    /// Parses `<name|all>` and the flags the entry takes (see the module
    /// docs). An unknown name or flag, a flag the entry does not take, a
    /// flag given twice, two size presets, or a missing or malformed value
    /// is an error: a typo must not silently run something else.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let (name, rest) = args.split_first().ok_or("missing experiment name")?;
        let experiment = match name.as_str() {
            "all" => None,
            name => Some(
                EXPERIMENTS
                    .iter()
                    .chain(&HARNESSES)
                    .find(|e| e.name == name)
                    .ok_or_else(|| format!("unknown experiment {name:?}"))?,
            ),
        };
        let mut command = Command {
            experiment,
            preset: Preset::Default,
            seed: None,
            json_out: None,
            trace_out: None,
        };
        let mut preset = None;
        let mut rest = rest.iter();
        while let Some(flag) = rest.next().map(String::as_str) {
            let known = ["--tiny", "--full", "--seed", "--json-out", "--trace-out"];
            if !known.contains(&flag) {
                return Err(format!("unknown argument {flag:?}"));
            }
            // `all` takes what each paper entry takes
            if !experiment.unwrap_or(&EXPERIMENTS[0]).takes(flag) {
                return Err(format!("{name} takes no {flag}"));
            }
            match flag {
                "--seed" => {
                    let seed = value(&mut rest, flag)?;
                    let seed = seed
                        .parse()
                        .map_err(|_| format!("--seed {seed:?} is not an unsigned integer"))?;
                    once(&mut command.seed, seed, flag)?;
                }
                "--json-out" => once(&mut command.json_out, value(&mut rest, flag)?.into(), flag)?,
                "--trace-out" => {
                    once(&mut command.trace_out, value(&mut rest, flag)?.into(), flag)?;
                }
                size => match preset.replace(size) {
                    Some(first) if first == size => return Err(format!("{size} given twice")),
                    Some(first) => return Err(format!("{first} and {size} both select a size")),
                    None => {}
                },
            }
        }
        command.preset = match preset {
            Some("--tiny") => Preset::Tiny,
            Some(_) => Preset::Full,
            None => Preset::Default,
        };
        Ok(command)
    }

    /// The experiments this command runs, in table order.
    pub fn experiments(&self) -> &'static [Experiment] {
        self.experiment
            .map_or(&EXPERIMENTS[..], std::slice::from_ref)
    }

    /// The scale a paper entry runs at: the preset's, with `--seed` applied.
    pub fn scale(&self) -> Scale {
        let mut scale = match self.preset {
            Preset::Tiny => Scale::tiny(),
            Preset::Default => Scale::quick(),
            Preset::Full => Scale::paper(),
        };
        scale.seed = self.seed.unwrap_or(scale.seed);
        scale
    }

    /// Runs one entry with this command's settings.
    pub fn run(&self, experiment: &Experiment) -> Report {
        match experiment.run {
            Run::Paper(run) => run(&self.scale()),
            Run::Harness { run, .. } => run(self.preset),
        }
    }
}

/// The `exp` usage lines, naming every entry.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let mut usage = format!(
        "usage: exp <{}|all> [--tiny|--full] [--seed N] [--json-out PATH]",
        names.join("|")
    );
    for harness in &HARNESSES {
        let trace = match harness.run {
            Run::Harness { traced: true, .. } => " [--trace-out PATH] (with HS_TRACE=1)",
            _ => "",
        };
        let name = harness.name;
        usage.push_str(&format!(
            "\n       exp {name} [--tiny] [--json-out PATH]{trace}"
        ));
    }
    usage
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

fn chaos(preset: Preset) -> Report {
    let cfg = match preset {
        Preset::Tiny => ChaosConfig::tiny(),
        _ => ChaosConfig::quick(),
    };
    let r = chaos_study(&cfg);
    let mut report = Report::new(r.to_json());
    report.line(format!(
        "fault mix {:?}\nsemi-sync {:?}",
        cfg.plan, cfg.policy
    ));
    report.line("\n== federated (semi-sync under faults) ==");
    let (baseline, faulty, gap) = (r.baseline_accuracy, r.faulty_accuracy, r.accuracy_gap_pp);
    report.line(format!(
        "baseline accuracy {baseline:.4}   faulty accuracy {faulty:.4}   gap {gap:+.2} pp"
    ));
    report.line(format!(
        "cohort accounting over {} rounds: {} aggregated, {} deadline-dropped, {} crashed, \
         {} transport-dropped, {} screen-rejected",
        r.rounds.len(),
        r.completed,
        r.dropped_deadline,
        r.dropped_crash,
        r.dropped_transport,
        r.rejected_corrupt,
    ));
    if let Some(last) = r.rounds.last() {
        report.line(format!(
            "last round tail: p50 {:.1}  p95 {:.1}  max {:.1}  deadline {:.1} (sim time units)",
            last.sim_time_p50, last.sim_time_p95, last.sim_time_max, last.deadline
        ));
    }
    report.line("\n== serving under chaos ==");
    let LoadOutcome {
        ok,
        rejected,
        expired,
        shed,
        aborted,
        retries,
        gave_up,
        ..
    } = r.load;
    report.line(format!(
        "{} requests: {ok} ok, {rejected} rejected, {expired} expired, {shed} shed, \
         {aborted} aborted ({retries} retries, {gave_up} gave up)",
        r.load.attempted(),
    ));
    let s = &r.serving;
    report.line(format!(
        "availability (excluding shed) {:.4}   worker panics {}   restarts {}   brownout entries {}",
        r.availability, s.worker_panics, s.worker_restarts, s.brownout_entries,
    ));
    report.line(format!(
        "latency p50 {} us  p99 {} us  mean batch {:.2}",
        s.p50_us, s.p99_us, s.mean_batch
    ));
    report
}

fn fleet_scale(preset: Preset) -> Report {
    let cfg = match preset {
        Preset::Tiny => FleetScaleConfig::tiny(),
        _ => FleetScaleConfig::quick(),
    };
    let r = fleet_scale_study(&cfg);
    assert!(
        r.replay_bit_identical,
        "fleet-scale rounds must replay bit-identically"
    );
    let mut report = Report::new(r.to_json());
    report.line(format!(
        "fleet sweep {:?} clients, cohort {}, {} round(s)\nfault mix {:?}\nsemi-sync {:?}",
        cfg.fleet_sizes, cfg.clients_per_round, cfg.rounds, cfg.plan, cfg.policy
    ));
    report.line(format!(
        "\n{:>10}  {:>8}  {:>14}  {:>10}  {:>9}  {:>8}",
        "fleet", "cohort", "resident bytes", "round ms", "completed", "dropped"
    ));
    for row in &r.rows {
        report.line(format!(
            "{:>10}  {:>8}  {:>14}  {:>10.1}  {:>9}  {:>8}",
            row.fleet_size,
            row.cohort_size,
            row.resident_client_bytes,
            row.round_ms,
            row.completed,
            row.dropped
        ));
    }
    report.line("\nreplay bit-identical: yes");
    if let Some(last) = r.headline_rounds.last() {
        report.line(format!(
            "headline fleet last round: {} completed, deadline {:.1}, p95 {:.1} (sim time units)",
            last.completed, last.deadline, last.sim_time_p95
        ));
    }
    report
}

fn serving(preset: Preset) -> Report {
    let records = match preset {
        Preset::Tiny => serving_sweep(5, 20),
        _ => serving_sweep(60, 200),
    };
    let mut report = Report::new(records.to_json());
    for model in records.chunk_by(|a, b| a.model == b.model) {
        report.line(format!("-- {} --", model[0].model));
        report.line(format!(
            "{:<14} {:>8} {:>12} {:>10} {:>11} {:>9} {:>9} {:>10} {:>9}",
            "mode", "load", "max_batch", "reqs ok", "rej/exp", "p50 us", "p99 us", "req/s", "batch"
        ));
        for r in model {
            let load = match r.mode.as_str() {
                "open" => format!("{:.0}rps", r.offered_rps),
                _ => format!("{}c", r.clients),
            };
            let (o, m) = (&r.outcome, &r.metrics);
            let (mode, max_batch, rps) = (&r.mode, r.max_batch, r.throughput_rps);
            let rej_exp = format!("{}/{}", o.rejected, o.expired);
            report.line(format!(
                "{mode:<14} {load:>8} {max_batch:>12} {:>10} {rej_exp:>11} {:>9} {:>9} {rps:>10.0} {:>9.2}",
                o.ok, m.p50_us, m.p99_us, m.mean_batch,
            ));
        }
        let closed = |clients: usize, max_batch: usize| -> &SweepRecord {
            model
                .iter()
                .find(|r| r.mode == "closed" && r.clients == clients && r.max_batch == max_batch)
                .expect("the sweep runs this cell")
        };
        report.line(format!(
            "light load: closed 1c p50 max_batch 8 / max_batch 1 = {:.2} (expect <= 1.5); \
             closed 4c req/s max_batch 8 / max_batch 4 = {:.2} (expect >= 0.8)",
            closed(1, 8).metrics.p50_us as f64 / closed(1, 1).metrics.p50_us.max(1) as f64,
            closed(4, 8).throughput_rps / closed(4, 4).throughput_rps,
        ));
    }
    report
}
