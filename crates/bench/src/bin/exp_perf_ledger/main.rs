//! `exp_perf_ledger` — the repository's benchmark: two fixed-work,
//! single-caller, closed-loop workloads that each run the paper's whole
//! loop (set-up → HeteroSwitch/FedAvg FL rounds → per-device evaluation →
//! serve the global model), eight end-to-end metrics, and a per-crate layer
//! ledger from a separate traced pass. See `README.md` beside this file
//! for the metric definitions and the predictions that make it a contract.
//!
//! ```text
//! exp_perf_ledger --workload <vision|fleet_mlp> --seed <n> --seconds <s> --trace <0|1>
//! exp_perf_ledger --smoke
//! exp_perf_ledger --selfcheck [--runs <n>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! It drives the product only through public functions of the workspace
//! crates and changes nothing outside its own directory.

mod alloc;
mod fl_phase;
mod fleet_mlp;
mod host;
mod loadgen;
mod metrics;
mod probes;
mod run;
mod serve_phase;
mod stats;
mod trace;
mod vision;
mod workload;

use fleet_mlp::FleetMlp;
use host::HostFingerprint;
use metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Plan, RunOutput};
use serde::json::JsonValue;
use stats::Summary;
use std::process::{Command, ExitCode};
use vision::Vision;
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the JSON reports and traces go, relative to the working directory
/// (the checkout root when the driver runs the benchmark).
const OUT_DIR: &str = "target/perf-ledger";
/// `run_seconds` of `BENCHMARK.json`: the run length the work constants
/// were sized for.
const DEFAULT_SECONDS: f64 = 50.0;

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Run { workload: String, trace: bool },
    Smoke,
    Selfcheck { runs: usize },
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

const USAGE: &str = "usage:
  exp_perf_ledger --workload <vision|fleet_mlp> --seed <n> --seconds <s> --trace <0|1>
  exp_perf_ledger --smoke
  exp_perf_ledger --selfcheck [--runs <n>] [--seed <n>] [--seconds <s>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = false;
    let mut smoke = false;
    let mut selfcheck = false;
    let mut runs = 10usize;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => smoke = true,
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    let mode = match (smoke, selfcheck, workload) {
        (true, false, None) => Mode::Smoke,
        (false, true, None) if runs >= 2 => Mode::Selfcheck { runs },
        (false, false, Some(workload)) if WORKLOADS.contains(&workload.as_str()) => {
            Mode::Run { workload, trace }
        }
        (false, false, Some(other)) => {
            return Err(format!(
                "unknown workload {other:?} (have {WORKLOADS:?})\n{USAGE}"
            ))
        }
        _ => return Err(USAGE.to_string()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

fn run_workload(
    name: &str,
    seed: u64,
    plan_for: fn(workload::Sizes) -> Plan,
    seconds: f64,
    trace: bool,
) -> Result<RunOutput, String> {
    fn go<W: Workload>(seed: u64, plan: Plan, trace: bool) -> Result<RunOutput, String> {
        if trace {
            run::traced::<W>(seed, &plan, OUT_DIR)
        } else {
            run::measured::<W>(seed, &plan)
        }
    }
    match name {
        Vision::NAME => go::<Vision>(seed, plan_for(Vision::sizes(seconds)), trace),
        FleetMlp::NAME => go::<FleetMlp>(seed, plan_for(FleetMlp::sizes(seconds)), trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn metric_json(def: &MetricDef, value: f64, summary: Option<&Summary>) -> JsonValue {
    let mut fields = vec![
        ("value", JsonValue::Num(value)),
        ("unit", JsonValue::Str(def.unit.to_string())),
    ];
    if let Some(s) = summary {
        fields.push(("reps_q1", JsonValue::Num(s.q1)));
        fields.push(("reps_median", JsonValue::Num(s.median)));
        fields.push(("reps_q3", JsonValue::Num(s.q3)));
        fields.push(("reps", JsonValue::Num(s.n as f64)));
    }
    JsonValue::obj(fields)
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` (name → value + unit).
fn result_json(out: &RunOutput, table: &'static [MetricDef]) -> JsonValue {
    let metrics = out
        .metrics
        .in_order(table)
        .map(|(def, value)| (def.name, metric_json(def, value, None)))
        .collect();
    JsonValue::obj(vec![
        ("correct", JsonValue::Bool(out.failed == 0)),
        ("attempted", JsonValue::Num(out.attempted as f64)),
        ("failed", JsonValue::Num(out.failed as f64)),
        ("metrics", JsonValue::obj(metrics)),
    ])
}

/// Checks that every metric of `table` was measured, prints the human
/// report (`name value unit`; beside a metric read off the
/// quiet composite, the quartiles, median and count of the plain
/// per-repetition values) and writes the full JSON report under
/// [`OUT_DIR`].
fn report(
    workload: &str,
    pass: &str,
    host: &HostFingerprint,
    out: &RunOutput,
    table: &'static [MetricDef],
) -> Result<(), String> {
    let missing = out.metrics.missing(table);
    if !missing.is_empty() {
        return Err(format!(
            "{workload}/{pass}: declared metrics were not measured: {missing:?}"
        ));
    }
    println!("# exp_perf_ledger workload={workload} pass={pass}");
    println!("# {}", host.line());
    for (def, value) in out.metrics.in_order(table) {
        match out.summaries.get(def.name) {
            Some(s) => println!(
                "{} {} {}  [reps: q1 {} .. median {} .. q3 {}, n={}]",
                def.name, value, def.unit, s.q1, s.median, s.q3, s.n
            ),
            None => println!("{} {} {}", def.name, value, def.unit),
        }
    }
    println!(
        "failed_share {} ratio  [{} failed of {} attempted]",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        println!("note: {note}");
    }

    let metrics = out
        .metrics
        .in_order(table)
        .map(|(def, value)| {
            (
                def.name,
                metric_json(def, value, out.summaries.get(def.name)),
            )
        })
        .collect();
    let doc = JsonValue::obj(vec![
        ("workload", JsonValue::Str(workload.to_string())),
        ("pass", JsonValue::Str(pass.to_string())),
        (
            "host",
            JsonValue::obj(vec![
                ("nproc", JsonValue::Num(host.nproc as f64)),
                ("simd", JsonValue::Str(host.simd.to_string())),
                (
                    "hs_parallel_threads",
                    JsonValue::Num(host.pool_threads as f64),
                ),
                ("rustc", JsonValue::Str(host.rustc.clone())),
                ("seed", JsonValue::Num(host.seed as f64)),
            ]),
        ),
        ("attempted", JsonValue::Num(out.attempted as f64)),
        ("failed", JsonValue::Num(out.failed as f64)),
        ("metrics", JsonValue::obj(metrics)),
    ]);
    let path = std::path::Path::new(OUT_DIR).join(format!("{workload}.{pass}.json"));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| serde::json::write_file(&path, &doc))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One driver run: report, then the result object as the last line.
fn driver_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let host = HostFingerprint::detect(seed);
    let out = run_workload(workload, seed, Plan::full, seconds, trace)?;
    let (table, pass) = if trace {
        (PER_LAYER, "layers")
    } else {
        (END_TO_END, "e2e")
    };
    report(workload, pass, &host, &out, table)?;
    println!("{}", result_json(&out, table).render());
    Ok(out.failed == 0)
}

/// `--smoke`: both workloads, both passes, smallest work, nothing recorded
/// beyond the usual report files.
fn smoke(seed: u64) -> Result<bool, String> {
    let host = HostFingerprint::detect(seed);
    let mut clean = true;
    for workload in WORKLOADS {
        for (trace, table, pass) in [(false, END_TO_END, "e2e"), (true, PER_LAYER, "layers")] {
            let out = run_workload(workload, seed, Plan::smoke, 0.5, trace)?;
            report(workload, &format!("smoke-{pass}"), &host, &out, table)?;
            clean &= out.failed == 0;
        }
    }
    println!(
        "smoke: {} workloads x 2 passes, verification {}",
        WORKLOADS.len(),
        if clean { "passed" } else { "FAILED" }
    );
    Ok(clean)
}

/// Pulls `"<name>":{"value":<number>` out of a result line.
fn value_in(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Whether set `b`'s median is worse than set `a`'s by more than `bound`.
fn worsened(def: &MetricDef, a: f64, b: f64, bound: f64) -> bool {
    match def.better {
        Better::Lower => b > a * (1.0 + bound),
        Better::Higher => b < a * (1.0 - bound),
    }
}

/// `--selfcheck`: two sets of `runs` runs per workload (one process per
/// run, seeds `seed .. seed+runs` in both sets), then per end-to-end metric
/// × workload both medians, both inter-quartile spreads and pass/fail
/// against the metric's bound — the repeatability acceptance criterion.
fn selfcheck(runs: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!(
        "# selfcheck: 2 sets x {runs} runs x {} workloads, {seconds} s each",
        WORKLOADS.len()
    );
    println!("# {}", HostFingerprint::detect(seed).line());
    let mut all_pass = true;
    for workload in WORKLOADS {
        let mut sets: [Vec<Vec<f64>>; 2] = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for set in &mut sets {
            for run in 0..runs {
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--trace", "0"])
                    .args(["--seed", &(seed + run as u64).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .output()
                    .map_err(|e| format!("spawning a run: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or("");
                if !output.status.success() || !line.contains("\"correct\":true") {
                    return Err(format!(
                        "{workload} run {run} failed:\n{stdout}\n{}",
                        String::from_utf8_lossy(&output.stderr)
                    ));
                }
                for (values, def) in set.iter_mut().zip(END_TO_END) {
                    values.push(
                        value_in(line, def.name)
                            .ok_or_else(|| format!("{} missing from {line}", def.name))?,
                    );
                }
            }
        }
        println!(
            "{:<10} {:<20} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
            "workload", "metric", "median_a", "median_b", "spread_a", "spread_b", "bound"
        );
        for (i, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (Summary::of(&sets[0][i]), Summary::of(&sets[1][i]));
            let bound = def.bound.unwrap_or(0.0);
            // set-up time is exempt from the spread rule, not from drift
            let spread_ok = def.name == "setup_s" || a.iqr_share().max(b.iqr_share()) <= bound;
            let pass = spread_ok && !worsened(def, a.median, b.median, bound);
            all_pass &= pass;
            println!(
                "{:<10} {:<20} {:>14.6} {:>14.6} {:>9.4} {:>9.4} {:>7.2}  {}",
                workload,
                def.name,
                a.median,
                b.median,
                a.iqr_share(),
                b.iqr_share(),
                bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    println!("selfcheck: {}", if all_pass { "pass" } else { "FAIL" });
    Ok(all_pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.mode {
        Mode::Run { workload, trace } => driver_run(&workload, args.seed, args.seconds, trace),
        Mode::Smoke => smoke(args.seed),
        Mode::Selfcheck { runs } => selfcheck(runs, args.seed, args.seconds),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // verification failed: the result line says so; the exit code too
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("exp_perf_ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse_args(&argv("--workload vision --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            args,
            Args {
                mode: Mode::Run {
                    workload: "vision".into(),
                    trace: true
                },
                seed: 7,
                seconds: 12.0
            }
        );
        assert_eq!(parse_args(&argv("--smoke")).unwrap().mode, Mode::Smoke);
        assert_eq!(
            parse_args(&argv("--selfcheck --runs 3")).unwrap().mode,
            Mode::Selfcheck { runs: 3 }
        );
        for bad in [
            "",
            "--workload nope --seed 1",
            "--workload vision --trace 2",
            "--workload vision --seconds 0",
            "--smoke --selfcheck",
            "--workload vision --seed",
            "--frobnicate",
        ] {
            assert!(
                parse_args(&argv(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// The `{...}` object in BENCHMARK.json that declares `name`.
    fn declaration(name: &str) -> Option<&'static str> {
        let key = format!("{{\"name\": \"{name}\"");
        let start = BENCHMARK_JSON.find(&key)?;
        let end = BENCHMARK_JSON[start..].find('}')?;
        Some(&BENCHMARK_JSON[start..=start + end])
    }

    #[test]
    fn every_emitted_name_is_well_formed_unique_and_within_the_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        {
            assert!(valid_name(name), "{name:?} breaks the name rule");
            assert!(seen.insert(name), "{name:?} is declared twice");
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(def.unit), "{}: unit {:?}", def.name, def.unit);
        }
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        }
        let setup = metrics::find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(!valid_name("no spaces") && !valid_name(".dot") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        for workload in WORKLOADS {
            let decl = declaration(workload).unwrap_or_else(|| panic!("{workload} undeclared"));
            assert!(decl.contains("\"why\": \""), "{workload} needs a why");
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let decl = declaration(def.name).unwrap_or_else(|| panic!("{} undeclared", def.name));
            assert!(
                decl.contains(&format!("\"unit\": \"{}\"", def.unit)),
                "{}: unit differs: {decl}",
                def.name
            );
            assert!(
                decl.contains(match def.better {
                    Better::Lower => "\"better\": \"lower\"",
                    Better::Higher => "\"better\": \"higher\"",
                }),
                "{}: direction differs: {decl}",
                def.name
            );
            match def.bound {
                Some(bound) => assert!(
                    decl.contains(&format!("\"bound\": {bound}}}")),
                    "{}: bound differs: {decl}",
                    def.name
                ),
                None => assert!(!decl.contains("\"bound\""), "{} is ungated", def.name),
            }
        }
        // and nothing is declared that the binary does not know
        let declared = BENCHMARK_JSON.matches("{\"name\": \"").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        assert!(BENCHMARK_JSON.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    #[test]
    fn result_line_round_trips_through_the_selfcheck_reader() {
        let mut out = RunOutput::default();
        out.metrics.set("setup_s", 2.5);
        out.metrics.set("round_ms", 0.000_123);
        out.attempted = 10;
        let line = result_json(&out, END_TO_END).render();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert_eq!(value_in(&line, "setup_s"), Some(2.5));
        assert_eq!(value_in(&line, "round_ms"), Some(0.000_123));
        assert_eq!(value_in(&line, "eval_ms"), None);
        out.failed = 1;
        assert!(result_json(&out, END_TO_END)
            .render()
            .contains("\"correct\":false"));
    }

    #[test]
    fn drift_is_judged_in_the_metric_s_own_direction() {
        let lower = metrics::find("round_ms").unwrap();
        let higher = metrics::find("throughput_rps").unwrap();
        assert!(worsened(lower, 100.0, 111.0, 0.10));
        assert!(!worsened(lower, 100.0, 109.0, 0.10));
        assert!(!worsened(lower, 100.0, 50.0, 0.10));
        assert!(worsened(higher, 100.0, 89.0, 0.10));
        assert!(!worsened(higher, 100.0, 91.0, 0.10));
        assert!(!worsened(higher, 100.0, 200.0, 0.10));
    }
}
