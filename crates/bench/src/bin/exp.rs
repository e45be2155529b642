//! Runs the paper's experiments and the systems harnesses: `exp
//! <name|all> [--tiny|--full] [--seed N] [--json-out PATH] [--trace-out
//! PATH]`, each entry taking the flags `hs_bench::experiments::usage`
//! lists (names and artifacts: `hs_bench::experiments::{EXPERIMENTS,
//! HARNESSES}`).

use hs_bench::experiments::{usage, Command};
use serde::json::JsonValue;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |msg| -> ! {
        eprintln!("error: {msg}\n{}", usage());
        std::process::exit(2)
    };
    let command = Command::parse(&args).unwrap_or_else(|msg| usage_error(msg));
    if command.trace_out.is_some() && !hs_obs::trace::enabled() {
        usage_error("--trace-out needs tracing on (HS_TRACE=1)".into());
    }
    let mut records = Vec::new();
    for (i, experiment) in command.experiments().iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("== {} ==", experiment.artifact);
        let report = command.run(experiment);
        for line in &report.lines {
            println!("{line}");
        }
        records.push((experiment.name, report.json));
    }
    let fail = |e| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1)
    };
    if let Some(path) = &command.json_out {
        let json = match command.experiment {
            Some(_) => records.remove(0).1,
            None => JsonValue::obj(records),
        };
        serde::json::write_file(path, &json).unwrap_or_else(|e| fail(e));
        println!("Wrote JSON to {}", path.display());
    }
    if let Some(path) = &command.trace_out {
        let trace = hs_obs::trace::snapshot();
        let events = hs_obs::export::write_chrome_trace(path, &trace).unwrap_or_else(|e| fail(e));
        let dropped = trace.total_dropped();
        println!(
            "Wrote Chrome trace to {} ({events} events, {dropped} dropped)",
            path.display()
        );
    }
}
