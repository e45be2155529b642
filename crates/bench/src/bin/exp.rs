//! Runs the paper's experiments: `exp <name|all> [--tiny|--full] [--seed N]
//! [--json-out PATH]` (names and artifacts: `hs_bench::experiments::EXPERIMENTS`).

use hs_bench::experiments::{usage, Command};
use serde::json::JsonValue;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = Command::parse(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n{}", usage());
        std::process::exit(2)
    });
    let mut records = Vec::new();
    for (i, experiment) in command.experiments().iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("== {} ==", experiment.artifact);
        let report = (experiment.run)(&command.scale);
        for line in &report.lines {
            println!("{line}");
        }
        records.push((experiment.name, report.json));
    }
    if let Some(path) = &command.json_out {
        let json = match command.experiment {
            Some(_) => records.remove(0).1,
            None => JsonValue::obj(records),
        };
        if let Err(e) = serde::json::write_file(path, &json) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("Wrote JSON to {}", path.display());
    }
}
