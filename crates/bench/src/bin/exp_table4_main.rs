//! E8 — Paper Table 4: HeteroSwitch vs FedAvg, its own ablations, q-FedAvg,
//! FedProx and Scaffold on fairness (variance), DG (worst-case accuracy) and
//! average accuracy.
//!
//! `--json-out PATH` additionally dumps every method's summary, per-device
//! accuracies and per-round `RoundStats` as JSON.

use hs_bench::experiments::{method_suite, Method};
use hs_bench::{json_out_path, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    println!("== Table 4: method comparison on fairness and DG ==");
    println!("Method\tDG worst-case acc\tVariance\tAverage acc");
    let results = method_suite(&scale, &Method::table4());
    for result in &results {
        println!(
            "{}\t{:.2}%\t{:.2}\t{:.2}%",
            result.method,
            result.worst_case * 100.0,
            result.variance,
            result.average * 100.0
        );
    }
    if let Some(path) = json_out_path(&args) {
        serde::json::write_file(&path, &results).expect("failed to write --json-out file");
        println!(
            "\nWrote JSON results (incl. per-round stats) to {}",
            path.display()
        );
    }
}
