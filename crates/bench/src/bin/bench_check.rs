//! CI regression guard over the kernel benchmarks.
//!
//! Compares the JSON results emitted by the criterion stand-in
//! (`target/bench-results.json`) against the checked-in baseline
//! (`crates/bench/bench-baseline.json`) and exits non-zero when any bench
//! named in the baseline regressed more than the threshold.
//!
//! Baseline entries come in two forms:
//!
//! * **ratio** (preferred, `"ratio_vs"` set): `median_ns` holds the
//!   baseline value of `median(name) / median(ratio_vs)` — e.g. optimised
//!   vs `*_naive`, or fused vs `*_unfused`. Both benches are timed in the
//!   same run on the same machine, so the check is independent of runner
//!   hardware and only moves when the code's relative performance does.
//! * **absolute** (no `ratio_vs`): `median_ns` in nanoseconds, compared
//!   directly — only meaningful on a fixed reference machine.
//!
//! Usage:
//!
//! ```text
//! bench_check [--results PATH] [--baseline PATH] [--threshold 0.15]
//! ```
//!
//! An unknown argument, an option without its value or given twice, or a
//! threshold that is not a number exits with status 2 and the usage line.
//!
//! The threshold (fraction, default 0.15 = 15%) can also come from
//! `HS_BENCH_THRESHOLD`. Benches present in the baseline but missing from
//! the results are reported and count as failures — a renamed or deleted
//! bench must be reflected in the baseline, not silently dropped from
//! coverage.

use criterion::{parse_results, results_path, BenchRecord};
use std::path::PathBuf;

fn load(path: &PathBuf) -> Vec<BenchRecord> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_results(&text),
        Err(err) => {
            eprintln!("bench_check: cannot read {}: {err}", path.display());
            std::process::exit(2);
        }
    }
}

fn main() {
    let usage_error = |msg: String| -> ! {
        eprintln!("bench_check: {msg}\nusage: bench_check [--results PATH] [--baseline PATH] [--threshold FRACTION]");
        std::process::exit(2)
    };
    let (mut results, mut baseline, mut threshold) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--results" => &mut results,
            "--baseline" => &mut baseline,
            "--threshold" => &mut threshold,
            _ => usage_error(format!("unknown argument {flag:?}")),
        };
        let value = args.next().filter(|v| !v.starts_with("--"));
        let value = value.unwrap_or_else(|| usage_error(format!("{flag} requires a value")));
        if slot.replace(value).is_some() {
            usage_error(format!("{flag} given twice"));
        }
    }
    let results_file = results.map_or_else(results_path, PathBuf::from);
    let baseline_file = PathBuf::from(
        baseline
            .as_deref()
            .unwrap_or("crates/bench/bench-baseline.json"),
    );
    let threshold: f64 = threshold
        .or_else(|| std::env::var("HS_BENCH_THRESHOLD").ok())
        .map_or(Ok(0.15), |v| v.parse().map_err(|_| v))
        .unwrap_or_else(|v| usage_error(format!("threshold {v:?} is not a number")));

    let results = load(&results_file);
    let baseline = load(&baseline_file);
    if baseline.is_empty() {
        eprintln!(
            "bench_check: baseline {} has no entries",
            baseline_file.display()
        );
        std::process::exit(2);
    }

    println!(
        "bench_check: {} baseline benches, threshold +{:.0}% ({} vs {})",
        baseline.len(),
        threshold * 100.0,
        results_file.display(),
        baseline_file.display()
    );
    let mut failures = 0;
    for base in &baseline {
        // measured value: either an absolute median, or a same-run ratio
        // against the entry's reference bench
        let measured =
            results
                .iter()
                .find(|r| r.name == base.name)
                .and_then(|r| match &base.ratio_vs {
                    None => Some(r.median_ns),
                    Some(reference) => results
                        .iter()
                        .find(|d| &d.name == reference)
                        .map(|d| r.median_ns / d.median_ns),
                });
        match measured {
            None => {
                println!(
                    "MISSING   {:<44} (bench{} not found in results)",
                    base.name,
                    base.ratio_vs
                        .as_deref()
                        .map(|r| format!(" or its reference {r}"))
                        .unwrap_or_default()
                );
                failures += 1;
            }
            Some(value) => {
                let rel = value / base.median_ns;
                let status = if rel > 1.0 + threshold {
                    failures += 1;
                    "REGRESSED"
                } else {
                    "ok"
                };
                match &base.ratio_vs {
                    Some(reference) => println!(
                        "{status:<9} {:<44} ratio {value:.4} vs baseline {:.4} (x{reference}) ({:+.1}%)",
                        base.name,
                        base.median_ns,
                        (rel - 1.0) * 100.0
                    ),
                    None => println!(
                        "{status:<9} {:<44} {value:>12.0} ns vs baseline {:>12.0} ns ({:+.1}%)",
                        base.name,
                        base.median_ns,
                        (rel - 1.0) * 100.0
                    ),
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("bench_check: {failures} bench(es) regressed beyond the threshold");
        std::process::exit(1);
    }
    println!("bench_check: all benches within threshold");
}
