//! # hs-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! HeteroSwitch paper's evaluation, plus the Criterion micro-benchmarks for
//! the substrates (ISP stages, NN kernels, FL round mechanics).
//!
//! Each paper artifact is one entry of the experiment index,
//! [`experiments::EXPERIMENTS`], which the `exp` binary runs by name; the
//! entries are thin wrappers over the functions in [`experiments`], so
//! integration tests and the Criterion harness can call the same code at
//! smaller scales.
//!
//! Scale: every experiment function takes a [`Scale`] describing dataset and
//! FL sizes. [`Scale::quick`] finishes in minutes on a laptop CPU and
//! preserves the paper's qualitative shape; [`Scale::paper`] matches the
//! paper's `N = 100, K = 20, T = 1000` setup (hours of CPU time).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod scale;
pub mod serving_load;

pub use scale::Scale;
pub use serving_load::{closed_loop, open_loop, LoadOutcome, RetryPolicy};

/// Parses a `--json-out PATH` argument from an experiment binary's argument
/// list. Returns `None` when absent; panics when the flag is given without a
/// path (a silent typo would otherwise discard results).
pub fn json_out_path(args: &[String]) -> Option<std::path::PathBuf> {
    let idx = args.iter().position(|a| a == "--json-out")?;
    let path = args
        .get(idx + 1)
        .unwrap_or_else(|| panic!("--json-out requires a path argument"));
    Some(std::path::PathBuf::from(path))
}
