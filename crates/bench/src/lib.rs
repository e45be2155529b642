//! # hs-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! HeteroSwitch paper's evaluation, plus the Criterion micro-benchmarks for
//! the substrates (ISP stages, NN kernels, FL round mechanics).
//!
//! Each paper artifact is one entry of the experiment index,
//! [`experiments::EXPERIMENTS`], and each systems harness (chaos,
//! fleet scale, serving sweep) one of [`experiments::HARNESSES`]; the `exp`
//! binary runs any of them by name. The entries are thin wrappers over the
//! functions in [`experiments`], so integration tests and the Criterion
//! harness can call the same code at smaller scales.
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

pub use scale::{Preset, Scale};
pub use serving_load::{closed_loop, open_loop, LoadOutcome, RetryPolicy};
