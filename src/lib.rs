//! Umbrella crate for the HeteroSwitch reproduction workspace.
//!
//! This crate re-exports the public surface of every member crate so the
//! workspace-level examples and integration tests can use a single import
//! root. Downstream users normally depend on the individual crates
//! (`heteroswitch`, `hs-fl`, `hs-isp`, …) directly.

pub use heteroswitch as core;
pub use hs_data as data;
pub use hs_device as device;
pub use hs_fl as fl;
pub use hs_isp as isp;
pub use hs_metrics as metrics;
pub use hs_nn as nn;
pub use hs_obs as obs;
pub use hs_parallel as parallel;
pub use hs_serve as serve;
pub use hs_tensor as tensor;
