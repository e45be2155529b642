//! # hs-fl
//!
//! A federated-learning simulator in the style of the paper's experimental
//! setup (Sec. 6): a server holds a global model, each round it samples `K`
//! of `N` clients, every selected client runs local SGD on its own
//! device-specific data, and the server aggregates the returned weights.
//!
//! The crate provides:
//!
//! * [`FlConfig`] — the `(N, K, B, E, T, η)` knobs of the paper's setup,
//! * [`ClientTrainer`] — the local-update strategy trait. [`FedAvgTrainer`],
//!   [`FedProxTrainer`] and [`ScaffoldTrainer`] implement the baselines the
//!   paper compares against; the `heteroswitch` crate plugs its selective
//!   generalization strategy into the same trait,
//! * [`AggregationMethod`] — FedAvg weighted averaging and the q-FedAvg
//!   fair-aggregation rule,
//! * [`FlSimulation`] — the round loop, including the exponential moving
//!   average of the aggregated training loss that HeteroSwitch uses as its
//!   bias signal,
//! * evaluation helpers for per-device accuracy, multi-label averaged
//!   precision and heart-rate regression.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod aggregate;
mod client;
mod cohort;
mod config;
mod eval;
mod phases;
mod simulation;
mod source;
mod trainer;

pub use aggregate::{
    screen_updates, screen_updates_sharded, tree_reduce_weighted, weighted_average,
    weighted_average_sharded, AggregationMethod,
};
pub use client::{ClientContext, ClientData, ClientUpdate};
pub use cohort::CohortStrategy;
pub use config::FlConfig;
pub use eval::{
    evaluate_accuracy, evaluate_average_precision, evaluate_heart_rate, per_device_accuracy,
};
pub use simulation::{FlSimulation, ModelFactory, RoundStats, SemiSyncPolicy};
pub use source::ClientSource;
pub use trainer::{
    initial_loss, sgd_local_update, ClientTrainer, FedAvgTrainer, FedProxTrainer, LossKind,
    ScaffoldTrainer,
};
