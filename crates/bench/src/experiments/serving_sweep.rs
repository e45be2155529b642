//! The serving load sweep: offered load × batcher policy across the model
//! zoo.
//!
//! For each model, sweeps the dynamic-batching policy (`max_batch`) under
//! closed-loop load (fixed client concurrency) and open-loop load (fixed
//! arrival rate with a deadline, revealing backpressure and expiry), and
//! records throughput, latency percentiles and the executed batch-size
//! mix. A config pass then runs 8 closed-loop clients at `max_batch 8` on
//! one and on two workers: two workers running batches side by side
//! against one worker whose batch shards across the pool. This is the
//! measurement behind the "PR 5" table in `docs/PERF.md`; `exp
//! serving-sweep` prints it.

use crate::serving_load::{closed_loop, open_loop, LoadOutcome};
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::Network;
use hs_serve::{BatchPolicy, MetricsSnapshot, ModelRegistry, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// The swept batcher policies.
const MAX_BATCHES: [usize; 4] = [1, 2, 4, 8];
/// Closed-loop client counts.
const CLOSED_CLIENTS: [usize; 3] = [1, 4, 8];
/// Open-loop arrival rates, requests/s.
const OPEN_RATES: [f64; 2] = [2_000.0, 8_000.0];
/// The batcher's close deadline in every cell, microseconds.
const MAX_WAIT_US: u64 = 500;

/// One sweep cell.
#[derive(Debug, Clone, serde::ToJson)]
pub struct SweepRecord {
    /// The served model.
    pub model: String,
    /// `closed`, `open`, or `closed/<n>w` for the config pass.
    pub mode: String,
    /// Server worker threads.
    pub workers: usize,
    /// Closed-loop clients (0 for open loop).
    pub clients: usize,
    /// Open-loop arrival rate, requests/s (0 for closed loop).
    pub offered_rps: f64,
    /// The batcher's size cap.
    pub max_batch: usize,
    /// The batcher's close deadline, microseconds.
    pub max_wait_us: u64,
    /// What the load generator saw.
    pub outcome: LoadOutcome,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Server metrics over the cell.
    pub metrics: MetricsSnapshot,
}

/// Starts a server over a fresh registry holding `make()`'s weights.
fn start(
    make: impl Fn() -> Network + Send + Sync + Clone + 'static,
    input_dims: &[usize],
    workers: usize,
    max_batch: usize,
) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", &mut make());
    let policy = BatchPolicy::new(max_batch, MAX_WAIT_US);
    Server::start(
        registry,
        "m",
        make,
        input_dims,
        ServerConfig::new(workers, 128, policy),
    )
    .expect("server must start")
}

/// One closed-loop cell after a 3-request warm-up.
fn closed_cell(
    server: &Server,
    clients: usize,
    per_client: usize,
    sample: &Tensor,
) -> (LoadOutcome, MetricsSnapshot) {
    let client = server.client();
    closed_loop(&client, clients, 3, sample, None, None);
    server.reset_metrics();
    let outcome = closed_loop(&client, clients, per_client, sample, None, None);
    (outcome, server.metrics())
}

/// Runs every cell of the sweep, model by model, with `per_client`
/// requests per closed-loop client and `open_total` per open-loop cell,
/// and returns their records in run order.
pub fn serving_sweep(per_client: usize, open_total: usize) -> Vec<SweepRecord> {
    let zoo = [
        (ModelKind::MobileNetV3Small, VisionConfig::new(3, 12, 16)),
        (ModelKind::SimpleCnn, VisionConfig::new(3, 10, 16)),
    ];
    let mut records = Vec::new();
    for (kind, vision) in zoo {
        let make = move || {
            let mut rng = StdRng::seed_from_u64(7);
            build_vision_model(kind, vision, &mut rng)
        };
        let input_dims = [vision.in_channels, vision.image_size, vision.image_size];
        let mut rng = StdRng::seed_from_u64(3);
        let sample = Tensor::rand_uniform(&input_dims, 0.0, 1.0, &mut rng);
        let mut record = |mode: String, workers, clients, offered_rps, max_batch, cell| {
            let (outcome, metrics): (LoadOutcome, _) = cell;
            records.push(SweepRecord {
                model: kind.as_str().to_string(),
                mode,
                workers,
                clients,
                offered_rps,
                max_batch,
                max_wait_us: MAX_WAIT_US,
                throughput_rps: outcome.throughput_rps(),
                outcome,
                metrics,
            });
        };
        for max_batch in MAX_BATCHES {
            let server = start(make, &input_dims, 1, max_batch);
            for clients in CLOSED_CLIENTS {
                let cell = closed_cell(&server, clients, per_client, &sample);
                record("closed".into(), 1, clients, 0.0, max_batch, cell);
            }
            for rate in OPEN_RATES {
                server.reset_metrics();
                let deadline = Some(Duration::from_millis(50));
                let outcome = open_loop(&server.client(), rate, open_total, &sample, deadline);
                let cell = (outcome, server.metrics());
                record("open".into(), 1, 0, rate, max_batch, cell);
            }
            server.shutdown();
        }
        // config pass: the same closed-loop load at one fixed policy on two
        // workers against one
        for workers in [1, 2] {
            let server = start(make, &input_dims, workers, 8);
            let cell = closed_cell(&server, 8, per_client, &sample);
            record(format!("closed/{workers}w"), workers, 8, 0.0, 8, cell);
            server.shutdown();
        }
    }
    records
}
