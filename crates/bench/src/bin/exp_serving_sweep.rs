//! Serving load sweep: offered load × batcher policy across the model zoo.
//!
//! For each model, sweeps the dynamic-batching policy (`max_batch`) under
//! closed-loop load (fixed client concurrency) and open-loop load (fixed
//! arrival rate with a deadline, revealing backpressure and expiry), and
//! reports throughput, latency percentiles and the executed batch-size
//! mix. This is the measurement harness behind the "PR 5" table in
//! `docs/PERF.md`.
//!
//! ```text
//! exp_serving_sweep [--quick] [--json-out PATH]
//! ```
//!
//! `--quick` shrinks request counts for a fast sanity pass (the CI smoke).
//! After each model's table the run prints the two light-load checks the
//! batcher's close rule exists for: a lone client's p50 at `max_batch 8`
//! over its `max_batch 1` cell (expected ≤ 1.5), and 4-client throughput at
//! `max_batch 8` over the `max_batch 4` cell (expected ≥ 0.8).
//! A config pass then runs 8 closed-loop clients at `max_batch 8` on one
//! and on two workers: two workers running batches side by side against
//! one worker whose batch shards across the pool.

use hs_bench::json_out_path;
use hs_bench::serving_load::{closed_loop, open_loop, LoadOutcome};
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_serve::{BatchPolicy, MetricsSnapshot, ModelRegistry, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// One sweep cell, serialised into the `--json-out` document.
#[derive(Debug, Clone, serde::ToJson)]
struct SweepRecord {
    model: String,
    mode: String,
    workers: usize,
    clients: usize,
    offered_rps: f64,
    max_batch: usize,
    max_wait_us: u64,
    outcome: LoadOutcome,
    throughput_rps: f64,
    metrics: MetricsSnapshot,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let per_client = if quick { 5 } else { 60 };
    let open_total = if quick { 20 } else { 200 };

    let zoo: [(ModelKind, VisionConfig); 2] = [
        (ModelKind::MobileNetV3Small, VisionConfig::new(3, 12, 16)),
        (ModelKind::SimpleCnn, VisionConfig::new(3, 10, 16)),
    ];
    let max_batches = [1usize, 2, 4, 8];
    let closed_clients = [1usize, 4, 8];
    let open_rates = [2_000.0f64, 8_000.0];
    let max_wait_us = 500u64;

    let mut records: Vec<SweepRecord> = Vec::new();
    for (kind, cfg) in zoo {
        let make = move || {
            let mut rng = StdRng::seed_from_u64(7);
            build_vision_model(kind, cfg, &mut rng)
        };
        let input_dims = [cfg.in_channels, cfg.image_size, cfg.image_size];
        let mut rng = StdRng::seed_from_u64(3);
        let sample = Tensor::rand_uniform(&input_dims, 0.0, 1.0, &mut rng);
        println!("== {} ==", kind.as_str());
        println!(
            "{:<14} {:>8} {:>12} {:>10} {:>11} {:>9} {:>9} {:>10} {:>9}",
            "mode", "load", "max_batch", "reqs ok", "rej/exp", "p50 us", "p99 us", "req/s", "batch"
        );
        for &max_batch in &max_batches {
            let registry = Arc::new(ModelRegistry::new());
            registry.publish("m", &mut make());
            let server = Server::start(
                Arc::clone(&registry),
                "m",
                make,
                &input_dims,
                ServerConfig::new(1, 128, BatchPolicy::new(max_batch, max_wait_us)),
            )
            .expect("server must start");
            let client = server.client();

            for &clients in &closed_clients {
                closed_loop(&client, clients, 3, &sample, None, None); // warm
                server.reset_metrics();
                let outcome = closed_loop(&client, clients, per_client, &sample, None, None);
                let metrics = server.metrics();
                report(
                    &mut records,
                    kind.as_str(),
                    "closed",
                    1,
                    clients,
                    0.0,
                    max_batch,
                    max_wait_us,
                    outcome,
                    metrics,
                );
            }
            for &rate in &open_rates {
                server.reset_metrics();
                let outcome = open_loop(
                    &client,
                    rate,
                    open_total,
                    &sample,
                    Some(Duration::from_millis(50)),
                );
                let metrics = server.metrics();
                report(
                    &mut records,
                    kind.as_str(),
                    "open",
                    1,
                    0,
                    rate,
                    max_batch,
                    max_wait_us,
                    outcome,
                    metrics,
                );
            }
            server.shutdown();
        }

        // config pass: the same closed-loop load at one fixed policy on two
        // workers against one
        let config_batch = 8usize;
        for workers in [1, 2] {
            let registry = Arc::new(ModelRegistry::new());
            registry.publish("m", &mut make());
            let server = Server::start(
                Arc::clone(&registry),
                "m",
                make,
                &input_dims,
                ServerConfig::new(workers, 128, BatchPolicy::new(config_batch, max_wait_us)),
            )
            .expect("server must start");
            let client = server.client();
            closed_loop(&client, 8, 3, &sample, None, None); // warm
            server.reset_metrics();
            let outcome = closed_loop(&client, 8, per_client, &sample, None, None);
            let metrics = server.metrics();
            report(
                &mut records,
                kind.as_str(),
                &format!("closed/{workers}w"),
                workers,
                8,
                0.0,
                config_batch,
                max_wait_us,
                outcome,
                metrics,
            );
            server.shutdown();
        }
        let closed = |clients: usize, max_batch: usize| {
            records
                .iter()
                .find(|r| {
                    r.model == kind.as_str()
                        && r.mode == "closed"
                        && r.clients == clients
                        && r.max_batch == max_batch
                })
                .expect("cell was swept above")
        };
        println!(
            "light load: closed 1c p50 max_batch 8 / max_batch 1 = {:.2} (expect <= 1.5); \
             closed 4c req/s max_batch 8 / max_batch 4 = {:.2} (expect >= 0.8)",
            closed(1, 8).metrics.p50_us as f64 / closed(1, 1).metrics.p50_us.max(1) as f64,
            closed(4, 8).throughput_rps / closed(4, 4).throughput_rps,
        );
        println!();
    }

    if let Some(path) = json_out_path(&args) {
        serde::json::write_file(&path, &records).expect("failed to write --json-out file");
        println!(
            "wrote {} sweep records to {}",
            records.len(),
            path.display()
        );
    }
}

#[allow(
    clippy::too_many_arguments,
    reason = "one argument per field of a sweep record"
)]
fn report(
    records: &mut Vec<SweepRecord>,
    model: &str,
    mode: &str,
    workers: usize,
    clients: usize,
    offered_rps: f64,
    max_batch: usize,
    max_wait_us: u64,
    outcome: LoadOutcome,
    metrics: MetricsSnapshot,
) {
    let load = if mode.starts_with("closed") {
        format!("{clients}c")
    } else {
        format!("{offered_rps:.0}rps")
    };
    println!(
        "{:<14} {:>8} {:>12} {:>10} {:>11} {:>9} {:>9} {:>10.0} {:>9.2}",
        mode,
        load,
        max_batch,
        outcome.ok,
        format!("{}/{}", outcome.rejected, outcome.expired),
        metrics.p50_us,
        metrics.p99_us,
        outcome.throughput_rps(),
        metrics.mean_batch,
    );
    records.push(SweepRecord {
        model: model.to_string(),
        mode: mode.to_string(),
        workers,
        clients,
        offered_rps,
        max_batch,
        max_wait_us,
        outcome: outcome.clone(),
        throughput_rps: outcome.throughput_rps(),
        metrics,
    });
}
