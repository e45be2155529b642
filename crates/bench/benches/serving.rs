//! The CI-gated serving benchmark: dynamic micro-batching vs the batch=1
//! configuration, same run, same machine, same model.
//!
//! A 4-client closed loop drives `hs-serve` twice per model — once with
//! dynamic batching (`max_batch 4`, `max_wait` 500 µs) and once with
//! `max_batch 1` (the classic per-request server). Four record pairs land
//! in `target/bench-results.json` for the gated model:
//!
//! * `serving/closed_loop_{batched,batch1}` — wall-clock per completed
//!   request. The baseline ratio gates **throughput**: batched serving must
//!   stay ≥ 2× the batch=1 configuration (`bench-baseline.json` pins the
//!   ratio at 0.40, so the +15% threshold trips before the speedup falls
//!   under ~2.2×).
//! * `serving/closed_loop_{batched,batch1}_p99` — the server-measured p99
//!   latency. The baseline ratio (1.0) is the **latency bound**: batching
//!   may not buy its throughput by blowing up tail latency vs batch=1.
//! * `serving/solo_{batched,batch1}` — one client, one request at a time,
//!   against `max_batch 8` vs `max_batch 1`. Nobody can join a lone
//!   caller's batch, so the batcher must not hold it: the ratio gates the
//!   **light-load latency** at ≤ 1.5× (a batcher that waits out `max_wait`
//!   here reads ≈ 7×).
//! * `serving/closed_loop_overshoot` vs `serving/closed_loop_batched` — the
//!   same 4 clients under `max_batch 8` vs `max_batch 4`. A `max_batch`
//!   above the offered concurrency must cost nothing: gated at ≤ 1.3×
//!   (waiting for the four seats nobody can fill reads ≈ 2.3×).
//!
//! The gated model is `ecg_net(256)` — the zoo's MLP, whose per-request
//! GEMMs are single-row (`m = 1`) and therefore maximally
//! batching-sensitive: the regime dynamic batching servers are built for.
//! A MobileNetV3-small pair is recorded alongside for context (its
//! depthwise-heavy forward batches weakly; see `docs/PERF.md` "PR 5") but
//! is not gated.
//!
//! `--test` runs a two-request smoke pass and writes nothing.

use criterion::{results_path, write_results, BenchRecord};
use hs_bench::serving_load::closed_loop;
use hs_nn::models::{build_vision_model, ecg_net, ModelKind, VisionConfig};
use hs_nn::Network;
use hs_serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const CLIENTS: usize = 4;
const ECG_INPUT: usize = 256;

/// `(per_request_ns, p99_ns, mean_batch)` for one served configuration
/// under a `clients`-wide closed loop.
fn run_config(
    label: &str,
    make: impl Fn() -> Network + Send + Sync + Clone + 'static,
    input_dims: &[usize],
    policy: BatchPolicy,
    clients: usize,
    per_client: usize,
) -> (f64, f64, f64) {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", &mut make());
    let server = Server::start(
        Arc::clone(&registry),
        "m",
        make,
        input_dims,
        ServerConfig::new(1, 256, policy),
    )
    .expect("server must start");
    let client = server.client();
    let mut rng = StdRng::seed_from_u64(1);
    let sample = Tensor::rand_uniform(input_dims, 0.0, 1.0, &mut rng);

    // warm-up: workspaces, batcher steady state
    closed_loop(&client, clients, 4.min(per_client), &sample, None, None);
    server.reset_metrics();

    let outcome = closed_loop(&client, clients, per_client, &sample, None, None);
    let metrics = server.metrics();
    assert_eq!(outcome.ok, clients * per_client, "{label}: lost requests");
    let per_request_ns = outcome.elapsed_ms * 1e6 / outcome.ok as f64;
    let p99_ns = metrics.p99_us as f64 * 1e3;
    println!(
        "{label:<36} {per_request_ns:>10.0} ns/req   p99 {:>6} us   mean batch {:.2}   ({:.0} req/s)",
        metrics.p99_us,
        metrics.mean_batch,
        outcome.throughput_rps(),
    );
    server.shutdown();
    (per_request_ns, p99_ns, metrics.mean_batch)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let per_client = if test_mode { 2 } else { 150 };

    // --- gated pairs: the zoo MLP under 4-client closed-loop load
    let ecg = || {
        let mut rng = StdRng::seed_from_u64(7);
        ecg_net(ECG_INPUT, &mut rng)
    };
    let (batched_ns, batched_p99, batched_mean) = run_config(
        "serving/closed_loop_batched",
        ecg,
        &[ECG_INPUT],
        BatchPolicy::new(CLIENTS, 500),
        CLIENTS,
        per_client,
    );
    let (batch1_ns, batch1_p99, _) = run_config(
        "serving/closed_loop_batch1",
        ecg,
        &[ECG_INPUT],
        BatchPolicy::batch_of_one(),
        CLIENTS,
        per_client,
    );
    // max_batch above the offered concurrency: the four closed-loop
    // clients are everyone, so the batch must close on the fourth
    let (overshoot_ns, _, _) = run_config(
        "serving/closed_loop_overshoot",
        ecg,
        &[ECG_INPUT],
        BatchPolicy::new(2 * CLIENTS, 500),
        CLIENTS,
        per_client,
    );
    // --- and under one client with one request in flight
    let solo_requests = CLIENTS * per_client;
    let (solo_batched_ns, _, _) = run_config(
        "serving/solo_batched",
        ecg,
        &[ECG_INPUT],
        BatchPolicy::new(2 * CLIENTS, 500),
        1,
        solo_requests,
    );
    let (solo_batch1_ns, _, _) = run_config(
        "serving/solo_batch1",
        ecg,
        &[ECG_INPUT],
        BatchPolicy::batch_of_one(),
        1,
        solo_requests,
    );
    println!(
        "serving: batched/batch1 per-request ratio {:.4} (throughput {:.2}x), p99 ratio {:.4}",
        batched_ns / batch1_ns,
        batch1_ns / batched_ns,
        batched_p99 / batch1_p99,
    );
    println!(
        "serving: overshoot/batched ratio {:.4}, solo batched/batch1 ratio {:.4}",
        overshoot_ns / batched_ns,
        solo_batched_ns / solo_batch1_ns,
    );

    // --- context pair (recorded, not gated): a depthwise-heavy zoo model
    let mobilenet = || {
        let mut rng = StdRng::seed_from_u64(7);
        build_vision_model(
            ModelKind::MobileNetV3Small,
            VisionConfig::new(3, 12, 16),
            &mut rng,
        )
    };
    let mobile_per_client = if test_mode { 2 } else { 40 };
    let (mb_ns, _, _) = run_config(
        "serving/closed_loop_mobilenet_batched",
        mobilenet,
        &[3, 16, 16],
        BatchPolicy::new(CLIENTS, 500),
        CLIENTS,
        mobile_per_client,
    );
    let (m1_ns, _, _) = run_config(
        "serving/closed_loop_mobilenet_batch1",
        mobilenet,
        &[3, 16, 16],
        BatchPolicy::batch_of_one(),
        CLIENTS,
        mobile_per_client,
    );
    println!(
        "serving: mobilenet batched/batch1 ratio {:.4} (throughput {:.2}x)",
        mb_ns / m1_ns,
        m1_ns / mb_ns,
    );

    if test_mode {
        println!("serving: smoke mode, results not recorded");
        return;
    }
    assert!(
        batched_mean > 1.0,
        "batched configuration never coalesced a batch — the benchmark is not measuring batching"
    );
    let record = |name: &str, ns: f64| BenchRecord {
        name: name.to_string(),
        median_ns: ns,
        low_ns: ns,
        high_ns: ns,
        ratio_vs: None,
    };
    write_results(
        &results_path(),
        &[
            record("serving/closed_loop_batched", batched_ns),
            record("serving/closed_loop_batch1", batch1_ns),
            record("serving/closed_loop_batched_p99", batched_p99),
            record("serving/closed_loop_batch1_p99", batch1_p99),
            record("serving/closed_loop_overshoot", overshoot_ns),
            record("serving/solo_batched", solo_batched_ns),
            record("serving/solo_batch1", solo_batch1_ns),
            record("serving/closed_loop_mobilenet_batched", mb_ns),
            record("serving/closed_loop_mobilenet_batch1", m1_ns),
        ],
    )
    .expect("failed to write serving bench results");
}
