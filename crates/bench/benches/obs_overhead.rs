//! The CI-gated observability overhead benchmark: the same closed-loop
//! serving workload as the `serving` bench, measured with tracing compiled
//! in and **disabled**, then with tracing **enabled**.
//!
//! Two gates, both same-run (cross-binary wall-clock ratios drift ±20%
//! between bench invocations on a shared box, and the instrumentation is
//! compiled in unconditionally — so only same-run comparisons can catch a
//! real regression):
//!
//! * **Disabled-path budget (≤ 2%, asserted here)** — the disabled trace
//!   entry points (`span`, `span_at`, `instant` behind the one relaxed
//!   atomic load of `enabled()`) are timed in a tight loop, and the cost
//!   of a generous per-request call mix must stay under 2% of the
//!   measured traced-off per-request time. A regression on the disabled
//!   path (work before the `enabled()` check, an allocation, a lock)
//!   fails this assert — and the bench, and the CI step running it.
//! * **Tracing-on ratio (≤ +15%, gated by `bench_check`)** — the records
//!   `obs/serving_traced_off` and `obs/serving_traced_on` land in
//!   `target/bench-results.json`; the baseline pins on/off at 1.0, so
//!   full tracing may cost at most the threshold over disabled.
//!
//! The off/on sides are measured as medians over **interleaved**
//! closed-loop runs (off, on, off, on, …) so machine-wide drift lands on
//! both equally, after a traced warm-up pass that pays the one-time ring
//! allocations outside the measurement — the gate is about steady-state
//! overhead, not first-span setup cost.
//!
//! `--test` runs a two-request smoke pass and writes nothing (the
//! disabled-path assert still runs).

use criterion::{results_path, write_results, BenchRecord};
use hs_bench::serving_load::closed_loop;
use hs_nn::models::ecg_net;
use hs_serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const CLIENTS: usize = 4;
const ECG_INPUT: usize = 256;
const REPS: usize = 7;

/// One closed-loop run's per-request ns against `server`.
fn one_run(server: &Server, sample: &Tensor, per_client: usize) -> f64 {
    let outcome = closed_loop(&server.client(), CLIENTS, per_client, sample, None, None);
    assert_eq!(outcome.ok, CLIENTS * per_client, "lost requests");
    outcome.elapsed_ms * 1e6 / outcome.ok as f64
}

fn median(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Median ns one disabled-path call mix costs: a generous over-count of
/// the obs calls the serve path makes per request (the real path is one
/// `admit` span, a share of three batch spans, and three reconstructed
/// `span_at`s). `black_box` keeps the `enabled()` loads from being
/// hoisted or merged across iterations.
fn disabled_mix_ns() -> f64 {
    use std::hint::black_box;
    const ITERS: u64 = 200_000;
    assert!(
        !hs_obs::trace::enabled(),
        "must be measured with tracing off"
    );
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = hs_obs::now_ns();
            for i in 0..ITERS {
                for _ in 0..8 {
                    let span = hs_obs::trace::span(black_box("disabled"));
                    span.set_payload(black_box(i));
                }
                for _ in 0..4 {
                    hs_obs::trace::span_at(black_box("disabled_at"), i, i + 1, 0, i);
                }
                for _ in 0..2 {
                    hs_obs::trace::instant(black_box("disabled_i"), i);
                }
            }
            (hs_obs::now_ns() - t0) as f64 / ITERS as f64
        })
        .collect();
    median(runs)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let per_client = if test_mode { 2 } else { 150 };
    let reps = if test_mode { 1 } else { REPS };

    let make = || {
        let mut rng = StdRng::seed_from_u64(7);
        ecg_net(ECG_INPUT, &mut rng)
    };
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", &mut make());
    let server = Server::start(
        Arc::clone(&registry),
        "m",
        make,
        &[ECG_INPUT],
        ServerConfig::new(1, 256, BatchPolicy::new(CLIENTS, 500)),
    )
    .expect("server must start");
    let mut rng = StdRng::seed_from_u64(1);
    let sample = Tensor::rand_uniform(&[ECG_INPUT], 0.0, 1.0, &mut rng);

    // warm-up: workspaces, batcher steady state — and one traced pass so
    // the per-thread trace rings are allocated (and pooled for reuse)
    // before anything is timed
    hs_obs::trace::set_enabled(false);
    closed_loop(
        &server.client(),
        CLIENTS,
        4.min(per_client),
        &sample,
        None,
        None,
    );
    hs_obs::trace::set_enabled(true);
    closed_loop(
        &server.client(),
        CLIENTS,
        4.min(per_client),
        &sample,
        None,
        None,
    );

    let mut off_runs = Vec::with_capacity(reps);
    let mut on_runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        hs_obs::trace::set_enabled(false);
        off_runs.push(one_run(&server, &sample, per_client));
        hs_obs::trace::set_enabled(true);
        on_runs.push(one_run(&server, &sample, per_client));
    }
    let off_ns = median(off_runs);
    let on_ns = median(on_runs);
    let snap = hs_obs::trace::snapshot();
    hs_obs::trace::set_enabled(false);
    let mix_ns = disabled_mix_ns();
    println!("obs/serving_traced_off               {off_ns:>10.0} ns/req");
    println!(
        "obs/serving_traced_on                {on_ns:>10.0} ns/req   ({} records captured)",
        snap.total_records()
    );
    println!("obs: traced-on/traced-off ratio {:.4}", on_ns / off_ns);
    println!(
        "obs: disabled per-request call mix {mix_ns:.1} ns ({:.3}% of a traced-off request)",
        100.0 * mix_ns / off_ns
    );
    assert!(
        snap.total_records() > 0,
        "traced run captured nothing — set_enabled(true) is not reaching the server threads"
    );
    assert!(
        mix_ns <= 0.02 * off_ns,
        "disabled-path budget blown: {mix_ns:.1} ns of disabled obs calls per request \
         exceeds 2% of the {off_ns:.0} ns traced-off request time"
    );
    server.shutdown();

    if test_mode {
        println!("obs_overhead: smoke mode, results not recorded");
        return;
    }
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
            record("obs/serving_traced_off", off_ns),
            record("obs/serving_traced_on", on_ns),
        ],
    )
    .expect("failed to write obs overhead results");
}
