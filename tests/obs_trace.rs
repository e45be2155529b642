//! Pins the acceptance contract for the tracing layer end-to-end: a traced
//! closed-loop serving run must produce a Chrome trace-event JSON that
//! passes [`hs_obs::export::validate_chrome_trace`] (the structural rules
//! Perfetto's importer enforces), and the `queue_wait`/`serve` children
//! must cover ≥ 95% of every `request` span's wall-clock — no unexplained
//! gaps inside a request's lifetime.
//!
//! This is the same span topology `exp chaos --trace-out` exports; the
//! test exists so a refactor of the serve instrumentation cannot silently
//! break the artifact CI uploads.

use hs_bench::serving_load::closed_loop;
use hs_nn::{Linear, Network, Relu, Sequential};
use hs_obs::{export, trace};
use hs_serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

const IN: usize = 16;
const CLIENTS: usize = 4;
const PER_CLIENT: usize = 25;

fn replica() -> Network {
    let mut rng = StdRng::seed_from_u64(11);
    Network::new(Sequential::new(vec![
        Box::new(Linear::new(IN, 24, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(24, 4, &mut rng)),
    ]))
}

/// Runs a traced closed-loop load against a small batched server and
/// returns the trace snapshot (tracing is switched back off before
/// returning).
fn traced_serving_snapshot() -> trace::TraceSnapshot {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", &mut replica());
    let server = Server::start(
        Arc::clone(&registry),
        "m",
        replica,
        &[IN],
        ServerConfig::new(1, 256, BatchPolicy::new(CLIENTS, 500)),
    )
    .expect("server must start");
    let mut rng = StdRng::seed_from_u64(5);
    let sample = Tensor::rand_uniform(&[IN], 0.0, 1.0, &mut rng);

    trace::set_enabled(true);
    let outcome = closed_loop(&server.client(), CLIENTS, PER_CLIENT, &sample, None, None);
    let snap = trace::snapshot();
    trace::set_enabled(false);
    server.shutdown();
    assert_eq!(outcome.ok, CLIENTS * PER_CLIENT, "requests were lost");
    snap
}

#[test]
fn traced_serving_emits_a_perfetto_valid_chrome_trace() {
    let _guard = trace::test_guard();
    trace::reset();
    let snap = traced_serving_snapshot();
    assert_eq!(
        snap.total_dropped(),
        0,
        "ring dropped records under tiny load"
    );
    assert!(snap.total_records() > 0, "traced run captured nothing");

    let json = export::chrome_trace(&snap);
    let events = export::validate_chrome_trace(&json).expect("Chrome trace must validate");
    assert_eq!(
        events,
        snap.total_records(),
        "every record must become exactly one non-metadata event"
    );

    // The on-disk artifact is the same value, validated before writing.
    let path = std::env::temp_dir().join("hs-obs-trace-test.json");
    let written = export::write_chrome_trace(&path, &snap).expect("write must succeed");
    assert_eq!(written, events);
    let bytes = std::fs::read_to_string(&path).expect("trace file must exist");
    assert!(
        bytes.starts_with("{\"traceEvents\":["),
        "trace file must use the JSON-object flavour"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn request_children_cover_at_least_95_percent_of_request_wall_clock() {
    let _guard = trace::test_guard();
    trace::reset();
    let snap = traced_serving_snapshot();

    // `request` spans carry span_id = rid; `queue_wait` and `serve` carry
    // parent = rid. Sum child durations per request and compare.
    let mut requests: HashMap<u64, u64> = HashMap::new();
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for r in snap.records() {
        if r.name == "request" {
            requests.insert(r.span_id, r.t_end_ns - r.t_start_ns);
        } else if matches!(r.name, "queue_wait" | "serve") {
            *covered.entry(r.parent).or_insert(0) += r.t_end_ns - r.t_start_ns;
        }
    }
    assert_eq!(
        requests.len(),
        CLIENTS * PER_CLIENT,
        "every completed request must have a request span"
    );
    for (rid, dur) in &requests {
        let child_ns = covered.get(rid).copied().unwrap_or(0);
        assert!(
            child_ns as f64 >= 0.95 * *dur as f64,
            "request {rid}: children cover {child_ns} of {dur} ns (< 95%)"
        );
    }
}
