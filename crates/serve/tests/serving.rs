//! Server-level concurrency tests: request/response routing integrity under
//! load, deadline expiry, admission backpressure, hot-swap atomicity, one
//! build per published version, and served bits against a direct forward.

use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::{CheckpointError, Layer, Linear, Network, Sequential, State, Workspace};
use hs_serve::{BatchPolicy, ModelRegistry, ServeError, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A `Linear(4, 4)` network whose weights will be overwritten anyway.
fn linear_net() -> Network {
    let mut rng = StdRng::seed_from_u64(0);
    Network::new(Sequential::new(vec![Box::new(Linear::new(4, 4, &mut rng))]))
}

/// Weight vector for `linear_net` computing `y = W x` with `W = c * I` and
/// zero bias (weights layout: 4×4 weight then 4 bias entries).
fn scaled_identity_weights(c: f32) -> Vec<f32> {
    let mut w = vec![0.0f32; 4 * 4 + 4];
    for i in 0..4 {
        w[i * 4 + i] = c;
    }
    w
}

fn publish_scaled_identity(registry: &ModelRegistry, name: &str, c: f32) -> u64 {
    let mut net = linear_net();
    net.set_weights(&scaled_identity_weights(c));
    registry.publish(name, &mut net)
}

#[test]
fn no_cross_request_sample_mixing_under_load() {
    // identity-weight model: every response must echo exactly its own
    // sample, so any batching/routing mix-up is immediately visible
    let registry = Arc::new(ModelRegistry::new());
    publish_scaled_identity(&registry, "id", 1.0);
    let server = Server::start(
        Arc::clone(&registry),
        "id",
        linear_net,
        &[4],
        ServerConfig::new(2, 256, BatchPolicy::new(8, 500)),
    )
    .unwrap();

    let clients: Vec<_> = (0..4)
        .map(|t| {
            let client = server.client();
            std::thread::spawn(move || {
                for i in 0..50 {
                    let v = (t * 1000 + i) as f32;
                    let response = client.infer(Tensor::full(&[4], v), None).unwrap();
                    assert_eq!(
                        response.logits,
                        vec![v; 4],
                        "client {t} request {i} got someone else's samples back"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let metrics = server.metrics();
    assert_eq!(metrics.completed, 200);
    assert_eq!(metrics.rejected, 0);
    assert_eq!(metrics.expired, 0);
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
fn the_metrics_registry_exports_a_live_server() {
    let registry = Arc::new(ModelRegistry::new());
    publish_scaled_identity(&registry, "id", 1.0);
    let server = Server::start(
        Arc::clone(&registry),
        "id",
        linear_net,
        &[4],
        ServerConfig::new(1, 64, BatchPolicy::new(4, 500)),
    )
    .unwrap();
    let client = server.client();
    let n = 13;
    for i in 0..n {
        client.infer(Tensor::full(&[4], i as f32), None).unwrap();
    }
    let json = hs_obs::export::registry_json(server.metrics_registry()).render();
    let counters = format!(
        "{{\"counters\":{{\"serve.brownout_entries\":0,\"serve.completed\":{n},\
         \"serve.expired\":0,\"serve.rejected\":0,\"serve.shed\":0,\
         \"serve.worker_panics\":0,\"serve.worker_restarts\":0}},\"gauges\":{{}},\
         \"histograms\":{{\"serve.latency_us\":{{\"count\":{n},"
    );
    assert!(json.starts_with(&counters), "{json}");
    assert!(
        json.contains(&format!("\"serve.queue_wait_us\":{{\"count\":{n},")),
        "{json}"
    );
    server.shutdown();
}

#[test]
fn async_submissions_coalesce_into_real_batches() {
    let registry = Arc::new(ModelRegistry::new());
    publish_scaled_identity(&registry, "id", 1.0);
    let server = Server::start(
        Arc::clone(&registry),
        "id",
        linear_net,
        &[4],
        ServerConfig::new(1, 64, BatchPolicy::new(8, 50_000)),
    )
    .unwrap();
    let client = server.client();
    let pending: Vec<_> = (0..8)
        .map(|i| client.submit(Tensor::full(&[4], i as f32), None).unwrap())
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let response = p.wait().unwrap();
        assert_eq!(response.logits, vec![i as f32; 4]);
    }
    let metrics = server.metrics();
    assert_eq!(metrics.completed, 8);
    assert!(
        metrics.mean_batch > 1.0,
        "a 50ms max_wait with 8 queued requests must coalesce, got histogram {:?}",
        metrics.batch_histogram
    );
    server.shutdown();
}

/// A layer that sleeps on every inference forward — the deterministic way
/// to keep a worker busy so queue-level behaviours (backpressure, deadline
/// expiry) can be exercised without racing the real model's speed.
struct Slow(Duration);

impl Layer for Slow {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        input.clone()
    }
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }
    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        std::thread::sleep(self.0);
        out.clone_from(input);
    }
    fn name(&self) -> &'static str {
        "slow"
    }
}

fn slow_net(delay: Duration) -> Network {
    let mut rng = StdRng::seed_from_u64(0);
    Network::new(Sequential::new(vec![
        Box::new(Slow(delay)),
        Box::new(Linear::new(4, 4, &mut rng)),
    ]))
}

#[test]
fn full_queue_rejects_with_backpressure() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("slow", &mut slow_net(Duration::from_millis(100)));
    let server = Server::start(
        Arc::clone(&registry),
        "slow",
        || slow_net(Duration::from_millis(100)),
        &[4],
        ServerConfig::new(1, 2, BatchPolicy::batch_of_one()),
    )
    .unwrap();
    let client = server.client();

    // first request occupies the single worker for ~100ms…
    let in_flight = client.submit(Tensor::ones(&[4]), None).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    // …the next two fill the bounded queue…
    let queued: Vec<_> = (0..2)
        .map(|_| client.submit(Tensor::ones(&[4]), None).unwrap())
        .collect();
    // …and the fourth hits admission control
    match client.submit(Tensor::ones(&[4]), None) {
        Err(ServeError::Backpressure { capacity: 2 }) => {}
        other => panic!("expected Backpressure at capacity 2, got {other:?}"),
    }
    assert_eq!(server.in_flight(), 3, "one executing, two queued");

    in_flight.wait().unwrap();
    for p in queued {
        p.wait().unwrap();
    }
    let metrics = server.metrics();
    assert_eq!(metrics.completed, 3);
    assert_eq!(metrics.rejected, 1);
    assert_eq!(
        server.in_flight(),
        0,
        "the rejected push was never admitted"
    );
    server.shutdown();
}

#[test]
fn expired_deadlines_are_dropped_unexecuted() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("slow", &mut slow_net(Duration::from_millis(60)));
    let server = Server::start(
        Arc::clone(&registry),
        "slow",
        || slow_net(Duration::from_millis(60)),
        &[4],
        ServerConfig::new(1, 16, BatchPolicy::batch_of_one()),
    )
    .unwrap();
    let client = server.client();

    // occupy the worker, then queue a request that can only expire
    let in_flight = client.submit(Tensor::ones(&[4]), None).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let doomed = client
        .submit(Tensor::ones(&[4]), Some(Duration::from_millis(5)))
        .unwrap();
    // a generous deadline on a third request must still complete
    let fine = client
        .submit(Tensor::ones(&[4]), Some(Duration::from_secs(10)))
        .unwrap();

    in_flight.wait().unwrap();
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded { waited }) => {
            assert!(waited >= Duration::from_millis(5));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    fine.wait().unwrap();
    let metrics = server.metrics();
    assert_eq!(metrics.completed, 2);
    assert_eq!(metrics.expired, 1);
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
fn hot_swap_is_atomic_no_torn_weights() {
    // two versions of the model: W = 1*I and W = 2*I. Under concurrent
    // publishing, every response must be *entirely* one version's output
    // (all logits 1.0 or all 2.0 for an all-ones input) — a torn weight
    // load would produce a mix.
    let registry = Arc::new(ModelRegistry::new());
    publish_scaled_identity(&registry, "swap", 1.0);
    let server = Server::start(
        Arc::clone(&registry),
        "swap",
        linear_net,
        &[4],
        ServerConfig::new(2, 256, BatchPolicy::new(4, 200)),
    )
    .unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let publisher = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = 2.0f32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                publish_scaled_identity(&registry, "swap", c);
                c = if c == 2.0 { 1.0 } else { 2.0 };
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let client = server.client();
            std::thread::spawn(move || {
                let x = Tensor::ones(&[4]);
                for _ in 0..100 {
                    let response = client.infer(x.clone(), None).unwrap();
                    let first = response.logits[0];
                    assert!(
                        response.logits.iter().all(|&v| v == first),
                        "torn weights: logits {:?} mix model versions",
                        response.logits
                    );
                    assert!(
                        first == 1.0 || first == 2.0,
                        "logit {first} does not correspond to any published version"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    publisher.join().unwrap();
    server.shutdown();
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test bounds its hot-swap wait in real time"
)]
fn hot_swap_picks_up_new_versions_between_batches() {
    let registry = Arc::new(ModelRegistry::new());
    let v1 = publish_scaled_identity(&registry, "m", 1.0);
    let server = Server::start(
        Arc::clone(&registry),
        "m",
        linear_net,
        &[4],
        ServerConfig::new(1, 16, BatchPolicy::batch_of_one()),
    )
    .unwrap();
    let client = server.client();
    let r1 = client.infer(Tensor::ones(&[4]), None).unwrap();
    assert_eq!(r1.logits, vec![1.0; 4]);
    assert_eq!(r1.model_version, v1);

    let v2 = publish_scaled_identity(&registry, "m", 3.0);
    // the swap happens between batches; poll until the worker noticed
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let r = client.infer(Tensor::ones(&[4]), None).unwrap();
        if r.model_version == v2 {
            assert_eq!(r.logits, vec![3.0; 4]);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker never hot-swapped to version {v2}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();
}

#[test]
fn shape_mismatch_and_unknown_model_fail_actionably() {
    let registry = Arc::new(ModelRegistry::new());
    publish_scaled_identity(&registry, "id", 1.0);
    // unknown model name
    let err = Server::start(
        Arc::clone(&registry),
        "nope",
        linear_net,
        &[4],
        ServerConfig::default(),
    )
    .err()
    .expect("unknown model must not start");
    assert!(err.to_string().contains("no published version"));
    // wrong-architecture checkpoint under the requested name
    let mut rng = StdRng::seed_from_u64(9);
    let mut wrong = Network::new(Sequential::new(vec![Box::new(Linear::new(7, 7, &mut rng))]));
    registry.publish("wrong", &mut wrong);
    let err = Server::start(
        Arc::clone(&registry),
        "wrong",
        linear_net,
        &[4],
        ServerConfig::default(),
    )
    .err()
    .expect("architecture mismatch must not start");
    assert!(err.to_string().contains("does not load"));
    // shape mismatch at submission
    let server = Server::start(
        Arc::clone(&registry),
        "id",
        linear_net,
        &[4],
        ServerConfig::default(),
    )
    .unwrap();
    match server.client().infer(Tensor::ones(&[5]), None) {
        Err(ServeError::ShapeMismatch { expected, got }) => {
            assert_eq!(expected, vec![4]);
            assert_eq!(got, vec![5]);
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    assert_eq!(server.in_flight(), 0, "a refused sample was never admitted");
    server.shutdown();
}

/// A layer that panics when any input element equals the poison value —
/// the deterministic way to blow up one specific batch.
struct PanicOn(f32);

impl Layer for PanicOn {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        input.clone()
    }
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }
    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        if input.as_slice().contains(&self.0) {
            panic!("poison value hit");
        }
        out.clone_from(input);
    }
    fn name(&self) -> &'static str {
        "panic_on"
    }
}

#[test]
fn worker_panic_fails_the_batch_but_not_the_server() {
    let poison = 1234.5f32;
    let make = move || {
        let mut rng = StdRng::seed_from_u64(0);
        Network::new(Sequential::new(vec![
            Box::new(PanicOn(poison)),
            Box::new(Linear::new(4, 4, &mut rng)),
        ]))
    };
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("p", &mut make());
    let server = Server::start(
        Arc::clone(&registry),
        "p",
        make,
        &[4],
        ServerConfig::new(1, 16, BatchPolicy::batch_of_one()),
    )
    .unwrap();
    let client = server.client();
    // the poisoned request must fail with an error, not hang forever…
    match client.infer(Tensor::full(&[4], poison), None) {
        Err(ServeError::WorkerPanicked) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // …and the supervisor must respawn the worker to serve the next request
    let ok = client.infer(Tensor::full(&[4], 1.0), None).unwrap();
    assert_eq!(ok.logits.len(), 4);
    let metrics = server.metrics();
    assert_eq!(metrics.worker_panics, 1);
    assert_eq!(metrics.worker_restarts, 1);
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
fn injected_worker_panic_recovers_via_supervisor_respawn() {
    // the chaos hook: no special layers, a healthy model — the fuse alone
    // kills the worker mid-batch and the supervisor brings the pool back
    let registry = Arc::new(ModelRegistry::new());
    publish_scaled_identity(&registry, "id", 1.0);
    let server = Server::start(
        Arc::clone(&registry),
        "id",
        linear_net,
        &[4],
        ServerConfig::new(1, 16, BatchPolicy::batch_of_one()),
    )
    .unwrap();
    let client = server.client();
    server.inject_worker_panic();
    match client.infer(Tensor::ones(&[4]), None) {
        Err(ServeError::WorkerPanicked) => {}
        other => panic!("expected WorkerPanicked from the fuse, got {other:?}"),
    }
    // respawned worker serves the next request with the same model
    let ok = client.infer(Tensor::full(&[4], 2.0), None).unwrap();
    assert_eq!(ok.logits, vec![2.0; 4]);
    let metrics = server.metrics();
    assert_eq!(metrics.worker_panics, 1);
    assert_eq!(metrics.worker_restarts, 1);
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test bounds its waits in real time"
)]
fn exhausted_restart_budget_kills_the_pool_without_hanging_anyone() {
    let registry = Arc::new(ModelRegistry::new());
    publish_scaled_identity(&registry, "id", 1.0);
    let mut config = ServerConfig::new(1, 16, BatchPolicy::batch_of_one());
    config.max_worker_restarts = 0; // first panic is fatal for the pool
    let server = Server::start(Arc::clone(&registry), "id", linear_net, &[4], config).unwrap();
    let client = server.client();
    server.inject_worker_panic();
    match client.infer(Tensor::ones(&[4]), None) {
        Err(ServeError::WorkerPanicked) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // with zero restarts the pool is dead; the supervisor must close the
    // queue so clients get a typed error instead of waiting forever
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match client.infer(Tensor::ones(&[4]), None) {
            Err(ServeError::Shutdown) => break,
            Err(ServeError::WorkerPanicked) => {} // raced the supervisor's close
            Ok(_) => panic!("a dead pool must not serve"),
            Err(other) => panic!("unexpected error {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor never closed the queue after the pool died"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(server.metrics().worker_restarts, 0);
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
fn brownout_sheds_low_slack_requests_under_sustained_overload() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("slow", &mut slow_net(Duration::from_millis(30)));
    let mut config = ServerConfig::new(1, 8, BatchPolicy::batch_of_one());
    config.brownout.high_watermark = 0.5; // 4 of 8 queued = overload
    config.brownout.enter_ticks = 2;
    config.brownout.exit_ticks = 1000; // stay browned out for the test
    config.brownout.min_slack = Duration::from_secs(60); // shed every deadline'd request
    let server = Server::start(
        Arc::clone(&registry),
        "slow",
        || slow_net(Duration::from_millis(30)),
        &[4],
        config,
    )
    .unwrap();
    let client = server.client();

    // occupy the worker (no deadline: never sheddable), then pile up six
    // deadline'd requests — depth 6 ≥ watermark 4 triggers brownout within
    // a few supervisor ticks, after which they are shed, not executed
    let in_flight = client.submit(Tensor::ones(&[4]), None).unwrap();
    let doomed: Vec<_> = (0..6)
        .map(|_| {
            client
                .submit(Tensor::ones(&[4]), Some(Duration::from_secs(30)))
                .unwrap()
        })
        .collect();

    in_flight.wait().unwrap();
    let mut shed = 0;
    let mut served = 0;
    for p in doomed {
        match p.wait() {
            Ok(_) => served += 1,
            Err(ServeError::Shed { queue_depth: _ }) => shed += 1,
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert_eq!(shed + served, 6, "every request resolved");
    assert!(
        shed >= 1,
        "sustained overload must shed something (served {served})"
    );
    let metrics = server.metrics();
    assert_eq!(metrics.shed, shed);
    assert_eq!(metrics.brownout_entries, 1);
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
fn requests_without_deadlines_survive_brownout() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("slow", &mut slow_net(Duration::from_millis(20)));
    let mut config = ServerConfig::new(1, 8, BatchPolicy::batch_of_one());
    config.brownout.high_watermark = 0.25; // 2 queued = overload
    config.brownout.enter_ticks = 1;
    config.brownout.exit_ticks = 1000;
    config.brownout.min_slack = Duration::from_secs(60);
    let server = Server::start(
        Arc::clone(&registry),
        "slow",
        || slow_net(Duration::from_millis(20)),
        &[4],
        config,
    )
    .unwrap();
    let client = server.client();
    let pending: Vec<_> = (0..5)
        .map(|_| client.submit(Tensor::ones(&[4]), None).unwrap())
        .collect();
    // brownout certainly engages, but deadline-free requests are never shed
    for p in pending {
        p.wait().unwrap();
    }
    let metrics = server.metrics();
    assert_eq!(metrics.completed, 5);
    assert_eq!(metrics.shed, 0);
    server.shutdown();
}

#[test]
fn shutdown_drains_accepted_requests_then_rejects() {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("slow", &mut slow_net(Duration::from_millis(30)));
    let server = Server::start(
        Arc::clone(&registry),
        "slow",
        || slow_net(Duration::from_millis(30)),
        &[4],
        ServerConfig::new(1, 16, BatchPolicy::batch_of_one()),
    )
    .unwrap();
    let client = server.client();
    let accepted: Vec<_> = (0..3)
        .map(|_| client.submit(Tensor::ones(&[4]), None).unwrap())
        .collect();
    let shutdown_thread = std::thread::spawn(move || server.shutdown());
    // already-accepted requests complete during the drain
    for p in accepted {
        p.wait().unwrap();
    }
    shutdown_thread.join().unwrap();
    // and new submissions are refused
    match client.infer(Tensor::ones(&[4]), None) {
        Err(ServeError::Shutdown) => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }
    assert_eq!(client.in_flight(), 0);
}

#[test]
fn unrepresentable_deadlines_and_waits_mean_none() {
    // `Instant + Duration::MAX` overflows: in the worker for the policy's
    // wait, in the caller for the request's deadline
    let registry = Arc::new(ModelRegistry::new());
    publish_scaled_identity(&registry, "id", 1.0);
    let policy = BatchPolicy {
        max_wait: Duration::MAX,
        ..BatchPolicy::new(8, 0)
    };
    let server = Server::start(
        Arc::clone(&registry),
        "id",
        linear_net,
        &[4],
        ServerConfig::new(1, 16, policy),
    )
    .unwrap();
    let client = server.client();
    let x = Tensor::full(&[4], 3.0);
    assert_eq!(client.infer(x.clone(), None).unwrap().logits, vec![3.0; 4]);
    let forever = Some(Duration::MAX);
    assert_eq!(client.infer(x, forever).unwrap().logits, vec![3.0; 4]);
    assert_eq!(server.metrics().worker_panics, 0);
    server.shutdown();
}

/// Polls `done` every millisecond for up to five seconds.
#[expect(clippy::disallowed_methods, reason = "polling is bounded in real time")]
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sends `per_client` requests from each of `clients` threads and asserts
/// every response is `scale * x` from `version`.
fn assert_serves(server: &Server, clients: usize, per_client: usize, version: u64, scale: f32) {
    std::thread::scope(|s| {
        for t in 0..clients {
            let client = server.client();
            s.spawn(move || {
                for i in 0..per_client {
                    let v = (t * 100 + i) as f32;
                    let r = client.infer(Tensor::full(&[4], v), None).unwrap();
                    assert_eq!(r.model_version, version, "request {v}");
                    assert_eq!(r.logits, vec![scale * v; 4], "request {v}");
                }
            });
        }
    });
}

/// Waits until `server` answers from `version`, then kills a worker with
/// the chaos fuse and checks the respawned pool still serves `version`.
fn assert_swap_then_respawn(server: &Server, version: u64, scale: f32) {
    let client = server.client();
    let x = Tensor::ones(&[4]);
    wait_until("the hot-swap", || {
        client.infer(x.clone(), None).unwrap().model_version == version
    });
    assert_serves(server, 2, 10, version, scale);
    server.inject_worker_panic();
    match client.infer(x, None) {
        Err(ServeError::WorkerPanicked) => {}
        other => panic!("expected WorkerPanicked from the fuse, got {other:?}"),
    }
    wait_until("the respawn", || server.metrics().worker_restarts == 1);
    assert_serves(server, 2, 10, version, scale);
}

/// A factory for `build` that counts its calls and panics on the next call
/// once `fail_next` is set.
fn counting_factory(
    build: fn() -> Network,
) -> (
    impl Fn() -> Network + Send + Sync + 'static,
    Arc<AtomicUsize>,
    Arc<AtomicBool>,
) {
    let calls = Arc::new(AtomicUsize::new(0));
    let fail_next = Arc::new(AtomicBool::new(false));
    let make = {
        let (calls, fail_next) = (Arc::clone(&calls), Arc::clone(&fail_next));
        move || {
            calls.fetch_add(1, Ordering::SeqCst);
            if fail_next.swap(false, Ordering::SeqCst) {
                panic!("factory failure (test)");
            }
            build()
        }
    };
    (make, calls, fail_next)
}

#[test]
fn each_version_is_built_once_whatever_the_worker_count() {
    let registry = Arc::new(ModelRegistry::new());
    let v1 = publish_scaled_identity(&registry, "m", 1.0);
    let (make, calls, _) = counting_factory(linear_net);
    let server = Server::start(
        Arc::clone(&registry),
        "m",
        make,
        &[4],
        ServerConfig::new(2, 64, BatchPolicy::new(4, 200)),
    )
    .unwrap();
    assert_serves(&server, 4, 25, v1, 1.0);

    let v2 = publish_scaled_identity(&registry, "m", 2.0);
    assert_swap_then_respawn(&server, v2, 2.0);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "two versions were served: workers, respawns and start-up validation build nothing more"
    );
    server.shutdown();
}

/// An identity layer holding one buffer, so the model's checkpoint ends in
/// a buffer payload.
struct Tally(Tensor);

impl Layer for Tally {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        input.clone()
    }
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }
    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        out.clone_from(input);
    }
    fn for_each_state<'a>(&'a mut self, f: &mut dyn FnMut(State<'a>)) {
        f(State::Buffer(&mut self.0));
    }
    fn name(&self) -> &'static str {
        "tally"
    }
}

/// `linear_net` followed by a [`Tally`].
fn buffered_net() -> Network {
    let mut rng = StdRng::seed_from_u64(0);
    Network::new(Sequential::new(vec![
        Box::new(Linear::new(4, 4, &mut rng)),
        Box::new(Tally(Tensor::zeros(&[1]))),
    ]))
}

/// Checkpoint bytes of a `buffered_net` computing `y = c * x`.
fn buffered_bytes(c: f32) -> Vec<u8> {
    let mut net = buffered_net();
    let mut weights = scaled_identity_weights(c);
    weights.push(c);
    net.set_weights(&weights);
    net.to_checkpoint_bytes()
}

#[test]
fn a_bad_publish_is_built_once_rejected_and_never_served() {
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry.publish_bytes("m", buffered_bytes(1.0));
    let (make, calls, fail_next) = counting_factory(buffered_net);
    let server = Server::start(
        Arc::clone(&registry),
        "m",
        make,
        &[4],
        ServerConfig::new(2, 64, BatchPolicy::new(4, 200)),
    )
    .unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 1);

    let mut rng = StdRng::seed_from_u64(9);
    let mut wrong = Network::new(Sequential::new(vec![Box::new(Linear::new(7, 7, &mut rng))]));
    let mut flipped = buffered_bytes(5.0);
    let last_buffer_byte = flipped.len() - 5; // the buffer's CRC is the last 4 bytes
    flipped[last_buffer_byte] ^= 0x01;
    match buffered_net().load_checkpoint_bytes(&flipped) {
        Err(CheckpointError::CrcMismatch { .. }) => {}
        other => panic!("the flipped blob must fail its last CRC, got {other:?}"),
    }
    let bad = [
        (
            "a wrong-architecture blob",
            wrong.to_checkpoint_bytes(),
            false,
        ),
        ("a flipped buffer byte", flipped, false),
        ("a panicking factory", buffered_bytes(6.0), true),
    ];
    for (built, (what, bytes, factory_panics)) in (2..).zip(bad) {
        fail_next.store(factory_panics, Ordering::SeqCst);
        registry.publish_bytes("m", bytes);
        wait_until(what, || calls.load(Ordering::SeqCst) == built);
        // many batches and supervisor ticks later: still v1, never rebuilt
        for _ in 0..4 {
            assert_serves(&server, 2, 10, v1, 1.0);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(calls.load(Ordering::SeqCst), built, "{what} was rebuilt");
    }

    // a later good version is picked up, and the supervisor still respawns
    let v5 = registry.publish_bytes("m", buffered_bytes(3.0));
    assert_swap_then_respawn(&server, v5, 3.0);
    assert_eq!(calls.load(Ordering::SeqCst), 5);
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
fn served_zoo_logits_are_bit_identical_to_a_direct_forward() {
    let cfg = VisionConfig::new(3, 5, 8);
    let dims = [3, 8, 8];
    let samples: Vec<Tensor> = (0..6)
        .map(|i| Tensor::rand_uniform(&dims, 0.0, 1.0, &mut StdRng::seed_from_u64(100 + i)))
        .collect();
    for kind in [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ] {
        let make = move || build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(7));
        let registry = Arc::new(ModelRegistry::new());
        let mut trained = build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(11));
        registry.publish("zoo", &mut trained);
        let bytes = registry.latest("zoo").unwrap();
        let mut direct = make();
        direct.fuse_inference();
        direct.load_checkpoint_bytes(&bytes.bytes).unwrap();
        let server = Server::start(
            Arc::clone(&registry),
            "zoo",
            make,
            &dims,
            ServerConfig::new(2, 64, BatchPolicy::batch_of_one()),
        )
        .unwrap();
        let client = server.client();
        let pending: Vec<_> = samples
            .iter()
            .map(|s| client.submit(s.clone(), None).unwrap())
            .collect();
        for (i, (sample, p)) in samples.iter().zip(pending).enumerate() {
            let got: Vec<u32> = p
                .wait()
                .unwrap()
                .logits
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u32> = direct
                .infer(&sample.reshape(&[1, 3, 8, 8]))
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "{kind:?} sample {i}");
        }
        server.shutdown();
    }
}
