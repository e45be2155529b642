//! The end-to-end serving demo: a federated-learning run publishes global
//! model checkpoints into a registry via the `checkpoint_every` hook,
//! `hs-serve` loads the model from the registry, and a 4-client closed-loop
//! load drives the dynamically batched server — responses must match direct
//! inference with the published global model, batching must actually
//! coalesce, and mid-serving publications must hot-swap in. Two smaller
//! tests pin the batcher's light-load behaviour end to end: a lone client
//! never pays `max_wait`, and neither do four clients under `max_batch 8`
//! on two workers. And FL measures what the server serves: every client's
//! `L_init` is the fused global model's loss, and the per-device accuracies
//! FL reports are those of the server's answers.
//!
//! (The companion throughput claim — dynamic batching ≥ 2× the batch=1
//! configuration at the same p99 bound — is timed and CI-gated in
//! `crates/bench/benches/serving.rs`, not asserted here where debug-build
//! timing would make it flaky.)

use hs_data::{Dataset, Labels};
use hs_fl::{
    AggregationMethod, ClientContext, ClientData, ClientTrainer, ClientUpdate, FedAvgTrainer,
    FlConfig, FlSimulation, LossKind,
};
use hs_metrics::accuracy;
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::{CrossEntropyLoss, Linear, Network, Relu, Sequential};
use hs_parallel::sync;
use hs_serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const IN: usize = 4;
const CLASSES: usize = 3;

fn replica() -> Network {
    let mut rng = StdRng::seed_from_u64(0);
    Network::new(Sequential::new(vec![
        Box::new(Linear::new(IN, 16, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, CLASSES, &mut rng)),
    ]))
}

fn clients(n: usize, samples: usize) -> Vec<ClientData> {
    (0..n)
        .map(|id| {
            let mut rng = StdRng::seed_from_u64(id as u64 + 77);
            let x: Vec<Tensor> = (0..samples)
                .map(|i| {
                    let mut t = Tensor::rand_uniform(&[IN], -0.2, 0.2, &mut rng);
                    t.as_mut_slice()[i % CLASSES] += 1.0;
                    t
                })
                .collect();
            ClientData {
                id,
                device: format!("dev-{}", id % 2),
                data: Dataset::new(
                    x,
                    Labels::Classes((0..samples).map(|i| i % CLASSES).collect()),
                ),
            }
        })
        .collect()
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test bounds its hot-swap wait in real time"
)]
fn fl_checkpoints_feed_a_live_dynamically_batched_server() {
    // --- train: an FL run that publishes every 2 rounds into the registry
    let registry = Arc::new(ModelRegistry::new());
    let mut config = FlConfig::tiny();
    config.rounds = 6;
    config.num_clients = 4;
    config.clients_per_round = 2;
    let mut sim = FlSimulation::new(
        config,
        clients(4, 9),
        Box::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let _ = &mut rng; // deterministic replica independent of seed
            replica()
        }),
        Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
        AggregationMethod::FedAvg,
    );
    {
        let registry = Arc::clone(&registry);
        sim.run_with_checkpoints(2, move |_rounds_done, model| {
            registry.publish("global", model);
        });
    }
    assert_eq!(
        registry.versions("global").len(),
        3,
        "6 rounds at checkpoint_every=2 publish 3 versions"
    );

    // --- serve: load the latest global model from the registry
    let server = Server::start(
        Arc::clone(&registry),
        "global",
        replica,
        &[IN],
        ServerConfig::new(1, 256, BatchPolicy::new(8, 2_000)),
    )
    .unwrap();

    let latest_version = registry.latest_version("global").unwrap();

    // --- load: 4 closed-loop clients, each matching its responses against
    // its own direct-inference reference replica, sample by sample
    let global_weights = sim.global_model().weights();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let client = server.client();
            let mut reference = {
                let mut net = replica();
                net.set_weights(&global_weights);
                net
            };
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(500 + t);
                for i in 0..40 {
                    let x = Tensor::rand_uniform(&[IN], -1.0, 1.0, &mut rng);
                    let response = client.infer(x.clone(), None).unwrap();
                    let expect = reference.infer(&x.reshape(&[1, IN])).clone();
                    assert_eq!(response.logits.len(), CLASSES);
                    for (a, b) in response.logits.iter().zip(expect.as_slice()) {
                        assert!(
                            (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                            "client {t} request {i}: served {a} vs direct {b}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let metrics = server.metrics();
    assert_eq!(metrics.completed, 160);
    assert_eq!(metrics.rejected + metrics.expired, 0);
    assert_eq!(server.in_flight(), 0);
    assert!(
        metrics.mean_batch > 1.0,
        "4 concurrent closed-loop clients must coalesce into batches, histogram {:?}",
        metrics.batch_histogram
    );
    assert!(metrics.p99_us >= metrics.p50_us);

    // --- hot-swap mid-serving: publish an improved model and verify the
    // server picks it up without restarting
    let x = Tensor::ones(&[IN]);
    let before = server.client().infer(x.clone(), None).unwrap();
    assert_eq!(before.model_version, latest_version);
    let mut admitted = 160 + 1;
    let mut improved = sim.global_model();
    let mut w = improved.weights();
    for v in w.iter_mut() {
        *v *= 0.5;
    }
    improved.set_weights(&w);
    let new_version = registry.publish("global", &mut improved);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let r = server.client().infer(x.clone(), None).unwrap();
        admitted += 1;
        if r.model_version == new_version {
            let expect = improved.infer(&x.reshape(&[1, IN])).clone();
            for (a, b) in r.logits.iter().zip(expect.as_slice()) {
                assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0));
            }
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never swapped to the mid-serving publication"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // --- conservation: every admitted request left through exactly one
    // counted exit (no client here saw a worker panic or a shutdown)
    let metrics = server.metrics();
    assert_eq!(metrics.rejected, 0, "every submission was admitted");
    assert_eq!(
        admitted,
        metrics.completed + metrics.expired + metrics.shed,
        "admitted requests and counted outcomes diverged"
    );
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

fn serve_fresh_model(workers: usize, policy: BatchPolicy) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", &mut replica());
    Server::start(
        registry,
        "m",
        replica,
        &[IN],
        ServerConfig::new(workers, 64, policy),
    )
    .unwrap()
}

#[test]
fn a_lone_closed_loop_client_never_pays_max_wait() {
    let server = serve_fresh_model(1, BatchPolicy::new(8, 20_000)); // 20 ms
    let client = server.client();
    let mut latencies: Vec<Duration> = (0..50)
        .map(|_| client.infer(Tensor::ones(&[IN]), None).unwrap().latency)
        .collect();
    latencies.sort_unstable();
    let p50 = latencies[latencies.len() / 2];
    assert!(
        p50 < Duration::from_millis(10),
        "window-1 p50 {p50:?}: the batcher held the door for nobody"
    );
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

#[test]
fn four_clients_under_max_batch_eight_coalesce_without_waiting_out_max_wait() {
    // two workers: a partial batch held by one must close when the last
    // expected request is taken by the other, not at max_wait
    const CLIENTS: usize = 4;
    const MEASURED: usize = 50;
    let max_wait = Duration::from_millis(250);
    let server = serve_fresh_model(2, BatchPolicy::new(8, max_wait.as_micros() as u64));
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let client = server.client();
            let done = &done;
            scope.spawn(move || {
                for i in 0..MEASURED {
                    let latency = client.infer(Tensor::ones(&[IN]), None).unwrap().latency;
                    assert!(
                        latency < max_wait,
                        "request {i} took {latency:?}: its batch was held to max_wait"
                    );
                }
                // keep the offered concurrency at four until every client
                // has its measurements; a shrinking population may wait
                done.fetch_add(1, Ordering::SeqCst);
                while done.load(Ordering::SeqCst) < CLIENTS {
                    client.infer(Tensor::ones(&[IN]), None).unwrap();
                }
            });
        }
    });
    let metrics = server.metrics();
    assert!(
        metrics.mean_batch > 1.0,
        "four concurrent clients never coalesced, histogram {:?}",
        metrics.batch_histogram
    );
    assert_eq!(server.in_flight(), 0);
    server.shutdown();
}

/// Input side of the network `fl_measures_the_model_the_server_serves` trains.
const PX: usize = 16;

/// The paper's MobileNetV3-small: its fused plan rounds its losses
/// differently from the layer-by-layer one, so the `L_init` check below
/// tells the two apart.
fn cnn(seed: u64) -> Network {
    let cfg = VisionConfig::new(3, CLASSES, PX);
    build_vision_model(
        ModelKind::MobileNetV3Small,
        cfg,
        &mut StdRng::seed_from_u64(seed),
    )
}

/// `n` random images with random class labels.
fn images(n: usize, rng: &mut StdRng) -> Dataset {
    let x = (0..n)
        .map(|_| Tensor::rand_uniform(&[3, PX, PX], 0.0, 1.0, rng))
        .collect();
    let labels = (0..n).map(|_| rng.gen_range(0..CLASSES)).collect();
    Dataset::new(x, Labels::Classes(labels))
}

/// FedAvg that records the `L_init` of every update it returns, as
/// `(client, L_init)`.
struct RecordingFedAvg {
    inner: FedAvgTrainer,
    init_losses: Arc<Mutex<Vec<(usize, f32)>>>,
}

impl ClientTrainer for RecordingFedAvg {
    fn client_update(
        &self,
        net: &mut Network,
        data: &Dataset,
        ctx: &ClientContext<'_>,
        rng: &mut StdRng,
    ) -> ClientUpdate {
        let update = self.inner.client_update(net, data, ctx, rng);
        sync::lock(&self.init_losses).push((ctx.client_id, update.init_loss));
        update
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[test]
fn fl_measures_the_model_the_server_serves() {
    let mut rng = StdRng::seed_from_u64(31);
    let clients: Vec<ClientData> = (0..4)
        .map(|id| ClientData {
            id,
            device: format!("dev-{}", id % 2),
            data: images(12, &mut rng),
        })
        .collect();
    let init_losses = Arc::new(Mutex::new(Vec::new()));
    let config = FlConfig {
        num_clients: 4,
        clients_per_round: 2,
        ..FlConfig::tiny()
    };
    let mut sim = FlSimulation::new(
        config,
        clients.clone(),
        Box::new(cnn),
        Box::new(RecordingFedAvg {
            inner: FedAvgTrainer::new(LossKind::CrossEntropy),
            init_losses: Arc::clone(&init_losses),
        }),
        AggregationMethod::FedAvg,
    );

    // L_init: every client's is the fused global model's loss on its data
    for round in 0..3 {
        let mut served = sim.global_model();
        served.fuse_inference();
        sim.run_round();
        let recorded = std::mem::take(&mut *sync::lock(&init_losses));
        assert_eq!(recorded.len(), config.clients_per_round);
        for (client, init_loss) in recorded {
            let (x, target) = clients[client].data.full_batch();
            let expect = served.eval_loss(&x, &target, &CrossEntropyLoss);
            assert_eq!(
                init_loss.to_bits(),
                expect.to_bits(),
                "round {round} client {client}: L_init {init_loss} vs served {expect}"
            );
        }
    }

    // accuracy: FL's per-device figures are those of the server's answers
    let tests: Vec<(String, Dataset)> = (0..2)
        .map(|d| (format!("dev-{d}"), images(20, &mut rng)))
        .collect();
    let reported = sim.evaluate_per_device(&tests);
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("global", &mut sim.global_model());
    let server = Server::start(
        registry,
        "global",
        || cnn(0),
        &[3, PX, PX],
        ServerConfig::new(1, 64, BatchPolicy::new(8, 2_000)),
    )
    .unwrap();
    let client = server.client();
    for ((device, test), group) in tests.iter().zip(&reported) {
        let pending: Vec<_> = test
            .x
            .iter()
            .map(|x| client.submit(x.clone(), None).unwrap())
            .collect();
        let predicted: Vec<usize> = pending
            .into_iter()
            .map(|p| {
                let logits = p.wait().unwrap().logits;
                Tensor::from_vec(logits, &[1, CLASSES]).argmax_rows()[0]
            })
            .collect();
        let Labels::Classes(labels) = &test.labels else {
            unreachable!("class labels")
        };
        let served = accuracy(&predicted, labels);
        assert_eq!(group.group, *device);
        assert_eq!(
            group.accuracy.to_bits(),
            served.to_bits(),
            "{device}: FL reports {} but the server scores {served}",
            group.accuracy
        );
    }
    server.shutdown();
}
