//! Serving quickstart: train a global model with federated learning,
//! checkpoint it into a model registry, serve it with the dynamic
//! micro-batching server, and watch a mid-serving hot-swap.
//!
//! Run with `cargo run --release --example serve_quickstart`.

use hs_data::{Dataset, Labels};
use hs_fl::{AggregationMethod, ClientData, FedAvgTrainer, FlConfig, FlSimulation, LossKind};
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const CLASSES: usize = 5;
const PX: usize = 16;

fn model_cfg() -> VisionConfig {
    VisionConfig::new(3, CLASSES, PX)
}

fn clients(n: usize, samples: usize) -> Vec<ClientData> {
    (0..n)
        .map(|id| {
            let mut rng = StdRng::seed_from_u64(id as u64 + 40);
            let x: Vec<Tensor> = (0..samples)
                .map(|i| {
                    // class-tinted random images: enough signal for a short
                    // demo run to visibly learn
                    let mut t = Tensor::rand_uniform(&[3, PX, PX], 0.0, 0.4, &mut rng);
                    let class = i % CLASSES;
                    for v in t.as_mut_slice().iter_mut().skip(class * 40).take(40) {
                        *v += 0.6;
                    }
                    t
                })
                .collect();
            ClientData {
                id,
                device: format!("dev-{}", id % 3),
                data: Dataset::new(
                    x,
                    Labels::Classes((0..samples).map(|i| i % CLASSES).collect()),
                ),
            }
        })
        .collect()
}

#[expect(
    clippy::disallowed_methods,
    reason = "the demo bounds its hot-swap wait in real time"
)]
fn main() {
    // 1. A federated run that publishes its global model into the registry
    //    every 2 rounds (the `checkpoint_every` hook).
    let registry = Arc::new(ModelRegistry::new());
    let mut config = FlConfig::tiny();
    config.rounds = 4;
    config.num_clients = 6;
    config.clients_per_round = 3;
    let mut sim = FlSimulation::new(
        config,
        clients(6, 10),
        Box::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            build_vision_model(ModelKind::SimpleCnn, model_cfg(), &mut rng)
        }),
        Box::new(FedAvgTrainer::new(LossKind::CrossEntropy)),
        AggregationMethod::FedAvg,
    );
    {
        let registry = Arc::clone(&registry);
        sim.run_with_checkpoints(2, move |rounds_done, model| {
            let version = registry.publish("simple_cnn", model);
            println!("round {rounds_done}: published global model as version {version}");
        });
    }

    // 2. Serve the latest checkpoint: 1 worker, dynamic batching up to 4
    //    requests / 500 µs.
    let server = Server::start(
        Arc::clone(&registry),
        "simple_cnn",
        || {
            let mut rng = StdRng::seed_from_u64(0);
            build_vision_model(ModelKind::SimpleCnn, model_cfg(), &mut rng)
        },
        &[3, PX, PX],
        ServerConfig::new(1, 64, BatchPolicy::new(4, 500)),
    )
    .expect("server start");
    println!(
        "serving model versions {:?} (latest wins)",
        registry.versions("simple_cnn")
    );

    // 3. A small closed-loop burst from 4 concurrent clients.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let client = server.client();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(900 + t);
                for _ in 0..25 {
                    let x = Tensor::rand_uniform(&[3, PX, PX], 0.0, 1.0, &mut rng);
                    let response = client
                        .infer(x, Some(Duration::from_secs(1)))
                        .expect("request served");
                    assert_eq!(response.logits.len(), CLASSES);
                }
            });
        }
    });
    let metrics = server.metrics();
    println!(
        "served {} requests: p50 {} us, p99 {} us, mean batch {:.2}, histogram {:?}",
        metrics.completed,
        metrics.p50_us,
        metrics.p99_us,
        metrics.mean_batch,
        metrics.batch_histogram
    );

    // 4. Hot-swap: publish one more training round's model mid-serving.
    let new_version = registry.publish("simple_cnn", &mut sim.global_model());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let x = Tensor::rand_uniform(&[3, PX, PX], 0.0, 1.0, &mut StdRng::seed_from_u64(1));
        let response = server.client().infer(x, None).expect("request served");
        if response.model_version == new_version {
            println!("hot-swapped to version {new_version} without restarting");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never hot-swapped to version {new_version}"
        );
    }
    server.shutdown();
    println!("done");
}
