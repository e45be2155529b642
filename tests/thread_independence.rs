//! Training and inference bits must not depend on the parallelism target.
//!
//! `docs/SCALE.md`'s replay contract says a run is a pure function of its
//! seeds; aggregation has always kept that at any thread count. The client
//! training that feeds it has to as well: `Conv2d::backward` sums per-band
//! partial gradients, so the band plan must follow from the batch size
//! alone, whoever executes it — the calling thread, the pool, or a pool
//! worker that is already running one FL client. Inference splits a batch
//! over the pool too — once, by sample range, whose boundaries move where
//! the batched GEMM cuts its register tiles; every tile is stored by one
//! rule, so that cannot move a bit either, uneven ranges included.

use heteroswitch_repro::core::TransformKind;
use heteroswitch_repro::data::{Dataset, Labels};
use heteroswitch_repro::fl::{ClientData, FlConfig, FlSimulation, LossKind};
use heteroswitch_repro::nn::models::{build_vision_model, ModelKind, VisionConfig};
use heteroswitch_repro::nn::{CrossEntropyLoss, Network, Target, Workspace};
use heteroswitch_repro::parallel::{set_num_threads, sync};
use heteroswitch_repro::tensor::{DType, Tensor};
use hs_bench::experiments::Method;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::Mutex;

/// `set_num_threads` is process-wide and the tests share a process.
static THREADS: Mutex<()> = Mutex::new(());

const KINDS: [ModelKind; 2] = [ModelKind::SimpleCnn, ModelKind::MobileNetV3Small];
const CLASSES: usize = 4;
const PX: usize = 16;

fn model(kind: ModelKind, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    build_vision_model(kind, VisionConfig::new(3, CLASSES, PX), &mut rng)
}

/// Runs `run` at a 1-, 2- and 4-thread target and asserts it returned the
/// same bits each time.
fn assert_same_at_every_thread_target(what: &str, run: impl Fn() -> Vec<f32>) {
    let _serial = sync::lock(&THREADS);
    let [one, two, four] = [1usize, 2, 4].map(|threads| {
        set_num_threads(Some(threads));
        run().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    });
    set_num_threads(None);
    for (threads, got) in [(2, two), (4, four)] {
        let differing = one.iter().zip(&got).filter(|(a, b)| a != b).count();
        assert_eq!(
            differing,
            0,
            "{what}: 1 vs {threads} threads, of {}",
            one.len()
        );
    }
}

/// Every Table 4 configuration — FedAvg, HeteroSwitch under its three
/// policies, FedAvg + q-FedAvg, FedProx and Scaffold — built as the
/// experiment binaries build it, replays: each client's training and the
/// state a trainer carries between clients (Scaffold's control variates)
/// must not depend on which worker ran which client, or when.
#[test]
fn fl_global_weights_are_bit_identical_at_any_thread_target() {
    // twelve samples per client: at batch size 10 every epoch trains one
    // multi-band batch and one ragged single-band batch
    let mut rng = StdRng::seed_from_u64(77);
    let clients: Vec<ClientData> = (0..4)
        .map(|id| {
            let x = (0..12).map(|_| Tensor::rand_uniform(&[3, PX, PX], 0.0, 1.0, &mut rng));
            let x = x.collect();
            let labels = (0..12).map(|_| rng.gen_range(0..CLASSES)).collect();
            let data = Dataset::new(x, Labels::Classes(labels));
            ClientData {
                id,
                device: format!("device-{}", id % 2),
                data,
            }
        })
        .collect();
    let config = FlConfig {
        clients_per_round: 3,
        batch_size: 10,
        ..FlConfig::tiny()
    };
    for kind in KINDS {
        for method in Method::table4() {
            let what = format!("{kind:?} {}, 2 rounds", method.as_str());
            assert_same_at_every_thread_target(&what, || {
                let transform = TransformKind::paper_vision();
                let (trainer, aggregation) =
                    method.build(LossKind::CrossEntropy, transform, &config);
                let mut sim = FlSimulation::new(
                    config,
                    clients.clone(),
                    Box::new(move |seed| model(kind, seed)),
                    trainer,
                    aggregation,
                );
                sim.run();
                sim.global_weights().to_vec()
            });
        }
    }
}

#[test]
fn centralized_gradients_are_bit_identical_at_any_thread_target() {
    // outside the pool the bands really do run concurrently
    let mut rng = StdRng::seed_from_u64(78);
    let x = Tensor::rand_uniform(&[10, 3, PX, PX], 0.0, 1.0, &mut rng);
    let target = Target::Classes((0..10).map(|i| i % CLASSES).collect());
    for kind in KINDS {
        assert_same_at_every_thread_target(&format!("{kind:?} forward_backward"), || {
            let mut net = model(kind, 5);
            let loss = net.forward_backward(&x, &target, &CrossEntropyLoss);
            let mut grads = net.gradients();
            grads.push(loss);
            grads
        });
    }
}

#[test]
fn fused_inference_is_bit_identical_at_any_thread_target() {
    // every weight and buffer perturbed: a fresh model folds to a zero
    // epilogue shift, which no rounding rule can tell apart
    let zoo = [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ];
    let mut rng = StdRng::seed_from_u64(79);
    for kind in zoo {
        for dtype in [DType::F32, DType::F16, DType::I8] {
            let mut net = model(kind, 5);
            let mut trained = net.weights();
            trained
                .iter_mut()
                .for_each(|w| *w += rng.gen_range(0.01..0.1));
            net.set_weights(&trained);
            net.fuse_inference();
            net.to_dtype(dtype);
            // `Network::infer` keeps its per-range sub-workspaces across the
            // three targets; `infer_with` starts cold every time
            let net = RefCell::new(net);
            for batch in [1usize, 3, 5, 8, 32] {
                let x = Tensor::rand_uniform(&[batch, 3, PX, PX], 0.0, 1.0, &mut rng);
                let what = format!("{kind:?} {dtype:?} batch {batch}");
                assert_same_at_every_thread_target(&what, || {
                    let mut net = net.borrow_mut();
                    let mut bits = net.infer_with(&x, &mut Workspace::new()).into_vec();
                    bits.extend_from_slice(net.infer(&x).as_slice());
                    bits
                });
            }
        }
    }
}
