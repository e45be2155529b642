//! Training and inference bits must not depend on the parallelism target.
//!
//! `docs/SCALE.md`'s replay contract says a run is a pure function of its
//! seeds; aggregation has always kept that at any thread count. The client
//! training that feeds it has to as well: `Conv2d::backward` sums per-band
//! partial gradients, so the band plan must follow from the batch size
//! alone, whoever executes it — the calling thread, the pool, or a pool
//! worker that is already running one FL client. Inference splits a batch
//! over the pool too — once, by sample range — and runs each range in
//! sample tiles sized by the input's pixels (32 samples at 16 px); both
//! boundaries move where the batched GEMM cuts
//! its register tiles, and every register tile is stored by one rule, so
//! that cannot move a bit either, uneven ranges and ragged tiles included.

use heteroswitch_repro::core::TransformKind;
use heteroswitch_repro::data::{Dataset, Labels};
use heteroswitch_repro::fl::{ClientData, FlConfig, FlSimulation, LossKind};
use heteroswitch_repro::nn::models::{build_vision_model, ModelKind, VisionConfig};
use heteroswitch_repro::nn::{CrossEntropyLoss, Network, Target, Workspace};
use heteroswitch_repro::parallel::{scope, set_num_threads, sync};
use heteroswitch_repro::tensor::Tensor;
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

/// Runs `run` at a 1-, 2- and 4-thread target, asserts it returned the
/// same bits each time and returns the 1-thread run's bits.
fn assert_same_at_every_thread_target(what: &str, run: impl Fn() -> Vec<f32>) -> Vec<u32> {
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
    one
}

/// FNV-1a (64-bit) over the little-endian bytes of `bits`.
fn fnv1a(bits: &[u32]) -> u64 {
    bits.iter()
        .flat_map(|b| b.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// [`fnv1a`] of the `global_weights()` bits that
/// `fl_global_weights_are_bit_identical_at_any_thread_target` ends in, one
/// row per Table 4 configuration, one column per [`KINDS`] entry. A change
/// that moves any FL bit moves one of these; it re-baselines the literals
/// it moves and says why.
const GOLDEN_FL: [(&str, [u64; 2]); 7] = [
    ("FedAvg", [0x3285_6199_3416_306f, 0x1a26_38aa_3b2d_7a4b]),
    (
        "ISP Transformation",
        [0xc82f_2698_a96b_7a18, 0x681c_a5d5_fe85_05bb],
    ),
    (
        "ISP Transformation + SWAD",
        [0x05e2_1885_5cd9_b99c, 0x7881_7b09_2111_2fde],
    ),
    (
        "HeteroSwitch",
        [0xb3fb_1a62_95cb_c7a8, 0x1a26_38aa_3b2d_7a4b],
    ),
    ("q-FedAvg", [0xde4a_ac02_56ed_61ea, 0x717d_c276_db42_3027]),
    ("FedProx", [0xfa9b_b85f_99d8_8383, 0x3791_0a7d_e9b0_7b87]),
    ("Scaffold", [0x3da2_ca06_ba23_41cb, 0xbf82_f3f0_8991_1165]),
];

/// Every Table 4 configuration — FedAvg, HeteroSwitch under its three
/// policies, FedAvg + q-FedAvg, FedProx and Scaffold — built as the
/// experiment binaries build it, replays: each client's training and the
/// state a trainer carries between clients (Scaffold's control variates)
/// must not depend on which worker ran which client, or when. The 1-thread
/// run's weights are pinned by [`GOLDEN_FL`].
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
    let mut moved = Vec::new();
    for (column, kind) in KINDS.into_iter().enumerate() {
        for (method, (name, golden)) in Method::table4().into_iter().zip(GOLDEN_FL) {
            assert_eq!(method.as_str(), name, "GOLDEN_FL row order");
            let what = format!("{kind:?} {name}, 2 rounds");
            let bits = assert_same_at_every_thread_target(&what, || {
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
            let got = fnv1a(&bits);
            if got != golden[column] {
                moved.push(format!("{what}: {got:#018x}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "FL fingerprints moved:\n{}",
        moved.join("\n")
    );
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
        let mut net = model(kind, 5);
        let mut trained = net.weights();
        trained
            .iter_mut()
            .for_each(|w| *w += rng.gen_range(0.01..0.1));
        net.set_weights(&trained);
        net.fuse_inference();
        // `Network::infer` keeps its per-range sub-workspaces across the
        // three targets; `infer_with` starts cold every time. At 16 px a
        // tile is 32 samples: 33 and 120 (`vision`'s largest client) run in
        // several, with a ragged last one; 7, 9 and 29 split unevenly.
        let net = RefCell::new(net);
        for batch in [1usize, 3, 5, 7, 8, 9, 29, 32, 33, 120] {
            let x = Tensor::rand_uniform(&[batch, 3, PX, PX], 0.0, 1.0, &mut rng);
            // each sample inferred alone: a batch of one is one tile of one
            // range at any thread target
            let row = x.len() / batch;
            let alone: Vec<u32> = x
                .as_slice()
                .chunks(row)
                .flat_map(|sample| {
                    let sample = Tensor::from_vec(sample.to_vec(), &[1, 3, PX, PX]);
                    net.borrow()
                        .infer_with(&sample, &mut Workspace::new())
                        .into_vec()
                })
                .map(f32::to_bits)
                .collect();
            let what = format!("{kind:?} batch {batch}");
            let bits = assert_same_at_every_thread_target(&what, || {
                let mut net = net.borrow_mut();
                let mut bits = net.infer_with(&x, &mut Workspace::new()).into_vec();
                bits.extend_from_slice(net.infer(&x).as_slice());
                // from inside a pool task the batch is one range, in tiles
                let (net, mut pooled) = (&*net, Vec::new());
                scope(|s| {
                    s.spawn(|| pooled = net.infer_with(&x, &mut Workspace::new()).into_vec());
                });
                bits.extend(pooled);
                bits
            });
            assert_eq!(bits.len(), 3 * alone.len(), "{what}: three passes");
            for (pass, got) in ["infer_with", "infer", "infer_with on the pool"]
                .iter()
                .zip(bits.chunks(alone.len()))
            {
                let differing = got.iter().zip(&alone).filter(|(a, b)| a != b).count();
                assert_eq!(differing, 0, "{what}: {pass} vs each sample alone");
            }
        }
    }
}
