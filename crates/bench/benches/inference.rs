//! End-to-end inference benchmarks for the fused engine.
//!
//! Every rung runs the one inference body per layer (`Layer::infer`); they
//! differ in what was fused and in whether the workspace is kept:
//!
//! * `*_unfused`   — `forward(x, false)` on the unfused network: conv, then
//!   a full-tensor batch-norm pass, then a full-tensor activation pass, on a
//!   cold workspace (every buffer the pass needs is allocated inside it);
//! * `*_fused`     — the same cold-workspace call after
//!   `Network::fuse_inference()`: conv+BN+activation collapsed into one GEMM
//!   with the scale/shift+activation epilogue in the micro-kernel store
//!   loop;
//! * `*_fused_plan` — the fused network through `Network::infer`, i.e. over
//!   the network's own warm workspace, so steady-state forwards also stop
//!   allocating;
//! * `*_fused_infer_with` — the fused network through `Network::infer_with`
//!   over a kept workspace, at a batch of one sample tile (32 samples at
//!   16 px) and one of four.
//!
//! `inference/eval_accuracy_*` measures the FL-facing quantity: whole-batch
//! sharded evaluation over the `hs_parallel` pool (run with
//! `HS_PARALLEL_THREADS=1/4` to see the scaling).

use criterion::{criterion_group, criterion_main, Criterion};
use hs_data::{Dataset, Labels};
use hs_fl::evaluate_accuracy;
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::{Network, Workspace};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Builds two weight-identical replicas of a model (same constructor seed):
/// one untouched, one fused.
fn model_pair(kind: ModelKind, cfg: VisionConfig) -> (Network, Network) {
    let mut rng = StdRng::seed_from_u64(7);
    let unfused = build_vision_model(kind, cfg, &mut rng);
    let mut rng = StdRng::seed_from_u64(7);
    let mut fused = build_vision_model(kind, cfg, &mut rng);
    fused.fuse_inference();
    (unfused, fused)
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);

    // the CIFAR-synth CNN at CIFAR geometry: the model behind the paper's
    // synthetic heterogeneity study and this PR's acceptance bar
    let cfg = VisionConfig::new(3, 10, 32);
    let (mut unfused, mut fused) = model_pair(ModelKind::SimpleCnn, cfg);
    let x = Tensor::rand_uniform(&[32, 3, 32, 32], 0.0, 1.0, &mut rng);
    c.bench_function("inference/simple_cnn_b32_unfused", |b| {
        b.iter(|| unfused.forward(black_box(&x), false))
    });
    c.bench_function("inference/simple_cnn_b32_fused", |b| {
        b.iter(|| fused.forward(black_box(&x), false))
    });
    c.bench_function("inference/simple_cnn_b32_fused_plan", |b| {
        b.iter(|| fused.infer(black_box(&x)).len())
    });

    // a mobile-zoo model: fusion reaches the nested block Sequentials, and
    // the depthwise layers run on the direct kernel
    let cfg = VisionConfig::new(3, 12, 16);
    let (mut unfused, mut fused) = model_pair(ModelKind::MobileNetV3Small, cfg);
    let x = Tensor::rand_uniform(&[8, 3, 16, 16], 0.0, 1.0, &mut rng);
    c.bench_function("inference/mobilenet_b8_unfused", |b| {
        b.iter(|| unfused.forward(black_box(&x), false))
    });
    c.bench_function("inference/mobilenet_b8_fused_plan", |b| {
        b.iter(|| fused.infer(black_box(&x)).len())
    });
    // at 16 px a tile is 32 samples: batch 32 runs whole, batch 120 in four
    // tiles, so per sample the two should read alike
    for n in [32usize, 120] {
        let x = Tensor::rand_uniform(&[n, 3, 16, 16], 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        c.bench_function(&format!("inference/mobilenet_b{n}_fused_infer_with"), |b| {
            b.iter(|| {
                let y = fused.infer_with(black_box(&x), &mut ws);
                let len = y.len();
                ws.give(y);
                len
            })
        });
    }
}

fn bench_sharded_eval(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = VisionConfig::new(3, 10, 32);
    let (_, fused) = model_pair(ModelKind::SimpleCnn, cfg);
    let n = 256;
    let samples: Vec<Tensor> = (0..n)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..10)).collect();
    let data = Dataset::new(samples, Labels::Classes(labels));
    c.bench_function("inference/eval_accuracy_256_simple_cnn", |b| {
        b.iter(|| evaluate_accuracy(&fused, black_box(&data)))
    });

    // eval-scaling sweep: the same sharded evaluation at a 1/2/4-thread
    // parallelism target, recorded in one process via the runtime override
    // (`hs_parallel::set_num_threads`). On a single-core host the three
    // rungs collapse to the serial path and should read within noise of
    // each other; on a multi-core host they trace the scaling curve that
    // docs/PERF.md tabulates.
    for threads in [1usize, 2, 4] {
        hs_parallel::set_num_threads(Some(threads));
        c.bench_function(
            &format!("inference/eval_accuracy_256_simple_cnn_t{threads}"),
            |b| b.iter(|| evaluate_accuracy(&fused, black_box(&data))),
        );
    }
    hs_parallel::set_num_threads(None);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12);
    targets = bench_end_to_end, bench_sharded_eval
}
criterion_main!(benches);
