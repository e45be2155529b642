//! Criterion micro-benchmarks for the neural-network substrate: convolution,
//! matmul, and a full forward/backward pass of each model in the zoo.

use criterion::{criterion_group, criterion_main, Criterion};
use hs_nn::models::{build_vision_model, ModelKind, VisionConfig};
use hs_nn::{Conv2d, CrossEntropyLoss, Layer, Target};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The kernel-layer speedup benches: each optimised hot path is paired with
/// its `*_naive` seed-reference twin so a single run shows the ratio (the
/// PR's acceptance bar is ≥5× on the matmul_256 and conv forward pairs).
fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);

    // -- matmul: blocked+SIMD GEMM vs the seed i-k-j loop ------------------
    let a = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[256, 256], -1.0, 1.0, &mut rng);
    c.bench_function("nn/matmul_256x256x256", |bencher| {
        bencher.iter(|| black_box(&a).matmul(black_box(&b)))
    });
    c.bench_function("nn/matmul_256x256x256_naive", |bencher| {
        bencher.iter(|| black_box(&a).matmul_naive(black_box(&b)))
    });

    let a64 = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
    let b64 = Tensor::rand_uniform(&[64, 64], -1.0, 1.0, &mut rng);
    c.bench_function("nn/matmul_64x64", |bencher| {
        bencher.iter(|| black_box(&a64).matmul(black_box(&b64)))
    });

    // -- convolution: im2col+GEMM vs the seed per-row axpy loop ------------
    let mut conv64 = Conv2d::new(64, 64, 3, 1, 1, 1, &mut rng);
    let x64 = Tensor::rand_uniform(&[2, 64, 64, 64], -1.0, 1.0, &mut rng);
    c.bench_function("nn/conv3x3_64c_64px_b2_forward", |bencher| {
        bencher.iter(|| conv64.forward(black_box(&x64), false))
    });
    c.bench_function("nn/conv3x3_64c_64px_b2_forward_naive", |bencher| {
        bencher.iter(|| conv64.forward_reference(black_box(&x64)))
    });

    let mut conv = Conv2d::new(32, 32, 3, 1, 1, 1, &mut rng);
    let xc = Tensor::rand_uniform(&[4, 32, 32, 32], -1.0, 1.0, &mut rng);
    c.bench_function("nn/conv3x3_32c_32px_b4_forward", |bencher| {
        bencher.iter(|| conv.forward(black_box(&xc), false))
    });
    c.bench_function("nn/conv3x3_32c_32px_b4_forward_naive", |bencher| {
        bencher.iter(|| conv.forward_reference(black_box(&xc)))
    });

    let mut conv16 = Conv2d::new(16, 16, 3, 1, 1, 1, &mut rng);
    let x = Tensor::rand_uniform(&[1, 16, 16, 16], -1.0, 1.0, &mut rng);
    c.bench_function("nn/conv3x3_16c_16px_forward", |bencher| {
        bencher.iter(|| conv16.forward(black_box(&x), false))
    });

    let mut dw = Conv2d::depthwise(16, 3, 1, 1, &mut rng);
    c.bench_function("nn/depthwise3x3_16c_16px_forward", |bencher| {
        bencher.iter(|| dw.forward(black_box(&x), false))
    });

    // MobileNet-scale depthwise on the direct spatial kernel
    let xdw = Tensor::rand_uniform(&[4, 64, 32, 32], -1.0, 1.0, &mut rng);
    let mut dw_direct = Conv2d::depthwise(64, 3, 1, 1, &mut rng);
    c.bench_function("nn/depthwise3x3_64c_32px_b4_direct", |bencher| {
        bencher.iter(|| dw_direct.forward(black_box(&xdw), false))
    });

    // -- batched small-GEMM: the many-skinny-GEMMs regime ------------------
    // MobileNet's 1×1 convolutions at 4×4 spatial: one shared 64×64 weight
    // panel against 64 per-sample 64×16 column panels. The batched entry
    // point packs A once and n-blocks the samples into full register strips;
    // the loop is the per-sample `gemm` dispatch it replaces (the same-run
    // ratio is gated in CI).
    let (gm, gk, gn, gb) = (64usize, 64usize, 16usize, 64usize);
    let ga = Tensor::rand_uniform(&[gm, gk], -1.0, 1.0, &mut rng);
    let gbs = Tensor::rand_uniform(&[gb, gk, gn], -1.0, 1.0, &mut rng);
    let mut gouts = vec![0.0f32; gb * gm * gn];
    c.bench_function("nn/small_gemm_batched", |bencher| {
        bencher.iter(|| {
            hs_tensor::gemm_batch_cyclic_strided(
                black_box(ga.as_slice()),
                black_box(gbs.as_slice()),
                &mut gouts,
                gm,
                gk,
                gn,
                gb,
                1,
                0,
                gk * gn,
                gm * gn,
                None,
            );
            gouts[0]
        })
    });
    c.bench_function("nn/small_gemm_loop", |bencher| {
        bencher.iter(|| {
            for s in 0..gb {
                hs_tensor::gemm(
                    black_box(ga.as_slice()),
                    black_box(&gbs.as_slice()[s * gk * gn..(s + 1) * gk * gn]),
                    &mut gouts[s * gm * gn..(s + 1) * gm * gn],
                    gm,
                    gk,
                    gn,
                );
            }
            gouts[0]
        })
    });

    // -- training step: forward + backward through the GEMM path -----------
    let mut conv_t = Conv2d::new(16, 16, 3, 1, 1, 1, &mut rng);
    let xt = Tensor::rand_uniform(&[4, 16, 16, 16], -1.0, 1.0, &mut rng);
    c.bench_function("nn/conv3x3_16c_16px_b4_fwd_bwd", |bencher| {
        bencher.iter(|| {
            let y = conv_t.forward(black_box(&xt), true);
            conv_t.backward(&Tensor::ones(y.dims()))
        })
    });
}

fn bench_models(c: &mut Criterion) {
    let cfg = VisionConfig::new(3, 12, 16);
    for kind in [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ] {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = build_vision_model(kind, cfg, &mut rng);
        let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.0, 1.0, &mut rng);
        let target = Target::Classes(vec![0, 1, 2, 3]);
        c.bench_function(&format!("nn/train_step_{}_b4_16px", kind.as_str()), |b| {
            b.iter(|| {
                let loss = net.forward_backward(black_box(&x), &target, &CrossEntropyLoss);
                net.zero_grad();
                loss
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_kernels, bench_models
}
criterion_main!(benches);
