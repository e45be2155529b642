//! Criterion micro-benchmarks for the neural-network substrate: convolution,
//! matmul, `Linear`'s `x · Wᵀ`, the conv backward at each MobileNetV3-small
//! geometry, and a full forward/backward pass of each model in the zoo.

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

/// `Linear`'s `x · Wᵀ` (`hs_tensor::gemm_nt`) at the geometries that carry
/// `fleet_mlp` and the SE blocks: the 192 → 16 first layer of the fleet MLP
/// at batch 1, 8 and 32, and the 16 → 64 SE expand layer at batch 8. The
/// `m8` row has a `_naive` twin, a straight dot loop per output, and their
/// same-run ratio is gated in CI.
fn bench_linear_nt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    for (name, m, k, n) in [
        ("m1", 1, 192, 16),
        ("m8", 8, 192, 16),
        ("m32", 32, 192, 16),
        ("se_expand_m8", 8, 16, 64),
    ] {
        let x = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        c.bench_function(&format!("nn/linear_nt/{name}"), |b| {
            b.iter(|| {
                hs_tensor::gemm_nt(black_box(x.as_slice()), w.as_slice(), &mut out, m, k, n);
                out[0]
            })
        });
        if name == "m8" {
            c.bench_function("nn/linear_nt/m8_naive", |b| {
                b.iter(|| {
                    let (x, w) = (black_box(x.as_slice()), w.as_slice());
                    for (xi, row) in x.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                        for (o, wj) in row.iter_mut().zip(w.chunks_exact(k)) {
                            *o = xi.iter().zip(wj).map(|(a, b)| a * b).sum();
                        }
                    }
                    out[0]
                })
            });
        }
    }
}

/// MobileNetV3-small's convolutions as an FL client trains them (batch 10,
/// 32 px input): `(geometry, cin, cout, kernel, stride, groups, input px)`,
/// padding `kernel / 2`. The eight dense layers, then the three depthwise.
const MOBILENET_CONVS: [(&str, usize, usize, usize, usize, usize, usize); 11] = [
    ("stem3x3s2_3-16_32px", 3, 16, 3, 2, 1, 32),
    ("pw_16-32_16px", 16, 32, 1, 1, 1, 16),
    ("pw_32-16_16px", 32, 16, 1, 1, 1, 16),
    ("pw_16-48_16px", 16, 48, 1, 1, 1, 16),
    ("pw_48-24_8px", 48, 24, 1, 1, 1, 8),
    ("pw_24-64_8px", 24, 64, 1, 1, 1, 8),
    ("pw_64-32_4px", 64, 32, 1, 1, 1, 4),
    ("pw_32-64_4px", 32, 64, 1, 1, 1, 4),
    ("dw3x3s1_32c_16px", 32, 32, 3, 1, 32, 16),
    ("dw3x3s2_48c_16px", 48, 48, 3, 2, 48, 16),
    ("dw3x3s2_64c_8px", 64, 64, 3, 2, 64, 8),
];

/// One `Conv2d::backward` per MobileNetV3-small geometry at the client's
/// batch, on one thread (its sample bands run inline): the per-geometry
/// backward table of `docs/PERF.md`. The weight and bias gradients keep
/// accumulating across iterations, which costs the same as from zero.
fn bench_conv_backward(c: &mut Criterion) {
    hs_parallel::set_num_threads(Some(1));
    let mut rng = StdRng::seed_from_u64(0);
    for (geometry, cin, cout, k, stride, groups, px) in MOBILENET_CONVS {
        let mut conv = Conv2d::new(cin, cout, k, stride, k / 2, groups, &mut rng);
        let x = Tensor::rand_uniform(&[10, cin, px, px], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let grad_out = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);
        c.bench_function(&format!("nn/conv_backward_b10/{geometry}"), |b| {
            b.iter(|| conv.backward(black_box(&grad_out)))
        });
    }
    hs_parallel::set_num_threads(None);
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
    targets = bench_kernels, bench_linear_nt, bench_conv_backward, bench_models
}
criterion_main!(benches);
