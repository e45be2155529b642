//! Layer probes for the traced pass: each public entry point a workload
//! reaches, timed in isolation. `tensor`, `isp`, `device` and `data`
//! probes run on fixed seeded inputs of the shapes the two models and the
//! capture path use, so they read the same in both workloads; `nn` and
//! `core` probes run on the workload's own model and one of its real
//! client datasets.
//!
//! Bytes are *computed* from operand shapes (each operand streamed once),
//! not measured; the roofline bound is
//! `min(peak, cache bandwidth × flops ÷ computed bytes)` against this
//! host's own single-core FMA peak and L2-resident streaming-read
//! bandwidth, measured in the same run.

use crate::alloc::count_allocs;
use crate::metrics::MetricSet;
use crate::workload::Workload;
use heteroswitch::{
    transform_dataset, AveragingMode, HeteroSwitchConfig, HeteroSwitchTrainer, Policy,
    TransformKind, WeightAverager,
};
use hs_data::{capture_sample, CaptureMode, Dataset, LazyClientSet, SceneGenerator};
use hs_device::{paper_devices, FleetSpec};
use hs_fl::{ClientContext, ClientTrainer, FedAvgTrainer, LossKind};
use hs_isp::{demosaic, denoise, jpeg_compress, map_gamut, tone_map, white_balance};
use hs_nn::{EpilogueAct, Sgd};
use hs_tensor::{
    depthwise_conv2d, gemm_batch_cyclic_strided, gemm_epilogue, gemm_nt, gemm_tn, Epilogue, Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

/// Nanoseconds per call of `f`: one warm-up call, then seven batches each
/// sized to last at least 2 ms; the fastest batch is reported (the host
/// only ever adds time — see `stats::quiet_composite`).
pub fn time_ns(mut f: impl FnMut()) -> f64 {
    f();
    let t = hs_obs::now_ns();
    f();
    let once = (hs_obs::now_ns() - t).max(1);
    let iters = (2_000_000 / once).clamp(1, 200_000);
    (0..7)
        .map(|_| {
            let t = hs_obs::now_ns();
            for _ in 0..iters {
                f();
            }
            (hs_obs::now_ns() - t) as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Like [`time_ns`], for an operation that consumes a fresh input: only
/// `f` is timed, `setup` is not.
fn time_ns_fresh<T>(mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    f(setup());
    (0..9)
        .map(|_| {
            let input = setup();
            let t = hs_obs::now_ns();
            f(input);
            (hs_obs::now_ns() - t) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::*;

    /// `iters` rounds of 12 independent 16-lane FMAs from a run-time start
    /// value (a constant one lets the compiler fold the whole chain).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (the caller checks with
    /// `is_x86_feature_detected!`).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn chain_avx512(iters: u64, x0: f32) -> f32 {
        let a = _mm512_set1_ps(0.999_999_9);
        let b = _mm512_set1_ps(1e-7);
        let mut acc = [_mm512_set1_ps(x0); 12];
        for _ in 0..iters {
            for v in &mut acc {
                *v = _mm512_fmadd_ps(*v, a, b);
            }
        }
        let mut sum = acc[0];
        for v in &acc[1..] {
            sum = _mm512_add_ps(sum, *v);
        }
        _mm512_reduce_add_ps(sum)
    }

    /// `iters` rounds of 12 independent 8-lane FMAs.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA (the caller checks with
    /// `is_x86_feature_detected!`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn chain_avx2(iters: u64, x0: f32) -> f32 {
        let a = _mm256_set1_ps(0.999_999_9);
        let b = _mm256_set1_ps(1e-7);
        let mut acc = [_mm256_set1_ps(x0); 12];
        for _ in 0..iters {
            for v in &mut acc {
                *v = _mm256_fmadd_ps(*v, a, b);
            }
        }
        let mut lanes = [0.0f32; 8];
        let mut total = 0.0;
        for v in &acc {
            // SAFETY: `lanes` is 8 f32s, exactly one unaligned 256-bit store.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), *v) };
            total += lanes.iter().sum::<f32>();
        }
        total
    }
}

/// Multiply-add chain in plain Rust, for CPUs without the SIMD tiers.
fn chain_portable(iters: u64, x0: f32) -> f32 {
    let mut acc = [x0; 64];
    for _ in 0..iters {
        for v in &mut acc {
            *v = *v * 0.999_999_9 + 1e-7;
        }
    }
    acc.iter().sum()
}

/// Single-core peak of the widest tier the product's kernels dispatch to:
/// `(GFLOP/s)`, one FMA = 2 flops.
fn peak_gflops() -> f64 {
    const ITERS: u64 = 200_000;
    let (lanes, run): (u64, fn(u64, f32) -> f32) = {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was just detected on this CPU.
                (12 * 16, |n, x| unsafe { fma::chain_avx512(n, x) })
            } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: avx2 and fma were just detected on this CPU.
                (12 * 8, |n, x| unsafe { fma::chain_avx2(n, x) })
            } else {
                (64, chain_portable)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            (64, chain_portable)
        }
    };
    let ns = time_ns(|| {
        black_box(run(black_box(ITERS), black_box(0.5)));
    });
    (ITERS * lanes * 2) as f64 / ns
}

/// Streaming-read bandwidth of one core over `floats` f32s, GB/s.
fn stream_gbps(floats: usize) -> f64 {
    let buf = vec![1.0f32; floats];
    let ns = time_ns(|| {
        let mut acc = [0.0f32; 16];
        for chunk in black_box(&buf).chunks_exact(16) {
            for (a, v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        black_box(acc);
    });
    (buf.len() * 4) as f64 / ns
}

fn seeded(len: usize, rng: &mut StdRng) -> Vec<f32> {
    Tensor::rand_uniform(&[len], -1.0, 1.0, rng).into_vec()
}

/// A measured kernel shape class: its GFLOP/s metric, the suffix of its
/// `tensor.roofline_share.*` metric, and its flops per computed byte.
struct KernelClass {
    metric: String,
    share: &'static str,
    intensity: f64,
}

/// Times one shape class and records `<family>.<class>` (GFLOP/s).
fn kernel_class(
    out: &mut MetricSet,
    classes: &mut Vec<KernelClass>,
    (family, class, share): (&str, &str, &'static str),
    (flops, bytes): (usize, usize),
    f: impl FnMut(),
) {
    let metric = format!("{family}.{class}");
    out.set(&metric, flops as f64 / time_ns(f));
    classes.push(KernelClass {
        metric,
        share,
        intensity: flops as f64 / bytes as f64,
    });
}

/// Host ceilings and every GEMM / depthwise shape class the two models
/// execute (MobileNetV3-small at 32 px; the 192 → 16 → 4 MLP).
fn tensor_probes(out: &mut MetricSet, rng: &mut StdRng) -> Vec<KernelClass> {
    // the memory ceiling (a 64 MiB buffer) and the one the shape classes
    // below actually sit under: their operands total at most 60 KiB, so
    // they stream from L2, and a DRAM bound would put them above 1
    out.set("tensor.peak_gflops", peak_gflops());
    out.set("tensor.stream_gbps", stream_gbps(16 << 20));
    out.set("tensor.cache_gbps", stream_gbps(32 << 10));
    let mut classes = Vec::new();

    let ones = vec![1.0f32; 64];
    let zeros = vec![0.0f32; 64];
    let ep = Epilogue {
        scale: &ones,
        shift: &zeros,
        act: EpilogueAct::Relu,
    };

    // fused 1×1 conv, 16 → 32 channels over a 16×16 map (first inverted
    // residual's expansion) and the 3×3 stem as im2col (27 → 16)
    for (class, m, k, n) in [("pw_infer", 32, 16, 256), ("im2col_infer", 16, 27, 256)] {
        let (a, b) = (seeded(m * k, rng), seeded(k * n, rng));
        let mut o = vec![0.0f32; m * n];
        kernel_class(
            out,
            &mut classes,
            ("tensor.gemm_gflops", class, class),
            (2 * m * k * n, 4 * (m * k + k * n + m * n)),
            || gemm_epilogue(&a, black_box(&b), &mut o, m, k, n, &ep),
        );
    }
    // Linear 192 → 16 at the served batch sizes (x · Wᵀ)
    for (class, m) in [("linear_m1", 1), ("linear_m8", 8)] {
        let (k, n) = (192, 16);
        let (a, b) = (seeded(m * k, rng), seeded(n * k, rng));
        let mut o = vec![0.0f32; m * n];
        kernel_class(
            out,
            &mut classes,
            ("tensor.gemm_gflops", class, class),
            (2 * m * k * n, 4 * (m * k + k * n + m * n)),
            || gemm_nt(black_box(&a), &b, &mut o, m, k, n),
        );
    }
    // last inverted residual's projection: 64 → 32 over a 4×4 map, eight
    // samples sharing one weight panel through the batched small-GEMM route
    {
        let (m, k, n, batch) = (32, 64, 16, 8);
        let (a, bs) = (seeded(m * k, rng), seeded(batch * k * n, rng));
        let mut o = vec![0.0f32; batch * m * n];
        kernel_class(
            out,
            &mut classes,
            ("tensor.gemm_batch_cyclic_gflops", "pw_small", "pw_small"),
            (2 * m * k * n * batch, 4 * (m * k + batch * (k * n + m * n))),
            || {
                gemm_batch_cyclic_strided(
                    &a,
                    black_box(&bs),
                    &mut o,
                    m,
                    k,
                    n,
                    batch,
                    1,
                    0,
                    k * n,
                    m * n,
                    Some(ep),
                );
            },
        );
    }
    // direct depthwise 3×3: stride 1 (32 ch, 16×16) and stride 2 (48 ch,
    // 16×16 → 8×8)
    for (class, c, stride) in [("k3s1", 32, 1), ("k3s2", 48, 2)] {
        let (h, w, k, pad) = (16, 16, 3, 1);
        let (oh, ow) = (
            (h + 2 * pad - k) / stride + 1,
            (w + 2 * pad - k) / stride + 1,
        );
        let (x, wt) = (seeded(c * h * w, rng), seeded(c * k * k, rng));
        let mut o = vec![0.0f32; c * oh * ow];
        kernel_class(
            out,
            &mut classes,
            ("tensor.depthwise_gflops", class, class),
            (
                2 * k * k * c * oh * ow,
                4 * (c * h * w + c * k * k + c * oh * ow),
            ),
            || {
                depthwise_conv2d(
                    black_box(&x),
                    &wt,
                    &[],
                    Some(ep),
                    &mut o,
                    c,
                    h,
                    w,
                    k,
                    stride,
                    pad,
                )
            },
        );
    }
    // training: dW = dY · colᵀ and dcol = Wᵀ · dY of the 16 → 32 pointwise
    {
        let (m, k, n) = (32, 256, 16);
        let (a, b) = (seeded(m * k, rng), seeded(n * k, rng));
        let mut o = vec![0.0f32; m * n];
        kernel_class(
            out,
            &mut classes,
            ("tensor.gemm_nt_gflops", "train", "nt_train"),
            (2 * m * k * n, 4 * (m * k + k * n + m * n)),
            || gemm_nt(black_box(&a), &b, &mut o, m, k, n),
        );
        let (m, k, n) = (16, 32, 256);
        let (a, b) = (seeded(k * m, rng), seeded(k * n, rng));
        let mut o = vec![0.0f32; m * n];
        kernel_class(
            out,
            &mut classes,
            ("tensor.gemm_tn_gflops", "train", "tn_train"),
            (2 * m * k * n, 4 * (m * k + k * n + m * n)),
            || gemm_tn(black_box(&a), &b, &mut o, m, k, n),
        );
    }
    classes
}

/// Times one ISP stage over every device's input (`f(i, input_i)`),
/// records the per-device mean and returns the outputs for the next stage.
fn isp_stage<I, O>(
    out: &mut MetricSet,
    name: &str,
    inputs: &[I],
    f: impl Fn(usize, &I) -> O,
) -> Vec<O> {
    let ns = time_ns(|| {
        for (i, x) in inputs.iter().enumerate() {
            black_box(f(i, x));
        }
    });
    out.set(
        &format!("isp.stage_us.{name}"),
        ns / inputs.len() as f64 / 1e3,
    );
    inputs.iter().enumerate().map(|(i, x)| f(i, x)).collect()
}

/// ISP stages, sensor capture, rendering and dataset capture on one seeded
/// 48 px scene, averaged over the nine paper devices (their ISP
/// configurations differ — that is the paper's point).
fn capture_probes(out: &mut MetricSet, rng: &mut StdRng) {
    let devices = paper_devices();
    let per_device = devices.len() as f64;
    let generator = SceneGenerator::new(12, 48);
    let scene = generator.generate(0, rng);
    out.set(
        "data.scene_generate_us",
        time_ns(|| {
            black_box(generator.generate(0, rng));
        }) / 1e3,
    );
    out.set(
        "device.capture_us",
        time_ns(|| {
            for d in &devices {
                black_box(d.sensor.capture(&scene, rng));
            }
        }) / per_device
            / 1e3,
    );
    out.set(
        "device.render_us",
        time_ns(|| {
            for d in &devices {
                black_box(d.render(&scene, rng));
            }
        }) / per_device
            / 1e3,
    );
    out.set(
        "data.capture_sample_us",
        time_ns(|| {
            for d in &devices {
                black_box(capture_sample(d, &scene, CaptureMode::Processed, 32, rng));
            }
        }) / per_device
            / 1e3,
    );

    // every device's pipeline, stage by stage, each stage fed the previous
    // stage's real output
    let raws: Vec<_> = devices
        .iter()
        .map(|d| d.sensor.capture(&scene, rng))
        .collect();
    out.set(
        "isp.process_us",
        time_ns(|| {
            for (d, raw) in devices.iter().zip(&raws) {
                black_box(d.isp.process(raw));
            }
        }) / per_device
            / 1e3,
    );
    let isps: Vec<_> = devices.iter().map(|d| d.isp).collect();
    let rgb = isp_stage(out, "demosaic", &raws, |i, x| demosaic(x, isps[i].demosaic));
    let rgb = isp_stage(out, "denoise", &rgb, |i, x| denoise(x, isps[i].denoise));
    let rgb = isp_stage(out, "white_balance", &rgb, |i, x| {
        white_balance(x, isps[i].white_balance)
    });
    let rgb = isp_stage(out, "gamut", &rgb, |i, x| map_gamut(x, isps[i].gamut));
    let rgb = isp_stage(out, "tone", &rgb, |i, x| tone_map(x, isps[i].tone));
    isp_stage(out, "compress", &rgb, |i, x| {
        jpeg_compress(x, isps[i].compress)
    });

    // the fleet-scale data path: O(1) client derivation and lazy synthesis
    let fleet = Arc::new(FleetSpec::from_profiles(1000, &devices, (2, 4), 7));
    let lazy = LazyClientSet::new(Arc::clone(&fleet), 4, 8, 7);
    let mut id = 0usize;
    out.set(
        "device.fleet_client_us",
        time_ns(|| {
            id = (id + 1) % 1000;
            black_box(fleet.client(black_box(id)));
        }) / 1e3,
    );
    out.set(
        "data.lazy_synthesize_us",
        time_ns(|| {
            id = (id + 1) % 1000;
            black_box(lazy.synthesize(id));
        }) / 1e3,
    );
}

/// The workload's own model: inference, training step, weight movement,
/// replica construction, checkpointing.
fn nn_probes<W: Workload>(out: &mut MetricSet, client: &Dataset, pool: &[Tensor]) {
    let model = W::serve_model();
    let factory = &model.factory;
    let loss = LossKind::CrossEntropy.build();

    let mut fused = factory();
    fused.fuse_inference();
    let x1 = Tensor::stack(&pool[..1]);
    let x8 = Tensor::stack(&pool[..8]);
    out.set(
        "nn.infer_us.b1",
        time_ns(|| {
            black_box(fused.infer(&x1));
        }) / 1e3,
    );
    out.set(
        "nn.infer_us.b8",
        time_ns(|| {
            black_box(fused.infer(&x8));
        }) / 1e3,
    );
    let (allocs, _) = count_allocs(|| {
        black_box(fused.infer(&x8));
    });
    out.set("nn.infer_allocs.b8", allocs as f64);
    let crossovers = hs_nn::batched_gemm_crossovers();
    out.set("nn.batched_crossover_classes", crossovers.len() as f64);
    let thresholds = crossovers.iter().map(|&(_, _, th)| th);
    out.set(
        "nn.batched_crossover_min",
        thresholds.clone().min().unwrap_or(0) as f64,
    );
    out.set(
        "nn.batched_crossover_max",
        thresholds.max().unwrap_or(0) as f64,
    );

    let mut net = factory();
    let batch: Vec<usize> = (0..W::TRAIN_BATCH.min(client.len())).collect();
    let (xb, tb) = client.batch(&batch);
    out.set(
        "nn.forward_backward_ms",
        time_ns(|| {
            black_box(net.forward_backward(&xb, &tb, loss.as_ref()));
        }) / 1e6,
    );
    let (xf, tf) = client.full_batch();
    out.set(
        "nn.eval_loss_ms",
        time_ns(|| {
            black_box(net.eval_loss(&xf, &tf, loss.as_ref()));
        }) / 1e6,
    );
    // lr 0: the step does all its work and leaves the weights finite
    let mut opt = Sgd::new(0.0);
    out.set("nn.sgd_step_us", time_ns(|| opt.step(&mut net)) / 1e3);
    let weights = net.weights();
    out.set(
        "nn.weights_us",
        time_ns(|| {
            black_box(net.weights());
        }) / 1e3,
    );
    out.set(
        "nn.set_weights_us",
        time_ns(|| net.set_weights(black_box(&weights))) / 1e3,
    );
    out.set(
        "nn.replica_build_ms",
        time_ns(|| {
            black_box(factory());
        }) / 1e6,
    );
    out.set(
        "nn.fuse_us",
        time_ns_fresh(factory.as_ref(), |mut n| n.fuse_inference()) / 1e3,
    );
    let bytes = net.to_checkpoint_bytes();
    out.set(
        "nn.checkpoint_encode_us",
        time_ns(|| {
            black_box(net.to_checkpoint_bytes());
        }) / 1e3,
    );
    out.set(
        "nn.checkpoint_load_us",
        time_ns(|| {
            fused
                .load_checkpoint_bytes(black_box(&bytes))
                .expect("a replica loads its own architecture's checkpoint");
        }) / 1e3,
    );
}

/// HeteroSwitch's client-side cost on one real client: the full update with
/// both switches on, against plain FedAvg on the same client (the base of
/// `core.cost_vs_fedavg`), and its two ingredients.
///
/// Returns the FedAvg update's milliseconds.
fn core_probes<W: Workload>(out: &mut MetricSet, client: &Dataset, rng: &mut StdRng) -> f64 {
    let mut net = (W::serve_model().factory)();
    let global = net.weights();
    let ctx = ClientContext {
        round: 1,
        loss_ema: f32::INFINITY,
        lr: 0.1,
        batch_size: W::TRAIN_BATCH,
        local_epochs: 1,
        global_weights: &global,
        client_id: 0,
    };
    let hetero = HeteroSwitchTrainer::new(
        HeteroSwitchConfig {
            transform: TransformKind::paper_vision(),
        },
        LossKind::CrossEntropy,
        Policy::AlwaysTransformAndSwad,
    );
    let fedavg = FedAvgTrainer::new(LossKind::CrossEntropy);
    let mut update = |trainer: &dyn ClientTrainer| {
        time_ns(|| {
            net.set_weights(&global);
            net.zero_grad();
            black_box(trainer.client_update(&mut net, client, &ctx, rng));
        })
    };
    let hetero_ns = update(&hetero);
    let fedavg_ns = update(&fedavg);
    out.set("core.client_update_ms", hetero_ns / 1e6);
    out.set(
        "core.transform_dataset_us",
        time_ns(|| {
            black_box(transform_dataset(
                client,
                TransformKind::paper_vision(),
                rng,
            ));
        }) / 1e3,
    );
    let mut averager = WeightAverager::new(AveragingMode::PerBatch, &global);
    out.set(
        "core.swad_update_us",
        time_ns(|| averager.on_batch_end(&net.weights())) / 1e3,
    );
    fedavg_ns / 1e6
}

/// Runs every probe `passes` times; `client` is one of the workload's real
/// client datasets and `pool` its request pool. A probe samples for ~15 ms,
/// far shorter than one of the host's slow spells, so a single pass can sit
/// entirely inside one; passes are seconds apart and each metric keeps its
/// best reading.
pub fn run<W: Workload>(
    out: &mut MetricSet,
    seed: u64,
    passes: usize,
    client: &Dataset,
    pool: &[Tensor],
) {
    let mut best = MetricSet::default();
    let mut classes = Vec::new();
    let mut fedavg_ms = f64::INFINITY;
    for _ in 0..passes {
        let mut pass = MetricSet::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
        classes = tensor_probes(&mut pass, &mut rng);
        capture_probes(&mut pass, &mut rng);
        nn_probes::<W>(&mut pass, client, pool);
        fedavg_ms = fedavg_ms.min(core_probes::<W>(&mut pass, client, &mut rng));
        best.keep_best(&pass);
    }
    // ratios are taken between best readings, never between two readings
    // of one (possibly disturbed) pass
    let reading = |name: &str| best.get(name).unwrap_or(f64::NAN);
    let (peak, cache) = (reading("tensor.peak_gflops"), reading("tensor.cache_gbps"));
    out.set(
        "core.cost_vs_fedavg",
        reading("core.client_update_ms") / fedavg_ms,
    );
    for class in &classes {
        let bound = peak.min(cache * class.intensity);
        out.set(
            &format!("tensor.roofline_share.{}", class.share),
            reading(&class.metric) / bound,
        );
    }
    out.keep_best(&best);
}
