//! Parity suite for the fused inference engine: the fused
//! conv+BN+activation path is pinned against the unfused layer-by-layer
//! reference across random shapes, grouped/strided/padded convolutions and
//! every supported activation — including the exact train-mode fallback and
//! the guarantee that evaluation never mutates batch-norm running
//! statistics.
//!
//! Inference has one route with three entry points (`forward(x, false)`,
//! `Network::infer`, `Network::infer_with`);
//! `every_inference_entry_point_returns_the_same_bits_across_the_zoo` pins
//! them `to_bits`-equal, so the tolerance sweeps below go through
//! `Network::infer` alone.

use heteroswitch_repro::data::{Dataset, Labels};
use heteroswitch_repro::fl::evaluate_accuracy;
use heteroswitch_repro::nn::models::{build_vision_model, ModelKind, VisionConfig};
use heteroswitch_repro::nn::{
    BatchNorm2d, Conv2d, CrossEntropyLoss, HardSwish, Layer, Network, Relu, Sequential, Sgd,
    Target, Workspace,
};
use heteroswitch_repro::parallel::set_num_threads;
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every network of the model zoo.
const ZOO: [ModelKind; 4] = [
    ModelKind::SimpleCnn,
    ModelKind::MobileNetV3Small,
    ModelKind::ShuffleNetV2,
    ModelKind::SqueezeNet,
];

/// Relative tolerance of the fused path vs the unfused reference (the
/// acceptance bar: ≤ 1e-4 rel).
const REL_TOL: f32 = 1e-4;

fn assert_close(a: &Tensor, b: &Tensor, ctx: &str) {
    assert_eq!(a.dims(), b.dims(), "{ctx}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= REL_TOL * x.abs().max(y.abs()).max(1.0),
            "{ctx}: element {i}: {x} vs {y}"
        );
    }
}

/// [`assert_close`] at tolerance `tol` for outputs that may hold NaNs, which
/// must sit in exactly the same places.
fn assert_close_with_nans(got: &Tensor, expect: &Tensor, tol: f32, ctx: &str) {
    assert_eq!(got.dims(), expect.dims(), "{ctx}: shape mismatch");
    for (i, (a, b)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
        assert_eq!(
            a.is_nan(),
            b.is_nan(),
            "{ctx}: element {i}: NaN divergence {a} vs {b}"
        );
        if !a.is_nan() {
            assert!(
                (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0),
                "{ctx}: element {i}: {a} vs {b}"
            );
        }
    }
}

/// Builds `[conv, bn?, act?]` twice from one seed (identical weights): the
/// unfused reference and a to-be-fused copy.
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per swept layer-stack parameter"
)]
fn conv_stack(
    seed: u64,
    cin: usize,
    cout: usize,
    k: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    with_bn: bool,
    act: usize,
) -> (Network, Network) {
    let build = |rng: &mut StdRng| {
        let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new(
            cin, cout, k, stride, pad, groups, rng,
        ))];
        if with_bn {
            layers.push(Box::new(BatchNorm2d::new(cout)));
        }
        match act {
            1 => layers.push(Box::new(Relu::new())),
            2 => layers.push(Box::new(HardSwish::new())),
            _ => {}
        }
        Network::new(Sequential::new(layers))
    };
    let reference = build(&mut StdRng::seed_from_u64(seed));
    let fused = build(&mut StdRng::seed_from_u64(seed));
    (reference, fused)
}

/// Runs a few training steps on both networks (same data) so batch-norm
/// running statistics are non-trivial and identical.
fn warm_bn(reference: &mut Network, fused: &mut Network, x: &Tensor) {
    for net in [&mut *reference, &mut *fused] {
        for _ in 0..3 {
            let _ = net.forward(x, true);
        }
    }
}

#[test]
fn fused_conv_bn_act_matches_unfused_across_configs() {
    let mut rng = StdRng::seed_from_u64(100);
    // (cin, cout, kernel, stride, pad, groups, h, w)
    let configs = [
        (
            3usize, 8usize, 3usize, 1usize, 1usize, 1usize, 9usize, 9usize,
        ),
        (4, 6, 3, 2, 1, 2, 8, 10),  // grouped, strided
        (6, 6, 3, 1, 1, 6, 7, 7),   // depthwise
        (2, 4, 5, 2, 2, 1, 11, 13), // large kernel, heavy padding
        (4, 4, 1, 1, 0, 1, 6, 6),   // pointwise
    ];
    for (case, &(cin, cout, k, s, p, g, h, w)) in configs.iter().enumerate() {
        for with_bn in [true, false] {
            for act in 0..3usize {
                let seed = 1000 + case as u64 * 16 + act as u64 + if with_bn { 8 } else { 0 };
                let (mut reference, mut fused) =
                    conv_stack(seed, cin, cout, k, s, p, g, with_bn, act);
                let n = rng.gen_range(1..4);
                let x_warm = Tensor::rand_uniform(&[3, cin, h, w], -1.0, 1.0, &mut rng);
                warm_bn(&mut reference, &mut fused, &x_warm);
                fused.fuse_inference();

                let x = Tensor::rand_uniform(&[n, cin, h, w], -1.5, 1.5, &mut rng);
                let ctx =
                    format!("cin={cin} cout={cout} k={k} s={s} p={p} g={g} bn={with_bn} act={act}");
                assert_close(fused.infer(&x), reference.infer(&x), &ctx);
            }
        }
    }
}

#[test]
fn fused_paths_match_unfused_on_every_planned_conv_backend() {
    // the fused parity contract (epilogue semantics included) on both
    // ConvAlgos, each where the geometry rule plans it — at the
    // default-path bar (REL_TOL).
    let mut rng = StdRng::seed_from_u64(300);
    // (cin, cout, kernel, stride, pad, groups, h, w)
    let configs = [
        (
            4usize, 8usize, 3usize, 1usize, 1usize, 1usize, 9usize, 9usize,
        ), // dense 3×3
        (4, 6, 3, 2, 1, 2, 8, 10), // grouped, strided
        (6, 6, 3, 1, 1, 6, 7, 7),  // depthwise
        (5, 5, 5, 2, 2, 5, 11, 9), // strided depthwise, 5×5
        (4, 4, 1, 1, 0, 1, 6, 6),  // pointwise
    ];
    for (case, &(cin, cout, k, s, p, g, h, w)) in configs.iter().enumerate() {
        for act in 0..3usize {
            let seed = 7000 + case as u64 * 8 + act as u64;
            let (mut reference, mut fused) = conv_stack(seed, cin, cout, k, s, p, g, true, act);
            let x_warm = Tensor::rand_uniform(&[2, cin, h, w], -1.0, 1.0, &mut rng);
            warm_bn(&mut reference, &mut fused, &x_warm);
            fused.fuse_inference();

            let x = Tensor::rand_uniform(&[2, cin, h, w], -1.5, 1.5, &mut rng);
            let ctx = format!("cin={cin} cout={cout} k={k} s={s} p={p} g={g} act={act}");
            assert_close(fused.infer(&x), reference.infer(&x), &ctx);
        }
    }
}

#[test]
fn depthwise_backend_propagates_nan_like_the_unfused_path() {
    // a NaN pixel must flow through the direct depthwise kernel — fused
    // epilogue included — exactly as through the unfused conv+bn+act stack
    // (ReLU maps NaN to 0 like f32::max; hard-swish propagates it)
    for act in [1usize, 2] {
        let (mut reference, mut fused) = conv_stack(91, 4, 4, 3, 1, 1, 4, true, act);
        let mut rng = StdRng::seed_from_u64(92);
        let x_warm = Tensor::rand_uniform(&[2, 4, 8, 8], -1.0, 1.0, &mut rng);
        warm_bn(&mut reference, &mut fused, &x_warm);
        fused.fuse_inference();

        let mut x = Tensor::rand_uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut rng);
        *x.at_mut(&[0, 1, 3, 3]) = f32::NAN;
        let expect = reference.infer(&x);
        assert!(
            expect.as_slice().iter().any(|v| v.is_nan()) || act == 1,
            "test setup: the NaN should reach the output unless ReLU clears it"
        );
        assert_close_with_nans(fused.infer(&x), expect, 1e-3, &format!("act={act}"));
    }
}

#[test]
fn fused_hard_swish_propagates_nan_like_the_unfused_path_on_every_conv_kind() {
    // hard-swish rides the GEMM store loops (dense, pointwise) and the
    // depthwise epilogue; a NaN pixel must come out of each exactly where
    // the stand-alone conv -> bn -> hard-swish stack puts it
    // (cin, cout, kernel, stride, pad, groups)
    for (case, &(cin, cout, k, s, p, g)) in [
        (4usize, 6usize, 3usize, 1usize, 1usize, 1usize), // dense 3×3
        (4, 6, 1, 1, 0, 1),                               // pointwise
        (4, 4, 3, 1, 1, 4),                               // depthwise
        (4, 4, 3, 2, 1, 4),                               // strided depthwise
    ]
    .iter()
    .enumerate()
    {
        let (mut reference, mut fused) =
            conv_stack(95 + case as u64, cin, cout, k, s, p, g, true, 4);
        let mut rng = StdRng::seed_from_u64(96);
        let x_warm = Tensor::rand_uniform(&[2, cin, 8, 8], -1.0, 1.0, &mut rng);
        warm_bn(&mut reference, &mut fused, &x_warm);
        fused.fuse_inference();

        let mut x = Tensor::rand_uniform(&[2, cin, 8, 8], -1.5, 1.5, &mut rng);
        *x.at_mut(&[1, 1, 0, 3]) = f32::NAN;
        let expect = reference.infer(&x);
        assert!(
            expect.as_slice().iter().any(|v| v.is_nan()),
            "test setup: the NaN should reach the output"
        );
        assert_close_with_nans(
            fused.infer(&x),
            expect,
            REL_TOL,
            &format!("k={k} s={s} g={g}"),
        );
    }
}

#[test]
fn fused_train_mode_falls_back_exactly() {
    // training through the fused network must be bit-identical to the
    // unfused stack: same outputs, same gradients, same BN statistics drift
    // — first on one conv stack, then on every zoo network
    let (mut reference, mut fused) = conv_stack(42, 3, 6, 3, 1, 1, 1, true, 1);
    fused.fuse_inference();
    let mut rng = StdRng::seed_from_u64(43);
    for step in 0..3 {
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
        let y_ref = reference.forward(&x, true);
        let y_fused = fused.forward(&x, true);
        assert_eq!(y_ref, y_fused, "step {step}: training outputs diverged");
        let grad = Tensor::rand_uniform(y_ref.dims(), -1.0, 1.0, &mut rng);
        let gin_ref = reference.backward(&grad);
        let gin_fused = fused.backward(&grad);
        assert_eq!(gin_ref, gin_fused, "step {step}: input gradients diverged");
        assert_eq!(
            reference.gradients(),
            fused.gradients(),
            "step {step}: gradients diverged"
        );
        assert_eq!(
            reference.weights(),
            fused.weights(),
            "step {step}: weights/buffers diverged"
        );
        reference.zero_grad();
        fused.zero_grad();
    }
    // every zoo network, trained as an FL client trains its fused replica:
    // forward_backward + an SGD step must leave the same bits in every
    // weight and buffer (BN running statistics included) as the unfused one
    let bits =
        |net: &mut Network| -> Vec<u32> { net.weights().iter().map(|w| w.to_bits()).collect() };
    for kind in ZOO {
        let cfg = VisionConfig::new(3, 5, 16);
        let mut reference = build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(44));
        let mut fused = build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(44));
        fused.fuse_inference();
        let mut opt = Sgd::new(0.05);
        for step in 0..3 {
            let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.0, 1.0, &mut rng);
            let target = Target::Classes((0..4).map(|i| (i + step) % 5).collect());
            let l_ref = reference.forward_backward(&x, &target, &CrossEntropyLoss);
            let l_fused = fused.forward_backward(&x, &target, &CrossEntropyLoss);
            assert_eq!(
                l_ref.to_bits(),
                l_fused.to_bits(),
                "{kind:?} step {step}: loss"
            );
            opt.step(&mut reference);
            opt.step(&mut fused);
            assert_eq!(
                bits(&mut reference),
                bits(&mut fused),
                "{kind:?} step {step}: weights/buffers diverged"
            );
        }
    }
}

#[test]
fn fusion_is_weight_layout_invariant_on_the_model_zoo() {
    for kind in ZOO {
        let cfg = VisionConfig::new(3, 8, 16);
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = build_vision_model(kind, cfg, &mut rng);
        let before = net.weights();
        net.fuse_inference();
        assert_eq!(net.weights(), before, "{kind:?}: fusion reordered weights");
    }
}

#[test]
fn fused_model_zoo_inference_matches_unfused() {
    let mut rng = StdRng::seed_from_u64(6);
    for kind in ZOO {
        let cfg = VisionConfig::new(3, 8, 16);
        let mut reference = build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(9));
        let mut fused = build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(9));
        let x_warm = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        warm_bn(&mut reference, &mut fused, &x_warm);
        fused.fuse_inference();
        let x = Tensor::rand_uniform(&[3, 3, 16, 16], 0.0, 1.0, &mut rng);
        assert_close(fused.infer(&x), reference.infer(&x), &format!("{kind:?}"));
    }
}

#[test]
fn every_inference_entry_point_returns_the_same_bits_across_the_zoo() {
    // one inference body per layer, three ways in: `forward(x, false)` (cold
    // workspace), `Network::infer` (the network's own, warm from the second
    // batch on) and `Network::infer_with` (the caller's, cold then warm). At
    // a 2-thread target every batch but the first is split into two sample
    // ranges — uneven ones at batch 3 and 5
    set_num_threads(Some(2));
    let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
    let mut rng = StdRng::seed_from_u64(13);
    let x_warm = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    let inputs: Vec<Tensor> = [1usize, 3, 5, 8, 32]
        .iter()
        .map(|&batch| Tensor::rand_uniform(&[batch, 3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    for kind in ZOO {
        for fused in [false, true] {
            let cfg = VisionConfig::new(3, 8, 16);
            let mut net = build_vision_model(kind, cfg, &mut StdRng::seed_from_u64(9));
            for _ in 0..2 {
                let _ = net.forward(&x_warm, true); // non-default BN stats
            }
            if fused {
                net.fuse_inference();
            }
            let mut ws = Workspace::new();
            for x in &inputs {
                let ctx = format!("{kind:?} fused={fused} batch={}", x.dims()[0]);
                let expect = bits(&net.forward(x, false));
                assert_eq!(bits(net.infer(x)), expect, "{ctx}: infer");
                for pass in ["cold", "warm"] {
                    let y = net.infer_with(x, &mut ws);
                    assert_eq!(bits(&y), expect, "{ctx}: infer_with ({pass})");
                    ws.give(y);
                }
            }
        }
    }
    set_num_threads(None);
}

#[test]
fn planned_forward_reuses_arena_across_shapes() {
    // changing batch size between calls must be safe (arena resizes), and
    // repeated calls must be deterministic
    let (_, mut fused) = conv_stack(7, 3, 4, 3, 1, 1, 1, true, 1);
    fused.fuse_inference();
    let mut rng = StdRng::seed_from_u64(8);
    let x2 = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
    let x5 = Tensor::rand_uniform(&[5, 3, 10, 10], -1.0, 1.0, &mut rng);
    let a1 = fused.infer(&x2).clone();
    let b1 = fused.infer(&x5).clone();
    let a2 = fused.infer(&x2).clone();
    let b2 = fused.infer(&x5).clone();
    assert_eq!(a1, a2);
    assert_eq!(b1, b2);
    assert_eq!(a1.dims()[0], 2);
    assert_eq!(b1.dims()[0], 5);
}

#[test]
fn eval_paths_never_mutate_bn_running_stats() {
    // predict_classes, eval_loss, infer, infer_with, forward(x, false) and
    // sharded evaluate_accuracy must leave every weight and buffer (incl.
    // BN running stats) untouched
    let cfg = VisionConfig::new(3, 4, 16);
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = build_vision_model(ModelKind::SimpleCnn, cfg, &mut rng);
    let x_warm = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    for _ in 0..2 {
        let _ = net.forward(&x_warm, true); // make BN stats non-default
    }
    net.fuse_inference();
    let snapshot = net.weights();

    let x = Tensor::rand_uniform(&[4, 3, 16, 16], 0.0, 1.0, &mut rng);
    let _ = net.predict_classes(&x);
    let _ = net.eval_loss(&x, &Target::Classes(vec![0, 1, 2, 3]), &CrossEntropyLoss);
    let _ = net.infer(&x);
    let _ = net.infer_with(&x, &mut Workspace::new());
    let _ = net.forward(&x, false);
    let samples: Vec<Tensor> = (0..70)
        .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..70).map(|i| i % 4).collect();
    let data = Dataset::new(samples, Labels::Classes(labels));
    let _ = evaluate_accuracy(&net, &data);

    assert_eq!(
        net.weights(),
        snapshot,
        "an eval path mutated weights or BN running statistics"
    );
}

#[test]
fn sharded_eval_matches_exclusive_eval_on_a_real_cnn() {
    let cfg = VisionConfig::new(3, 4, 16);
    let mut rng = StdRng::seed_from_u64(12);
    let mut net = build_vision_model(ModelKind::SimpleCnn, cfg, &mut rng);
    let x_warm = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    let _ = net.forward(&x_warm, true);
    net.fuse_inference();

    let n = 85; // several EVAL_BATCH shards plus a ragged tail
    let samples: Vec<Tensor> = (0..n)
        .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..n).map(|i| (i * 7) % 4).collect();
    let data = Dataset::new(samples.clone(), Labels::Classes(labels.clone()));
    let sharded_acc = evaluate_accuracy(&net, &data);

    // exclusive-access reference, batch by batch
    let mut correct = 0usize;
    for (sample, &label) in samples.iter().zip(labels.iter()) {
        let batch = Tensor::stack(std::slice::from_ref(sample));
        if net.predict_classes(&batch)[0] == label {
            correct += 1;
        }
    }
    let expect = correct as f32 / n as f32;
    assert!(
        (sharded_acc - expect).abs() < 1e-6,
        "sharded accuracy {sharded_acc} vs exclusive {expect}"
    );
}
