//! Property-based tests over the core data structures and invariants:
//! tensor algebra, the blocked-GEMM kernel layer vs the naive reference,
//! Conv2d's GEMM path vs the seed scalar path, ISP pipeline range/geometry
//! guarantees, metric bounds, weight averaging and client partitioning.
//!
//! The build environment has no crates registry, so instead of `proptest`
//! these run each property over many seeded random cases drawn from the
//! workspace's own deterministic RNG — same spirit (randomised inputs,
//! shrink-free), fully reproducible.

use heteroswitch::{random_gamma, random_white_balance, AveragingMode, WeightAverager};
use hs_isp::{BayerPattern, IspConfig, RawImage};
use hs_metrics::{accuracy, average_precision, mean, population_variance, worst_case};
use hs_nn::{Conv2d, ConvAlgo, Layer};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod support;
use support::params;

/// Number of random cases per property (mirrors the old proptest config).
const CASES: u64 = 64;

// ----------------------------------------------------------------------
// Tensor algebra
// ----------------------------------------------------------------------

/// Transposing twice is the identity.
#[test]
fn transpose_is_involutive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(1usize..6);
        let cols = rng.gen_range(1usize..6);
        let t = Tensor::rand_uniform(&[rows, cols], -10.0, 10.0, &mut rng);
        assert_eq!(t.transpose().transpose(), t);
    }
}

/// Matrix multiplication by the identity is the identity map.
#[test]
fn matmul_identity_is_identity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let rows = rng.gen_range(1usize..6);
        let cols = rng.gen_range(1usize..6);
        let t = Tensor::rand_uniform(&[rows, cols], -10.0, 10.0, &mut rng);
        let out = t.matmul(&Tensor::eye(cols));
        for (a, b) in t.as_slice().iter().zip(out.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}

/// Matmul distributes over addition: (A + B) C == A C + B C.
#[test]
fn matmul_distributes_over_addition() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let n = rng.gen_range(1usize..5);
        let a = Tensor::rand_uniform(&[n, n], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, n], -2.0, 2.0, &mut rng);
        let c = Tensor::rand_uniform(&[n, n], -2.0, 2.0, &mut rng);
        let left = a.add(&b).matmul(&c);
        let right = a.matmul(&c).add(&b.matmul(&c));
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((l - r).abs() < 1e-3);
        }
    }
}

/// Softmax rows are valid probability distributions.
#[test]
fn softmax_rows_are_distributions() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let rows = rng.gen_range(1usize..5);
        let cols = rng.gen_range(1usize..8);
        let t = Tensor::rand_uniform(&[rows, cols], -20.0, 20.0, &mut rng);
        let s = t.softmax_rows();
        for i in 0..rows {
            let mut total = 0.0f32;
            for j in 0..cols {
                let v = s.at(&[i, j]);
                assert!((0.0..=1.0).contains(&v));
                total += v;
            }
            assert!((total - 1.0).abs() < 1e-4);
        }
    }
}

/// Reshape preserves every element and the element count.
#[test]
fn reshape_preserves_data() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let n = rng.gen_range(1usize..5);
        let m = rng.gen_range(1usize..5);
        let t = Tensor::rand_uniform(&[n, m], -1.0, 1.0, &mut rng);
        let r = t.reshape(&[m * n]);
        assert_eq!(r.len(), t.len());
        assert_eq!(r.as_slice(), t.as_slice());
    }
}

// ----------------------------------------------------------------------
// Blocked GEMM vs the naive reference kernel
// ----------------------------------------------------------------------

/// The blocked, SIMD-dispatched GEMM agrees with the seed's i-k-j reference
/// across random shapes, including dimensions that are not multiples of the
/// register-tile sizes (MR = 8, NR = 48) or the KC panel depth.
#[test]
fn blocked_gemm_matches_naive_reference() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        // bias the draw towards tile-edge-straddling sizes
        let m = rng.gen_range(1usize..70);
        let k = rng.gen_range(1usize..300);
        let n = rng.gen_range(1usize..110);
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let fast = a.matmul(&b);
        let reference = a.matmul_naive(&b);
        assert_eq!(fast.dims(), reference.dims());
        for (f, r) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (f - r).abs() <= 1e-4 * r.abs().max(1.0),
                "gemm {m}x{k}x{n} diverged: {f} vs {r}"
            );
        }
    }
}

/// Shapes aligned exactly to the micro-kernel tile and panel boundaries
/// (and one element off either side) agree with the reference.
#[test]
fn blocked_gemm_matches_naive_on_boundary_shapes() {
    let mut rng = StdRng::seed_from_u64(91);
    for (m, k, n) in [
        (8usize, 256usize, 48usize),
        (7, 255, 47),
        (9, 257, 49),
        (16, 512, 96),
        (64, 64, 48),   // the direct-B small-m path, exact strips
        (65, 100, 100), // just past the small-m cutoff
        (1, 1, 1),
        (1, 300, 1),
        (70, 1, 70),
    ] {
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let fast = a.matmul(&b);
        let reference = a.matmul_naive(&b);
        for (f, r) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (f - r).abs() <= 1e-4 * r.abs().max(1.0),
                "gemm {m}x{k}x{n} diverged: {f} vs {r}"
            );
        }
    }
}

/// The transpose-fused products equal their composed equivalents bit for
/// bit: a transposed operand only changes where the kernel reads it, never
/// an output's multiply-add chain.
#[test]
fn matmul_nt_and_tn_match_composed_transpose() {
    let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
    for seed in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(600 + seed);
        let m = rng.gen_range(1usize..20);
        let k = rng.gen_range(1usize..40);
        let n = rng.gen_range(1usize..20);
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let bt = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
        let nt = a.matmul_nt(&bt);
        let composed = a.matmul(&bt.transpose());
        assert_eq!(bits(&nt), bits(&composed), "matmul_nt {m}x{k}x{n}");
        let at = Tensor::rand_uniform(&[k, m], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let tn = at.matmul_tn(&b);
        let composed = at.transpose().matmul(&b);
        assert_eq!(bits(&tn), bits(&composed), "matmul_tn {m}x{k}x{n}");
    }
}

// ----------------------------------------------------------------------
// Conv2d: GEMM path vs the seed scalar path
// ----------------------------------------------------------------------

/// The im2col+GEMM convolution agrees with the seed scalar implementation
/// across random grouped / depthwise / strided / padded configurations, in
/// both the forward values and every backward gradient.
/// A random grouped / depthwise / strided / padded convolution, an input for
/// it, a description of the draw and the RNG that made them.
fn random_conv_case(seed: u64, depthwise_odds: f64) -> (Conv2d, Tensor, String, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = [1usize, 2, 4][rng.gen_range(0usize..3)];
    let cin = groups * rng.gen_range(1usize..4);
    let cout = if rng.gen_bool(depthwise_odds) && cin == groups {
        cin // depthwise
    } else {
        groups * rng.gen_range(1usize..4)
    };
    let kernel = [1usize, 3, 5][rng.gen_range(0usize..3)];
    let stride = rng.gen_range(1usize..3);
    let padding = rng.gen_range(0usize..=kernel / 2 + 1);
    let extent = kernel.max(3) + rng.gen_range(2usize..8);
    let (h, w) = (extent, extent + rng.gen_range(0usize..3));
    let batch = rng.gen_range(1usize..4);

    let conv = Conv2d::new(cin, cout, kernel, stride, padding, groups, &mut rng);
    let x = Tensor::rand_uniform(&[batch, cin, h, w], -1.0, 1.0, &mut rng);
    let ctx = format!("cin={cin} cout={cout} k={kernel} s={stride} p={padding} g={groups}");
    (conv, x, ctx, rng)
}

#[test]
fn conv2d_gemm_path_matches_reference_across_configs() {
    for seed in 0..24 {
        let (mut conv, x, ctx, mut rng) = random_conv_case(700 + seed, 0.25);

        let fast = conv.forward(&x, true);
        let reference = conv.forward_reference(&x);
        assert_eq!(fast.dims(), reference.dims());
        for (f, r) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (f - r).abs() <= 1e-4 * r.abs().max(1.0),
                "conv forward {ctx}: {f} vs {r}"
            );
        }

        let grad_out = Tensor::rand_uniform(fast.dims(), -1.0, 1.0, &mut rng);
        let grad_in = conv.backward(&grad_out);
        let (ref_gin, ref_gw, ref_gb) = conv.backward_reference(&x, &grad_out);
        for (f, r) in grad_in.as_slice().iter().zip(ref_gin.as_slice()) {
            assert!(
                (f - r).abs() <= 1e-3 * r.abs().max(1.0),
                "grad_in diverged: {f} vs {r}"
            );
        }
        let gw = params(&mut conv)[0].grad.clone();
        for (f, r) in gw.as_slice().iter().zip(ref_gw.as_slice()) {
            assert!(
                (f - r).abs() <= 1e-2 * r.abs().max(1.0),
                "grad_w diverged: {f} vs {r}"
            );
        }
        let gb = params(&mut conv)[1].grad.clone();
        for (f, r) in gb.as_slice().iter().zip(ref_gb.as_slice()) {
            assert!(
                (f - r).abs() <= 1e-2 * r.abs().max(1.0),
                "grad_b diverged: {f} vs {r}"
            );
        }
    }
}

/// The planned inference route — the direct kernel on the depthwise draws,
/// im2col on the rest — agrees with the seed scalar reference across random
/// grouped / depthwise / strided / padded configurations.
#[test]
fn every_conv_backend_matches_reference_across_configs() {
    for seed in 0..16 {
        let (mut conv, x, ctx, _) = random_conv_case(2000 + seed, 0.3);
        let reference = conv.forward_reference(&x);
        let algo = conv.planned_algo();
        let got = conv.forward(&x, false);
        assert_eq!(got.dims(), reference.dims());
        for (g, r) in got.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (g - r).abs() <= 1e-4 * r.abs().max(1.0),
                "{algo:?} {ctx}: {g} vs {r}"
            );
        }
    }
}

/// One route per geometry: depthwise layers plan the direct kernel, every
/// other layer im2col.
#[test]
fn conv_backend_selection_respects_geometry() {
    let mut rng = StdRng::seed_from_u64(77);
    // depthwise -> direct kernel, whatever the kernel size and stride
    let dw = Conv2d::depthwise(8, 3, 1, 1, &mut rng);
    assert_eq!(dw.planned_algo(), ConvAlgo::DirectDepthwise);
    let dw5 = Conv2d::depthwise(8, 5, 2, 2, &mut rng);
    assert_eq!(dw5.planned_algo(), ConvAlgo::DirectDepthwise);
    // dense and grouped-but-not-depthwise convs -> im2col
    let dense = Conv2d::new(8, 8, 3, 1, 1, 1, &mut rng);
    assert_eq!(dense.planned_algo(), ConvAlgo::Im2colGemm);
    let grouped = Conv2d::new(8, 16, 3, 1, 1, 8, &mut rng);
    assert_eq!(grouped.planned_algo(), ConvAlgo::Im2colGemm);
}

// ----------------------------------------------------------------------
// ISP pipeline
// ----------------------------------------------------------------------

/// Every ISP configuration maps arbitrary RAW data into valid RGB in
/// [0, 1] with the sensor's geometry.
#[test]
fn isp_output_is_bounded_rgb() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(800 + seed);
        let size = rng.gen_range(2usize..10) * 2; // even sizes
        let data: Vec<f32> = (0..size * size).map(|_| rng.gen_range(0.0..1.0)).collect();
        let raw = RawImage::from_data(size, size, data, BayerPattern::Rggb);
        for cfg in [
            IspConfig::baseline(),
            IspConfig::option1(),
            IspConfig::option2(),
        ] {
            let rgb = cfg.process(&raw);
            assert_eq!((rgb.width, rgb.height, rgb.channels), (size, size, 3));
            assert!(rgb.data.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }
}

/// HeteroSwitch's random transformations keep image tensors in [0, 1]
/// and never change the shape.
#[test]
fn isp_transformations_preserve_range_and_shape() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let wb_degree = rng.gen_range(0.0f32..0.9);
        let gamma_degree = rng.gen_range(0.0f32..0.9);
        let img = Tensor::rand_uniform(&[3, 6, 6], 0.0, 1.0, &mut rng);
        let wb = random_white_balance(&img, wb_degree, &mut rng);
        let gamma = random_gamma(&wb, gamma_degree, &mut rng);
        assert_eq!(gamma.dims(), img.dims());
        assert!(gamma.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }
}

// ----------------------------------------------------------------------
// Metrics
// ----------------------------------------------------------------------

/// Accuracy lies in [0, 1] and equals 1 exactly for identical inputs.
#[test]
fn accuracy_bounds() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let len = rng.gen_range(1usize..50);
        let labels: Vec<usize> = (0..len).map(|_| rng.gen_range(0usize..5)).collect();
        let acc_same = accuracy(&labels, &labels);
        assert!((acc_same - 1.0).abs() < 1e-6);
        let shifted: Vec<usize> = labels.iter().map(|l| (l + 1) % 5).collect();
        let acc_diff = accuracy(&shifted, &labels);
        assert!((0.0..=1.0).contains(&acc_diff));
    }
}

/// Variance is non-negative and zero for constant vectors; the worst case
/// never exceeds the mean.
#[test]
fn fairness_metric_invariants() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1100 + seed);
        let len = rng.gen_range(1usize..20);
        let values: Vec<f32> = (0..len).map(|_| rng.gen_range(0.0f32..100.0)).collect();
        let var = population_variance(&values);
        assert!(var >= 0.0);
        assert!(worst_case(&values) <= mean(&values) + 1e-4);
        let constant = vec![values[0]; values.len()];
        assert!(population_variance(&constant) < 1e-6);
    }
}

/// Average precision is bounded in [0, 1] for arbitrary score vectors.
#[test]
fn average_precision_bounds() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1200 + seed);
        let len = rng.gen_range(1usize..12);
        let scores: Vec<f32> = (0..len).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let mask_seed = rng.gen_range(0u64..100);
        let relevant: Vec<bool> = scores
            .iter()
            .enumerate()
            .map(|(i, _)| (i as u64 + mask_seed).is_multiple_of(3))
            .collect();
        let ap = average_precision(&scores, &relevant);
        assert!((0.0..=1.0).contains(&ap));
    }
}

// ----------------------------------------------------------------------
// Weight averaging and partitioning
// ----------------------------------------------------------------------

/// The SWAD running average always stays within the per-coordinate
/// min/max envelope of everything it has seen.
#[test]
fn weight_average_stays_in_envelope() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1300 + seed);
        let num_updates = rng.gen_range(1usize..10);
        let initial: Vec<f32> = (0..3).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let updates: Vec<Vec<f32>> = (0..num_updates)
            .map(|_| (0..3).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
            .collect();
        let mut averager = WeightAverager::new(AveragingMode::PerBatch, &initial);
        let mut lo = initial.clone();
        let mut hi = initial.clone();
        for update in &updates {
            averager.update(update);
            for i in 0..3 {
                lo[i] = lo[i].min(update[i]);
                hi[i] = hi[i].max(update[i]);
            }
        }
        for i in 0..3 {
            assert!(averager.average()[i] >= lo[i] - 1e-4);
            assert!(averager.average()[i] <= hi[i] + 1e-4);
        }
    }
}

/// Market-share client assignment always returns exactly the requested
/// number of clients and only valid device indices.
#[test]
fn share_assignment_is_complete() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1400 + seed);
        let num_devices = rng.gen_range(1usize..9);
        let shares: Vec<f32> = (0..num_devices)
            .map(|_| rng.gen_range(0.01f32..10.0))
            .collect();
        let num_clients = rng.gen_range(1usize..60);
        let assignment = hs_data::assign_clients_by_share(&shares, num_clients, seed);
        assert_eq!(assignment.len(), num_clients);
        assert!(assignment.iter().all(|&d| d < shares.len()));
    }
}
