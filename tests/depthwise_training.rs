//! Parity suite for the direct depthwise *training* path: `Conv2d`'s
//! `forward(train)` / `backward` on depthwise layers run
//! `hs_tensor::depthwise_conv2d{,_backward}` instead of im2col→GEMM, and are
//! pinned here against the scalar `forward_reference` / `backward_reference`
//! oracle — across kernel sizes, strides, paddings, odd extents and batch
//! sizes, under every sample-band fan-out width, through an interleaved eval
//! pass, at the zoo's own stride-2 geometries, and for where non-finite
//! values end up.

use heteroswitch_repro::nn::{Conv2d, Layer};
use heteroswitch_repro::parallel::{set_num_threads, sync};
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

mod support;
use support::params;

/// `set_num_threads` is process-wide and the tests of one file share a
/// process: every test that sets it holds this lock and restores the
/// default when done (also on a failed assertion).
static THREADS: Mutex<()> = Mutex::new(());

struct ThreadsGuard(
    #[allow(dead_code, reason = "held for its drop, which releases the lock")]
    MutexGuard<'static, ()>,
);

impl ThreadsGuard {
    fn lock() -> Self {
        ThreadsGuard(sync::lock(&THREADS))
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        set_num_threads(None);
    }
}

/// `got` matches `expect` to a relative tolerance, with NaNs (and matching
/// infinities) in exactly the same places.
fn assert_same(expect: &[f32], got: &[f32], tol: f32, what: &str) {
    assert_eq!(expect.len(), got.len(), "{what}: length");
    for (i, (e, g)) in expect.iter().zip(got).enumerate() {
        assert_eq!(e.is_nan(), g.is_nan(), "{what}: element {i}: {e} vs {g}");
        if !e.is_nan() && e != g {
            assert!(
                (e - g).abs() <= tol * e.abs().max(1.0),
                "{what}: element {i}: {e} vs {g}"
            );
        }
    }
}

/// Runs `forward(train)` + `backward` on a fresh-gradient layer and checks
/// output, input gradient and parameter gradients against the reference.
fn check_against_reference(conv: &mut Conv2d, x: &Tensor, grad_out: &Tensor, what: &str) {
    for p in params(conv) {
        p.zero_grad();
    }
    let y = conv.forward(x, true);
    assert_eq!(y.dims(), grad_out.dims(), "{what}: output shape");
    let grad_in = conv.backward(grad_out);
    let y_ref = conv.forward_reference(x);
    let (gin_ref, gw_ref, gb_ref) = conv.backward_reference(x, grad_out);
    assert_same(y_ref.as_slice(), y.as_slice(), 1e-4, &format!("{what}: y"));
    assert_eq!(grad_in.dims(), x.dims(), "{what}: grad_in shape");
    assert_same(
        gin_ref.as_slice(),
        grad_in.as_slice(),
        1e-4,
        &format!("{what}: grad_in"),
    );
    let params = params(conv);
    assert_same(
        gw_ref.as_slice(),
        params[0].grad.as_slice(),
        1e-3,
        &format!("{what}: grad_w"),
    );
    assert_same(
        gb_ref.as_slice(),
        params[1].grad.as_slice(),
        1e-3,
        &format!("{what}: grad_b"),
    );
}

#[test]
fn depthwise_training_matches_reference_across_geometries_and_band_widths() {
    let _threads = ThreadsGuard::lock();
    let mut rng = StdRng::seed_from_u64(41);
    for threads in [1usize, 2, 4] {
        set_num_threads(Some(threads));
        for k in [3usize, 5] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1, 2] {
                    for batch in [1usize, 3, 10] {
                        let (c, h, w) = (5usize, 7usize, 9usize);
                        let mut conv = Conv2d::depthwise(c, k, stride, pad, &mut rng);
                        // a non-zero bias, so the forward's bias add is checked
                        params(&mut conv)[1].value =
                            Tensor::rand_uniform(&[c], -0.5, 0.5, &mut rng);
                        let x = Tensor::rand_uniform(&[batch, c, h, w], -1.0, 1.0, &mut rng);
                        let y_dims = conv.forward_reference(&x).dims().to_vec();
                        let grad_out = Tensor::rand_uniform(&y_dims, -1.0, 1.0, &mut rng);
                        let what = format!("t={threads} k={k} s={stride} p={pad} b={batch}");
                        check_against_reference(&mut conv, &x, &grad_out, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn depthwise_gradients_match_numerical_differences() {
    let mut rng = StdRng::seed_from_u64(42);
    for (k, stride, pad) in [(3usize, 1usize, 1usize), (3, 2, 1), (5, 1, 2), (5, 2, 0)] {
        let mut conv = Conv2d::depthwise(3, k, stride, pad, &mut rng);
        let mut x = Tensor::rand_uniform(&[2, 3, 7, 9], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        // loss = Σ y, so every output gradient is one
        let grad_in = conv.backward(&Tensor::ones(y.dims()));
        let eps = 1e-2f32;
        let what = format!("k={k} s={stride} p={pad}");

        // d loss / d weight[1, 0, k/2, 0]
        let at = [1usize, 0, k / 2, 0];
        let analytic = params(&mut conv)[0].grad.at(&at);
        let base = params(&mut conv)[0].value.at(&at);
        *params(&mut conv)[0].value.at_mut(&at) = base + eps;
        let plus = conv.forward_reference(&x).sum();
        *params(&mut conv)[0].value.at_mut(&at) = base - eps;
        let minus = conv.forward_reference(&x).sum();
        *params(&mut conv)[0].value.at_mut(&at) = base;
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic - numerical).abs() <= 2e-2 * numerical.abs().max(1.0),
            "{what}: weight gradient {analytic} vs numerical {numerical}"
        );

        // d loss / d bias[2]: one per output element of the channel
        let per_channel = (y.len() / (2 * 3)) as f32;
        let bias_grad = params(&mut conv)[1].grad.at(&[2]);
        assert!(
            (bias_grad - 2.0 * per_channel).abs() <= 1e-3 * per_channel,
            "{what}: bias gradient {bias_grad}"
        );

        // d loss / d x[1, 2, 3, 4]
        let at = [1usize, 2, 3, 4];
        let analytic = grad_in.at(&at);
        let base = x.at(&at);
        *x.at_mut(&at) = base + eps;
        let plus = conv.forward_reference(&x).sum();
        *x.at_mut(&at) = base - eps;
        let minus = conv.forward_reference(&x).sum();
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic - numerical).abs() <= 2e-2 * numerical.abs().max(1.0),
            "{what}: input gradient {analytic} vs numerical {numerical}"
        );
    }
}

#[test]
fn eval_forward_between_train_forward_and_backward_keeps_depthwise_gradients() {
    // an inference (other batch size AND geometry) must not touch the input
    // cached for backward
    let mut rng = StdRng::seed_from_u64(43);
    for (k, stride, pad) in [(3usize, 1usize, 1usize), (3, 2, 1), (5, 1, 2)] {
        let mut conv = Conv2d::depthwise(4, k, stride, pad, &mut rng);
        let x_train = Tensor::rand_uniform(&[3, 4, 7, 9], -1.0, 1.0, &mut rng);
        let x_eval = Tensor::rand_uniform(&[5, 4, 11, 13], -1.0, 1.0, &mut rng);

        let y = conv.forward(&x_train, true);
        let _ = conv.forward(&x_eval, false);
        let grad_out = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);
        let grad_in = conv.backward(&grad_out);

        let what = format!("k={k} s={stride} p={pad}");
        let (gin_ref, gw_ref, gb_ref) = conv.backward_reference(&x_train, &grad_out);
        assert_same(
            gin_ref.as_slice(),
            grad_in.as_slice(),
            1e-4,
            &format!("{what}: grad_in"),
        );
        let params = params(&mut conv);
        assert_same(
            gw_ref.as_slice(),
            params[0].grad.as_slice(),
            1e-3,
            &format!("{what}: grad_w"),
        );
        assert_same(
            gb_ref.as_slice(),
            params[1].grad.as_slice(),
            1e-3,
            &format!("{what}: grad_b"),
        );
    }
}

#[test]
fn non_finite_values_propagate_exactly_where_the_reference_puts_them() {
    let _threads = ThreadsGuard::lock();
    let mut rng = StdRng::seed_from_u64(44);
    for threads in [1usize, 2] {
        set_num_threads(Some(threads));
        for (k, stride, pad) in [(3usize, 1usize, 1usize), (3, 2, 1), (5, 1, 2), (5, 2, 0)] {
            let (batch, c, h, w) = (3usize, 4usize, 7usize, 9usize);
            let mut conv = Conv2d::depthwise(c, k, stride, pad, &mut rng);
            let clean_x = Tensor::rand_uniform(&[batch, c, h, w], -1.0, 1.0, &mut rng);
            let y_dims = conv.forward_reference(&clean_x).dims().to_vec();
            let clean_go = Tensor::rand_uniform(&y_dims, -1.0, 1.0, &mut rng);
            let (oh, ow) = (y_dims[2], y_dims[3]);
            // sample 1, channel 2; a corner (border taps fall in the
            // padding) and the centre, in the input and in grad_out
            for (poison_input, corner, value) in [
                (true, true, f32::NAN),
                (true, false, f32::NAN),
                (false, true, f32::NAN),
                (false, false, f32::NAN),
                (false, true, f32::NEG_INFINITY),
            ] {
                let (mut x, mut go) = (clean_x.clone(), clean_go.clone());
                if poison_input {
                    let at = if corner {
                        [1, 2, 0, 0]
                    } else {
                        [1, 2, h / 2, w / 2]
                    };
                    *x.at_mut(&at) = value;
                } else {
                    let at = if corner {
                        [1, 2, 0, 0]
                    } else {
                        [1, 2, oh / 2, ow / 2]
                    };
                    *go.at_mut(&at) = value;
                }
                let what = format!(
                    "t={threads} k={k} s={stride} p={pad} input={poison_input} corner={corner} {value}"
                );
                check_against_reference(&mut conv, &x, &go, &what);
            }
        }
    }
}

#[test]
fn stride_2_training_matches_reference_at_the_zoo_geometries_and_odd_extents() {
    // MobileNetV3-small's two 3×3 stride-2 pad-1 depthwise layers at the
    // client step's batch (32 px input), then every odd extent 3..=17 in
    // each direction, square and ragged
    let _threads = ThreadsGuard::lock();
    let mut rng = StdRng::seed_from_u64(45);
    let mut shapes = vec![(10usize, 48usize, 16usize, 16usize), (10, 64, 8, 8)];
    for h in (3..=17).step_by(2) {
        for w in (3..=17).step_by(4) {
            shapes.push((3, 4, h, w));
        }
    }
    for threads in [1usize, 2] {
        set_num_threads(Some(threads));
        for &(batch, c, h, w) in &shapes {
            let mut conv = Conv2d::depthwise(c, 3, 2, 1, &mut rng);
            params(&mut conv)[1].value = Tensor::rand_uniform(&[c], -0.5, 0.5, &mut rng);
            let x = Tensor::rand_uniform(&[batch, c, h, w], -1.0, 1.0, &mut rng);
            let y_dims = conv.forward_reference(&x).dims().to_vec();
            let grad_out = Tensor::rand_uniform(&y_dims, -1.0, 1.0, &mut rng);
            let what = format!("t={threads} b={batch} c={c} {h}x{w}");
            check_against_reference(&mut conv, &x, &grad_out, &what);
        }
    }
}
