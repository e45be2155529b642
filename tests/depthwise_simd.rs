//! Where NaN and ±inf end up in a 3×3 depthwise forward, through the shipped
//! ISA dispatch, against the workspace's scalar oracle
//! `Conv2d::forward_reference`. (Each tier the host supports is pinned to
//! the same placement, against the im2col formulation, by `hs-tensor`'s own
//! `depthwise::tests` — only that crate's unit tests can force a tier.)

use heteroswitch_repro::nn::{Conv2d, Layer};
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod support;
use support::params;

/// `got` matches `expect` to a relative tolerance, with NaNs (and matching
/// infinities) in exactly the same places.
fn assert_same(expect: &[f32], got: &[f32], what: &str) {
    assert_eq!(expect.len(), got.len(), "{what}: length");
    for (i, (e, g)) in expect.iter().zip(got).enumerate() {
        assert_eq!(e.is_nan(), g.is_nan(), "{what}: element {i}: {e} vs {g}");
        if !e.is_nan() && e != g {
            assert!(
                (e - g).abs() <= 1e-4 * e.abs().max(1.0),
                "{what}: element {i}: {e} vs {g}"
            );
        }
    }
}

#[test]
fn non_finite_border_pixels_and_tap_weights_land_where_forward_reference_puts_them() {
    let mut rng = StdRng::seed_from_u64(61);
    let (n, c) = (2usize, 3usize);
    for stride in [1usize, 2] {
        for (h, w) in [(7usize, 9usize), (16, 16), (2, 17), (5, 1)] {
            let mut conv = Conv2d::depthwise(c, 3, stride, 1, &mut rng);
            let clean_w = params(&mut conv)[0].value.clone();
            let clean_x = Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, &mut rng);
            // sample 1, channel 1: the four corners and the centre of the
            // image; the corner, edge and centre taps of the kernel
            let pixels = [
                (0, 0),
                (0, w - 1),
                (h - 1, 0),
                (h - 1, w - 1),
                (h / 2, w / 2),
            ];
            let sites = pixels
                .map(|p| (Some(p), None))
                .into_iter()
                .chain([0usize, 1, 3, 8, 4].map(|tap| (None, Some(tap))));
            for (pixel, tap) in sites {
                for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut x = clean_x.clone();
                    params(&mut conv)[0].value = clean_w.clone();
                    if let Some((i, j)) = pixel {
                        *x.at_mut(&[1, 1, i, j]) = value;
                    }
                    if let Some(tap) = tap {
                        params(&mut conv)[0].value.as_mut_slice()[9 + tap] = value;
                    }
                    let expect = conv.forward_reference(&x);
                    assert!(
                        expect.as_slice().iter().any(|v| !v.is_finite()),
                        "test setup: the poison should reach the output"
                    );
                    let shipped = conv.forward(&x, false);
                    let what = format!("s={stride} {h}x{w} pixel={pixel:?} tap={tap:?} {value}");
                    assert_same(expect.as_slice(), shipped.as_slice(), &what);
                }
            }
        }
    }
}
