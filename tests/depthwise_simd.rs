//! Tier-1 reach for the ISA-dispatched 3×3 depthwise kernels.
//!
//! `hs_tensor::depthwise_conv2d` picks its vector tier (AVX-512, AVX2,
//! portable) from the CPU, and the only way to pin another one is a
//! `cfg(test)` override inside `depthwise.rs` — by design there is no runtime
//! switch. So this suite compiles that source file (and the `isa` module it
//! dispatches on) *into this test crate*, where `cfg(test)` holds:
//!
//! * the file's own unit tests run here too (as `depthwise::tests::*`) —
//!   every vector tier the host supports against the portable tier with
//!   `to_bits` equality over stride × extent × channels × epilogue, signed
//!   zeros, and non-finite pixels / weights against the im2col formulation;
//! * the tests below pin each tier against the workspace's scalar oracle,
//!   `Conv2d::forward_reference`, for where NaN and ±inf end up.
//!
//! The copy compiled here is the very file `hs-tensor` builds, so it cannot
//! drift from the shipped kernel.

use heteroswitch_repro::nn::{Conv2d, Layer};
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[allow(dead_code)]
#[path = "../crates/tensor/src/isa.rs"]
mod isa;

/// What `depthwise.rs` imports from its sibling module inside `hs-tensor`.
mod gemm {
    pub use heteroswitch_repro::tensor::{Epilogue, EpilogueAct};
}

#[allow(dead_code)]
#[path = "../crates/tensor/src/depthwise.rs"]
mod depthwise;

use isa::{supported_tiers, Isa};

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

/// The layer's forward on `tier`, through the kernel compiled into this
/// crate, one sample at a time as `Conv2d` drives it.
fn forward_on(tier: Isa, conv: &mut Conv2d, x: &Tensor, stride: usize) -> Vec<f32> {
    let dims = x.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let (oh, ow) = ((h - 1) / stride + 1, (w - 1) / stride + 1);
    let (weights, bias) = {
        let params = conv.params_mut();
        (params[0].value.clone(), params[1].value.clone())
    };
    let mut out = vec![0.0f32; n * c * oh * ow];
    depthwise::force_tier(Some(tier));
    for (xs, os) in x
        .as_slice()
        .chunks(c * h * w)
        .zip(out.chunks_mut(c * oh * ow))
    {
        depthwise::depthwise_conv2d(
            xs,
            weights.as_slice(),
            bias.as_slice(),
            None,
            os,
            c,
            h,
            w,
            3,
            stride,
            1,
        );
    }
    depthwise::force_tier(None);
    out
}

#[test]
fn non_finite_border_pixels_and_tap_weights_land_where_forward_reference_puts_them() {
    let mut rng = StdRng::seed_from_u64(61);
    let (n, c) = (2usize, 3usize);
    for stride in [1usize, 2] {
        for (h, w) in [(7usize, 9usize), (16, 16), (2, 17), (5, 1)] {
            let mut conv = Conv2d::depthwise(c, 3, stride, 1, &mut rng);
            let clean_w = conv.params_mut()[0].value.clone();
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
                    conv.params_mut()[0].value = clean_w.clone();
                    if let Some((i, j)) = pixel {
                        *x.at_mut(&[1, 1, i, j]) = value;
                    }
                    if let Some(tap) = tap {
                        conv.params_mut()[0].value.as_mut_slice()[9 + tap] = value;
                    }
                    let expect = conv.forward_reference(&x);
                    assert!(
                        expect.as_slice().iter().any(|v| !v.is_finite()),
                        "test setup: the poison should reach the output"
                    );
                    for tier in supported_tiers() {
                        let got = forward_on(tier, &mut conv, &x, stride);
                        let what = format!(
                            "{tier:?} s={stride} {h}x{w} pixel={pixel:?} tap={tap:?} {value}"
                        );
                        assert_same(expect.as_slice(), &got, &what);
                    }
                    // and the shipped dispatch, whatever tier it picked
                    let shipped = conv.forward(&x, false);
                    assert_same(expect.as_slice(), shipped.as_slice(), "shipped dispatch");
                }
            }
        }
    }
}
