//! Direct depthwise convolution: one spatial micro-kernel per channel, no
//! im2col materialisation.
//!
//! A depthwise convolution (`groups == in_channels == out_channels`) turns
//! the im2col→GEMM strategy into its worst case: per channel the "GEMM" is a
//! `1 × k² × (oh·ow)` product, so the engine spends more time writing and
//! re-reading the column matrix than multiplying. This module convolves each
//! channel directly.
//!
//! The mobile zoo's one depthwise geometry — 3×3, pad 1, stride 1 or 2 —
//! runs a single kernel body ([`conv3x3_channel`]) written over the crate's
//! lane abstraction ([`Lanes`]) and instantiated for AVX-512 (16 lanes),
//! AVX2 (8) and a scalar-array portable tier (8) behind the same runtime
//! [`isa`] decision the GEMM micro-kernel takes. One vector of output
//! columns accumulates all nine taps in a register, then takes the
//! per-channel scale/shift and the activation before its one store, so the
//! epilogue costs no second pass. **Every tier computes the same bits**:
//! each tap is a plain multiply then an add, in row-major tap order, with no
//! FMA contraction and no reassociation, and a tap that lands in the padding
//! is *skipped* by a lane mask, never multiplied by a loaded zero.
//!
//! Every other geometry takes the generic tap-outer loops
//! ([`depthwise_generic`]) and a scalar epilogue pass over the cache-hot
//! channel block, matching [`crate::gemm_epilogue`]'s semantics through the
//! same scalar [`crate::EpilogueAct::apply`]. So does a channel with a NaN
//! or infinite weight, whatever its geometry: the im2col formulation
//! multiplies such a weight by the column matrix's padding zeros, and that
//! channel adds those products back literally ([`for_each_padding_tap`]) so
//! non-finite values land exactly where the reference puts them.
//!
//! [`depthwise_conv2d_backward`] is the training twin: per channel it
//! produces the input gradient and accumulates the `k²` weight gradients and
//! the bias gradient straight from the input and `grad_out` blocks, in the
//! same tap-outer / contiguous-row-inner shape — the im2col route spent its
//! time building, transposing and multiplying a `k² × (oh·ow)` column matrix
//! per (sample, channel) for `2·k²·oh·ow` useful multiply-adds. The zoo's
//! two 3×3 pad-1 geometries have bodies of their own: at stride 1 the input
//! gradient is the forward kernel run over `grad_out` with the kernel
//! rotated; at stride 2 a band of rows is laid out in zero-padded even/odd
//! column planes, so each tap is one contiguous lane-split dot product and
//! each input-gradient parity class one contiguous pass
//! ([`backward_3x3_s2p1`]). Every other geometry, and a stride-2 channel
//! with a value that is not finite, takes [`backward_generic`].
//!
//! # Safety
//!
//! The `unsafe` here is the two calls into the `#[target_feature]` entry
//! points and the tier tokens those construct: an entry point is only ever
//! called after [`isa`] reported its ISA, which is the tokens' contract
//! (`crate::lanes`). The kernel body above the trait is safe code.

#![allow(unsafe_code, reason = "calls into the #[target_feature] kernels")]

use crate::gemm::{Epilogue, EpilogueAct};
use crate::isa::{isa, Isa};
use crate::lanes::{lane_mask, with_act, ActBody, Lanes, Portable};
#[cfg(target_arch = "x86_64")]
use crate::lanes::{Avx2, Avx512};
use crate::reduce::{sum_lanes, LaneSum};

/// For one kernel tap offset `k` (row or column), the half-open range of
/// output coordinates whose sampled input coordinate `o*stride + k - pad`
/// lands inside `[0, extent)` — the boundary primitive shared by this
/// kernel and the im2col/col2im transforms in `hs-nn`.
#[inline]
pub fn valid_out_range(
    extent: usize,
    k: usize,
    stride: usize,
    pad: usize,
    out_len: usize,
) -> (usize, usize) {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = if extent + pad > k {
        ((extent + pad - k).div_ceil(stride)).min(out_len)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Direct depthwise convolution of one `[c, h, w]` sample with per-channel
/// `[c, k, k]` weights into a `[c, oh, ow]` output block
/// (`oh = (h + 2*pad - k)/stride + 1`, likewise `ow`).
///
/// * With `ep == Some(e)`: `out = e.act(e.scale[c] * conv + e.shift[c])`;
///   `bias` is ignored (folded into `shift` by the caller).
/// * With `ep == None`: `out = conv + bias[c]`.
///
/// `conv` has the im2col formulation's non-finite semantics: a NaN or
/// infinite weight poisons, besides everything it multiplies, every output
/// at which its tap samples the padding.
///
/// The output block is fully overwritten. No scratch is needed — this is
/// the allocation-free backend for the depthwise layers of the mobile zoo.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape contract.
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
pub fn depthwise_conv2d(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    ep: Option<Epilogue<'_>>,
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) {
    assert!(stride >= 1 && k >= 1, "kernel and stride must be positive");
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "input too small for the kernel"
    );
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    assert!(input.len() >= c * h * w, "depthwise input too short");
    assert!(weights.len() >= c * k * k, "depthwise weights too short");
    assert!(out.len() >= c * oh * ow, "depthwise output too short");
    if let Some(e) = ep {
        assert!(
            e.scale.len() >= c && e.shift.len() >= c,
            "depthwise epilogue needs one scale/shift entry per channel"
        );
    } else {
        assert!(bias.len() >= c, "depthwise bias too short");
    }

    // Both kernels skip the taps that sample the padding, where the im2col
    // formulation multiplies the weight by the column matrix's zero — the
    // same thing unless the weight is NaN or infinite. A channel with such a
    // weight (re)takes the generic path and adds those products literally;
    // all finite weights pay for is this scan (no short-circuit, so it
    // vectorises).
    let weights = &weights[..c * k * k];
    let any_poisoned = pad > 0 && weights.iter().fold(false, |bad, v| bad | !v.is_finite());

    // the mobile zoo's one depthwise geometry runs the vector kernel, a
    // whole sample per call
    let vector = k == 3 && pad == 1 && stride <= 2;
    if vector {
        let post = match ep {
            Some(e) => Post {
                scale: Some(e.scale),
                shift: Some(e.shift),
                act: e.act,
            },
            None => Post {
                shift: Some(bias),
                ..Post::RAW
            },
        };
        let sample = Sample {
            input,
            weights,
            post,
            c,
            h,
            w,
            stride,
        };
        conv3x3(&sample, out);
        if !any_poisoned {
            return;
        }
    }
    for ci in 0..c {
        let chan_w = &weights[ci * k * k..(ci + 1) * k * k];
        let poisoned = any_poisoned && !chan_w.iter().all(|v| v.is_finite());
        if vector && !poisoned {
            continue;
        }
        let chan_in = &input[ci * h * w..(ci + 1) * h * w];
        let chan_out = &mut out[ci * oh * ow..(ci + 1) * oh * ow];
        depthwise_generic(chan_in, chan_w, chan_out, h, w, k, stride, pad, oh, ow);
        if poisoned {
            for_each_padding_tap(h, w, k, stride, pad, oh, ow, |tap, o| {
                chan_out[o] += chan_w[tap] * 0.0;
            });
        }
        // epilogue / bias over the cache-hot channel block
        match ep {
            Some(e) => {
                let (scale, shift) = (e.scale[ci], e.shift[ci]);
                for v in chan_out.iter_mut() {
                    *v = e.act.apply(*v * scale + shift);
                }
            }
            None => {
                let b = bias[ci];
                for v in chan_out.iter_mut() {
                    *v += b;
                }
            }
        }
    }
}

/// Calls `f(tap, o)` for every pair of a kernel tap and an output position
/// at which that tap samples the padding: exactly the products by zero the
/// im2col formulation computes and the direct loops skip.
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn for_each_padding_tap(
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    mut f: impl FnMut(usize, usize),
) {
    for ki in 0..k {
        let (oi_lo, oi_hi) = valid_out_range(h, ki, stride, pad, oh);
        for kj in 0..k {
            let (oj_lo, oj_hi) = valid_out_range(w, kj, stride, pad, ow);
            for oi in 0..oh {
                let row_valid = (oi_lo..oi_hi).contains(&oi);
                for oj in 0..ow {
                    if !(row_valid && (oj_lo..oj_hi).contains(&oj)) {
                        f(ki * k + kj, oi * ow + oj);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The 3×3 pad-1 kernel: one body over `Lanes`, three instantiations
// ---------------------------------------------------------------------------

/// What follows the raw convolution of channel `ci`:
/// `act(scale[ci] · conv + shift[ci])`, with a missing `scale` meaning `1.0`
/// and a missing `shift` meaning `-0.0` — both exact identities in IEEE
/// arithmetic (`x · 1.0` and `x + -0.0` return `x` bit for bit, signed zeros
/// included), so the bias-only forward and the raw convolution the backward
/// pass needs are the same store path as the fused epilogue.
#[derive(Clone, Copy)]
struct Post<'a> {
    scale: Option<&'a [f32]>,
    shift: Option<&'a [f32]>,
    act: EpilogueAct,
}

impl Post<'_> {
    /// The raw convolution, stored unchanged.
    const RAW: Post<'static> = Post {
        scale: None,
        shift: None,
        act: EpilogueAct::None,
    };
}

/// One `[c, h, w]` sample's worth of 3×3 pad-1 work (`stride` 1 or 2).
struct Sample<'a> {
    input: &'a [f32],
    weights: &'a [f32],
    post: Post<'a>,
    c: usize,
    h: usize,
    w: usize,
    stride: usize,
}

/// One input row's three taps for a vector of output columns whose first
/// sampled column is `col`: `acc + wl·x[col-1..] + wc·x[col..] + wr·x[col+1..]`
/// (stepping by the stride `S`), each a multiply then an add, the left and
/// right tap only in the lanes of `left` / `right`.
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn row_taps<L: Lanes, const S: usize>(
    l: L,
    acc: L::V,
    row: &[f32],
    col: isize,
    [wl, wc, wr]: [L::V; 3],
    left: u32,
    right: u32,
) -> L::V {
    let (xl, xc, xr) = match S {
        1 => (l.load(row, col - 1), l.load(row, col), l.load(row, col + 1)),
        _ => {
            let ((_, xl), (xc, xr)) = (l.load2(row, col - 2), l.load2(row, col));
            (xl, xc, xr)
        }
    };
    let acc = l.select(left, l.add(acc, l.mul(wl, xl)), acc);
    let acc = l.add(acc, l.mul(wc, xc));
    l.select(right, l.add(acc, l.mul(wr, xr)), acc)
}

/// The 3×3 pad-1 convolution of one `h × w` channel at stride `S` (1 or 2),
/// followed by `act(scale · conv + shift)`, into its `oh × ow` output.
///
/// Output columns are walked a vector at a time; the `left` / `right` masks
/// name the lanes whose left / right tap lands inside the row, and a missing
/// top or bottom input row drops its three taps — padding taps are skipped,
/// never multiplied. Where a row tap is skipped (and at stride 2 throughout)
/// the sum starts from `+0.0`, as the tap-by-tap loops this kernel replaced
/// did; elsewhere it starts from `-0.0`, the additive identity, i.e. from
/// the first product itself — so signed zeros, too, come out as before.
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn conv3x3_channel<L: Lanes, const S: usize>(
    l: L,
    input: &[f32],
    wgt: &[f32],
    out: &mut [f32],
    h: usize,
    w: usize,
    (scale, shift): (f32, f32),
    act: impl Fn(L::V) -> L::V,
) {
    let (oh, ow) = ((h - 1) / S + 1, (w - 1) / S + 1);
    let input = &input[..h * w];
    let out = &mut out[..oh * ow];
    // spelled out rather than `array::from_fn` / `map`: a closure handed to
    // a std combinator is compiled without the tier's target feature, and
    // the intrinsics inside it stop inlining
    let top = [l.splat(wgt[0]), l.splat(wgt[1]), l.splat(wgt[2])];
    let mid = [l.splat(wgt[3]), l.splat(wgt[4]), l.splat(wgt[5])];
    let bottom = [l.splat(wgt[6]), l.splat(wgt[7]), l.splat(wgt[8])];
    let (scale, shift) = (l.splat(scale), l.splat(shift));
    for oj0 in (0..ow).step_by(L::N) {
        let n = (ow - oj0).min(L::N);
        let left = lane_mask(n) & !u32::from(oj0 == 0);
        let right = lane_mask(((w - 1).div_ceil(S) - oj0).min(n));
        let col = (S * oj0) as isize;
        for oi in 0..oh {
            let ii = S * oi;
            let (has_top, has_bottom) = (ii >= 1, ii + 1 < h);
            let from_product = S == 1 && has_top && has_bottom && w >= 2;
            let mut acc = l.splat(if from_product { -0.0 } else { 0.0 });
            if has_top {
                let row = &input[(ii - 1) * w..][..w];
                acc = row_taps::<L, S>(l, acc, row, col, top, left, right);
            }
            acc = row_taps::<L, S>(l, acc, &input[ii * w..][..w], col, mid, left, right);
            if has_bottom {
                let row = &input[(ii + 1) * w..][..w];
                acc = row_taps::<L, S>(l, acc, row, col, bottom, left, right);
            }
            let v = act(l.add(l.mul(acc, scale), shift));
            l.store(v, &mut out[oi * ow + oj0..][..n]);
        }
    }
}

/// The channel loop of one sample, waiting for its activation.
struct Channels<'a>(&'a Sample<'a>, &'a mut [f32]);

impl<L: Lanes> ActBody<L> for Channels<'_> {
    #[inline(always)]
    fn run(self, l: L, act: impl Fn(L::V) -> L::V + Copy) {
        let Channels(s, out) = self;
        let (h, w) = (s.h, s.w);
        let out_hw = ((h - 1) / s.stride + 1) * ((w - 1) / s.stride + 1);
        for (ci, chan_out) in out.chunks_exact_mut(out_hw).take(s.c).enumerate() {
            let chan_in = &s.input[ci * h * w..(ci + 1) * h * w];
            let chan_w = &s.weights[ci * 9..(ci + 1) * 9];
            let affine = (
                s.post.scale.map_or(1.0, |scale| scale[ci]),
                s.post.shift.map_or(-0.0, |shift| shift[ci]),
            );
            match s.stride {
                1 => conv3x3_channel::<L, 1>(l, chan_in, chan_w, chan_out, h, w, affine, act),
                _ => conv3x3_channel::<L, 2>(l, chan_in, chan_w, chan_out, h, w, affine, act),
            }
        }
    }
}

/// The AVX-512F instantiation of the kernel.
///
/// # Safety
///
/// The CPU must support AVX-512F: call it only after `isa()` reported
/// that tier.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn conv3x3_avx512(s: &Sample<'_>, out: &mut [f32]) {
    // SAFETY: this function's own target feature is the token's contract.
    with_act(unsafe { Avx512::new() }, s.post.act, Channels(s, out));
}

/// The AVX2 instantiation of the kernel.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA: call it only after `isa()` reported
/// that tier.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn conv3x3_avx2(s: &Sample<'_>, out: &mut [f32]) {
    // SAFETY: this function's own target features are the token's contract.
    with_act(unsafe { Avx2::new() }, s.post.act, Channels(s, out));
}

/// Runs one sample's 3×3 pad-1 convolution on the tier this CPU supports.
fn conv3x3(s: &Sample<'_>, out: &mut [f32]) {
    debug_assert!(s.stride == 1 || s.stride == 2);
    match isa() {
        // SAFETY: `isa()` returns only tiers this CPU was detected to have.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { conv3x3_avx512(s, out) },
        // SAFETY: `isa()` returns only tiers this CPU was detected to have.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { conv3x3_avx2(s, out) },
        Isa::Portable => with_act(Portable, s.post.act, Channels(s, out)),
    }
}

/// The generic tap-by-tap depthwise body for one channel (any kernel size,
/// stride or padding): accumulates the raw convolution into `out`, whose
/// padding fringe stays at the zero established by the initial fill.
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn depthwise_generic(
    chan_in: &[f32],
    chan_w: &[f32],
    chan_out: &mut [f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    chan_out.fill(0.0);
    for ki in 0..k {
        let (oi_lo, oi_hi) = valid_out_range(h, ki, stride, pad, oh);
        for kj in 0..k {
            let wv = chan_w[ki * k + kj];
            let (oj_lo, oj_hi) = valid_out_range(w, kj, stride, pad, ow);
            if oj_hi <= oj_lo {
                continue;
            }
            for oi in oi_lo..oi_hi {
                let ii = oi * stride + ki - pad;
                let out_row = &mut chan_out[oi * ow + oj_lo..oi * ow + oj_hi];
                if stride == 1 {
                    let jj0 = oj_lo + kj - pad;
                    let in_row = &chan_in[ii * w + jj0..ii * w + jj0 + out_row.len()];
                    for (o, &x) in out_row.iter_mut().zip(in_row.iter()) {
                        *o += wv * x;
                    }
                } else {
                    let in_row = &chan_in[ii * w..(ii + 1) * w];
                    for (idx, o) in out_row.iter_mut().enumerate() {
                        *o += wv * in_row[(oj_lo + idx) * stride + kj - pad];
                    }
                }
            }
        }
    }
}

/// Backward pass of [`depthwise_conv2d`] for one `[c, h, w]` sample: given
/// the forward `input`, the `[c, k, k]` `weights` and the `[c, oh, ow]`
/// output gradient, writes the input gradient into `grad_in` (`[c, h, w]`,
/// fully overwritten) and **accumulates** the weight gradient into `grad_w`
/// (`[c, k, k]`) and the bias gradient into `grad_b` (`[c]`), so a caller
/// can fold a band of samples into one partial buffer.
///
/// The result is the adjoint of the im2col formulation, NaN semantics
/// included: there a tap that lands in the padding still multiplies
/// `grad_out` by the column matrix's zero, so a non-finite `grad_out`
/// element poisons every weight gradient of its channel. The direct loops
/// skip those products; a channel whose `grad_out` is not all finite adds
/// them back literally (`for_each_padding_tap`), which finite training
/// never pays for.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape contract.
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
pub fn depthwise_conv2d_backward(
    input: &[f32],
    weights: &[f32],
    grad_out: &[f32],
    grad_in: &mut [f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) {
    assert!(stride >= 1 && k >= 1, "kernel and stride must be positive");
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "input too small for the kernel"
    );
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    assert!(input.len() >= c * h * w, "depthwise input too short");
    assert!(weights.len() >= c * k * k, "depthwise weights too short");
    assert!(
        grad_out.len() >= c * oh * ow,
        "depthwise grad_out too short"
    );
    assert!(grad_in.len() >= c * h * w, "depthwise grad_in too short");
    assert!(grad_w.len() >= c * k * k, "depthwise grad_w too short");
    assert!(grad_b.len() >= c, "depthwise grad_b too short");

    let mut s2_planes =
        (k == 3 && stride == 2 && pad == 1 && S2Planes::fits(ow)).then(S2Planes::new);
    for ci in 0..c {
        let chan_in = &input[ci * h * w..(ci + 1) * h * w];
        let chan_w = &weights[ci * k * k..(ci + 1) * k * k];
        let chan_go = &grad_out[ci * oh * ow..(ci + 1) * oh * ow];
        let chan_gin = &mut grad_in[ci * h * w..(ci + 1) * h * w];
        let chan_gw = &mut grad_w[ci * k * k..(ci + 1) * k * k];
        let go_sum = sum_lanes(chan_go);
        grad_b[ci] += go_sum;
        if k == 3 && stride == 1 && pad == 1 && h >= 2 && w >= 2 {
            // the input gradient of a stride-1 "same" convolution is the
            // same convolution of grad_out with the kernel rotated by 180°:
            // the forward's 3×3 kernel does it, storing the raw sums
            let mut rotated = [0.0f32; 9];
            for (r, &v) in rotated.iter_mut().zip(chan_w.iter().rev()) {
                *r = v;
            }
            let rotated_conv = Sample {
                input: chan_go,
                weights: &rotated,
                post: Post::RAW,
                c: 1,
                h,
                w,
                stride: 1,
            };
            conv3x3(&rotated_conv, chan_gin);
            grad_w_3x3_s1p1(chan_in, chan_go, chan_gw, h, w);
        } else {
            // the stride-2 planes multiply padding zeros by real values,
            // which is only exact when none of them is infinite or NaN: the
            // weights and grad_out are checked here, the input by the kernel
            let direct = match s2_planes.as_mut() {
                Some(planes) if go_sum.is_finite() && chan_w.iter().all(|v| v.is_finite()) => {
                    backward_3x3_s2p1(chan_in, chan_w, chan_go, chan_gin, chan_gw, h, w, planes)
                }
                _ => false,
            };
            if !direct {
                backward_generic(
                    chan_in, chan_w, chan_go, chan_gin, chan_gw, h, w, k, stride, pad, oh, ow,
                );
            }
        }
        if pad > 0 && !go_sum.is_finite() {
            for_each_padding_tap(h, w, k, stride, pad, oh, ow, |tap, o| {
                chan_gw[tap] += chan_go[o] * 0.0;
            });
        }
    }
}

/// Weight gradient of one 3×3 stride-1 pad-1 channel in a single sweep over
/// the output rows: each of the (up to) nine taps is a dot product of the
/// `grad_out` row with a shifted input row, kept as one [`LaneSum`] per tap
/// across all rows and totalled once at the end.
fn grad_w_3x3_s1p1(input: &[f32], go: &[f32], gw: &mut [f32], h: usize, w: usize) {
    let mut acc = [LaneSum::default(); 9];
    for oi in 0..h {
        let go_row = &go[oi * w..(oi + 1) * w];
        // input rows oi-1, oi, oi+1 that exist
        let ki_lo = usize::from(oi == 0);
        let ki_hi = 3 - usize::from(oi + 1 == h);
        for ki in ki_lo..ki_hi {
            let ii = oi + ki - 1;
            let in_row = &input[ii * w..(ii + 1) * w];
            acc[ki * 3].add_dot(&go_row[1..], &in_row[..w - 1]);
            acc[ki * 3 + 1].add_dot(go_row, in_row);
            acc[ki * 3 + 2].add_dot(&go_row[..w - 1], &in_row[1..]);
        }
    }
    for (g, lanes) in gw.iter_mut().zip(acc.iter()) {
        *g += lanes.total();
    }
}

/// Floats in one scratch plane of the 3×3 stride-2 backward: a band of
/// output rows is processed at a time, as many as fit.
const S2_PLANE: usize = 1024;

/// Scratch of the 3×3 stride-2 backward, with `s = ow + 1` floats per row
/// and column `t` of a row standing for output column `oj = t − 1`.
///
/// `go` holds one band of `grad_out` rows behind a zero column, plus the
/// row after the band (zero past the end) and a trailing zero. For the
/// weight gradient, `phase` holds the input rows the band samples, split by
/// row and column parity, each row behind a zero: `[ev_e, ev_q, od_e,
/// od_q]`, `ev_*` from input rows `2·oi` (kernel row 1) and `od_*` from
/// input rows `2·oi − 1` (kernel row 0; one row further down, kernel
/// row 2). `*_e[t]` is input column `2·oj` (kernel column 1), `*_q[t]` input
/// column `2·oj + 1` (kernel column 2) and `*_q[t − 1]` input column
/// `2·oj − 1` (kernel column 0). For the input gradient, `phase` is then
/// overwritten by its four parity classes: input rows `2·oi` and `2·oi + 1`,
/// each at input columns `2·oj` and `2·oj + 1`.
struct S2Planes {
    go: [f32; S2_PLANE],
    phase: [[f32; S2_PLANE]; 4],
}

impl S2Planes {
    fn new() -> Self {
        S2Planes {
            go: [0.0; S2_PLANE],
            phase: [[0.0; S2_PLANE]; 4],
        }
    }

    /// Whether a channel with `ow` output columns fits at least one band.
    fn fits(ow: usize) -> bool {
        3 * (ow + 1) < S2_PLANE
    }
}

/// Splits input row `row` (all zeros outside `0..h`) into its even columns
/// `e[1..=ow]` and odd columns `q[1..]`, behind a zero at `e[0]` / `q[0]`
/// and zero-filled past the row's end.
fn split_row(chan_in: &[f32], row: isize, h: usize, w: usize, e: &mut [f32], q: &mut [f32]) {
    if row < 0 || row as usize >= h {
        e.fill(0.0);
        q.fill(0.0);
        return;
    }
    let in_row = &chan_in[row as usize * w..][..w];
    (e[0], q[0]) = (0.0, 0.0);
    for ((pair, e), q) in in_row.chunks_exact(2).zip(&mut e[1..]).zip(&mut q[1..]) {
        *e = pair[0];
        *q = pair[1];
    }
    if w % 2 == 1 {
        // the last even column has no odd partner
        (e[e.len() - 1], q[q.len() - 1]) = (in_row[w - 1], 0.0);
    }
}

/// Writes one input row from its even-column and odd-column values (an
/// index loop over equally long slices, which vectorises as shuffles).
fn interleave(row: &mut [f32], even: &[f32], odd: &[f32]) {
    let half = row.len() / 2;
    let (pairs, e, o) = (&mut row[..2 * half], &even[..half], &odd[..half]);
    for b in 0..half {
        pairs[2 * b] = e[b];
        pairs[2 * b + 1] = o[b];
    }
    if row.len() % 2 == 1 {
        row[2 * half] = even[half];
    }
}

/// The backward body of one 3×3 stride-2 pad-1 channel whose weights and
/// `grad_out` are all finite, a band of output rows at a time. Returns
/// `false`, with `chan_gw` untouched, when a weight gradient comes out
/// infinite or NaN: every input element is sampled by some tap, so that is
/// the case whenever the input is not all finite, and the caller then runs
/// [`backward_generic`] instead.
///
/// The band's `grad_out` rows and the input rows they sample are laid out in
/// [`S2Planes`], zero-padded so that every tap reads at one fixed offset
/// from the `grad_out` element: each of the nine weight gradients is one
/// flat lane-split dot product over the band, and each parity class of the
/// input gradient one flat pass of products and sums over it, interleaved
/// into the input rows at the end. The zero column and the zero padding
/// only ever contribute products of zero with finite values, which leave a
/// sum's value alone. The input gradient adds each tap's term in
/// [`backward_generic`]'s order from a `+0` start, so it is that loop's
/// bits exactly (an extra `w·0` term adds a zero to a sum that is never
/// `−0`); the weight gradient's sums run in another lane order than the
/// generic loop's row-by-row ones, so they may differ in the last bits.
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn backward_3x3_s2p1(
    chan_in: &[f32],
    chan_w: &[f32],
    chan_go: &[f32],
    chan_gin: &mut [f32],
    chan_gw: &mut [f32],
    h: usize,
    w: usize,
    p: &mut S2Planes,
) -> bool {
    let (oh, ow) = ((h - 1) / 2 + 1, (w - 1) / 2 + 1);
    let s = ow + 1;
    // output rows per band: `go` holds the band plus one row and a zero
    let band = S2_PLANE / s - 2;
    let [w00, w01, w02, w10, w11, w12, w20, w21, w22] = <[f32; 9]>::try_from(chan_w).unwrap();
    let mut acc = [LaneSum::default(); 9];
    for a0 in (0..oh).step_by(band) {
        let rows = band.min(oh - a0);
        let n = rows * s;
        for r in 0..=rows {
            let g = &mut p.go[r * s..][..s];
            g[0] = 0.0;
            match chan_go.get((a0 + r) * ow..(a0 + r + 1) * ow) {
                Some(go_row) => g[1..].copy_from_slice(go_row),
                None => g[1..].fill(0.0),
            }
        }
        p.go[(rows + 1) * s] = 0.0;
        let go = &p.go;

        // weight gradient: tap (ki, kj) pairs `go[t]` with phase element
        // t + (ki == 2)·s − (kj == 0); `go[0]` is a zero, so the runs
        // start at 1
        let [ev_e, ev_q, od_e, od_q] = &mut p.phase;
        for r in 0..=rows {
            let a = (a0 + r) as isize;
            let (e, q) = (&mut od_e[r * s..][..s], &mut od_q[r * s..][..s]);
            split_row(chan_in, 2 * a - 1, h, w, e, q);
            if r < rows {
                let (e, q) = (&mut ev_e[r * s..][..s], &mut ev_q[r * s..][..s]);
                split_row(chan_in, 2 * a, h, w, e, q);
            }
        }
        for (tap, lanes) in acc.iter_mut().enumerate() {
            let (ki, kj) = (tap / 3, tap % 3);
            let phase = &p.phase[2 * usize::from(ki != 1) + usize::from(kj != 1)];
            let off = if ki == 2 { s } else { 0 } + usize::from(kj != 0);
            lanes.add_dot(&go[1..n], &phase[off..off + n - 1]);
        }

        // input gradient: input row 2·oi takes kernel row 1 of grad_out row
        // oi, input row 2·oi + 1 kernel row 0 of row oi + 1 (`+ s`) and
        // kernel row 2 of row oi; input column 2·oj likewise takes kernel
        // column 1 of column oj, input column 2·oj + 1 kernel column 0 of
        // column oj + 1 (`+ 1`) and kernel column 2 of column oj
        let (g, g1) = (&go[..n], &go[1..][..n]);
        let (gs, gs1) = (&go[s..][..n], &go[s + 1..][..n]);
        let [ee, eo, oe, oo] = &mut p.phase;
        let (ee, eo, oe, oo) = (&mut ee[..n], &mut eo[..n], &mut oe[..n], &mut oo[..n]);
        for i in 0..n {
            ee[i] = 0.0 + w11 * g[i];
            eo[i] = (0.0 + w10 * g1[i]) + w12 * g[i];
            oe[i] = (0.0 + w01 * gs[i]) + w21 * g[i];
            oo[i] = (((0.0 + w00 * gs1[i]) + w02 * gs[i]) + w20 * g1[i]) + w22 * g[i];
        }
        for r in 0..rows {
            let ii = 2 * (a0 + r);
            let t = r * s + 1;
            interleave(&mut chan_gin[ii * w..][..w], &ee[t..], &eo[t..]);
            if ii + 1 < h {
                interleave(&mut chan_gin[(ii + 1) * w..][..w], &oe[t..], &oo[t..]);
            }
        }
    }
    let totals = acc.map(|lanes| lanes.total());
    if !totals.iter().all(|t| t.is_finite()) {
        return false;
    }
    for (tap, (g, total)) in chan_gw.iter_mut().zip(totals).enumerate() {
        // as in backward_generic, a tap whose column range is empty (the
        // left one of a one-column output, the right one of a one-column
        // input) adds nothing, not even a zero
        let empty = match tap % 3 {
            0 => ow < 2,
            2 => w < 2,
            _ => false,
        };
        if !empty {
            *g += total;
        }
    }
    true
}

/// The generic tap-by-tap backward body for one channel (any kernel size,
/// stride or padding): zeroes `chan_gin`, then per tap scatters
/// `w_tap · grad_out` into it and reduces `grad_out · input` into the tap's
/// weight gradient, over the tap's [`valid_out_range`] rectangle.
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn backward_generic(
    chan_in: &[f32],
    chan_w: &[f32],
    chan_go: &[f32],
    chan_gin: &mut [f32],
    chan_gw: &mut [f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    chan_gin.fill(0.0);
    for ki in 0..k {
        let (oi_lo, oi_hi) = valid_out_range(h, ki, stride, pad, oh);
        for kj in 0..k {
            let wv = chan_w[ki * k + kj];
            let (oj_lo, oj_hi) = valid_out_range(w, kj, stride, pad, ow);
            if oj_hi <= oj_lo {
                continue;
            }
            let mut acc = LaneSum::default();
            for oi in oi_lo..oi_hi {
                let ii = oi * stride + ki - pad;
                let go_row = &chan_go[oi * ow + oj_lo..oi * ow + oj_hi];
                if stride == 1 {
                    let jj0 = ii * w + oj_lo + kj - pad;
                    acc.add_dot(go_row, &chan_in[jj0..jj0 + go_row.len()]);
                    let gin_row = &mut chan_gin[jj0..jj0 + go_row.len()];
                    for (g, &o) in gin_row.iter_mut().zip(go_row.iter()) {
                        *g += wv * o;
                    }
                } else {
                    let in_row = &chan_in[ii * w..(ii + 1) * w];
                    let gin_row = &mut chan_gin[ii * w..(ii + 1) * w];
                    // gathers the strided inputs under each run of eight
                    // outputs (a multiple of the lane count, so every
                    // element keeps its lane)
                    for (run, go_run) in go_row.chunks(8).enumerate() {
                        let mut xs = [0.0f32; 8];
                        for (t, (x, &o)) in xs.iter_mut().zip(go_run).enumerate() {
                            let jj = (oj_lo + run * 8 + t) * stride + kj - pad;
                            *x = in_row[jj];
                            gin_row[jj] += wv * o;
                        }
                        acc.add_dot(go_run, &xs[..go_run.len()]);
                    }
                }
            }
            chan_gw[ki * k + kj] += acc.total();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{force_tier, supported_tiers};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scalar per-pixel depthwise reference with the im2col formulation's
    /// padding semantics: a padded tap multiplies the weight by zero.
    #[allow(
        clippy::too_many_arguments,
        reason = "the test oracle takes the kernel's own scalar arguments"
    )]
    fn reference(
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<f32> {
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let mut out = vec![0.0f32; c * oh * ow];
        for ci in 0..c {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = bias[ci];
                    for ki in 0..k {
                        for kj in 0..k {
                            let ii = (oi * stride + ki) as isize - pad as isize;
                            let jj = (oj * stride + kj) as isize - pad as isize;
                            let wv = weights[(ci * k + ki) * k + kj];
                            if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                                acc += wv * input[ci * h * w + ii as usize * w + jj as usize];
                            } else {
                                acc += wv * 0.0;
                            }
                        }
                    }
                    out[(ci * oh + oi) * ow + oj] = acc;
                }
            }
        }
        out
    }

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn matches_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(21);
        for (c, h, w, k, stride, pad) in [
            (1usize, 5usize, 5usize, 3usize, 1usize, 1usize),
            (6, 7, 9, 3, 1, 1),
            (4, 8, 8, 3, 2, 1),
            (3, 6, 6, 5, 1, 2),
            (5, 9, 7, 5, 2, 2),
            (2, 4, 4, 1, 1, 0), // pointwise-depthwise degenerate case
            (2, 6, 5, 3, 1, 0), // no padding
        ] {
            let input = rand_vec(&mut rng, c * h * w);
            let weights = rand_vec(&mut rng, c * k * k);
            let bias = rand_vec(&mut rng, c);
            let expect = reference(&input, &weights, &bias, c, h, w, k, stride, pad);
            let mut got = vec![7.0f32; expect.len()]; // stale contents must be overwritten
            depthwise_conv2d(
                &input, &weights, &bias, None, &mut got, c, h, w, k, stride, pad,
            );
            for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
                assert!(
                    (e - g).abs() <= 1e-5 * e.abs().max(1.0),
                    "c={c} {h}x{w} k={k} s={stride} p={pad}: element {i}: {e} vs {g}"
                );
            }
        }
    }

    #[test]
    fn epilogue_matches_scalar_semantics_including_nan() {
        let mut rng = StdRng::seed_from_u64(22);
        let (c, h, w, k, stride, pad) = (3usize, 6usize, 6usize, 3usize, 1usize, 1usize);
        let mut input = rand_vec(&mut rng, c * h * w);
        input[h * w + 8] = f32::NAN; // poison one pixel of channel 1
        let weights = rand_vec(&mut rng, c * k * k);
        let zero_bias = vec![0.0f32; c];
        let scale = rand_vec(&mut rng, c);
        let shift = rand_vec(&mut rng, c);
        let plain = reference(&input, &weights, &zero_bias, c, h, w, k, stride, pad);
        for act in [EpilogueAct::None, EpilogueAct::Relu, EpilogueAct::HardSwish] {
            let ep = Epilogue {
                scale: &scale,
                shift: &shift,
                act,
            };
            let mut got = vec![0.0f32; plain.len()];
            depthwise_conv2d(
                &input,
                &weights,
                &zero_bias,
                Some(ep),
                &mut got,
                c,
                h,
                w,
                k,
                stride,
                pad,
            );
            for (i, (p, g)) in plain.iter().zip(got.iter()).enumerate() {
                let ci = i / (h * w);
                let e = act.apply(p * scale[ci] + shift[ci]);
                assert_eq!(
                    e.is_nan(),
                    g.is_nan(),
                    "{act:?}: element {i}: NaN divergence {e} vs {g}"
                );
                if !e.is_nan() {
                    assert!(
                        (e - g).abs() <= 1e-5 * e.abs().max(1.0),
                        "{act:?}: element {i}: {e} vs {g}"
                    );
                }
            }
        }
    }

    /// The bits of `v`, with every NaN collapsed to one pattern (which
    /// operand's payload a NaN result carries is not something Rust pins).
    fn bits(v: &[f32]) -> Vec<u32> {
        let canon = |x: &f32| if x.is_nan() { u32::MAX } else { x.to_bits() };
        v.iter().map(canon).collect()
    }

    /// `None` (the bias path) and every epilogue activation.
    const POSTS: [Option<EpilogueAct>; 4] = [
        None,
        Some(EpilogueAct::None),
        Some(EpilogueAct::Relu),
        Some(EpilogueAct::HardSwish),
    ];

    /// One 3×3 pad-1 forward on `tier`, with `post` as in [`POSTS`].
    #[allow(
        clippy::too_many_arguments,
        reason = "the test oracle takes the kernel's own scalar arguments"
    )]
    fn run_on(
        tier: Isa,
        input: &[f32],
        weights: &[f32],
        affine: (&[f32], &[f32]),
        post: Option<EpilogueAct>,
        (c, h, w, stride): (usize, usize, usize, usize),
    ) -> Vec<f32> {
        let (oh, ow) = ((h - 1) / stride + 1, (w - 1) / stride + 1);
        let mut out = vec![7.0f32; c * oh * ow];
        let ep = post.map(|act| Epilogue {
            scale: affine.0,
            shift: affine.1,
            act,
        });
        force_tier(Some(tier));
        depthwise_conv2d(
            input, weights, affine.1, ep, &mut out, c, h, w, 3, stride, 1,
        );
        force_tier(None);
        out
    }

    #[test]
    fn vector_tiers_equal_the_portable_tier_bit_for_bit() {
        const EXTENTS: [usize; 11] = [1, 2, 3, 4, 7, 8, 15, 16, 17, 31, 33];
        let mut rng = StdRng::seed_from_u64(31);
        for tier in supported_tiers() {
            for stride in [1usize, 2] {
                for (h, w, c) in EXTENTS
                    .iter()
                    .flat_map(|&h| EXTENTS.iter().map(move |&w| (h, w)))
                    .flat_map(|(h, w)| [1usize, 3].map(|c| (h, w, c)))
                {
                    // signed zeros ride along: a skipped tap and a product
                    // by zero differ exactly there
                    let mut input = rand_vec(&mut rng, c * h * w);
                    for v in input.iter_mut() {
                        if rng.gen_bool(0.1) {
                            *v = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                        }
                    }
                    let weights = rand_vec(&mut rng, c * 9);
                    let (scale, shift) = (rand_vec(&mut rng, c), rand_vec(&mut rng, c));
                    for post in POSTS {
                        let dims = (c, h, w, stride);
                        let affine = (&scale[..], &shift[..]);
                        let expect = run_on(Isa::Portable, &input, &weights, affine, post, dims);
                        let got = run_on(tier, &input, &weights, affine, post, dims);
                        assert_eq!(
                            bits(&expect),
                            bits(&got),
                            "{tier:?} s={stride} {h}x{w} c={c} {post:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signed_zeros_come_out_as_the_tap_loops_left_them() {
        // nine products of -0.0: summed from the first product they stay
        // -0.0, summed from a +0.0 accumulator they become +0.0. The loops
        // this kernel replaced did the former on the interior rows of a
        // stride-1 channel and the latter everywhere else; an identity
        // epilogue (·1, + -0.0) shows which one ran
        let (h, w) = (5usize, 5usize);
        let (input, weights) = (vec![0.0f32; h * w], vec![-1.0f32; 9]);
        let affine = (&[1.0f32][..], &[-0.0f32][..]);
        for tier in supported_tiers() {
            for stride in [1usize, 2] {
                let dims = (1, h, w, stride);
                let got = run_on(
                    tier,
                    &input,
                    &weights,
                    affine,
                    Some(EpilogueAct::None),
                    dims,
                );
                let ow = (w - 1) / stride + 1;
                for (i, v) in got.iter().enumerate() {
                    let interior_row = stride == 1 && (1..h - 1).contains(&(i / ow));
                    assert_eq!(
                        v.to_bits(),
                        if interior_row { -0.0f32 } else { 0.0f32 }.to_bits(),
                        "{tier:?} s={stride} element {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_pixels_and_weights_land_where_im2col_puts_them_on_every_tier() {
        let mut rng = StdRng::seed_from_u64(32);
        let tiers: Vec<Isa> = supported_tiers().collect();
        for (stride, h, w) in [
            (1usize, 6usize, 7usize),
            (2, 6, 7),
            (1, 16, 16),
            (2, 16, 16),
            (1, 2, 17),
            (2, 2, 17),
            (1, 5, 1),
            (2, 5, 1),
        ] {
            let c = 3;
            let zero_bias = vec![0.0f32; c];
            let (scale, shift) = (rand_vec(&mut rng, c), rand_vec(&mut rng, c));
            // channel 1 is poisoned: a border or interior pixel, or a border
            // (corner, edge) or centre tap weight
            let pixels = [0, w - 1, (h - 1) * w, h * w - 1, (h / 2) * w + w / 2];
            let sites = pixels
                .map(|at| (true, at))
                .into_iter()
                .chain([0usize, 1, 5, 8, 4].map(|tap| (false, tap)));
            for (in_input, at) in sites {
                for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut input = rand_vec(&mut rng, c * h * w);
                    let mut weights = rand_vec(&mut rng, c * 9);
                    if in_input {
                        input[h * w + at] = value;
                    } else {
                        weights[9 + at] = value;
                    }
                    let plain = reference(&input, &weights, &zero_bias, c, h, w, 3, stride, 1);
                    let channel = plain.len() / c;
                    for post in POSTS {
                        let expect: Vec<f32> = match post {
                            None => plain
                                .iter()
                                .enumerate()
                                .map(|(i, p)| p + shift[i / channel])
                                .collect(),
                            Some(act) => plain
                                .iter()
                                .enumerate()
                                .map(|(i, p)| {
                                    act.apply(p * scale[i / channel] + shift[i / channel])
                                })
                                .collect(),
                        };
                        for &tier in &tiers {
                            let dims = (c, h, w, stride);
                            let got = run_on(tier, &input, &weights, (&scale, &shift), post, dims);
                            let what = format!(
                                "{tier:?} s={stride} {h}x{w} input={in_input} at={at} {value} {post:?}"
                            );
                            assert_close_or_both_nan(&expect, &got, &what);
                        }
                    }
                }
            }
        }
    }

    /// Scalar adjoint of the im2col formulation: padded taps multiply
    /// `grad_out` by a literal zero, as the column matrix does.
    #[allow(
        clippy::too_many_arguments,
        reason = "the test oracle takes the kernel's own scalar arguments"
    )]
    fn reference_backward(
        input: &[f32],
        weights: &[f32],
        go: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let mut gin = vec![0.0f32; c * h * w];
        let mut gw = vec![0.0f32; c * k * k];
        let mut gb = vec![0.0f32; c];
        for ci in 0..c {
            for oi in 0..oh {
                for oj in 0..ow {
                    let g = go[(ci * oh + oi) * ow + oj];
                    gb[ci] += g;
                    for ki in 0..k {
                        for kj in 0..k {
                            let ii = (oi * stride + ki) as isize - pad as isize;
                            let jj = (oj * stride + kj) as isize - pad as isize;
                            let tap = (ci * k + ki) * k + kj;
                            if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                                let at = ci * h * w + ii as usize * w + jj as usize;
                                gw[tap] += g * input[at];
                                gin[at] += weights[tap] * g;
                            } else {
                                gw[tap] += g * 0.0;
                            }
                        }
                    }
                }
            }
        }
        (gin, gw, gb)
    }

    /// Shapes for the backward sweeps: the 3×3 s1 p1 and s2 p1 special
    /// cases (square, ragged, minimal), 5×5, unpadded and pointwise.
    const BACKWARD_SHAPES: [(usize, usize, usize, usize, usize, usize); 11] = [
        (1, 5, 5, 3, 1, 1),
        (6, 7, 9, 3, 1, 1),
        (3, 16, 16, 3, 1, 1),
        (2, 2, 2, 3, 1, 1),
        (4, 8, 8, 3, 2, 1),
        (3, 7, 9, 3, 2, 1),
        (2, 1, 2, 3, 2, 1),
        (3, 6, 6, 5, 1, 2),
        (5, 9, 7, 5, 2, 2),
        (2, 4, 4, 1, 1, 0),
        (2, 6, 5, 3, 1, 0),
    ];

    fn assert_close_or_both_nan(expect: &[f32], got: &[f32], what: &str) {
        assert_eq!(expect.len(), got.len());
        for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
            assert_eq!(e.is_nan(), g.is_nan(), "{what}: element {i}: {e} vs {g}");
            // `e == g` covers matching infinities, whose difference is NaN
            if !e.is_nan() && e != g {
                assert!(
                    (e - g).abs() <= 1e-4 * e.abs().max(1.0),
                    "{what}: element {i}: {e} vs {g}"
                );
            }
        }
    }

    #[test]
    fn backward_matches_reference_across_shapes_and_accumulates() {
        let mut rng = StdRng::seed_from_u64(23);
        for (c, h, w, k, stride, pad) in BACKWARD_SHAPES {
            let oh = (h + 2 * pad - k) / stride + 1;
            let ow = (w + 2 * pad - k) / stride + 1;
            let input = rand_vec(&mut rng, c * h * w);
            let weights = rand_vec(&mut rng, c * k * k);
            let go = rand_vec(&mut rng, c * oh * ow);
            let (gin, gw, gb) = reference_backward(&input, &weights, &go, c, h, w, k, stride, pad);
            // grad_in is overwritten, grad_w / grad_b are accumulated into
            let mut got_gin = vec![7.0f32; gin.len()];
            let mut got_gw = vec![1.0f32; gw.len()];
            let mut got_gb = vec![-2.0f32; gb.len()];
            depthwise_conv2d_backward(
                &input,
                &weights,
                &go,
                &mut got_gin,
                &mut got_gw,
                &mut got_gb,
                c,
                h,
                w,
                k,
                stride,
                pad,
            );
            let what = format!("c={c} {h}x{w} k={k} s={stride} p={pad}");
            let gw: Vec<f32> = gw.iter().map(|v| v + 1.0).collect();
            let gb: Vec<f32> = gb.iter().map(|v| v - 2.0).collect();
            assert_close_or_both_nan(&gin, &got_gin, &format!("{what} grad_in"));
            assert_close_or_both_nan(&gw, &got_gw, &format!("{what} grad_w"));
            assert_close_or_both_nan(&gb, &got_gb, &format!("{what} grad_b"));
        }
    }

    #[test]
    fn stride_2_backward_matches_the_generic_loop() {
        // every extent from 1 to 17 in each direction (both parities, the
        // degenerate one- and two-column rows) and one too tall for a single
        // band, with signed zeros riding along: the input gradient is the
        // generic loop's bits, the weight gradient its value; grad_w starts
        // from a signed zero so a skipped tap and an added empty sum differ
        let mut rng = StdRng::seed_from_u64(25);
        let mut planes = S2Planes::new();
        let extents = (1..=17usize).flat_map(|h| (1..=17usize).map(move |w| (h, w)));
        for (h, w) in extents.chain([(131, 61)]) {
            let (oh, ow) = ((h - 1) / 2 + 1, (w - 1) / 2 + 1);
            let mut input = rand_vec(&mut rng, h * w);
            let mut go = rand_vec(&mut rng, oh * ow);
            for v in input.iter_mut().chain(go.iter_mut()) {
                if rng.gen_bool(0.1) {
                    *v = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                }
            }
            let weights = rand_vec(&mut rng, 9);
            let (mut gin, mut gw) = (vec![7.0f32; h * w], vec![-0.0f32; 9]);
            assert!(backward_3x3_s2p1(
                &input,
                &weights,
                &go,
                &mut gin,
                &mut gw,
                h,
                w,
                &mut planes
            ));
            let (mut gin_ref, mut gw_ref) = (vec![7.0f32; h * w], vec![-0.0f32; 9]);
            backward_generic(
                &input,
                &weights,
                &go,
                &mut gin_ref,
                &mut gw_ref,
                h,
                w,
                3,
                2,
                1,
                oh,
                ow,
            );
            assert_eq!(bits(&gin_ref), bits(&gin), "{h}x{w} grad_in");
            for (tap, (e, g)) in gw_ref.iter().zip(&gw).enumerate() {
                if e.to_bits() == (-0.0f32).to_bits() {
                    assert_eq!(g.to_bits(), e.to_bits(), "{h}x{w} grad_w[{tap}] skipped");
                } else {
                    assert!(
                        (e - g).abs() <= 1e-5 * e.abs().max(1.0),
                        "{h}x{w} grad_w[{tap}]: {e} vs {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn backward_puts_non_finite_values_where_the_reference_does() {
        let mut rng = StdRng::seed_from_u64(24);
        for (c, h, w, k, stride, pad) in BACKWARD_SHAPES {
            let oh = (h + 2 * pad - k) / stride + 1;
            let ow = (w + 2 * pad - k) / stride + 1;
            let weights = rand_vec(&mut rng, c * k * k);
            // a poisoned corner (its border taps land in the padding), a
            // poisoned interior element, NaN and infinity, in either operand
            for (in_poison, go_poison, at_corner) in [
                (Some(f32::NAN), None, true),
                (Some(f32::NAN), None, false),
                (None, Some(f32::NAN), true),
                (None, Some(f32::NAN), false),
                (None, Some(f32::INFINITY), true),
                (Some(f32::INFINITY), None, false),
            ] {
                let mut input = rand_vec(&mut rng, c * h * w);
                let mut go = rand_vec(&mut rng, c * oh * ow);
                // the last channel is poisoned, the others must stay clean
                if let Some(v) = in_poison {
                    let at = if at_corner { 0 } else { (h / 2) * w + w / 2 };
                    input[(c - 1) * h * w + at] = v;
                }
                if let Some(v) = go_poison {
                    let at = if at_corner { 0 } else { (oh / 2) * ow + ow / 2 };
                    go[(c - 1) * oh * ow + at] = v;
                }
                let (gin, gw, gb) =
                    reference_backward(&input, &weights, &go, c, h, w, k, stride, pad);
                let mut got_gin = vec![0.0f32; gin.len()];
                let mut got_gw = vec![0.0f32; gw.len()];
                let mut got_gb = vec![0.0f32; gb.len()];
                depthwise_conv2d_backward(
                    &input,
                    &weights,
                    &go,
                    &mut got_gin,
                    &mut got_gw,
                    &mut got_gb,
                    c,
                    h,
                    w,
                    k,
                    stride,
                    pad,
                );
                let what = format!(
                    "c={c} {h}x{w} k={k} s={stride} p={pad} in={in_poison:?} go={go_poison:?} corner={at_corner}"
                );
                assert_close_or_both_nan(&gin, &got_gin, &format!("{what} grad_in"));
                assert_close_or_both_nan(&gw, &got_gw, &format!("{what} grad_w"));
                assert_close_or_both_nan(&gb, &got_gb, &format!("{what} grad_b"));
            }
        }
    }
}
