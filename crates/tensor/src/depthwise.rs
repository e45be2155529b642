//! Direct depthwise convolution: one spatial micro-kernel per channel, no
//! im2col materialisation.
//!
//! A depthwise convolution (`groups == in_channels == out_channels`) turns
//! the im2col→GEMM strategy into its worst case: per channel the "GEMM" is a
//! `1 × k² × (oh·ow)` product, so the engine spends more time writing and
//! re-reading the column matrix than multiplying. This module convolves each
//! channel directly: the kernel taps are iterated in the outer loops and the
//! inner loop runs contiguously along an output row
//! (`out_row[j] += w_tap * in_row[j + kj - pad]` for stride 1), which the
//! compiler auto-vectorises into packed FMA over the row. The optional
//! per-channel scale/shift + activation epilogue is applied in a final pass
//! over the freshly-computed (cache-hot) channel block, matching
//! [`crate::gemm_epilogue`]'s semantics exactly — including NaN behaviour,
//! since it reuses the same scalar [`crate::EpilogueAct::apply`].
//!
//! [`depthwise_conv2d_backward`] is the training twin: per channel it
//! produces the input gradient and accumulates the `k²` weight gradients and
//! the bias gradient straight from the input and `grad_out` blocks, in the
//! same tap-outer / contiguous-row-inner shape — the im2col route spent its
//! time building, transposing and multiplying a `k² × (oh·ow)` column matrix
//! per (sample, channel) for `2·k²·oh·ow` useful multiply-adds.

use crate::gemm::Epilogue;

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
/// The output block is fully overwritten. No scratch is needed — this is
/// the allocation-free backend for the depthwise layers of the mobile zoo.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape contract.
#[allow(clippy::too_many_arguments)]
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

    for ci in 0..c {
        let chan_in = &input[ci * h * w..(ci + 1) * h * w];
        let chan_w = &weights[ci * k * k..(ci + 1) * k * k];
        let chan_out = &mut out[ci * oh * ow..(ci + 1) * oh * ow];
        // the mobile zoo's one true depthwise shape gets a single-pass
        // micro-kernel: all nine taps accumulate in registers per output
        // element instead of nine read-modify-write sweeps over the row
        // (which dominate at the zoo's small spatial extents)
        if k == 3 && stride == 1 && pad == 1 && h >= 2 && w >= 2 {
            depthwise3x3_s1p1(chan_in, chan_w, chan_out, h, w);
        } else {
            depthwise_generic(chan_in, chan_w, chan_out, h, w, k, stride, pad, oh, ow);
        }
        // epilogue / bias over the cache-hot channel block
        match ep {
            Some(e) => {
                for v in chan_out.iter_mut() {
                    *v = e.apply_scalar(ci, *v);
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

/// Single-pass 3×3 stride-1 pad-1 depthwise kernel for one channel:
/// `out` has the same `h × w` extent as the input. Interior rows unroll all
/// nine taps into one register accumulation per output element (the inner
/// column loop vectorises); the four borders run the tap-by-tap fallback.
fn depthwise3x3_s1p1(input: &[f32], wgt: &[f32], out: &mut [f32], h: usize, w: usize) {
    let (w00, w01, w02) = (wgt[0], wgt[1], wgt[2]);
    let (w10, w11, w12) = (wgt[3], wgt[4], wgt[5]);
    let (w20, w21, w22) = (wgt[6], wgt[7], wgt[8]);
    for oi in 1..h.saturating_sub(1) {
        let r0 = &input[(oi - 1) * w..oi * w];
        let r1 = &input[oi * w..(oi + 1) * w];
        let r2 = &input[(oi + 1) * w..(oi + 2) * w];
        let out_row = &mut out[oi * w..(oi + 1) * w];
        for j in 1..w - 1 {
            out_row[j] = w00 * r0[j - 1]
                + w01 * r0[j]
                + w02 * r0[j + 1]
                + w10 * r1[j - 1]
                + w11 * r1[j]
                + w12 * r1[j + 1]
                + w20 * r2[j - 1]
                + w21 * r2[j]
                + w22 * r2[j + 1];
        }
        // left/right padded columns: the out-of-image taps contribute zero
        out_row[0] =
            w01 * r0[0] + w02 * r0[1] + w11 * r1[0] + w12 * r1[1] + w21 * r2[0] + w22 * r2[1];
        out_row[w - 1] = w00 * r0[w - 2]
            + w01 * r0[w - 1]
            + w10 * r1[w - 2]
            + w11 * r1[w - 1]
            + w20 * r2[w - 2]
            + w21 * r2[w - 1];
    }
    // top and bottom padded rows through the generic tap loop
    for oi in [0, h - 1] {
        let out_row = &mut out[oi * w..(oi + 1) * w];
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut acc = 0.0;
            for r in 0..3 {
                let ii = oi as isize + r as isize - 1;
                if ii < 0 || ii >= h as isize {
                    continue;
                }
                for cc in 0..3 {
                    let jj = j as isize + cc as isize - 1;
                    if jj >= 0 && jj < w as isize {
                        acc += wgt[r * 3 + cc] * input[ii as usize * w + jj as usize];
                    }
                }
            }
            *o = acc;
        }
    }
}

/// The generic tap-by-tap depthwise body for one channel (any kernel size,
/// stride or padding): accumulates the raw convolution into `out`, whose
/// padding fringe stays at the zero established by the initial fill.
#[allow(clippy::too_many_arguments)]
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

/// Independent partial sums a row dot product is split over, so the
/// reduction is not one serial chain of dependent adds (and vectorises).
const LANES: usize = 8;

/// `acc[i % LANES] += a[i]·b[i]` for two equally long rows; the caller sums
/// the lanes at the end.
#[inline]
fn dot_lanes(acc: &mut [f32; LANES], a: &[f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    for ((lane, x), y) in acc.iter_mut().zip(ca.remainder()).zip(cb.remainder()) {
        *lane += x * y;
    }
}

/// `Σ xs[i]`, split over [`LANES`] partial sums like [`dot_lanes`].
fn sum_lanes(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for l in 0..LANES {
            acc[l] += chunk[l];
        }
    }
    for (lane, x) in acc.iter_mut().zip(chunks.remainder()) {
        *lane += x;
    }
    acc.iter().sum()
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
/// them back literally (`add_padding_products`), which finite training never
/// pays for.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape contract.
#[allow(clippy::too_many_arguments)]
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
            // the forward's register-accumulating micro-kernel does it
            let mut rotated = [0.0f32; 9];
            for (r, &v) in rotated.iter_mut().zip(chan_w.iter().rev()) {
                *r = v;
            }
            depthwise3x3_s1p1(chan_go, &rotated, chan_gin, h, w);
            grad_w_3x3_s1p1(chan_in, chan_go, chan_gw, h, w);
        } else {
            backward_generic(
                chan_in, chan_w, chan_go, chan_gin, chan_gw, h, w, k, stride, pad, oh, ow,
            );
        }
        if pad > 0 && !go_sum.is_finite() {
            add_padding_products(chan_go, chan_gw, h, w, k, stride, pad, oh, ow);
        }
    }
}

/// Weight gradient of one 3×3 stride-1 pad-1 channel in a single sweep over
/// the output rows: each of the (up to) nine taps is a dot product of the
/// `grad_out` row with a shifted input row, kept as [`LANES`] partial sums
/// across all rows and reduced once at the end.
fn grad_w_3x3_s1p1(input: &[f32], go: &[f32], gw: &mut [f32], h: usize, w: usize) {
    let mut acc = [[0.0f32; LANES]; 9];
    for oi in 0..h {
        let go_row = &go[oi * w..(oi + 1) * w];
        // input rows oi-1, oi, oi+1 that exist
        let ki_lo = usize::from(oi == 0);
        let ki_hi = 3 - usize::from(oi + 1 == h);
        for ki in ki_lo..ki_hi {
            let ii = oi + ki - 1;
            let in_row = &input[ii * w..(ii + 1) * w];
            dot_lanes(&mut acc[ki * 3], &go_row[1..], &in_row[..w - 1]);
            dot_lanes(&mut acc[ki * 3 + 1], go_row, in_row);
            dot_lanes(&mut acc[ki * 3 + 2], &go_row[..w - 1], &in_row[1..]);
        }
    }
    for (g, lanes) in gw.iter_mut().zip(acc.iter()) {
        *g += lanes.iter().sum::<f32>();
    }
}

/// The generic tap-by-tap backward body for one channel (any kernel size,
/// stride or padding): zeroes `chan_gin`, then per tap scatters
/// `w_tap · grad_out` into it and reduces `grad_out · input` into the tap's
/// weight gradient, over the tap's [`valid_out_range`] rectangle.
#[allow(clippy::too_many_arguments)]
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
            let mut acc = [0.0f32; LANES];
            for oi in oi_lo..oi_hi {
                let ii = oi * stride + ki - pad;
                let go_row = &chan_go[oi * ow + oj_lo..oi * ow + oj_hi];
                if stride == 1 {
                    let jj0 = ii * w + oj_lo + kj - pad;
                    dot_lanes(&mut acc, go_row, &chan_in[jj0..jj0 + go_row.len()]);
                    let gin_row = &mut chan_gin[jj0..jj0 + go_row.len()];
                    for (g, &o) in gin_row.iter_mut().zip(go_row.iter()) {
                        *g += wv * o;
                    }
                } else {
                    let in_row = &chan_in[ii * w..(ii + 1) * w];
                    let gin_row = &mut chan_gin[ii * w..(ii + 1) * w];
                    for (idx, &o) in go_row.iter().enumerate() {
                        let jj = (oj_lo + idx) * stride + kj - pad;
                        acc[idx % LANES] += o * in_row[jj];
                        gin_row[jj] += wv * o;
                    }
                }
            }
            chan_gw[ki * k + kj] += acc.iter().sum::<f32>();
        }
    }
}

/// Adds, per tap, the `grad_out · 0` products of the output positions whose
/// sampled input lies in the padding — exactly the terms the im2col
/// formulation computes and the direct loops skip. They are zero unless
/// `grad_out` holds a NaN or an infinity there, so only a channel whose
/// `grad_out` sum is not finite calls this.
#[allow(clippy::too_many_arguments)]
fn add_padding_products(
    chan_go: &[f32],
    chan_gw: &mut [f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    for ki in 0..k {
        let (oi_lo, oi_hi) = valid_out_range(h, ki, stride, pad, oh);
        for kj in 0..k {
            let (oj_lo, oj_hi) = valid_out_range(w, kj, stride, pad, ow);
            let mut acc = 0.0f32;
            for oi in 0..oh {
                let row_valid = (oi_lo..oi_hi).contains(&oi);
                for oj in 0..ow {
                    if !(row_valid && (oj_lo..oj_hi).contains(&oj)) {
                        acc += chan_go[oi * ow + oj] * 0.0;
                    }
                }
            }
            chan_gw[ki * k + kj] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::EpilogueAct;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scalar per-pixel depthwise reference.
    #[allow(clippy::too_many_arguments)]
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
                            if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                                acc += weights[(ci * k + ki) * k + kj]
                                    * input[ci * h * w + ii as usize * w + jj as usize];
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
        for act in [
            EpilogueAct::None,
            EpilogueAct::Relu,
            EpilogueAct::LeakyRelu(0.1),
            EpilogueAct::Relu6,
        ] {
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

    /// Scalar adjoint of the im2col formulation: padded taps multiply
    /// `grad_out` by a literal zero, as the column matrix does.
    #[allow(clippy::too_many_arguments)]
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

    /// Shapes for the backward sweeps: the 3×3 s1 p1 special case (square,
    /// ragged, minimal), strided, 5×5, unpadded and pointwise.
    const BACKWARD_SHAPES: [(usize, usize, usize, usize, usize, usize); 9] = [
        (1, 5, 5, 3, 1, 1),
        (6, 7, 9, 3, 1, 1),
        (3, 16, 16, 3, 1, 1),
        (2, 2, 2, 3, 1, 1),
        (4, 8, 8, 3, 2, 1),
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
