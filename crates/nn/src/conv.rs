//! 2-D convolution with optional grouping (covers depthwise convolution).
//!
//! **Inference** is one `&self` body, [`Conv2d::infer_epilogue`], behind
//! [`Layer::infer`] (no epilogue) and [`crate::FusedConvBnAct`] (folded
//! scale/shift + activation); its im2col scratch comes from the caller's
//! [`Workspace`]. Which code runs is a pure function of the layer geometry
//! and the input dims — no clock, environment variable, thread-local or
//! per-layer override takes part. Two backends ([`Conv2d::planned_algo`])
//! share one parity contract (same output, same fused-epilogue semantics):
//!
//! * [`ConvAlgo::DirectDepthwise`] — every depthwise layer: a direct spatial
//!   micro-kernel ([`hs_tensor::depthwise_conv2d`]); its per-channel GEMMs
//!   are too tiny for im2col to pay off.
//! * [`ConvAlgo::Im2colGemm`] — every other layer: per group,
//!   `out = W_g (cout_g x wrow) * col (wrow x ohw)` over the im2col matrix
//!   (a 1×1 stride-1 unpadded convolution's im2col is the identity, so its
//!   GEMM reads the input in place). Skinny per-sample GEMMs — `ohw` below
//!   two register strips, the MobileNet 1×1-at-small-spatial regime — go
//!   through ONE [`hs_tensor::gemm_batch_cyclic_strided`] call over the
//!   whole `groups × samples` item space: each group's weight panel is
//!   packed once and every sample's columns stream through full-width
//!   register strips. Wider ones run one GEMM per (sample, group). Each
//!   route wins where it is used; they cut the columns into different
//!   register tiles, and every tile — full or ragged — is stored by one
//!   rule, so the choice cannot move an output bit.
//!
//! Inference never fans out here: a batch is split across the pool once,
//! by sample range, above the whole plan (`Network::infer`), and inside a
//! range every layer — its GEMMs included — runs serially.
//!
//! The measurements, and the decision records for what was tried and
//! dropped (a Winograd backend, a per-process stopwatch choosing the im2col
//! route), are in `docs/PERF.md` ("Conv backend selection").
//!
//! **Training** forwards through the same body: [`Layer::forward_train`]
//! stores the input and runs [`Conv2d::infer_epilogue`], so the training
//! output is the inference output bit for bit, routes included. The stored
//! input is all [`Layer::backward`] reads. Depthwise layers hand it to
//! [`hs_tensor::depthwise_conv2d_backward`] — no column matrix, transpose
//! or per-channel GEMM. Dense and grouped layers rebuild each (sample,
//! group) column matrix from it (a 1×1 stride-1 unpadded layer reads the
//! input block in place, as inference does) and run two GEMMs whose shapes
//! follow from the geometry alone, each chosen to fill the register tile:
//!
//! * the weight gradient is `dW_g += dOut_g * col^T` (`cout_g × wrow`
//!   tiles) or, when that needs fewer `MR × NR` tiles, its transpose
//!   `dW_g^T += col * dOut_g^T` (`wrow × cout_g`), summed per band into a
//!   zeroed `dW^T` that is transposed once into the band's partial — the
//!   expand convolutions, whose `wrow = cin` is far below a 48-wide strip;
//!   a tie keeps `dW_g`;
//! * the input gradient is `dCol = W_g^T * dOut_g`, folded back by col2im
//!   — written straight into the input gradient when the column is the
//!   identity. Below two register strips of output pixels it runs on the
//!   forward's batched route: one [`hs_tensor::gemm_batch_cyclic_strided`]
//!   per band over its `samples × groups` items.
//!
//! None of these choices moves a gradient bit. Either orientation computes
//! each element as the same chain of multiply-adds over the same `k = ohw`
//! panels (`fma(a, b, c) = fma(b, a, c)` exactly, as is `a * b + c` on the
//! portable tier, and the panel depth depends on `k` only); the batched
//! route stores every tile by the rule the
//! per-item GEMM does; and an in-place store writes exactly the `0 + v`
//! col2im would have added (`tests/conv_backward_bits.rs` pins the bits).
//!
//! Only `forward_train` writes the stored input, so an inference between a
//! training forward and its backward cannot disturb the gradients. Both
//! passes take their scratch — columns, transposes, `W^T` and the band
//! partials — from one layer-held [`Workspace`], reused across steps.
//! Backward cuts the batch into sample bands by a plan that
//! depends on the batch size only; each band accumulates weight/bias
//! gradients into its own partial buffer, reduced in band order
//! afterwards, so no synchronisation happens inside the hot loop and the
//! gradient bits are the same however many threads execute the bands.
//!
//! The seed's scalar path survives as [`Conv2d::forward_reference`] /
//! [`Conv2d::backward_reference`] — the ground truth for parity tests and
//! the baseline for the `nn_kernels` bench. (Its `== 0.0` weight-skip
//! branches were removed: they broke NaN/Inf propagation.)

use crate::layer::store;
use crate::{Layer, Param, State, Workspace};
use hs_tensor::gemm::{MR, NR};
use hs_tensor::{
    depthwise_conv2d, depthwise_conv2d_backward, gemm, gemm_acc, gemm_batch_cyclic_acc_strided,
    gemm_batch_cyclic_strided, gemm_epilogue, he_normal, sum_lanes, transpose_into,
    valid_out_range, Epilogue, EpilogueAct, Tensor,
};
use rand::rngs::StdRng;

/// An inference execution backend for [`Conv2d`].
///
/// Both backends satisfy the same contract: given identical inputs and
/// weights they produce the same output (to ≤1e-4 relative error, pinned by
/// the parity sweeps) and support the fused per-channel scale/shift +
/// activation epilogue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConvAlgo {
    /// im2col followed by a blocked GEMM per (sample, group) — the general
    /// backend, valid for every geometry.
    Im2colGemm,
    /// Direct spatial micro-kernel: valid for depthwise convolutions
    /// (`groups == in_channels == out_channels`).
    DirectDepthwise,
}

/// Per-sample GEMMs with fewer than this many output pixels (`ohw`) take the
/// batched small-GEMM route: below two full register strips the per-call
/// packing/dispatch overhead dominates and cross-sample n-blocking is what
/// fills the register tiles. A constant, so the route is a pure function of
/// the layer geometry and the input dims; every conv the zoo sends down
/// im2col has `ohw ∈ {4, 16, 64, 256, 1024}`, which any value in (64, 256]
/// routes the same way (measurements in `docs/PERF.md`, "Conv backend
/// selection").
const BATCHED_OHW_MAX: usize = 2 * NR;

/// The batched-routing rule as the one-row table
/// `(m_class_floor, k_class_floor, ohw_threshold)` the benchmark's
/// `nn.batched_crossover_*` rows read: every `(m, k)` shape routes batched
/// below the same `ohw`, `2 * NR`.
pub fn batched_gemm_crossovers() -> Vec<(usize, usize, usize)> {
    vec![(1, 1, BATCHED_OHW_MAX)]
}

/// Register tiles an `m × n` GEMM output is cut into. [`Layer::backward`]
/// computes a weight gradient as `dW = dOut · colᵀ` or as `dWᵀ = col · dOutᵀ`,
/// whichever this counts fewer of (a tie keeps `dW`).
fn tiles(m: usize, n: usize) -> usize {
    m.div_ceil(MR) * n.div_ceil(NR)
}

/// Samples per band of a training batch of `n`: `n / 4` bands, at least one
/// and at most eight. [`Layer::backward`] sums its weight and bias gradients
/// band by band, so — like `hs_fl`'s aggregation shard count — the plan is a
/// pure function of the batch size: the same bands, and therefore the same
/// gradient bits, whether they run on one thread, fan out over the pool, or
/// run inline on a pool worker that is already training one FL client.
fn train_band_len(n: usize) -> usize {
    n.div_ceil((n / 4).clamp(1, 8)).max(1)
}

/// Runs `body` on each of the `n_bands` bands of a [`Layer::backward`]:
/// fanned out over the pool, or one after another on the calling thread
/// when there is nobody to share with or only one band. This is the
/// training path's only fan-out (the forward is the serial inference
/// body); the GEMMs inside a band run on the band's thread.
fn run_bands<B: Send>(bands: impl Iterator<Item = B>, n_bands: usize, body: impl Fn(B) + Sync) {
    if n_bands <= 1 || hs_parallel::num_threads() == 1 || hs_parallel::inside_pool() {
        bands.for_each(body);
    } else {
        hs_parallel::scope(|s| {
            for band in bands {
                let body = &body;
                s.spawn(move || body(band));
            }
        });
    }
}

/// Unfolds a single-sample channel block `[c, h, w]` into a column matrix
/// `[c*kh*kw, oh*ow]` (the classic im2col transform), writing into `col`,
/// which must hold exactly `c*kh*kw * oh*ow` elements and is fully
/// overwritten.
///
/// The per-pixel bounds branches of the seed version are replaced by
/// analytically computed valid ranges per output row; the stride-1 case
/// (every conv in the model zoo except downsampling layers) degenerates to
/// `copy_from_slice` row segments, which keeps im2col from dominating the
/// GEMM it feeds.
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn im2col(
    input: &[f32],
    col: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    let ohw = oh * ow;
    debug_assert_eq!(col.len(), c * kh * kw * ohw);
    debug_assert!(
        h + 2 * pad >= kh && w + 2 * pad >= kw,
        "im2col: kernel {kh}x{kw} exceeds the padded input {}x{}",
        h + 2 * pad,
        w + 2 * pad,
    );
    if pad > 0 {
        // only the padding fringe is not overwritten below
        col.fill(0.0);
    }
    for ci in 0..c {
        for ki in 0..kh {
            let (oi_lo, oi_hi) = valid_out_range(h, ki, stride, pad, oh);
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let (oj_lo, oj_hi) = valid_out_range(w, kj, stride, pad, ow);
                if oj_hi <= oj_lo {
                    continue;
                }
                for oi in oi_lo..oi_hi {
                    let ii = oi * stride + ki - pad;
                    let dst_base = row * ohw + oi * ow;
                    let src_base = ci * h * w + ii * w;
                    if stride == 1 {
                        let jj0 = oj_lo + kj - pad;
                        let len = oj_hi - oj_lo;
                        col[dst_base + oj_lo..dst_base + oj_lo + len]
                            .copy_from_slice(&input[src_base + jj0..src_base + jj0 + len]);
                    } else {
                        for oj in oj_lo..oj_hi {
                            col[dst_base + oj] = input[src_base + oj * stride + kj - pad];
                        }
                    }
                }
            }
        }
    }
}

/// Folds a column matrix `[c*kh*kw, oh*ow]` back into a `[c, h, w]` gradient
/// block, accumulating overlapping contributions into `out` (the adjoint of
/// [`im2col`]).
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn col2im(
    col: &[f32],
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    let ohw = oh * ow;
    debug_assert_eq!(out.len(), c * h * w);
    debug_assert!(
        h + 2 * pad >= kh && w + 2 * pad >= kw,
        "col2im: kernel {kh}x{kw} exceeds the padded input {}x{}",
        h + 2 * pad,
        w + 2 * pad,
    );
    for ci in 0..c {
        for ki in 0..kh {
            let (oi_lo, oi_hi) = valid_out_range(h, ki, stride, pad, oh);
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let (oj_lo, oj_hi) = valid_out_range(w, kj, stride, pad, ow);
                if oj_hi <= oj_lo {
                    continue;
                }
                for oi in oi_lo..oi_hi {
                    let ii = oi * stride + ki - pad;
                    let src_base = row * ohw + oi * ow;
                    let dst_base = ci * h * w + ii * w;
                    if stride == 1 {
                        let jj0 = oj_lo + kj - pad;
                        let dst = &mut out[dst_base + jj0..dst_base + jj0 + (oj_hi - oj_lo)];
                        let src = &col[src_base + oj_lo..src_base + oj_hi];
                        for (d, s) in dst.iter_mut().zip(src.iter()) {
                            *d += s;
                        }
                    } else {
                        for oj in oj_lo..oj_hi {
                            out[dst_base + oj * stride + kj - pad] += col[src_base + oj];
                        }
                    }
                }
            }
        }
    }
}

/// The seed's branchy per-pixel im2col, kept verbatim (minus nothing — it
/// had no skip branches) for the reference path, so the `nn_kernels` bench
/// baseline measures the original implementation, not the optimised
/// transform above.
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn im2col_reference(
    input: &[f32],
    col: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    let ohw = oh * ow;
    col.fill(0.0);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for oi in 0..oh {
                    let ii = (oi * stride + ki) as isize - pad as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for oj in 0..ow {
                        let jj = (oj * stride + kj) as isize - pad as isize;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        col[row * ohw + oi * ow + oj] =
                            input[ci * h * w + ii as usize * w + jj as usize];
                    }
                }
            }
        }
    }
}

/// The seed's branchy col2im adjoint, reference-path twin of
/// [`im2col_reference`].
#[allow(
    clippy::too_many_arguments,
    reason = "convolution geometry travels as scalars"
)]
fn col2im_reference(
    col: &[f32],
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    let ohw = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for oi in 0..oh {
                    let ii = (oi * stride + ki) as isize - pad as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for oj in 0..ow {
                        let jj = (oj * stride + kj) as isize - pad as isize;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        out[ci * h * w + ii as usize * w + jj as usize] +=
                            col[row * ohw + oi * ow + oj];
                    }
                }
            }
        }
    }
}

/// A 2-D convolution layer over `[n, c, h, w]` inputs.
///
/// Setting `groups == in_channels == out_channels` yields a depthwise
/// convolution as used by MobileNetV3 and ShuffleNetV2.
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    groups: usize,
    /// The input of the last `forward_train`, the one thing `backward`
    /// reads: the depthwise kernel takes it as it is, the im2col layers
    /// rebuild each (sample, group) column matrix from it. Only
    /// `forward_train` writes it, into the buffer it held last step.
    train_input: Option<Tensor>,
    /// Scratch of the training step, reused across steps: the forward's
    /// im2col columns and backward's per-band column and gradient buffers.
    train_ws: Workspace,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if `in_channels` or `out_channels` are not divisible by
    /// `groups`, or any argument is zero where it must not be.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(groups >= 1, "groups must be at least 1");
        assert_eq!(in_channels % groups, 0, "in_channels must divide by groups");
        assert_eq!(
            out_channels % groups,
            0,
            "out_channels must divide by groups"
        );
        assert!(
            kernel >= 1 && stride >= 1,
            "kernel and stride must be positive"
        );
        let cin_g = in_channels / groups;
        let fan_in = cin_g * kernel * kernel;
        let weight = Param::new(he_normal(
            &[out_channels, cin_g, kernel, kernel],
            fan_in,
            rng,
        ));
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        Conv2d {
            weight,
            bias,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            train_input: None,
            train_ws: Workspace::new(),
        }
    }

    /// Convenience constructor for a depthwise convolution
    /// (`groups == in_channels == out_channels`).
    pub fn depthwise(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        Conv2d::new(channels, channels, kernel, stride, padding, channels, rng)
    }

    /// Output spatial size for a given input spatial size.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit into the padded input: the
    /// subtraction would underflow in `usize` and, in release builds, wrap
    /// to a garbage multi-exabyte shape instead of failing clearly.
    fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        assert!(
            h + 2 * p >= k && w + 2 * p >= k,
            "Conv2d: kernel {k} exceeds the padded input {}x{} \
             (input {h}x{w}, padding {p}); shrink the kernel or increase \
             padding/input size",
            h + 2 * p,
            w + 2 * p,
        );
        let oh = (h + 2 * p - k) / s + 1;
        let ow = (w + 2 * p - k) / s + 1;
        (oh, ow)
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The weight's shape, `[out, in / groups, kernel, kernel]`.
    pub fn weight_dims(&self) -> [usize; 4] {
        let k = self.kernel;
        [self.out_channels, self.in_channels / self.groups, k, k]
    }

    /// Whether this layer is a depthwise convolution
    /// (`groups == in_channels == out_channels`).
    pub fn is_depthwise(&self) -> bool {
        self.groups == self.in_channels && self.groups == self.out_channels
    }

    /// The backend inference runs on: a depthwise layer takes the direct
    /// kernel (its per-channel GEMMs are 1 × k² × ohw — im2col loses at
    /// every zoo size); every other geometry runs im2col→GEMM.
    pub fn planned_algo(&self) -> ConvAlgo {
        if self.is_depthwise() {
            ConvAlgo::DirectDepthwise
        } else {
            ConvAlgo::Im2colGemm
        }
    }

    /// Read-only view of the convolution bias (one entry per output
    /// channel), used by the fusion pass to fold the bias into a GEMM
    /// epilogue shift.
    pub(crate) fn bias_values(&self) -> &[f32] {
        self.bias.value.as_slice()
    }

    /// The inference forward pass, writing into `out` (resized in place).
    ///
    /// With `ep == Some((scale, shift, act))` the output is
    /// `act(scale[oc] * conv(input)[oc] + shift[oc])`, applied inside the
    /// per-group GEMM store loop — the fused `Conv2d -> BatchNorm2d ->
    /// activation` path. The convolution bias is **not** added in this mode;
    /// the caller folds it into `shift`. With `ep == None` this is the plain
    /// convolution with bias.
    ///
    /// [`Layer::infer`] is this with no epilogue; [`crate::FusedConvBnAct`]
    /// passes its fold. The im2col column matrix lives in a tensor taken from
    /// `ws`.
    ///
    /// # Panics
    ///
    /// Panics on input rank/channel mismatches, or if an epilogue's
    /// scale/shift have fewer entries than output channels.
    pub(crate) fn infer_epilogue(
        &self,
        input: &Tensor,
        ep: Option<(&[f32], &[f32], EpilogueAct)>,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) {
        self.infer_routed(input, ep, out, ws, BATCHED_OHW_MAX);
    }

    /// [`Conv2d::infer_epilogue`] with the im2col routing threshold as an
    /// argument: per-sample GEMMs with `ohw < batched_ohw_max` take the
    /// batched route, the rest the per-(sample, group) loop. Production
    /// passes [`BATCHED_OHW_MAX`]; the parity tests pass `0` and
    /// `usize::MAX` to drive both routes over one input.
    fn infer_routed(
        &self,
        input: &Tensor,
        ep: Option<(&[f32], &[f32], EpilogueAct)>,
        out: &mut Tensor,
        ws: &mut Workspace,
        batched_ohw_max: usize,
    ) {
        assert_eq!(input.rank(), 4, "Conv2d expects a [n, c, h, w] input");
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let (oh, ow) = self.out_size(h, w);
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let k = self.kernel;
        let wrow = cin_g * k * k;
        let ohw = oh * ow;
        let colsz = wrow * ohw;
        let groups = self.groups;
        let (stride, padding) = (self.stride, self.padding);
        if let Some((scale, shift, _)) = ep {
            assert!(
                scale.len() >= self.out_channels && shift.len() >= self.out_channels,
                "epilogue scale/shift need one entry per output channel"
            );
        }

        let x = input.as_slice();
        let wgt = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let out_channels = self.out_channels;
        out.resize_to(&[n, out_channels, oh, ow]);
        let out_data = out.as_mut_slice();

        if self.planned_algo() == ConvAlgo::DirectDepthwise {
            // one spatial micro-kernel per (sample, channel): no column
            // matrix, no scratch
            let ep = ep.map(|(scale, shift, act)| Epilogue { scale, shift, act });
            for (x_n, out_n) in x.chunks(c * h * w).zip(out_data.chunks_mut(c * ohw)) {
                depthwise_conv2d(x_n, wgt, bias, ep, out_n, c, h, w, k, stride, padding);
            }
            return;
        }

        // im2col→GEMM backend. A 1×1 stride-1 unpadded convolution's im2col
        // is the identity, so the GEMM reads the input block in place and no
        // column scratch is touched at all.
        let identity_col = k == 1 && stride == 1 && padding == 0;
        let colsz_eff = if identity_col { 0 } else { colsz };
        let mut col_scratch = ws.take();

        // Batched small-GEMM route: when the per-sample GEMM is skinny
        // (small ohw), per-call packing/dispatch dominates. ONE cyclic
        // batched call covers the whole `groups × samples` item space
        // (items sample-major, group-minor — exactly the layout of both the
        // input blocks and the output panels), with the weight panels
        // cycling at period `groups`: each group's panel is still packed
        // once per k-panel and its samples' columns still share full-width
        // register strips. Identity-col convs read the input blocks in
        // place; other shapes stage per-(sample, group) col slabs
        // contiguously in the same item order.
        if n > 0 && ohw < batched_ohw_max {
            let stride_out = cout_g * ohw;
            let (bs, stride_b): (&[f32], usize) = if identity_col {
                // sample ni group g block sits at (ni*groups + g)*cin_g*h*w
                (x, cin_g * h * w)
            } else {
                if col_scratch.len() < n * groups * colsz {
                    col_scratch.resize_to(&[n * groups * colsz]);
                }
                let cols = col_scratch.as_mut_slice();
                for ni in 0..n {
                    for g in 0..groups {
                        let in_offset = ni * c * h * w + g * cin_g * h * w;
                        let slab = (ni * groups + g) * colsz;
                        im2col(
                            &x[in_offset..in_offset + cin_g * h * w],
                            &mut cols[slab..slab + colsz],
                            cin_g,
                            h,
                            w,
                            k,
                            k,
                            stride,
                            padding,
                            oh,
                            ow,
                        );
                    }
                }
                (&col_scratch.as_slice()[..n * groups * colsz], colsz)
            };
            match ep {
                Some((scale, shift, act)) => gemm_batch_cyclic_strided(
                    wgt,
                    bs,
                    out_data,
                    cout_g,
                    wrow,
                    ohw,
                    n * groups,
                    groups,
                    cout_g * wrow,
                    stride_b,
                    stride_out,
                    Some(Epilogue { scale, shift, act }),
                ),
                None => {
                    // unfused: the bias is the accumulation's initial value
                    for (t, out_t) in out_data.chunks_mut(stride_out).enumerate() {
                        let g = t % groups;
                        for oc in 0..cout_g {
                            out_t[oc * ohw..(oc + 1) * ohw].fill(bias[g * cout_g + oc]);
                        }
                    }
                    gemm_batch_cyclic_acc_strided(
                        wgt,
                        bs,
                        out_data,
                        cout_g,
                        wrow,
                        ohw,
                        n * groups,
                        groups,
                        cout_g * wrow,
                        stride_b,
                        stride_out,
                    );
                }
            }
            ws.give(col_scratch);
            return;
        }

        // per-(sample, group) loop over the output panels (sample-major,
        // group-minor): im2col into `col` (unless the identity fast path
        // applies), then one GEMM whose store loop carries the whole
        // epilogue (or the bias as the GEMM's initial value on the unfused
        // path)
        if col_scratch.len() < colsz_eff {
            col_scratch.resize_to(&[colsz_eff]);
        }
        let col = &mut col_scratch.as_mut_slice()[..colsz_eff];
        for (t, out_g) in out_data.chunks_mut(cout_g * ohw).enumerate() {
            let (ni, g) = (t / groups, t % groups);
            let in_offset = ni * c * h * w + g * cin_g * h * w;
            let input_block = &x[in_offset..in_offset + cin_g * h * w];
            let col_ref: &[f32] = if identity_col {
                input_block
            } else {
                im2col(input_block, col, cin_g, h, w, k, k, stride, padding, oh, ow);
                col
            };
            let w_g = &wgt[g * cout_g * wrow..(g + 1) * cout_g * wrow];
            match ep {
                Some((scale, shift, act)) => gemm_epilogue(
                    w_g,
                    col_ref,
                    out_g,
                    cout_g,
                    wrow,
                    ohw,
                    &Epilogue {
                        scale: &scale[g * cout_g..(g + 1) * cout_g],
                        shift: &shift[g * cout_g..(g + 1) * cout_g],
                        act,
                    },
                ),
                None => {
                    for oc in 0..cout_g {
                        out_g[oc * ohw..(oc + 1) * ohw].fill(bias[g * cout_g + oc]);
                    }
                    gemm_acc(w_g, col_ref, out_g, cout_g, wrow, ohw);
                }
            }
        }
        ws.give(col_scratch);
    }

    /// The seed's scalar forward pass, kept as the reference implementation
    /// for parity tests and the `nn_kernels` baseline bench. Pure: does not
    /// touch the layer's training cache.
    ///
    /// # Panics
    ///
    /// Panics on input rank/channel mismatches.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "Conv2d expects a [n, c, h, w] input");
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let (oh, ow) = self.out_size(h, w);
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let k = self.kernel;
        let wrow = cin_g * k * k;
        let ohw = oh * ow;

        let x = input.as_slice();
        let wgt = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let mut out = vec![0.0f32; n * self.out_channels * ohw];
        let mut col = vec![0.0f32; wrow * ohw];

        for ni in 0..n {
            for g in 0..self.groups {
                let in_offset = ni * c * h * w + g * cin_g * h * w;
                im2col_reference(
                    &x[in_offset..in_offset + cin_g * h * w],
                    &mut col,
                    cin_g,
                    h,
                    w,
                    k,
                    k,
                    self.stride,
                    self.padding,
                    oh,
                    ow,
                );
                for oc in 0..cout_g {
                    let w_off = (g * cout_g + oc) * wrow;
                    let o_off = ni * self.out_channels * ohw + (g * cout_g + oc) * ohw;
                    let b = bias[g * cout_g + oc];
                    for p in 0..wrow {
                        let wv = wgt[w_off + p];
                        let col_row = &col[p * ohw..(p + 1) * ohw];
                        let out_row = &mut out[o_off..o_off + ohw];
                        for (ov, &cv) in out_row.iter_mut().zip(col_row.iter()) {
                            *ov += wv * cv;
                        }
                    }
                    let out_row = &mut out[o_off..o_off + ohw];
                    for ov in out_row.iter_mut() {
                        *ov += b;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, self.out_channels, oh, ow])
    }

    /// The seed's scalar backward pass for `input`/`grad_out`, returning
    /// `(grad_input, grad_weight, grad_bias)` without touching any layer
    /// state. Reference for parity tests only — the training path is
    /// [`Layer::backward`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `input`, `grad_out` and the layer.
    pub fn backward_reference(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = self.out_size(h, w);
        let ohw = oh * ow;
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let k = self.kernel;
        let wrow = cin_g * k * k;
        assert_eq!(grad_out.dims(), &[n, self.out_channels, oh, ow]);

        let x = input.as_slice();
        let go = grad_out.as_slice();
        let wgt = self.weight.value.as_slice();
        let mut grad_w = vec![0.0f32; self.weight.value.len()];
        let mut grad_b = vec![0.0f32; self.out_channels];
        let mut grad_in = vec![0.0f32; n * c * h * w];
        let mut col = vec![0.0f32; wrow * ohw];
        let mut grad_col = vec![0.0f32; wrow * ohw];

        for ni in 0..n {
            for g in 0..self.groups {
                let in_offset = ni * c * h * w + g * cin_g * h * w;
                im2col_reference(
                    &x[in_offset..in_offset + cin_g * h * w],
                    &mut col,
                    cin_g,
                    h,
                    w,
                    k,
                    k,
                    self.stride,
                    self.padding,
                    oh,
                    ow,
                );
                grad_col.fill(0.0);
                for oc in 0..cout_g {
                    let oc_abs = g * cout_g + oc;
                    let go_off = ni * self.out_channels * ohw + oc_abs * ohw;
                    let go_row = &go[go_off..go_off + ohw];
                    grad_b[oc_abs] += go_row.iter().sum::<f32>();
                    let w_off = oc_abs * wrow;
                    for p in 0..wrow {
                        let col_row = &col[p * ohw..(p + 1) * ohw];
                        let mut acc = 0.0;
                        for (gv, cv) in go_row.iter().zip(col_row.iter()) {
                            acc += gv * cv;
                        }
                        grad_w[w_off + p] += acc;
                        let wv = wgt[w_off + p];
                        let gc_row = &mut grad_col[p * ohw..(p + 1) * ohw];
                        for (gc, gv) in gc_row.iter_mut().zip(go_row.iter()) {
                            *gc += wv * gv;
                        }
                    }
                }
                col2im_reference(
                    &grad_col,
                    &mut grad_in[in_offset..in_offset + cin_g * h * w],
                    cin_g,
                    h,
                    w,
                    k,
                    k,
                    self.stride,
                    self.padding,
                    oh,
                    ow,
                );
            }
        }
        (
            Tensor::from_vec(grad_in, &[n, c, h, w]),
            Tensor::from_vec(grad_w, self.weight.value.dims()),
            Tensor::from_vec(grad_b, &[self.out_channels]),
        )
    }
}

impl Layer for Conv2d {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        // backward reads `train_input`, which only this method writes — an
        // inference between forward_train and backward cannot clobber it
        store(&mut self.train_input, input);
        let mut out = Tensor::zeros(&[0]);
        let mut ws = std::mem::take(&mut self.train_ws);
        self.infer_epilogue(input, None, &mut out, &mut ws);
        self.train_ws = ws;
        out
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        self.infer_epilogue(input, None, out, ws);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .train_input
            .as_ref()
            .expect("backward called before forward(train=true)");
        let in_dims = input.dims();
        let (n, c, h, w) = (in_dims[0], in_dims[1], in_dims[2], in_dims[3]);
        let (oh, ow) = self.out_size(h, w);
        let ohw = oh * ow;
        let cin_g = self.in_channels / self.groups;
        let cout_g = self.out_channels / self.groups;
        let k = self.kernel;
        let wrow = cin_g * k * k;
        let colsz = wrow * ohw;
        let groups = self.groups;
        let (stride, padding) = (self.stride, self.padding);
        let out_channels = self.out_channels;
        let wlen = self.weight.value.len();

        // the GEMM shapes, all from the geometry: which way round the weight
        // gradient runs, whether the input gradient is written in place and
        // whether it runs batched per band (see the module docs)
        let depthwise = self.is_depthwise();
        let identity_col = k == 1 && stride == 1 && padding == 0;
        let batched = ohw < BATCHED_OHW_MAX;
        let transposed_dw = !depthwise && tiles(wrow, cout_g) < tiles(cout_g, wrow);

        let x = input.as_slice();
        let go = grad_out.as_slice();
        let wgt = self.weight.value.as_slice();
        let ws = &mut self.train_ws;

        // W^T per group, shared read-only by every sample band (the
        // depthwise kernel reads W as it is)
        let mut wt_t = ws.take();
        if !depthwise {
            wt_t.resize_to(&[groups * wrow * cout_g]);
            for g in 0..groups {
                transpose_into(
                    &wgt[g * cout_g * wrow..(g + 1) * cout_g * wrow],
                    &mut wt_t.as_mut_slice()[g * wrow * cout_g..(g + 1) * wrow * cout_g],
                    cout_g,
                    wrow,
                );
            }
        }

        let mut grad_in = vec![0.0f32; n * c * h * w];
        let band_len = train_band_len(n);
        let n_bands = n.div_ceil(band_len).max(1);
        // per-band partial gradients, reduced in band order afterwards
        let mut parts = ws.take();
        parts.resize_to(&[n_bands * (wlen + out_channels)]);
        parts.as_mut_slice().fill(0.0);
        let (grad_w_parts, grad_b_parts) = parts.as_mut_slice().split_at_mut(n_bands * wlen);
        // per-band scratch, kept in the layer's workspace across steps: the
        // weight gradient's transposed operand (`col^T`, or — in the
        // orientation with fewer register tiles — `dOut_g^T` and the band's
        // `dW^T`), `dCol` for col2im (one slab per (sample, group) on the
        // batched route; none when the column is the identity and the input
        // gradient is written in place), and the columns rebuilt from the
        // input (none when a 1×1 stride-1 unpadded layer reads the input in
        // place). These pick where each GEMM runs and which operand is
        // packed, never the order of an element's products, so no layout
        // here moves a gradient bit (module docs)
        let dw_len = if transposed_dw {
            ohw * cout_g + wlen
        } else {
            colsz
        };
        let dcol_len = match (identity_col, batched) {
            (true, _) => 0,
            (false, true) => band_len * groups * colsz,
            (false, false) => colsz,
        };
        let col_len = if identity_col { 0 } else { colsz };
        let scratch_len = if depthwise {
            0
        } else {
            col_len + dw_len + dcol_len
        };
        let mut scratch: Vec<Tensor> = (0..n_bands).map(|_| ws.take()).collect();
        for t in &mut scratch {
            if t.len() < scratch_len {
                t.resize_to(&[scratch_len]);
            }
        }

        let wt = wt_t.as_slice();
        let (chw, cin_hw, ochw) = (c * h * w, cin_g * h * w, out_channels * ohw);
        let bands = grad_in
            .chunks_mut((band_len * chw).max(1))
            .zip(grad_w_parts.chunks_mut(wlen))
            .zip(grad_b_parts.chunks_mut(out_channels))
            .zip(scratch.iter_mut())
            .enumerate();
        // one sample band: bias/weight gradients into the band's partial
        // buffers, input gradients into its disjoint grad_in window
        run_bands(
            bands,
            n_bands,
            |(band, (((gin_band, gw_part), gb_part), scratch))| {
                let n0 = band * band_len;
                let samples = gin_band.len() / chw;
                if depthwise {
                    for (si, gin_n) in gin_band.chunks_mut(chw).enumerate() {
                        let ni = n0 + si;
                        let x_n = &x[ni * chw..(ni + 1) * chw];
                        let go_n = &go[ni * ochw..(ni + 1) * ochw];
                        depthwise_conv2d_backward(
                            x_n, wgt, go_n, gin_n, gw_part, gb_part, c, h, w, k, stride, padding,
                        );
                    }
                    return;
                }
                let (dw_buf, rest) = scratch.as_mut_slice()[..scratch_len].split_at_mut(dw_len);
                let (dcol, col_buf) = rest.split_at_mut(dcol_len);
                // `col^T`, or `dOut_g^T` and the band's `dW^T`, which
                // accumulates from zero as the partial does
                let (t_buf, dwt) =
                    dw_buf.split_at_mut(if transposed_dw { ohw * cout_g } else { colsz });
                dwt.fill(0.0);
                for si in 0..samples {
                    let ni = n0 + si;
                    for g in 0..groups {
                        let block = &x[ni * chw + g * cin_hw..][..cin_hw];
                        let col: &[f32] = if identity_col {
                            block
                        } else {
                            im2col(block, col_buf, cin_g, h, w, k, k, stride, padding, oh, ow);
                            col_buf
                        };
                        let go_g = &go[ni * ochw + g * cout_g * ohw..][..cout_g * ohw];
                        // bias gradient
                        for oc in 0..cout_g {
                            gb_part[g * cout_g + oc] += sum_lanes(&go_g[oc * ohw..(oc + 1) * ohw]);
                        }
                        // weight gradient: dW_g += dOut_g * col^T, or
                        // dW_g^T += col * dOut_g^T when that fills fewer
                        // register tiles
                        if transposed_dw {
                            transpose_into(go_g, t_buf, cout_g, ohw);
                            let dwt_g = &mut dwt[g * wrow * cout_g..(g + 1) * wrow * cout_g];
                            gemm_acc(col, t_buf, dwt_g, wrow, ohw, cout_g);
                        } else {
                            transpose_into(col, t_buf, wrow, ohw);
                            let gw_g = &mut gw_part[g * cout_g * wrow..(g + 1) * cout_g * wrow];
                            gemm_acc(go_g, t_buf, gw_g, cout_g, ohw, wrow);
                        }
                        if batched {
                            continue;
                        }
                        // input gradient: dCol = W_g^T * dOut_g, then col2im
                        // (written in place when the column is the identity)
                        let wt_g = &wt[g * wrow * cout_g..(g + 1) * wrow * cout_g];
                        let gin_g = &mut gin_band[si * chw + g * cin_hw..][..cin_hw];
                        if identity_col {
                            gemm(wt_g, go_g, gin_g, wrow, cout_g, ohw);
                        } else {
                            gemm(wt_g, go_g, dcol, wrow, cout_g, ohw);
                            col2im(dcol, gin_g, cin_g, h, w, k, k, stride, padding, oh, ow);
                        }
                    }
                }
                if transposed_dw {
                    for g in 0..groups {
                        transpose_into(
                            &dwt[g * wrow * cout_g..(g + 1) * wrow * cout_g],
                            &mut gw_part[g * cout_g * wrow..(g + 1) * cout_g * wrow],
                            wrow,
                            cout_g,
                        );
                    }
                }
                if !batched {
                    return;
                }
                // the band's input gradient as one batched GEMM over its
                // `samples × groups` items, sample-major and group-minor like
                // the forward's: the `W_g^T` panels cycle at period `groups`
                // and the items' `dOut_g` blocks sit `cout_g * ohw` apart
                let items = samples * groups;
                let go_band = &go[n0 * ochw..(n0 + samples) * ochw];
                let stride_a = wrow * cout_g;
                let stride_b = cout_g * ohw;
                if identity_col {
                    gemm_batch_cyclic_strided(
                        wt, go_band, gin_band, wrow, cout_g, ohw, items, groups, stride_a,
                        stride_b, cin_hw, None,
                    );
                    return;
                }
                let dcols = &mut dcol[..items * colsz];
                gemm_batch_cyclic_strided(
                    wt, go_band, dcols, wrow, cout_g, ohw, items, groups, stride_a, stride_b,
                    colsz, None,
                );
                // item `t` is sample `t / groups`, group `t % groups`: its
                // block of grad_in sits `t * cin_hw` into the band
                for (dcol_t, gin_t) in dcols.chunks(colsz).zip(gin_band.chunks_mut(cin_hw)) {
                    col2im(dcol_t, gin_t, cin_g, h, w, k, k, stride, padding, oh, ow);
                }
            },
        );

        // reduce band partials, in band order, into a zeroed total
        let mut total = ws.take();
        for (param, parts, len) in [
            (&mut self.weight, &*grad_w_parts, wlen),
            (&mut self.bias, &*grad_b_parts, out_channels),
        ] {
            total.resize_to(param.value.dims());
            let acc = total.as_mut_slice();
            acc.fill(0.0);
            for part in parts.chunks(len) {
                acc.iter_mut().zip(part).for_each(|(a, v)| *a += v);
            }
            param.accumulate_grad(&total);
        }
        // give back in reverse order of taking, so each buffer meets the
        // role it had last step
        ws.give(total);
        for t in scratch.into_iter().rev() {
            ws.give(t);
        }
        ws.give(parts);
        ws.give(wt_t);
        Tensor::from_vec(grad_in, &[n, c, h, w])
    }

    /// Weight, then bias.
    fn for_each_state<'a>(&'a mut self, f: &mut dyn FnMut(State<'a>)) {
        f(State::Param(&mut self.weight));
        f(State::Param(&mut self.bias));
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn output_shape_same_padding() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 1, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn output_shape_stride_two() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(4, 4, 3, 2, 1, 1, &mut rng);
        let x = Tensor::rand_uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn depthwise_has_grouped_weight_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::depthwise(6, 3, 1, 1, &mut rng);
        assert_eq!(conv.weight.value.dims(), &[6, 1, 3, 3]);
        let x = Tensor::rand_uniform(&[1, 6, 5, 5], -1.0, 1.0, &mut rng);
        assert_eq!(conv.forward(&x, false).dims(), &[1, 6, 5, 5]);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 1, &mut rng);
        // centre-one kernel and zero bias -> identity mapping
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        *w.at_mut(&[0, 0, 1, 1]) = 1.0;
        conv.weight.value = w;
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::rand_uniform(&[1, 1, 6, 6], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, false);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_matches_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        // (cin, cout, kernel, stride, pad, groups, h, w)
        for (cin, cout, k, s, p, g, h, w) in [
            (
                3usize, 8usize, 3usize, 1usize, 1usize, 1usize, 9usize, 9usize,
            ),
            (4, 6, 3, 2, 1, 2, 8, 10),
            (6, 6, 3, 1, 1, 6, 7, 7), // depthwise
            (2, 4, 5, 2, 2, 1, 11, 13),
            (4, 4, 1, 1, 0, 1, 6, 6), // pointwise
        ] {
            let mut conv = Conv2d::new(cin, cout, k, s, p, g, &mut rng);
            let x = Tensor::rand_uniform(&[2, cin, h, w], -1.0, 1.0, &mut rng);
            let fast = conv.forward(&x, false);
            let reference = conv.forward_reference(&x);
            assert_eq!(fast.dims(), reference.dims());
            for (a, b) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert!(
                    (a - b).abs() < 1e-4,
                    "cin={cin} cout={cout} k={k} s={s} p={p} g={g}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn backward_matches_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        // (cin, cout, kernel, stride, pad, groups, h, w, batch)
        for (cin, cout, k, s, p, g, h, w, batch) in [
            (
                3usize, 4usize, 3usize, 1usize, 1usize, 1usize, 8usize, 8usize, 3usize,
            ),
            (4, 4, 3, 2, 1, 2, 9, 9, 3),
            (5, 5, 3, 1, 1, 5, 6, 6, 3),  // depthwise
            (6, 8, 1, 1, 0, 1, 5, 5, 3),  // 1×1: columns read in place
            (6, 8, 1, 1, 0, 2, 5, 5, 3),  // grouped 1×1, in place
            (4, 6, 3, 1, 1, 1, 6, 6, 10), // batched forward route, two bands
            // the backward's routes at batch 10: `dWt` is the transposed
            // weight gradient, `dW` today's; `ohw < 96` runs the input
            // gradient batched per band, wider ones per (sample, group)
            (16, 48, 1, 1, 0, 1, 2, 2, 10), // ohw 4: dWt, batched, in place
            (24, 64, 1, 1, 0, 1, 4, 4, 10), // ohw 16: dWt, batched, in place
            (64, 32, 1, 1, 0, 1, 4, 4, 10), // ohw 16: dW (tie), batched
            (16, 32, 1, 2, 0, 1, 8, 8, 10), // ohw 16, 1×1 stride 2: dWt, col2im
            (16, 48, 1, 1, 0, 1, 8, 8, 10), // ohw 64: dWt, batched, in place
            (48, 24, 1, 1, 0, 1, 8, 8, 10), // ohw 64: dW, batched, in place
            (16, 48, 1, 1, 0, 1, 10, 10, 10), // ohw 100: dWt, per item, in place
            (3, 16, 3, 1, 1, 1, 10, 10, 10), // ohw 100: dW, per item, col2im
            (4, 64, 3, 1, 1, 2, 10, 10, 10), // ohw 100: grouped dWt, per item
            (16, 64, 1, 1, 0, 2, 4, 4, 10), // grouped dWt, batched, in place
            (4, 64, 3, 1, 1, 2, 8, 8, 10),  // grouped dWt, batched, col2im
            (8, 16, 3, 2, 1, 2, 8, 8, 10),  // grouped dW, batched, strided
        ] {
            let mut conv = Conv2d::new(cin, cout, k, s, p, g, &mut rng);
            let x = Tensor::rand_uniform(&[batch, cin, h, w], -1.0, 1.0, &mut rng);
            let y = conv.forward(&x, true);
            let grad_out = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);
            let grad_in = conv.backward(&grad_out);

            let (ref_gin, ref_gw, ref_gb) = conv.backward_reference(&x, &grad_out);
            for (a, b) in grad_in.as_slice().iter().zip(ref_gin.as_slice()) {
                assert!((a - b).abs() < 1e-3, "grad_in mismatch: {a} vs {b}");
            }
            let gw = conv.weight.grad.clone();
            for (a, b) in gw.as_slice().iter().zip(ref_gw.as_slice()) {
                assert!((a - b).abs() < 1e-2, "grad_w mismatch: {a} vs {b}");
            }
            let gb = conv.bias.grad.clone();
            for (a, b) in gb.as_slice().iter().zip(ref_gb.as_slice()) {
                assert!((a - b).abs() < 1e-2, "grad_b mismatch: {a} vs {b}");
            }
            conv.weight.grad = Tensor::zeros(gw.dims());
            conv.bias.grad = Tensor::zeros(gb.dims());
        }
    }

    #[test]
    fn weight_gradient_matches_numerical() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 1, &mut rng);
        let x = Tensor::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng);

        let y = conv.forward(&x, true);
        let grad_out = Tensor::ones(y.dims());
        let grad_in = conv.backward(&grad_out);
        assert_eq!(grad_in.dims(), x.dims());
        let analytic = conv.weight.grad.at(&[1, 0, 1, 2]);

        let eps = 1e-3;
        let base = conv.weight.value.at(&[1, 0, 1, 2]);
        *conv.weight.value.at_mut(&[1, 0, 1, 2]) = base + eps;
        let plus = conv.forward(&x, false).sum();
        *conv.weight.value.at_mut(&[1, 0, 1, 2]) = base - eps;
        let minus = conv.forward(&x, false).sum();
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic - numerical).abs() < 0.05,
            "analytic {analytic} vs numerical {numerical}"
        );
    }

    #[test]
    fn input_gradient_matches_numerical() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 1, &mut rng);
        let mut x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);

        let y = conv.forward(&x, true);
        let grad_in = conv.backward(&Tensor::ones(y.dims()));
        let analytic = grad_in.at(&[0, 0, 2, 1]);

        let eps = 1e-3;
        let base = x.at(&[0, 0, 2, 1]);
        *x.at_mut(&[0, 0, 2, 1]) = base + eps;
        let plus = conv.forward(&x, false).sum();
        *x.at_mut(&[0, 0, 2, 1]) = base - eps;
        let minus = conv.forward(&x, false).sum();
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic - numerical).abs() < 0.05,
            "analytic {analytic} vs numerical {numerical}"
        );
    }

    #[test]
    fn grouped_conv_gradients_have_right_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(4, 4, 3, 1, 1, 2, &mut rng);
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let g = conv.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
        assert_eq!(conv.weight.grad.dims(), &[4, 2, 3, 3]);
    }

    #[test]
    fn eval_forward_between_train_forward_and_backward_keeps_gradients() {
        // an eval pass (different batch size AND geometry) between
        // forward(train=true) and backward() must not clobber the stored
        // input the backward pass rebuilds its columns from
        let mut rng = StdRng::seed_from_u64(21);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, 1, &mut rng);
        let x_train = Tensor::rand_uniform(&[2, 3, 7, 7], -1.0, 1.0, &mut rng);
        let x_eval = Tensor::rand_uniform(&[5, 3, 11, 9], -1.0, 1.0, &mut rng);

        let y = conv.forward(&x_train, true);
        let _ = conv.forward(&x_eval, false);
        let grad_out = Tensor::ones(y.dims());
        let grad_in = conv.backward(&grad_out);

        let (ref_gin, ref_gw, ref_gb) = conv.backward_reference(&x_train, &grad_out);
        for (a, b) in grad_in.as_slice().iter().zip(ref_gin.as_slice()) {
            assert!(
                (a - b).abs() < 1e-3,
                "grad_in clobbered by eval pass: {a} vs {b}"
            );
        }
        let gw = conv.weight.grad.clone();
        for (a, b) in gw.as_slice().iter().zip(ref_gw.as_slice()) {
            assert!(
                (a - b).abs() < 1e-2,
                "grad_w clobbered by eval pass: {a} vs {b}"
            );
        }
        let gb = conv.bias.grad.clone();
        for (a, b) in gb.as_slice().iter().zip(ref_gb.as_slice()) {
            assert!(
                (a - b).abs() < 1e-2,
                "grad_b clobbered by eval pass: {a} vs {b}"
            );
        }
    }

    type Ep<'a> = Option<(&'a [f32], &'a [f32], EpilogueAct)>;

    /// Inference with the im2col routing threshold given: `0` runs the
    /// per-(sample, group) loop, `usize::MAX` the batched route.
    fn routed(conv: &Conv2d, x: &Tensor, ep: Ep, batched_ohw_max: usize) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        conv.infer_routed(x, ep, &mut out, &mut Workspace::new(), batched_ohw_max);
        out
    }

    /// Drives both im2col routes over one input — unfused, fused with a zero
    /// shift, fused with a non-zero one — asserting they return the same bits
    /// (the routes cut the same columns into different full and ragged
    /// register tiles, and every tile is stored by one rule) and that
    /// production takes the one its output size says.
    fn both_routes_agree(conv: &Conv2d, x: &Tensor, rng: &mut StdRng, ctx: &str) {
        let cout = conv.out_channels();
        let scale = Tensor::rand_uniform(&[cout], 0.5, 1.5, rng);
        let shift = Tensor::rand_uniform(&[cout], -0.5, 0.5, rng);
        let zero = vec![0.0f32; cout];
        let eps: [Ep; 2] = [&zero[..], shift.as_slice()]
            .map(|shift| Some((scale.as_slice(), shift, EpilogueAct::HardSwish)));
        for (case, ep) in [None, eps[0], eps[1]].into_iter().enumerate() {
            let (looped, batched) = (routed(conv, x, ep, 0), routed(conv, x, ep, usize::MAX));
            assert_eq!(looped.dims(), batched.dims(), "{ctx}");
            for (i, (a, b)) in looped.as_slice().iter().zip(batched.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{ctx} case {case}: element {i}: {a} vs {b}"
                );
            }
            let ohw = looped.len() / (x.dims()[0] * cout);
            let expect = if ohw < BATCHED_OHW_MAX {
                batched
            } else {
                looped
            };
            assert_eq!(
                routed(conv, x, ep, BATCHED_OHW_MAX),
                expect,
                "{ctx}: ohw={ohw}"
            );
        }
    }

    #[test]
    fn batched_route_matches_per_sample_loop() {
        let mut rng = StdRng::seed_from_u64(31);
        // (cin, cout, kernel, stride, pad, groups, h, w, batch)
        for (cin, cout, k, s, p, g, h, w, batch) in [
            (
                8usize, 16usize, 1usize, 1usize, 0usize, 1usize, 6usize, 6usize, 5usize,
            ), // identity-col 1×1
            (8, 8, 1, 1, 0, 4, 4, 4, 5),   // grouped identity-col
            (4, 6, 3, 1, 1, 1, 7, 9, 5),   // 3×3, ragged ohw = 63
            (6, 6, 3, 2, 1, 2, 9, 9, 5),   // grouped, strided, padded
            (3, 5, 1, 1, 0, 1, 2, 2, 5),   // ohw = 4, batch panels far below NR
            (8, 16, 1, 1, 0, 1, 6, 6, 1),  // batch == 1
            (4, 6, 3, 1, 1, 1, 9, 9, 3),   // ohw = 81: just below the constant
            (4, 6, 3, 1, 1, 1, 10, 10, 3), // ohw = 100: just above it
        ] {
            let conv = Conv2d::new(cin, cout, k, s, p, g, &mut rng);
            let x = Tensor::rand_uniform(&[batch, cin, h, w], -1.0, 1.0, &mut rng);
            let ctx = format!("{cin}->{cout} k={k} s={s} p={p} g={g} {h}x{w} b={batch}");
            both_routes_agree(&conv, &x, &mut rng, &ctx);
        }
    }

    #[test]
    fn routes_are_bit_identical_on_every_shape_the_zoo_routes() {
        // (cout_g, wrow, output sides): every per-sample GEMM the four zoo
        // models send down im2col at 16 and 32 px (wrow = 9·cin is a 3×3
        // layer, anything else a 1×1). The two routes accumulate every
        // output in the same order and store it by the same rule, so the
        // routing constant cannot move an output bit here.
        let zoo: [(usize, usize, &[usize]); 22] = [
            (16, 8, &[4, 8]),
            (24, 8, &[4, 8]),
            (32, 12, &[2, 4]),
            (16, 16, &[4, 8, 16]),
            (32, 16, &[8, 16]),
            (48, 16, &[8, 16]),
            (64, 24, &[4, 8]),
            (16, 27, &[8, 16, 32]),
            (32, 27, &[8, 16]),
            (8, 32, &[4, 8]),
            (16, 32, &[8, 16]),
            (32, 32, &[2, 4, 8]),
            (64, 32, &[2, 4]),
            (12, 48, &[2, 4]),
            (24, 48, &[4, 8]),
            (12, 64, &[2, 4]),
            (32, 64, &[2, 4]),
            (96, 64, &[2, 4]),
            (16, 72, &[4, 8]),
            (24, 72, &[4, 8]),
            (32, 108, &[2, 4]),
            (32, 144, &[8, 16]),
        ];
        let mut rng = StdRng::seed_from_u64(37);
        for (cout, wrow, sides) in zoo {
            let (cin, k) = if wrow % 9 == 0 {
                (wrow / 9, 3)
            } else {
                (wrow, 1)
            };
            let mut conv = Conv2d::new(cin, cout, k, 1, k / 2, 1, &mut rng);
            conv.bias.value = Tensor::rand_uniform(&[cout], -0.5, 0.5, &mut rng);
            for (&side, batch) in sides.iter().flat_map(|s| [1usize, 3, 8].map(|b| (s, b))) {
                let x = Tensor::rand_uniform(&[batch, cin, side, side], -1.0, 1.0, &mut rng);
                let ctx = format!("cout_g={cout} wrow={wrow} side={side} b={batch}");
                both_routes_agree(&conv, &x, &mut rng, &ctx);
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel 5 exceeds the padded input 3x3")]
    fn oversized_kernel_panics_with_actionable_message() {
        // a 5×5 kernel on an unpadded 3×3 input used to underflow the
        // usize output-size arithmetic and wrap to a garbage shape
        let mut rng = StdRng::seed_from_u64(32);
        let mut conv = Conv2d::new(1, 1, 5, 1, 0, 1, &mut rng);
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        let _ = conv.forward(&x, false);
    }

    #[test]
    fn repeated_steps_reuse_scratch_without_drift() {
        // two identical train steps must produce identical outputs and
        // gradients (the train cache is reused, not re-derived state)
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(3, 5, 3, 1, 1, 1, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 7, 7], -1.0, 1.0, &mut rng);
        let y1 = conv.forward(&x, true);
        let g1 = conv.backward(&Tensor::ones(y1.dims()));
        let gw1 = conv.weight.grad.clone();
        let y2 = conv.forward(&x, true);
        let g2 = conv.backward(&Tensor::ones(y2.dims()));
        assert_eq!(y1, y2);
        assert_eq!(g1, g2);
        // grads accumulate: second step doubles the first
        let gw2 = conv.weight.grad.clone();
        for (a, b) in gw2.as_slice().iter().zip(gw1.as_slice()) {
            assert!((a - 2.0 * b).abs() < 1e-3);
        }
    }
}
