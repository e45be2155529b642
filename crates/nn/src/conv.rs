//! 2-D convolution with optional grouping (covers depthwise convolution).
//!
//! **Inference** is one `&self` body, [`Conv2d::infer_epilogue`], behind
//! [`Layer::infer`] (no epilogue) and [`crate::FusedConvBnAct`] (folded
//! scale/shift + activation); its im2col scratch comes from the caller's
//! [`Workspace`]. It has one route per geometry ([`Conv2d::planned_algo`]):
//! depthwise layers take the direct kernel, everything else im2col→GEMM.
//! The two backends share one parity contract (identical output, same
//! fused-epilogue semantics):
//!
//! * [`ConvAlgo::Im2colGemm`] — the PR 1 path: per group,
//!   `out = W_g (cout_g x wrow) * col (wrow x ohw)` over the im2col matrix
//!   (with a zero-copy fast path for 1×1 stride-1 unpadded convolutions,
//!   whose im2col is the identity). Skinny per-sample GEMMs (small `ohw` —
//!   the MobileNet 1×1-at-small-spatial regime; the routing threshold is
//!   probed per shape class at runtime, see [`batched_gemm_crossovers`])
//!   route through [`hs_tensor::gemm_batch_cyclic_strided`]: one call spans
//!   the whole `groups × samples` item space, each group's weight panel is
//!   packed once and every sample's columns stream through full-width
//!   register strips ([`set_batched_gemm`] restores the per-sample loop for
//!   benches);
//! * [`ConvAlgo::DirectDepthwise`] — a direct spatial micro-kernel for
//!   depthwise convolutions ([`hs_tensor::depthwise_conv2d`]), which have
//!   per-channel GEMMs too tiny for im2col to pay off.
//!
//! [`Conv2d::force_algo`] can put a depthwise layer on im2col→GEMM — the
//! reference its parity sweeps and the direct-vs-im2col bench gate compare
//! against. Measurements behind the rule, and the decision record for the
//! backend that was tried and dropped, are in `docs/PERF.md` ("Conv backend
//! selection").
//!
//! **Training** has one path per geometry. Dense and grouped layers keep
//! im2col→GEMM: forward caches the column matrices and backward consumes
//! them (`dW_g += dOut_g * col^T`, `dCol = W_g^T * dOut_g` folded by
//! col2im). Depthwise layers train on the direct kernels whatever inference
//! backend is forced: forward is [`hs_tensor::depthwise_conv2d`] and caches
//! the *input*, backward is [`hs_tensor::depthwise_conv2d_backward`] — no
//! column matrix, transpose or per-channel GEMM.
//!
//! What backward consumes lives in one flat buffer owned by the layer
//! (`train_cache`), resized once per input geometry and reused across
//! steps — the seed's per-sample `Vec` allocations are gone. Only
//! [`Layer::forward_train`] writes it, so an inference between a training
//! forward and its backward cannot disturb the gradients. The batch loop
//! fans out over the shared `hs_parallel` pool in sample bands; each band
//! accumulates weight/bias gradients into its own partial buffer, reduced
//! serially afterwards, so no synchronisation happens inside the hot loop.
//!
//! The seed's scalar path survives as [`Conv2d::forward_reference`] /
//! [`Conv2d::backward_reference`] — the ground truth for parity tests and
//! the baseline for the `nn_kernels` bench. (Its `== 0.0` weight-skip
//! branches were removed: they broke NaN/Inf propagation.)

use crate::{Layer, Param, ParamStore, Workspace};
use hs_parallel::sync;
use hs_tensor::gemm::NR;
use hs_tensor::{
    depthwise_conv2d, depthwise_conv2d_backward, gemm, gemm_acc, gemm_acc_q,
    gemm_batch_cyclic_acc_strided_q, gemm_batch_cyclic_strided, gemm_batch_cyclic_strided_q,
    gemm_epilogue_q, he_normal, transpose_into, valid_out_range, DType, Epilogue, EpilogueAct,
    QTensor, Tensor, WeightMat,
};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

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

/// Candidate step for the measured crossover probe: thresholds are whole
/// register strips, `NR .. 4*NR`. (PR 4 hardwired `2*NR`: below two full
/// strips the per-call packing/dispatch overhead dominates and
/// cross-sample n-blocking is what fills the register tiles — the probe
/// now measures where that actually stops being true on this machine.)
const CROSSOVER_STEP: usize = NR;

/// The measured batched-routing crossover table: shape-class →
/// `ohw` threshold, probed once per process per class (see
/// [`batched_ohw_max`]).
static CROSSOVER_TABLE: OnceLock<Mutex<HashMap<(u32, u32), usize>>> = OnceLock::new();

/// Shape class of a per-sample conv GEMM: log2 buckets of `(m, k)` =
/// `(cout_g, wrow)`. Shapes in one bucket share a measured threshold; the
/// first shape seen in a bucket is the one probed.
fn shape_class(m: usize, k: usize) -> (u32, u32) {
    (m.max(1).ilog2(), k.max(1).ilog2())
}

/// Times `f` (already warmed) and returns the fastest of `reps` runs.
fn time_min_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    best
}

/// Measures the `ohw` crossover for a `(m, k)` per-sample GEMM: the largest
/// whole-strip width at which the batched entry point still beats the
/// per-sample [`gemm`] loop, probed at `NR`-wide candidates on synthetic
/// data (batch of 8 samples, min-of-5 timing after warm-up). Below one
/// strip the batched route always wins (cross-sample n-blocking is what
/// fills the register tiles), so `NR` is the floor; the ceiling is `4*NR`.
fn probe_crossover(m: usize, k: usize) -> usize {
    let max_n = 4 * CROSSOVER_STEP;
    let batch = 8usize;
    // deterministic non-trivial fill; no RNG needed for timing
    let fill = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 31 + salt * 17) % 23) as f32 * 0.05 - 0.5)
            .collect()
    };
    let a = fill(m * k, 1);
    let bs = fill(batch * k * max_n, 2);
    let mut out = vec![0.0f32; batch * m * max_n];
    let mut threshold = CROSSOVER_STEP;
    for cand in (1..4).map(|s| s * CROSSOVER_STEP) {
        let mut run_batched = || {
            gemm_batch_cyclic_strided(
                &a,
                &bs,
                &mut out,
                m,
                k,
                cand,
                batch,
                1,
                0,
                k * cand,
                m * cand,
                None,
            )
        };
        run_batched(); // warm (scratch growth, dispatch)
        let batched = time_min_ns(5, run_batched);
        let mut run_loop = || {
            for s in 0..batch {
                gemm(
                    &a,
                    &bs[s * k * cand..(s + 1) * k * cand],
                    &mut out[s * m * cand..(s + 1) * m * cand],
                    m,
                    k,
                    cand,
                );
            }
        };
        run_loop();
        let looped = time_min_ns(5, run_loop);
        if batched < looped {
            threshold = cand + CROSSOVER_STEP;
        } else {
            break;
        }
    }
    threshold
}

/// The routing threshold for a per-sample GEMM of shape `(m, k)`:
/// per-sample GEMMs with `ohw` below it take the batched entry point.
///
/// The PR 4 threshold was a fixed `2*NR`; it is now **measured**: the first
/// shape seen in each `(m, k)` shape class probes its crossover once per
/// process ([`probe_crossover`]) and the result is cached for the class.
/// `HS_BATCHED_OHW_MAX=<pixels>` pins the threshold process-wide (benches
/// and tests that must not depend on probe timing use it; `0` disables the
/// batched route entirely). The measured table is inspectable via
/// [`batched_gemm_crossovers`] and logged in `docs/PERF.md`.
fn batched_ohw_max(m: usize, k: usize) -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    let pinned = *ENV.get_or_init(|| {
        std::env::var("HS_BATCHED_OHW_MAX").ok().map(|v| {
            v.parse().unwrap_or_else(|_| {
                panic!(
                    "HS_BATCHED_OHW_MAX={v:?} is not a pixel count (use e.g. 96, or 0 to disable)"
                )
            })
        })
    });
    if let Some(v) = pinned {
        return v;
    }
    let class = shape_class(m, k);
    let table = CROSSOVER_TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&th) = sync::lock(table).get(&class) {
        return th;
    }
    // probe outside the lock (it runs GEMMs that may fan out over the pool);
    // a racing thread probing the same class just overwrites with its own
    // measurement of the same crossover
    let th = probe_crossover(m, k);
    sync::lock(table).insert(class, th);
    th
}

/// Snapshot of the measured batched-routing crossover table:
/// `(m_class_floor, k_class_floor, ohw_threshold)` per probed shape class,
/// sorted. Empty until the first small-`ohw` convolution routes (or when
/// `HS_BATCHED_OHW_MAX` pins the threshold). `exp_serving_sweep` prints it;
/// the reference numbers live in `docs/PERF.md`.
pub fn batched_gemm_crossovers() -> Vec<(usize, usize, usize)> {
    let mut out: Vec<(usize, usize, usize)> = CROSSOVER_TABLE
        .get()
        .map(|t| {
            sync::lock(t)
                .iter()
                .map(|(&(mc, kc), &th)| (1usize << mc, 1usize << kc, th))
                .collect()
        })
        .unwrap_or_default();
    out.sort_unstable();
    out
}

thread_local! {
    /// Per-thread switch for the batched small-GEMM route (default on).
    /// Exists so benches can time the batched path against the per-(sample,
    /// group) GEMM loop it replaces in the same run — the CI-gated speedup
    /// ratio. Thread-local rather than process-wide so a toggling bench or
    /// test never changes which code path concurrently running threads
    /// (e.g. the rest of a test binary) exercise.
    static BATCHED_GEMM: Cell<bool> = const { Cell::new(true) };
}

/// Enables/disables routing skinny per-sample inference GEMMs through the
/// batched entry point **on the calling thread**. On by default; benches and
/// parity tests flip it to measure or compare the per-sample loop (the
/// routing decision is made on the thread calling the forward, before any
/// pool fan-out).
pub fn set_batched_gemm(enabled: bool) {
    BATCHED_GEMM.with(|cell| cell.set(enabled));
}

fn batched_gemm_enabled() -> bool {
    BATCHED_GEMM.with(|cell| cell.get())
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
#[allow(clippy::too_many_arguments)]
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
#[allow(clippy::too_many_arguments)]
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
#[allow(clippy::too_many_arguments)]
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
#[allow(clippy::too_many_arguments)]
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
    /// Quantized inference weight. When set, `weight` is emptied (the halved
    /// resident bytes and halved GEMM weight traffic are the point) and
    /// training is disabled. The layer then runs on im2col-GEMM, whose
    /// packing layer widens quantized panels on the fly; depthwise layers
    /// never hold one (`to_dtype` leaves their weights f32). Conv weights
    /// quantize to f16 only — the per-tensor i8 scale is too coarse for
    /// conv stacks, so an i8 request also stores f16 here.
    qweight: Option<QTensor>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    groups: usize,
    cached_input_dims: Option<Vec<usize>>,
    /// What `backward` consumes from the last `forward_train`, resized per
    /// input geometry and reused across steps: the im2col columns
    /// `[n][groups][wrow * ohw]`, or for a depthwise layer the input itself.
    train_cache: Vec<f32>,
    /// Per-layer backend override (tests/benches); `None` defers to the
    /// geometry rule in [`Conv2d::planned_algo`].
    forced_algo: Option<ConvAlgo>,
    /// Lazily resolved batched-routing threshold for this layer's GEMM
    /// shape (see [`batched_ohw_max`]) — one atomic load per forward after
    /// the first, instead of a global table lock in the dispatch hot path.
    batched_ohw: OnceLock<usize>,
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
            qweight: None,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups,
            cached_input_dims: None,
            train_cache: Vec::new(),
            forced_algo: None,
            batched_ohw: OnceLock::new(),
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

    /// Forces the inference backend for this layer (`None` restores the
    /// geometry rule). Forcing [`ConvAlgo::DirectDepthwise`] on a layer that
    /// is not depthwise falls back to [`ConvAlgo::Im2colGemm`], so sweeping
    /// a forced backend over arbitrary layers is always safe.
    pub fn force_algo(&mut self, algo: Option<ConvAlgo>) {
        self.forced_algo = algo;
    }

    /// Whether this layer is a depthwise convolution
    /// (`groups == in_channels == out_channels`).
    pub(crate) fn is_depthwise(&self) -> bool {
        self.groups == self.in_channels && self.groups == self.out_channels
    }

    /// Whether the layer currently holds a quantized weight.
    pub fn is_quantized(&self) -> bool {
        self.qweight.is_some()
    }

    /// The weight as a runtime-dtype GEMM operand.
    fn weight_mat(&self) -> WeightMat<'_> {
        match &self.qweight {
            Some(q) => q.as_mat(),
            None => WeightMat::F32(self.weight.value.as_slice()),
        }
    }

    /// The backend the next inference forward will run on: a depthwise
    /// layer takes the direct kernel (its per-channel GEMMs are
    /// 1 × k² × ohw — im2col loses at every zoo size) unless
    /// [`ConvAlgo::Im2colGemm`] is forced; every other geometry runs
    /// im2col→GEMM.
    pub fn planned_algo(&self) -> ConvAlgo {
        if self.is_depthwise() && self.forced_algo != Some(ConvAlgo::Im2colGemm) {
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
    /// `ws` (the batch-parallel path gives each sample band its own
    /// short-lived buffer instead).
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
        // the depthwise branch reads the f32 weight directly: it never runs
        // on a quantized layer (depthwise weights stay f32); the GEMM route
        // takes `wmat`
        let wmat = self.weight_mat();
        let bias = self.bias.value.as_slice();
        let out_channels = self.out_channels;
        out.resize_to(&[n, out_channels, oh, ow]);
        let out_data = out.as_mut_slice();
        let epilogue = ep.map(|(scale, shift, act)| Epilogue { scale, shift, act });

        if self.planned_algo() == ConvAlgo::DirectDepthwise {
            self.depthwise_forward(x, epilogue, out_data, h, w);
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
        // once per k-panel, its samples' columns still share full-width
        // register strips, and the pool fan-out bands over all items at
        // once instead of one dispatch per group. Identity-col convs read
        // the input blocks in place; other shapes stage per-(sample, group)
        // col slabs contiguously in the same item order.
        if batched_gemm_enabled()
            && n > 0
            && ohw
                < *self
                    .batched_ohw
                    .get_or_init(|| batched_ohw_max(cout_g, wrow))
        {
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
                Some((scale, shift, act)) => gemm_batch_cyclic_strided_q(
                    wmat,
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
                    gemm_batch_cyclic_acc_strided_q(
                        wmat,
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

        // per-(sample, group) body: im2col into `col` (unless the identity
        // fast path applies), then one GEMM whose store loop carries the
        // whole epilogue (or the bias as the GEMM's initial value on the
        // unfused path)
        let sample_group = |ni: usize, g: usize, col: &mut [f32], out_sample: &mut [f32]| {
            let in_offset = ni * c * h * w + g * cin_g * h * w;
            let input_block = &x[in_offset..in_offset + cin_g * h * w];
            let col_ref: &[f32] = if identity_col {
                input_block
            } else {
                im2col(input_block, col, cin_g, h, w, k, k, stride, padding, oh, ow);
                col
            };
            let w_g = wmat.slice(g * cout_g * wrow, (g + 1) * cout_g * wrow);
            let out_g = &mut out_sample[g * cout_g * ohw..(g + 1) * cout_g * ohw];
            match ep {
                Some((scale, shift, act)) => gemm_epilogue_q(
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
                    gemm_acc_q(w_g, col_ref, out_g, cout_g, wrow, ohw);
                }
            }
        };

        let bands = hs_parallel::num_threads().min(n.max(1));
        if bands <= 1 || hs_parallel::inside_pool() {
            // single stream (or already on a pool worker, where spawns would
            // run inline anyway): reuse the workspace's scratch so
            // steady-state inference allocates nothing
            if col_scratch.len() < colsz_eff {
                col_scratch.resize_to(&[colsz_eff]);
            }
            let col = &mut col_scratch.as_mut_slice()[..colsz_eff];
            for (ni, out_sample) in out_data.chunks_mut(out_channels * ohw).enumerate() {
                for g in 0..groups {
                    sample_group(ni, g, col, out_sample);
                }
            }
        } else {
            let band_len = n.div_ceil(bands).max(1);
            let band_out = band_len * out_channels * ohw;
            hs_parallel::scope(|s| {
                for (band, out_band) in out_data.chunks_mut(band_out).enumerate() {
                    let sample_group = &sample_group;
                    s.spawn(move || {
                        let n0 = band * band_len;
                        let samples = out_band.len() / (out_channels * ohw);
                        let mut local_col = vec![0.0f32; colsz_eff];
                        for si in 0..samples {
                            for g in 0..groups {
                                let out_sample = &mut out_band
                                    [si * out_channels * ohw..(si + 1) * out_channels * ohw];
                                sample_group(n0 + si, g, &mut local_col, out_sample);
                            }
                        }
                    });
                }
            });
        }
        ws.give(col_scratch);
    }

    /// The direct depthwise forward over a whole batch: one spatial
    /// micro-kernel per (sample, channel) — no column matrix, no scratch —
    /// with the samples fanned out over the pool in bands. Serves both the
    /// [`ConvAlgo::DirectDepthwise`] inference backend and `forward_train`.
    fn depthwise_forward(
        &self,
        x: &[f32],
        epilogue: Option<Epilogue<'_>>,
        out_data: &mut [f32],
        h: usize,
        w: usize,
    ) {
        let c = self.in_channels;
        let (oh, ow) = self.out_size(h, w);
        let chw = c * h * w;
        let out_chw = c * oh * ow;
        let n = x.len() / chw.max(1);
        let wgt = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let (k, stride, padding) = (self.kernel, self.stride, self.padding);
        let sample = |ni: usize, out_sample: &mut [f32]| {
            depthwise_conv2d(
                &x[ni * chw..(ni + 1) * chw],
                wgt,
                bias,
                epilogue,
                out_sample,
                c,
                h,
                w,
                k,
                stride,
                padding,
            );
        };
        let bands = hs_parallel::num_threads().min(n.max(1));
        if bands <= 1 || hs_parallel::inside_pool() {
            for (ni, out_sample) in out_data.chunks_mut(out_chw).enumerate() {
                sample(ni, out_sample);
            }
        } else {
            let band_len = n.div_ceil(bands).max(1);
            hs_parallel::scope(|s| {
                for (band, out_band) in out_data.chunks_mut(band_len * out_chw).enumerate() {
                    let sample = &sample;
                    s.spawn(move || {
                        let n0 = band * band_len;
                        for (si, out_sample) in out_band.chunks_mut(out_chw).enumerate() {
                            sample(n0 + si, out_sample);
                        }
                    });
                }
            });
        }
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
        assert!(
            self.qweight.is_none(),
            "Conv2d: cannot train a quantized layer — call to_dtype(DType::F32) first"
        );

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

        self.cached_input_dims = Some(dims.to_vec());
        // backward consumes `train_cache`, which only this method writes —
        // an inference between forward_train and backward cannot clobber it
        if self.is_depthwise() {
            // direct kernel; backward needs the input, not a 9×-larger
            // column matrix
            self.train_cache.clear();
            self.train_cache.extend_from_slice(input.as_slice());
            let mut out = vec![0.0f32; n * self.out_channels * ohw];
            self.depthwise_forward(input.as_slice(), None, &mut out, h, w);
            return Tensor::from_vec(out, &[n, self.out_channels, oh, ow]);
        }
        // one flat scratch for every sample's im2col, reused across steps
        self.train_cache.resize(n * groups * colsz, 0.0);

        let x = input.as_slice();
        let wgt = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        let out_channels = self.out_channels;
        let mut out = vec![0.0f32; n * out_channels * ohw];

        // the per-(sample, group) body: im2col into `col`, then
        // out_g = bias + W_g (cout_g x wrow) * col (wrow x ohw) — the bias is
        // the GEMM's initial value, saving a read-modify-write pass
        let sample_group = |ni: usize, g: usize, col: &mut [f32], out_sample: &mut [f32]| {
            let in_offset = ni * c * h * w + g * cin_g * h * w;
            im2col(
                &x[in_offset..in_offset + cin_g * h * w],
                col,
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
            let w_g = &wgt[g * cout_g * wrow..(g + 1) * cout_g * wrow];
            let out_g = &mut out_sample[g * cout_g * ohw..(g + 1) * cout_g * ohw];
            for oc in 0..cout_g {
                out_g[oc * ohw..(oc + 1) * ohw].fill(bias[g * cout_g + oc]);
            }
            gemm_acc(w_g, col, out_g, cout_g, wrow, ohw);
        };

        let bands = hs_parallel::num_threads().min(n.max(1));
        if bands <= 1 {
            // single band: stay off the pool so the GEMM layer's own
            // row-block parallelism can fan out instead
            for (ni, out_sample) in out.chunks_mut(out_channels * ohw).enumerate() {
                for g in 0..groups {
                    let col = &mut self.train_cache
                        [(ni * groups + g) * colsz..(ni * groups + g + 1) * colsz];
                    sample_group(ni, g, col, out_sample);
                }
            }
        } else {
            let band_len = n.div_ceil(bands).max(1);
            let band_out = band_len * out_channels * ohw;
            // each band writes its slice of the cache (consumed by backward)
            let col_bands = self.train_cache.chunks_mut(band_len * groups * colsz);
            hs_parallel::scope(|s| {
                for ((band, out_band), col_band) in
                    out.chunks_mut(band_out).enumerate().zip(col_bands)
                {
                    let sample_group = &sample_group;
                    s.spawn(move || {
                        let n0 = band * band_len;
                        let samples = out_band.len() / (out_channels * ohw);
                        for si in 0..samples {
                            for g in 0..groups {
                                let col = &mut col_band
                                    [(si * groups + g) * colsz..(si * groups + g + 1) * colsz];
                                let out_sample = &mut out_band
                                    [si * out_channels * ohw..(si + 1) * out_channels * ohw];
                                sample_group(n0 + si, g, col, out_sample);
                            }
                        }
                    });
                }
            });
        }
        Tensor::from_vec(out, &[n, out_channels, oh, ow])
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        self.infer_epilogue(input, None, out, ws);
    }

    fn as_conv2d(&self) -> Option<&Conv2d> {
        Some(self)
    }

    fn for_each_conv2d_mut(&mut self, f: &mut dyn FnMut(&mut Conv2d)) {
        f(self);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            self.qweight.is_none(),
            "Conv2d: cannot backprop through a quantized layer — call to_dtype(DType::F32) first"
        );
        let in_dims = self
            .cached_input_dims
            .clone()
            .expect("backward called before forward(train=true)");
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

        let go = grad_out.as_slice();
        let wgt = self.weight.value.as_slice();

        // W^T per group, shared read-only by every sample band (the
        // depthwise kernel reads W as it is)
        let depthwise = self.is_depthwise();
        let mut wt = Vec::new();
        if !depthwise {
            wt.resize(groups * wrow * cout_g, 0.0f32);
            for g in 0..groups {
                transpose_into(
                    &wgt[g * cout_g * wrow..(g + 1) * cout_g * wrow],
                    &mut wt[g * wrow * cout_g..(g + 1) * wrow * cout_g],
                    cout_g,
                    wrow,
                );
            }
        }

        let mut grad_in = vec![0.0f32; n * c * h * w];
        let bands = hs_parallel::num_threads().min(n.max(1));
        let band_len = n.div_ceil(bands).max(1);
        let n_bands = n.div_ceil(band_len).max(1);
        // per-band partial gradients, reduced serially after the fan-out
        let mut grad_w_parts = vec![0.0f32; n_bands * wlen];
        let mut grad_b_parts = vec![0.0f32; n_bands * out_channels];

        let train_cache = &self.train_cache;
        let wt = &wt;
        // one sample band: bias/weight gradients into the band's partial
        // buffers, input gradients into its disjoint grad_in window
        let depthwise_band =
            |n0: usize, gin_band: &mut [f32], gw_part: &mut [f32], gb_part: &mut [f32]| {
                let chw = c * h * w;
                for (si, gin_sample) in gin_band.chunks_mut(chw).enumerate() {
                    let ni = n0 + si;
                    depthwise_conv2d_backward(
                        &train_cache[ni * chw..(ni + 1) * chw],
                        wgt,
                        &go[ni * out_channels * ohw..(ni + 1) * out_channels * ohw],
                        gin_sample,
                        gw_part,
                        gb_part,
                        c,
                        h,
                        w,
                        k,
                        stride,
                        padding,
                    );
                }
            };
        let gemm_band =
            |n0: usize, gin_band: &mut [f32], gw_part: &mut [f32], gb_part: &mut [f32]| {
                let samples = gin_band.len() / (c * h * w);
                let mut grad_col = vec![0.0f32; colsz];
                let mut col_t = vec![0.0f32; colsz];
                for si in 0..samples {
                    let ni = n0 + si;
                    for g in 0..groups {
                        let col =
                            &train_cache[(ni * groups + g) * colsz..(ni * groups + g + 1) * colsz];
                        let go_off = ni * out_channels * ohw + g * cout_g * ohw;
                        let go_g = &go[go_off..go_off + cout_g * ohw];
                        // bias gradient
                        for oc in 0..cout_g {
                            gb_part[g * cout_g + oc] +=
                                go_g[oc * ohw..(oc + 1) * ohw].iter().sum::<f32>();
                        }
                        // weight gradient: dW_g += dOut_g * col^T
                        transpose_into(col, &mut col_t, wrow, ohw);
                        gemm_acc(
                            go_g,
                            &col_t,
                            &mut gw_part[g * cout_g * wrow..(g + 1) * cout_g * wrow],
                            cout_g,
                            ohw,
                            wrow,
                        );
                        // input gradient: dCol = W_g^T * dOut_g, then col2im
                        gemm(
                            &wt[g * wrow * cout_g..(g + 1) * wrow * cout_g],
                            go_g,
                            &mut grad_col,
                            wrow,
                            cout_g,
                            ohw,
                        );
                        let in_offset = si * c * h * w + g * cin_g * h * w;
                        col2im(
                            &grad_col,
                            &mut gin_band[in_offset..in_offset + cin_g * h * w],
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
            };
        let band_body =
            |n0: usize, gin_band: &mut [f32], gw_part: &mut [f32], gb_part: &mut [f32]| {
                if depthwise {
                    depthwise_band(n0, gin_band, gw_part, gb_part);
                } else {
                    gemm_band(n0, gin_band, gw_part, gb_part);
                }
            };

        if n_bands <= 1 {
            // stay off the pool so the per-group GEMMs can use the kernel
            // layer's own row-block parallelism
            band_body(0, &mut grad_in, &mut grad_w_parts, &mut grad_b_parts);
        } else {
            hs_parallel::scope(|s| {
                for (((band, gin_band), gw_part), gb_part) in grad_in
                    .chunks_mut((band_len * c * h * w).max(1))
                    .enumerate()
                    .zip(grad_w_parts.chunks_mut(wlen))
                    .zip(grad_b_parts.chunks_mut(out_channels))
                {
                    let band_body = &band_body;
                    s.spawn(move || band_body(band * band_len, gin_band, gw_part, gb_part));
                }
            });
        }

        // reduce band partials
        let mut grad_w = vec![0.0f32; wlen];
        for part in grad_w_parts.chunks(wlen) {
            for (acc, v) in grad_w.iter_mut().zip(part.iter()) {
                *acc += v;
            }
        }
        let mut grad_b = vec![0.0f32; out_channels];
        for part in grad_b_parts.chunks(out_channels) {
            for (acc, v) in grad_b.iter_mut().zip(part.iter()) {
                *acc += v;
            }
        }

        self.weight
            .accumulate_grad(&Tensor::from_vec(grad_w, self.weight.value.dims()));
        self.bias
            .accumulate_grad(&Tensor::from_vec(grad_b, &[self.out_channels]));
        Tensor::from_vec(grad_in, &[n, c, h, w])
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        if self.qweight.is_some() {
            // the f32 weight is parked empty while quantized; only the bias
            // remains a trainable/exchangeable f32 parameter
            vec![&mut self.bias]
        } else {
            vec![&mut self.weight, &mut self.bias]
        }
    }

    fn to_dtype(&mut self, dtype: DType) {
        // depthwise convolutions stay f32: their direct spatial micro-kernel
        // has no packing layer to widen through, and their weights are tiny
        // (k*k per channel) so there is nothing to win
        if self.is_depthwise() && dtype != DType::F32 {
            return;
        }
        // conv weights quantize to f16 only; per-tensor i8 is too coarse for
        // conv stacks, so an i8 request also stores f16 here
        let dtype = match dtype {
            DType::I8 => DType::F16,
            other => other,
        };
        match (dtype, self.qweight.take()) {
            (DType::F32, Some(q)) => {
                self.weight.value = q.to_f32();
                self.weight.grad = Tensor::zeros(self.weight.value.dims());
                self.cached_input_dims = None;
            }
            (DType::F32, None) => {}
            (_, prior) => {
                let f32_weight = match &prior {
                    Some(q) => q.to_f32(),
                    None => std::mem::replace(&mut self.weight.value, Tensor::zeros(&[0])),
                };
                self.qweight = QTensor::quantize(&f32_weight, dtype);
                self.weight.value = Tensor::zeros(&[0]);
                self.weight.grad = Tensor::zeros(&[0]);
                self.cached_input_dims = None;
            }
        }
    }

    fn param_stores(&mut self) -> Vec<ParamStore<'_>> {
        match &mut self.qweight {
            Some(q) => vec![ParamStore::Quant(q), ParamStore::F32(&mut self.bias)],
            None => vec![
                ParamStore::F32(&mut self.weight),
                ParamStore::F32(&mut self.bias),
            ],
        }
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
        assert_eq!(conv.params_mut()[0].value.dims(), &[6, 1, 3, 3]);
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
        conv.params_mut()[0].value = w;
        conv.params_mut()[1].value = Tensor::zeros(&[1]);
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
        for (cin, cout, k, s, p, g, h, w) in [
            (
                3usize, 4usize, 3usize, 1usize, 1usize, 1usize, 8usize, 8usize,
            ),
            (4, 4, 3, 2, 1, 2, 9, 9),
            (5, 5, 3, 1, 1, 5, 6, 6), // depthwise
        ] {
            let mut conv = Conv2d::new(cin, cout, k, s, p, g, &mut rng);
            let x = Tensor::rand_uniform(&[3, cin, h, w], -1.0, 1.0, &mut rng);
            let y = conv.forward(&x, true);
            let grad_out = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);
            let grad_in = conv.backward(&grad_out);

            let (ref_gin, ref_gw, ref_gb) = conv.backward_reference(&x, &grad_out);
            for (a, b) in grad_in.as_slice().iter().zip(ref_gin.as_slice()) {
                assert!((a - b).abs() < 1e-3, "grad_in mismatch: {a} vs {b}");
            }
            let gw = conv.params_mut()[0].grad.clone();
            for (a, b) in gw.as_slice().iter().zip(ref_gw.as_slice()) {
                assert!((a - b).abs() < 1e-2, "grad_w mismatch: {a} vs {b}");
            }
            let gb = conv.params_mut()[1].grad.clone();
            for (a, b) in gb.as_slice().iter().zip(ref_gb.as_slice()) {
                assert!((a - b).abs() < 1e-2, "grad_b mismatch: {a} vs {b}");
            }
            conv.params_mut()[0].grad = Tensor::zeros(gw.dims());
            conv.params_mut()[1].grad = Tensor::zeros(gb.dims());
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
        let analytic = conv.params_mut()[0].grad.at(&[1, 0, 1, 2]);

        let eps = 1e-3;
        let base = conv.params_mut()[0].value.at(&[1, 0, 1, 2]);
        *conv.params_mut()[0].value.at_mut(&[1, 0, 1, 2]) = base + eps;
        let plus = conv.forward(&x, false).sum();
        *conv.params_mut()[0].value.at_mut(&[1, 0, 1, 2]) = base - eps;
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
        assert_eq!(conv.params_mut()[0].grad.dims(), &[4, 2, 3, 3]);
    }

    #[test]
    fn eval_forward_between_train_forward_and_backward_keeps_gradients() {
        // an eval pass (different batch size AND geometry) between
        // forward(train=true) and backward() must not clobber the cached
        // im2col columns the backward pass consumes
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
        let gw = conv.params_mut()[0].grad.clone();
        for (a, b) in gw.as_slice().iter().zip(ref_gw.as_slice()) {
            assert!(
                (a - b).abs() < 1e-2,
                "grad_w clobbered by eval pass: {a} vs {b}"
            );
        }
        let gb = conv.params_mut()[1].grad.clone();
        for (a, b) in gb.as_slice().iter().zip(ref_gb.as_slice()) {
            assert!(
                (a - b).abs() < 1e-2,
                "grad_b clobbered by eval pass: {a} vs {b}"
            );
        }
    }

    /// Re-enables the batched small-GEMM route when dropped, so a failing
    /// assertion in a toggling test cannot leave this thread's flag off if
    /// the test harness ever reuses the thread.
    struct BatchedGemmGuard;
    impl Drop for BatchedGemmGuard {
        fn drop(&mut self) {
            set_batched_gemm(true);
        }
    }

    #[test]
    fn batched_route_matches_per_sample_loop() {
        // the batched small-GEMM route (identity-col 1×1 convs and small-ohw
        // im2col shapes) must reproduce the per-(sample, group) GEMM loop
        // exactly — same kernels, same panel split, same accumulation order
        let _restore = BatchedGemmGuard;
        let mut rng = StdRng::seed_from_u64(31);
        // (cin, cout, kernel, stride, pad, groups, h, w): 1×1 identity-col
        // (grouped and dense), small-ohw 3×3, strided/padded small shapes
        for (cin, cout, k, s, p, g, h, w) in [
            (
                8usize, 16usize, 1usize, 1usize, 0usize, 1usize, 6usize, 6usize,
            ),
            (8, 8, 1, 1, 0, 4, 4, 4),
            (4, 6, 3, 1, 1, 1, 7, 9),
            (6, 6, 3, 2, 1, 2, 9, 9),
            (3, 5, 1, 1, 0, 1, 2, 2), // tiny ohw, batch panels far below NR
        ] {
            let mut conv = Conv2d::new(cin, cout, k, s, p, g, &mut rng);
            let x = Tensor::rand_uniform(&[5, cin, h, w], -1.0, 1.0, &mut rng);
            set_batched_gemm(false);
            let looped = conv.forward(&x, false);
            set_batched_gemm(true);
            let batched = conv.forward(&x, false);
            assert_eq!(looped.dims(), batched.dims());
            for (i, (a, b)) in looped
                .as_slice()
                .iter()
                .zip(batched.as_slice().iter())
                .enumerate()
            {
                assert!(
                    (a - b).abs() <= 1e-5 * a.abs().max(1.0),
                    "cin={cin} cout={cout} k={k} s={s} p={p} g={g}: element {i}: {a} vs {b}"
                );
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
        let gw1 = conv.params_mut()[0].grad.clone();
        let y2 = conv.forward(&x, true);
        let g2 = conv.backward(&Tensor::ones(y2.dims()));
        assert_eq!(y1, y2);
        assert_eq!(g1, g2);
        // grads accumulate: second step doubles the first
        let gw2 = conv.params_mut()[0].grad.clone();
        for (a, b) in gw2.as_slice().iter().zip(gw1.as_slice()) {
            assert!((a - 2.0 * b).abs() < 1e-3);
        }
    }

    #[test]
    fn quantized_inference_stays_close_and_round_trips() {
        let mut rng = StdRng::seed_from_u64(17);
        // grouped conv so the per-group wmat.slice path is exercised too
        let mut conv = Conv2d::new(4, 6, 3, 1, 1, 2, &mut rng);
        let x = Tensor::rand_uniform(&[2, 4, 9, 9], -1.0, 1.0, &mut rng);
        let reference = conv.forward(&x, false);
        let w_before = conv.params_mut()[0].value.clone();
        for requested in [DType::F16, DType::I8] {
            conv.to_dtype(requested);
            assert!(conv.is_quantized());
            // conv weights always quantize to f16 (i8 requests included)
            let stores = conv.param_stores();
            assert_eq!(stores.len(), 2);
            assert_eq!(stores[0].dtype(), DType::F16);
            assert_eq!(stores[0].dims(), &[6, 2, 3, 3]);
            drop(stores);
            assert_eq!(conv.params_mut().len(), 1);
            assert_eq!(conv.planned_algo(), ConvAlgo::Im2colGemm);
            let y = conv.forward(&x, false);
            for (a, b) in reference.as_slice().iter().zip(y.as_slice()) {
                assert!((a - b).abs() <= 5e-3 * a.abs().max(1.0), "{a} vs {b}");
            }
            conv.to_dtype(DType::F32);
            assert!(!conv.is_quantized());
        }
        // f16 -> f32 weights round-trip within f16 precision; restore the
        // pristine weights first so prior conversions don't compound
        conv.params_mut()[0].value = w_before.clone();
        conv.to_dtype(DType::F16);
        conv.to_dtype(DType::F32);
        for (a, b) in w_before
            .as_slice()
            .iter()
            .zip(conv.params_mut()[0].value.as_slice())
        {
            assert!((a - b).abs() <= 4.9e-4 * a.abs().max(1e-3), "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_batched_route_matches_f32() {
        // small spatial output drives the cyclic batched-GEMM route; the
        // quantized weight must flow through its packing layer identically
        let mut rng = StdRng::seed_from_u64(23);
        let mut conv = Conv2d::new(8, 16, 1, 1, 0, 1, &mut rng);
        let x = Tensor::rand_uniform(&[4, 8, 4, 4], -1.0, 1.0, &mut rng);
        let reference = conv.forward(&x, false);
        conv.to_dtype(DType::F16);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), reference.dims());
        for (a, b) in reference.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() <= 5e-3 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn depthwise_layers_ignore_quantization() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut conv = Conv2d::depthwise(6, 3, 1, 1, &mut rng);
        conv.to_dtype(DType::F16);
        assert!(!conv.is_quantized());
        assert_eq!(conv.params_mut().len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot train a quantized layer")]
    fn training_a_quantized_conv_panics() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 1, &mut rng);
        conv.to_dtype(DType::F16);
        let x = Tensor::zeros(&[1, 2, 5, 5]);
        let _ = conv.forward(&x, true);
    }
}
