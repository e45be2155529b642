//! The high-performance GEMM kernel layer.
//!
//! This module is the compute core every hot path in the workspace funnels
//! into: [`Tensor::matmul`](crate::Tensor::matmul), the im2col convolution in
//! `hs-nn`, and the dense layers. It implements the classic BLIS/GotoBLAS
//! decomposition:
//!
//! * the `k` dimension is split into `KC`-deep panels,
//! * `B` panels are packed into `NR`-wide column strips,
//! * `A` panels are packed into `MR`-tall row tiles (column-major inside the
//!   tile so the micro-kernel reads both packs sequentially),
//! * an `MR x NR` register-tiled micro-kernel does all the flops.
//!
//! Up to `DIRECT_M_MAX` rows nothing is packed that can be read where it
//! lies: the kernel broadcasts `A` straight from its source at the source's
//! strides and reads full-width `B` strips in place; only a ragged row tile
//! and a ragged or transposed strip are packed, and a remainder of at most
//! two `NW`-wide strips runs on a narrow tile instead of a zero-padded wide
//! one.
//!
//! An operand's layout is data (`Mat`: a slice and two strides), so
//! [`gemm_nt`] and [`gemm_tn`] are the same core over a transposed view:
//! no entry point stages a transpose. `gemm_nt` picks, by shape, between
//! gathering `Bᵀ`'s strips and computing `outᵀ = B · Aᵀ` with `B` read in
//! place and every tile stored transposed.
//!
//! Every entry point runs on the calling thread. Parallelism belongs to the
//! callers that split whole problems: `hs-nn`'s inference sample shards and
//! training bands, and the FL round's clients.
//!
//! The micro-kernel is written **once**, over the crate's lane abstraction
//! (`crate::lanes`), and instantiated per ISA tier selected **at runtime**
//! (the build stays a plain portable `x86-64`/other target — no
//! `-C target-cpu` required):
//!
//! * AVX-512F: the 8x48 tile as 8x3 zmm accumulators (8x1 narrow),
//! * AVX2+FMA: two 4x48 half-tiles of 4x6 ymm accumulators (4x2 narrow),
//! * portable: 8x6 `[f32; 8]` arrays the compiler autovectorises (8x2).
//!
//! Every tile runs the full-speed kernel, and every tile is stored by the
//! same kernel store (`tile`): a full tile in place, a ragged,
//! item-spanning or transposed one through a small bounce buffer that holds
//! its live destination corner. So on one tier an output element is rounded
//! by one rule wherever its tile falls and whichever operand is broadcast:
//! the fused multiply-add chain over `k` from zero, then `out += acc` per
//! `k` panel, or with an epilogue `act(fma(out + acc, scale, shift))` — a
//! fused multiply-add on the AVX tiers, multiply-then-add on the portable
//! one. Unlike the seed's i-k-j loop there is **no** `== 0.0` skip branch:
//! `0 * NaN` correctly stays `NaN` and the inner loop stays branch-free.
//!
//! Packing buffers live in a thread-local `GemmScratch`, so steady-state
//! GEMM calls allocate nothing.
//!
//! # Safety
//!
//! The `unsafe` here is the two calls into the `#[target_feature]` entry
//! points and the tier tokens those construct — an entry point is only ever
//! called after `isa()` reported its ISA, which is the tokens' contract
//! (`crate::lanes`, the one file that names an intrinsic) — and the
//! unchecked reads of an `A` element and a `B` row in the kernel's `k`
//! loop, whose bounds are asserted once before the loop. Everything else in
//! the kernel body is bounds-checked slice code.

#![allow(
    unsafe_code,
    reason = "calls into the #[target_feature] kernels and the kernel's unchecked operand reads"
)]

use crate::isa::{isa, Isa};
use crate::lanes::{with_act, ActBody, Lanes, Portable};
#[cfg(target_arch = "x86_64")]
use crate::lanes::{Avx2, Avx512};
use std::cell::RefCell;

/// Activation applied by a GEMM [`Epilogue`] after the scale/shift step.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum EpilogueAct {
    /// Identity: the affine result is stored unchanged.
    #[default]
    None,
    /// `max(0, x)`.
    Relu,
    /// MobileNetV3 hard-swish, `x · clamp((x + 3) / 6, 0, 1)`, with the
    /// division written as a multiplication by `1/6`: every kernel tier
    /// computes this same form, one rounding away from the stand-alone
    /// layer's quotient (inside the fused-vs-unfused parity tolerance).
    HardSwish,
}

/// `1/6` as the hard-swish epilogue multiplies by it.
pub(crate) const SIXTH: f32 = 1.0 / 6.0;

impl EpilogueAct {
    /// Applies the activation to a single value (the scalar reference the
    /// SIMD store loops must match, including on NaN: ReLU maps NaN to 0
    /// like `f32::max`; hard-swish propagates it like the unfused
    /// `HardSwish` layer).
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            EpilogueAct::None => v,
            EpilogueAct::Relu => v.max(0.0),
            EpilogueAct::HardSwish => v * ((v + 3.0) * SIXTH).clamp(0.0, 1.0),
        }
    }
}

/// A fused GEMM epilogue: per-output-row affine transform followed by an
/// activation, applied inside the micro-kernel store loop on the final `k`
/// panel, so `y[i][j] = act(scale[i] * (A*B)[i][j] + shift[i])` costs no
/// extra pass over the output.
///
/// This is exactly the shape of an inference `Conv2d -> BatchNorm2d ->
/// activation` stack expressed as a GEMM over the im2col matrix: rows are
/// output channels, `scale = gamma / sqrt(var + eps)` and
/// `shift = beta - mean * scale + scale * bias` fold the batch-norm (and the
/// convolution bias) into the store.
#[derive(Clone, Copy)]
pub struct Epilogue<'a> {
    /// Per-output-row multiplier (`len >= m`).
    pub scale: &'a [f32],
    /// Per-output-row addend (`len >= m`).
    pub shift: &'a [f32],
    /// Activation applied after the affine step.
    pub act: EpilogueAct,
}

impl<'a> Epilogue<'a> {
    /// The epilogue re-based so row `rows` becomes row 0 (a cyclic batch's
    /// group `g` uses rows `[g * m, (g + 1) * m)`).
    fn offset_rows(&self, rows: usize) -> Epilogue<'a> {
        Epilogue {
            scale: &self.scale[rows..],
            shift: &self.shift[rows..],
            act: self.act,
        }
    }

    /// Applies the epilogue to one scalar at output row `row`.
    #[inline]
    fn apply_scalar(&self, row: usize, v: f32) -> f32 {
        self.act.apply(v * self.scale[row] + self.shift[row])
    }
}

/// Rows per micro-kernel tile.
pub const MR: usize = 8;
/// Columns per micro-kernel tile.
pub const NR: usize = 48;
/// Columns of the narrow tile the direct path runs on a strip remainder of
/// at most `2 * NW` columns (one AVX-512 vector, two AVX2 / portable ones).
const NW: usize = 16;
/// Depth of one packed `k` panel.
const KC: usize = 256;
/// `A`-block height in tiles: one block packs `MC_TILES * MR` rows.
const MC_TILES: usize = 64;
/// Up to this many output rows, `B` is read in place instead of packed: a
/// packed panel would be reused at most `m / MR` times, too few to pay for
/// the packing traffic (the convolution GEMMs sit squarely in this regime).
const DIRECT_M_MAX: usize = 64;

/// Reusable packing buffers. One lives per thread (the `SCRATCH`
/// thread-local).
struct GemmScratch {
    apack: Vec<f32>,
    bpack: Vec<f32>,
}

impl GemmScratch {
    const fn new() -> Self {
        GemmScratch {
            apack: Vec::new(),
            bpack: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<GemmScratch> = const { RefCell::new(GemmScratch::new()) };
}

/// A read-only strided matrix: element `(r, c)` is `data[r * rs + c * cs]`.
/// An operand's layout is data, not a code path: the transpose of a
/// row-major matrix is the same slice with its two strides swapped, so
/// `A·B`, `A·Bᵀ` and `Aᵀ·B` run through one core.
#[derive(Clone, Copy)]
struct Mat<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// A row-major matrix with `cols` columns.
    fn rows(data: &'a [f32], cols: usize) -> Self {
        Mat {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// A packed `A` tile (`apack[p][i]`, `MR` rows per `p`).
    fn packed(data: &'a [f32]) -> Self {
        Mat {
            data,
            rs: 1,
            cs: MR,
        }
    }

    /// The transpose.
    fn t(self) -> Self {
        Mat {
            rs: self.cs,
            cs: self.rs,
            ..self
        }
    }

    /// The sub-matrix whose `(0, 0)` is this one's `(r, c)`.
    fn at(self, r: usize, c: usize) -> Self {
        Mat {
            data: &self.data[r * self.rs + c * self.cs..],
            ..self
        }
    }
}

// ---------------------------------------------------------------------------
// The micro-kernel: out[MR x width] += a (MR x kc) * b-window (kc rows)
// ---------------------------------------------------------------------------

/// One micro-kernel invocation: `out[MR x width]` (row stride `ldc`) takes
/// the product of `a`'s `MR x kc` tile, each element broadcast from where it
/// lies — a packed tile, or a source matrix read in place at any strides —
/// and the `kc` rows of `b` at row stride `ldb`: packed panels pass their
/// own width, the direct path the source matrix's stride so `B` is read in
/// place. `width` is `NR` or `NW`. With `affine` (the tile's `MR` rows of
/// `[scale, shift]`) the store is `act(fma(out + acc, scale, shift))`,
/// without it `out + acc`.
struct Kernel<'a> {
    a: Mat<'a>,
    b: &'a [f32],
    ldb: usize,
    kc: usize,
    width: usize,
    out: &'a mut [f32],
    ldc: usize,
    affine: Option<&'a [[f32; MR]; 2]>,
}

/// [`Kernel`] with its register blocking: `MR / ROWS` passes, each holding
/// `ROWS x VECS` accumulator vectors (`VECS` lanes-wide vectors are the
/// tile's `width` columns).
struct Blocked<'a, const ROWS: usize, const VECS: usize>(Kernel<'a>);

impl<L: Lanes, const ROWS: usize, const VECS: usize> ActBody<L> for Blocked<'_, ROWS, VECS> {
    #[inline(always)]
    fn run(self, l: L, act: impl Fn(L::V) -> L::V + Copy) {
        let Kernel {
            a,
            b,
            ldb,
            kc,
            width,
            out,
            ldc,
            affine,
        } = self.0;
        const { assert!(VECS * L::N <= NR && MR.is_multiple_of(ROWS) && ROWS <= 8) }
        let w = VECS * L::N;
        debug_assert_eq!(w, width, "tile width and blocking disagree");
        let last_row = kc.checked_sub(1).and_then(|p| p.checked_mul(ldb));
        assert!(
            last_row.is_none_or(|at| at.checked_add(w).is_some_and(|end| end <= b.len())),
            "B window too short"
        );
        let last_a = kc.checked_sub(1).and_then(|p| {
            let rows = (MR - 1).checked_mul(a.rs)?;
            p.checked_mul(a.cs)?.checked_add(rows)
        });
        assert!(
            last_a.is_none_or(|at| at < a.data.len()),
            "A tile too short"
        );
        for r0 in (0..MR).step_by(ROWS) {
            let mut acc = [[l.splat(0.0); VECS]; ROWS];
            for p in 0..kc {
                // SAFETY: `p <= kc - 1`, and the assert above put the `w`
                // elements of row `kc - 1` inside `b`. (Measured: a checked
                // slice here, with its panicking exit, costs the AVX-512
                // loop 5-10 %.)
                let bp = unsafe { b.get_unchecked(p * ldb..p * ldb + w) };
                let ap = p * a.cs + r0 * a.rs;
                for (i, acc_i) in acc.iter_mut().enumerate() {
                    // SAFETY: `r0 + i <= MR - 1` and `p <= kc - 1`, and the
                    // assert above put element `(MR - 1, kc - 1)` inside `a`.
                    let av = l.splat(unsafe { *a.data.get_unchecked(ap + i * a.rs) });
                    for (v, acc_iv) in acc_i.iter_mut().enumerate() {
                        let bv = l.load(&bp[v * L::N..(v + 1) * L::N], 0);
                        *acc_iv = l.fma(av, bv, *acc_iv);
                    }
                }
            }
            // the rows' stores, spelled out with literal indices: indexed
            // by a loop variable the accumulator array lives on the stack,
            // through the k loop too
            macro_rules! store_rows {
                ($($i:literal)*) => {$(if $i < ROWS {
                    let row = r0 + $i;
                    let out_row = &mut out[row * ldc..row * ldc + w];
                    // (not `Option::map`: a closure handed to a std
                    // combinator is compiled without the tier's target
                    // feature)
                    let affine = match affine {
                        Some([scale, shift]) => Some((l.splat(scale[row]), l.splat(shift[row]))),
                        None => None,
                    };
                    for v in 0..VECS {
                        let dst = &mut out_row[v * L::N..(v + 1) * L::N];
                        let sum = l.add(l.load(dst, 0), acc[$i][v]);
                        let val = match affine {
                            Some((scale, shift)) => act(l.fma(sum, scale, shift)),
                            None => sum,
                        };
                        l.store(val, dst);
                    }
                })*};
            }
            store_rows!(0 1 2 3 4 5 6 7);
        }
    }
}

/// The AVX-512F instantiation of the kernel: 8x3 zmm accumulators, or 8x1
/// on a narrow tile.
///
/// # Safety
///
/// The CPU must support AVX-512F: call it only after `isa()` reported
/// that tier.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn kernel_avx512(kernel: Kernel<'_>, act: EpilogueAct) {
    // SAFETY: this function's own target feature is the token's contract.
    let l = unsafe { Avx512::new() };
    if kernel.width == NR {
        with_act(l, act, Blocked::<8, 3>(kernel));
    } else {
        with_act(l, act, Blocked::<8, 1>(kernel));
    }
}

/// The AVX2+FMA instantiation of the kernel: two 4x6 ymm half-tiles, or
/// two 4x2 on a narrow tile.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA: call it only after `isa()` reported
/// that tier.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn kernel_avx2(kernel: Kernel<'_>, act: EpilogueAct) {
    // SAFETY: this function's own target features are the token's contract.
    let l = unsafe { Avx2::new() };
    if kernel.width == NR {
        with_act(l, act, Blocked::<4, 6>(kernel));
    } else {
        with_act(l, act, Blocked::<4, 2>(kernel));
    }
}

/// The portable instantiation of the kernel. Out of line like its two
/// siblings: inlined, its three activation variants swell every tile loop
/// (4-10 % on short-`k` GEMMs of the AVX tiers). It takes the kernel's
/// fields as separate parameters because a slice parameter carries the
/// no-alias guarantee that a struct field loses, and its autovectorised
/// loops measure 8 % slower without it (the vector tiers do not care, and
/// the AVX2 blocking, which spills, measured worse with it).
#[inline(never)]
#[allow(
    clippy::too_many_arguments,
    reason = "separate slices keep the no-alias guarantee a struct field loses"
)]
fn kernel_portable(
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    ldb: usize,
    kc: usize,
    width: usize,
    out: &mut [f32],
    ldc: usize,
    affine: Option<&[[f32; MR]; 2]>,
    act: EpilogueAct,
) {
    let kernel = Kernel {
        a: Mat {
            data: a,
            rs: a_rs,
            cs: a_cs,
        },
        b,
        ldb,
        kc,
        width,
        out,
        ldc,
        affine,
    };
    if width == NR {
        with_act(Portable, act, Blocked::<8, 6>(kernel));
    } else {
        with_act(Portable, act, Blocked::<8, 2>(kernel));
    }
}

/// Runs one [`Kernel`] on tier `which`.
#[inline]
fn run_kernel(which: Isa, k: Kernel<'_>, act: EpilogueAct) {
    match which {
        // SAFETY: `which` comes from `isa()`, which returns only tiers this
        // CPU was detected to have.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { kernel_avx512(k, act) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { kernel_avx2(k, act) },
        Isa::Portable => kernel_portable(
            k.a.data,
            (k.a.rs, k.a.cs),
            k.b,
            k.ldb,
            k.kc,
            k.width,
            k.out,
            k.ldc,
            k.affine,
            act,
        ),
    }
}

/// Where a tile's `mr x nr` live corner lands: rows `i0..` of the `[m, n]`
/// output panels that sit `stride_out` apart in `outs`, at columns
/// `j0..j0 + nr` of their *virtual column concatenation* (see
/// [`for_each_segment`]; a plain GEMM is the one-panel case). The tile is
/// `width` (`NR` or `NW`) columns wide. A `trans` corner is stored
/// transposed: tile element `(i, j)` is `outs[j * n + i]`, so the kernel
/// computes `outᵀ` of an `[n, ·]` output (one panel, no epilogue).
#[derive(Clone, Copy)]
struct Corner {
    i0: usize,
    mr: usize,
    j0: usize,
    nr: usize,
    n: usize,
    stride_out: usize,
    width: usize,
    trans: bool,
}

/// Multiplies one `A` tile with `kc` rows of `b` (row stride `ldb`) into its
/// corner of `outs` — the one store path of every GEMM entry point. A full
/// tile inside one panel runs the kernel in place. A ragged, panel-spanning
/// or transposed one runs the same kernel on a bounce buffer holding the
/// corner's current values (scale/shift padded to `MR` rows) and copies the
/// corner back, so an output element is rounded the same way wherever its
/// tile falls. `ep` is indexed by output row and must only be passed on the
/// final `k` panel.
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
#[inline(always)]
fn tile(
    which: Isa,
    a: Mat<'_>,
    b: &[f32],
    ldb: usize,
    kc: usize,
    outs: &mut [f32],
    at: Corner,
    ep: Option<Epilogue<'_>>,
) {
    let Corner {
        i0,
        mr,
        j0,
        nr,
        n,
        stride_out,
        width,
        trans,
    } = at;
    debug_assert!(!trans || (ep.is_none() && stride_out == 0));
    let act = ep.map_or(EpilogueAct::None, |e| e.act);
    // the tile's scale/shift rows, padded to `MR`
    let affine = ep.map(|e| {
        let mut rows = [[0.0f32; MR]; 2];
        rows[0][..mr].copy_from_slice(&e.scale[i0..i0 + mr]);
        rows[1][..mr].copy_from_slice(&e.shift[i0..i0 + mr]);
        rows
    });
    let affine = affine.as_ref();
    // (a plain GEMM's one panel never divides)
    let (s0, j) = if j0 < n { (0, j0) } else { (j0 / n, j0 % n) };
    if !trans && mr == MR && nr == width && j + width <= n {
        let kernel = Kernel {
            a,
            b,
            ldb,
            kc,
            width,
            out: &mut outs[s0 * stride_out + i0 * n + j..],
            ldc: n,
            affine,
        };
        return run_kernel(which, kernel, act);
    }
    let mut bounce = [0.0f32; MR * NR];
    let bounce = &mut bounce[..MR * width];
    if trans {
        for c in 0..nr {
            let src = &outs[(j0 + c) * n + i0..][..mr];
            for (r, &v) in src.iter().enumerate() {
                bounce[r * width + c] = v;
            }
        }
    } else {
        for_each_segment(j0, nr, n, |s, j, off, seg| {
            for (i, row) in bounce.chunks_exact_mut(width).take(mr).enumerate() {
                let base = s * stride_out + (i0 + i) * n + j;
                row[off..off + seg].copy_from_slice(&outs[base..base + seg]);
            }
        });
    }
    let kernel = Kernel {
        a,
        b,
        ldb,
        kc,
        width,
        out: bounce,
        ldc: width,
        affine,
    };
    run_kernel(which, kernel, act);
    if trans {
        for c in 0..nr {
            let dst = &mut outs[(j0 + c) * n + i0..][..mr];
            for (r, v) in dst.iter_mut().enumerate() {
                *v = bounce[r * width + c];
            }
        }
    } else {
        for_each_segment(j0, nr, n, |s, j, off, seg| {
            for (i, row) in bounce.chunks_exact(width).take(mr).enumerate() {
                let base = s * stride_out + (i0 + i) * n + j;
                outs[base..base + seg].copy_from_slice(&row[off..off + seg]);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Packs the `rows x cols` block of `src` at `(r0, c0)` into the first
/// `rows` rows of `dst` at row stride `ld >= cols`, zero-padding columns
/// `cols..ld`: the one packing routine, since a `B` strip is a block of `B`
/// and an `A` tile a block of `Aᵀ`. The block is copied run by run along
/// whichever of its axes is contiguous in the source, so a transposed
/// operand is read where it lies instead of being staged.
fn pack_block(
    src: Mat<'_>,
    (r0, c0): (usize, usize),
    (rows, cols): (usize, usize),
    dst: &mut [f32],
    ld: usize,
) {
    let dst = &mut dst[..rows * ld];
    if src.cs == 1 {
        for (r, row) in dst.chunks_exact_mut(ld).enumerate() {
            row[..cols].copy_from_slice(&src.at(r0 + r, c0).data[..cols]);
            row[cols..].fill(0.0);
        }
        return;
    }
    for row in dst.chunks_exact_mut(ld) {
        row[cols..].fill(0.0);
    }
    for c in 0..cols {
        let col = src.at(r0, c0 + c).data.iter().step_by(src.rs);
        for (row, &v) in dst.chunks_exact_mut(ld).zip(col) {
            row[c] = v;
        }
    }
}

/// Packs `B[pc..pc+kc, :]` into `NR`-wide zero-padded strips:
/// `bpack[strip][p][j]` for `j < NR`.
fn pack_b(b: Mat<'_>, bpack: &mut Vec<f32>, pc: usize, kc: usize, n: usize) {
    bpack.resize(n.div_ceil(NR) * kc * NR, 0.0);
    for (js, dst) in bpack.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = js * NR;
        pack_block(b, (pc, j0), (kc, NR.min(n - j0)), dst, NR);
    }
}

/// Packs `A[row0..row0+rows, pc..pc+kc]` into `MR`-tall zero-padded tiles,
/// column-major inside each tile: `apack[tile][p][i]`.
fn pack_a(a: Mat<'_>, apack: &mut Vec<f32>, row0: usize, rows: usize, pc: usize, kc: usize) {
    apack.resize(rows.div_ceil(MR) * kc * MR, 0.0);
    for (it, dst) in apack.chunks_exact_mut(kc * MR).enumerate() {
        let i0 = row0 + it * MR;
        pack_block(a.t(), (pc, i0), (kc, MR.min(row0 + rows - i0)), dst, MR);
    }
}

/// Runs the packed tiles of one `A` block against every `B` strip,
/// accumulating into `out` (which must already hold the desired base value).
/// `ep` (pre-offset to `out`'s row coordinates) is applied at store time and
/// must only be passed on the final `k` panel.
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
fn block_multiply(
    which: Isa,
    apack: &[f32],
    bpack: &[f32],
    out: &mut [f32],
    row0: usize,
    rows: usize,
    kc: usize,
    n: usize,
    ep: Option<Epilogue<'_>>,
) {
    for (it, ap) in apack.chunks_exact(kc * MR).enumerate() {
        let i0 = row0 + it * MR;
        for (js, bp) in bpack.chunks_exact(kc * NR).enumerate() {
            let at = Corner {
                i0,
                mr: MR.min(row0 + rows - i0),
                j0: js * NR,
                nr: NR.min(n - js * NR),
                n,
                stride_out: 0,
                width: NR,
                trans: false,
            };
            tile(which, Mat::packed(ap), bp, NR, kc, out, at, ep);
        }
    }
}

/// The column strips the direct path covers `n` columns with, as
/// `(j0, width)`: full `NR`-wide strips, then the remainder in `NW`-wide
/// ones when one of them covers it, or two and `pair` holds; otherwise one
/// more `NR` strip. A narrow tile spends its flops on live columns instead
/// of zero padding, but a second one is one more tile to store.
fn strips(n: usize, pair: bool) -> impl Iterator<Item = (usize, usize)> {
    let full = n - n % NR;
    let narrow_max = if pair { 2 * NW } else { NW };
    let w = if n - full > narrow_max { NR } else { NW };
    let wide = (0..full).step_by(NR).map(|j0| (j0, NR));
    wide.chain((full..n).step_by(w).map(move |j0| (j0, w)))
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `out = A * B` for row-major `A: [m, k]`, `B: [k, n]`, `out: [m, n]`.
///
/// Overwrites `out`. Operates on plain slices so callers can reuse output
/// buffers across calls; packing scratch is thread-local, so steady-state
/// calls do not allocate.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` contract.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_contract(a, b, out, (m * k, k * n, m * n));
    out[..m * n].fill(0.0);
    gemm_impl(Mat::rows(a, k), Mat::rows(b, n), out, m, k, n, None, false);
}

/// The slice-length contract every entry point but the batched ones
/// checks: `a` holds at least `need.0` elements, `b` `need.1`, `out`
/// `need.2`.
fn assert_contract(a: &[f32], b: &[f32], out: &[f32], need: (usize, usize, usize)) {
    let (a_need, b_need, out_need) = need;
    assert!(
        a.len() >= a_need,
        "A is {} elements, need {a_need}",
        a.len()
    );
    assert!(
        b.len() >= b_need,
        "B is {} elements, need {b_need}",
        b.len()
    );
    assert!(
        out.len() >= out_need,
        "out is {} elements, need {out_need}",
        out.len()
    );
}

/// `out += A * B`; otherwise identical to [`gemm`].
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` contract.
pub fn gemm_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_contract(a, b, out, (m * k, k * n, m * n));
    gemm_impl(Mat::rows(a, k), Mat::rows(b, n), out, m, k, n, None, false);
}

/// `out = act(scale ⊙ (A * B) + shift)` with the per-row affine + activation
/// applied in the micro-kernel store loop of the final `k` panel — the fused
/// inference path for `Conv2d -> BatchNorm2d -> activation` stacks.
///
/// Overwrites `out` (any stale contents are ignored). Shares every other
/// property with [`gemm`]: slice-based, thread-local packing scratch.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` contract or the
/// epilogue's scale/shift hold fewer than `m` entries.
pub fn gemm_epilogue(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: &Epilogue<'_>,
) {
    assert_contract(a, b, out, (m * k, k * n, m * n));
    assert!(ep.scale.len() >= m, "epilogue scale needs {m} entries");
    assert!(ep.shift.len() >= m, "epilogue shift needs {m} entries");
    if k == 0 {
        // A*B is all zeros; the epilogue still applies
        for (i, row) in out[..m * n].chunks_mut(n.max(1)).enumerate() {
            row.fill(ep.apply_scalar(i, 0.0));
        }
        return;
    }
    out[..m * n].fill(0.0);
    gemm_impl(
        Mat::rows(a, k),
        Mat::rows(b, n),
        out,
        m,
        k,
        n,
        Some(*ep),
        false,
    );
}

/// The blocked GEMM core behind every entry point but the batched ones:
/// `out += a · b` for `a: [m, k]` and `b: [k, n]` at any strides, stored
/// transposed into an `[n, m]` output with `trans` (see [`Corner`]). `ep`
/// is applied at store time on the final `k` panel only, so every output
/// element is transformed exactly once.
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
fn gemm_impl(
    a: Mat<'_>,
    b: Mat<'_>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Option<Epilogue<'_>>,
    trans: bool,
) {
    if m == 0 || n == 0 || k == 0 {
        return; // an empty `k` contributes nothing
    }
    let which = isa();
    if trans || m <= DIRECT_M_MAX {
        gemm_direct(which, a, b, out, m, k, n, ep, trans);
        return;
    }
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        for (pc, kc) in k_panels(k) {
            let ep_panel = if pc + kc >= k { ep } else { None };
            pack_b(b, &mut scratch.bpack, pc, kc, n);
            let mut row0 = 0;
            while row0 < m {
                let rows = (MC_TILES * MR).min(m - row0);
                pack_a(a, &mut scratch.apack, row0, rows, pc, kc);
                let (apack, bpack) = (&scratch.apack, &scratch.bpack);
                block_multiply(which, apack, bpack, out, row0, rows, kc, n, ep_panel);
                row0 += rows;
            }
        }
    });
}

/// The `k` panels `(pc, kc)`, balanced: k = 288 runs as 144+144, not
/// 256+32 (a short trailing panel wastes micro-kernel efficiency on its
/// store phase). A pure function of `k`, so every route splits a product's
/// sums at the same places.
fn k_panels(k: usize) -> impl Iterator<Item = (usize, usize)> {
    let kc = k.div_ceil(k.div_ceil(KC)).max(1);
    (0..k).step_by(kc).map(move |pc| (pc, kc.min(k - pc)))
}

/// The direct GEMM, for `m <= DIRECT_M_MAX` rows or a transposed store:
/// every full `MR`-row tile of
/// `A` is broadcast from where it lies, at its own strides, and only the
/// ragged last one is packed (zero-padded); every strip of `B` with unit
/// column stride and full width is read in place, and the rest are packed
/// into one small panel per strip. With `trans` the tiles are stored
/// transposed into an `[n, m]` output (see [`Corner`]).
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
fn gemm_direct(
    which: Isa,
    a: Mat<'_>,
    b: Mat<'_>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Option<Epilogue<'_>>,
    trans: bool,
) {
    let full = m - m % MR;
    let ld = if trans { m } else { n };
    // two narrow strips beat one wide one unless every tile is ragged and
    // `k` too shallow for the spared flops to pay for the extra bounce
    // (measured: 1 x 2..8 x 32 lost up to 1.3x, 1 x 16 x 32 won)
    let pair = full > 0 || k >= 16;
    SCRATCH.with(|cell| {
        let GemmScratch { apack, bpack } = &mut *cell.borrow_mut();
        for (pc, kc) in k_panels(k) {
            let ep_panel = if pc + kc >= k { ep } else { None };
            if full < m {
                pack_a(a, apack, full, m - full, pc, kc);
            }
            // strips outer, tiles inner: one strip's B window (kc x width)
            // stays cache-resident while every A tile runs against it
            for (j0, width) in strips(n, pair) {
                let nr = width.min(n - j0);
                let (bwin, ldb) = if b.cs == 1 && nr == width {
                    (b.at(pc, j0).data, b.rs)
                } else {
                    bpack.resize(kc * width, 0.0);
                    pack_block(b, (pc, j0), (kc, nr), bpack, width);
                    (&bpack[..], width)
                };
                for i0 in (0..m).step_by(MR) {
                    let a_tile = if i0 < full {
                        a.at(i0, pc)
                    } else {
                        Mat::packed(apack)
                    };
                    let at = Corner {
                        i0,
                        mr: MR.min(m - i0),
                        j0,
                        nr,
                        n: ld,
                        stride_out: 0,
                        width,
                        trans,
                    };
                    tile(which, a_tile, bwin, ldb, kc, out, at, ep_panel);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Batched small-GEMM
// ---------------------------------------------------------------------------

/// Walks the per-item segments of columns `[j0, j0 + nr)` of the *virtual
/// column concatenation* of a batch's panels (item `s` contributes columns
/// `[s*n, (s+1)*n)`), calling `f(s, j, off, seg)` for each maximal run that
/// stays inside one item: item index, column within the item, offset within
/// the strip, segment length. Shared by the strip packing and the
/// bounce-buffer scatter, which must agree on this layout exactly.
fn for_each_segment(j0: usize, nr: usize, n: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
    let mut off = 0;
    while off < nr {
        let s = (j0 + off) / n;
        let j = (j0 + off) - s * n;
        let seg = (n - j).min(nr - off);
        f(s, j, off, seg);
        off += seg;
    }
}

/// Packs the whole virtual column concatenation of all batch items' `B`
/// panels (`n_total = batch * n` columns) into `NR`-wide zero-padded strips
/// for `k` rows `[pc, pc + kc)`: `bpack[strip][p][j]`, the batched twin of
/// [`pack_b`].
///
/// This is the n-blocking at the heart of the batched path: several samples'
/// skinny column panels land side by side in one strip, so the register-tiled
/// micro-kernel runs at full `NR` width even when each sample's `n` is far
/// below it.
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
fn pack_b_batch(
    bs: &[f32],
    bpack: &mut Vec<f32>,
    pc: usize,
    kc: usize,
    n: usize,
    stride_b: usize,
    n_total: usize,
) {
    let n_strips = n_total.div_ceil(NR);
    bpack.clear();
    bpack.resize(n_strips * kc * NR, 0.0);
    for (js, dst) in bpack.chunks_mut(kc * NR).enumerate() {
        let j0 = js * NR;
        let nr = NR.min(n_total - j0);
        for_each_segment(j0, nr, n, |s, j, off, seg| {
            let base = s * stride_b + pc * n + j;
            for p in 0..kc {
                let src = &bs[base + p * n..base + p * n + seg];
                dst[p * NR + off..p * NR + off + seg].copy_from_slice(src);
            }
        });
    }
}

/// The batched blocked core for one shared `A` panel: `outs[s] += A * B[s]`
/// for `batch` items, with `ep` applied at store time on the final `k` panel.
///
/// `A` is packed **once per k-panel** and every item's columns stream through
/// it, a strip of the virtual column concatenation at a time; [`tile`]
/// stores each one, through the bounce buffer where a strip spans an item
/// boundary (the normal case when `n < NR`).
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
fn gemm_batch_core(
    which: Isa,
    scratch: &mut GemmScratch,
    a: &[f32],
    bs: &[f32],
    outs: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    stride_b: usize,
    stride_out: usize,
    ep: Option<Epilogue<'_>>,
) {
    let n_total = batch * n;
    for (pc, kc) in k_panels(k) {
        let ep_panel = if pc + kc >= k { ep } else { None };
        // every strip of the whole batch is gather-packed once per k-panel
        // (outside the A row-block loop, like gemm_impl's pack_b)
        pack_b_batch(bs, &mut scratch.bpack, pc, kc, n, stride_b, n_total);
        let mut row0 = 0;
        while row0 < m {
            let rows = (MC_TILES * MR).min(m - row0);
            pack_a(Mat::rows(a, k), &mut scratch.apack, row0, rows, pc, kc);
            for (js, bp) in scratch.bpack.chunks_exact(kc * NR).enumerate() {
                for (it, ap) in scratch.apack.chunks_exact(kc * MR).enumerate() {
                    let i0 = row0 + it * MR;
                    let at = Corner {
                        i0,
                        mr: MR.min(row0 + rows - i0),
                        j0: js * NR,
                        nr: NR.min(n_total - js * NR),
                        n,
                        stride_out,
                        width: NR,
                        trans: false,
                    };
                    tile(which, Mat::packed(ap), bp, NR, kc, outs, at, ep_panel);
                }
            }
            row0 += rows;
        }
    }
}

/// Validates the cyclic-batch contracts shared by
/// [`gemm_batch_cyclic_strided`] and [`gemm_batch_cyclic_acc_strided`].
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
fn assert_cyclic_contract(
    a_len: usize,
    bs: &[f32],
    outs: &[f32],
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    groups: usize,
    stride_a: usize,
    stride_b: usize,
    stride_out: usize,
) {
    assert!(groups >= 1, "cyclic batch needs at least one group");
    assert_eq!(
        batch % groups,
        0,
        "cyclic batch size {batch} must be a multiple of groups {groups}"
    );
    if batch == 0 {
        return;
    }
    if groups > 1 {
        assert!(
            stride_a == 0 || stride_a >= m * k,
            "stride_a {stride_a} smaller than an A panel (m*k = {})",
            m * k
        );
    }
    if batch > 1 {
        assert!(
            stride_b >= k * n,
            "stride_b {stride_b} smaller than a B panel (k*n = {})",
            k * n
        );
        assert!(
            stride_out >= m * n,
            "stride_out {stride_out} smaller than an output panel (m*n = {})",
            m * n
        );
    }
    assert!(
        a_len >= (groups - 1) * stride_a + m * k,
        "A is {} elements, need (groups-1)*stride_a + m*k = {}",
        a_len,
        (groups - 1) * stride_a + m * k
    );
    assert!(
        bs.len() >= (batch - 1) * stride_b + k * n,
        "B is {} elements, need (batch-1)*stride_b + k*n = {}",
        bs.len(),
        (batch - 1) * stride_b + k * n
    );
    assert!(
        outs.len() >= (batch - 1) * stride_out + m * n,
        "out is {} elements, need (batch-1)*stride_out + m*n = {}",
        outs.len(),
        (batch - 1) * stride_out + m * n
    );
}

/// Shared implementation behind [`gemm_batch_cyclic_strided`] /
/// [`gemm_batch_cyclic_acc_strided`]: `batch` items whose `A` panels cycle
/// with period `groups` (`A_t = a[(t % groups) * stride_a ..]`).
///
/// Per group `g`, the item subsequence `t ≡ g (mod groups)` has uniform
/// strides `groups * stride_b` / `groups * stride_out`, so each group runs
/// the shared-A batched core ([`gemm_batch_core`]): the group's `A` panel is
/// packed once per k-panel and its samples' skinny columns share `NR`-wide
/// strips.
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
fn gemm_batch_cyclic_impl(
    a: &[f32],
    bs: &[f32],
    outs: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    groups: usize,
    stride_a: usize,
    stride_b: usize,
    stride_out: usize,
    acc: bool,
    ep: Option<Epilogue<'_>>,
) {
    debug_assert!(ep.is_none() || !acc, "epilogue implies overwrite semantics");
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    let per_group = batch / groups;
    if !acc {
        for t in 0..batch {
            outs[t * stride_out..t * stride_out + m * n].fill(0.0);
        }
    }
    if k == 0 {
        if let Some(e) = ep {
            for t in 0..batch {
                let e = e.offset_rows((t % groups) * m);
                let panel = &mut outs[t * stride_out..t * stride_out + m * n];
                for (i, row) in panel.chunks_mut(n).enumerate() {
                    row.fill(e.apply_scalar(i, 0.0));
                }
            }
        }
        return;
    }
    let which = isa();
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        for g in 0..groups {
            gemm_batch_core(
                which,
                scratch,
                &a[g * stride_a..],
                &bs[g * stride_b..],
                &mut outs[g * stride_out..],
                m,
                k,
                n,
                per_group,
                groups * stride_b,
                groups * stride_out,
                ep.map(|e| e.offset_rows(g * m)),
            );
        }
    });
}

/// Batched small-GEMM:
/// `outs[t] = act(scale ⊙ (A_{t % groups} * B_t) + shift)` for `t < batch`,
/// where `B_t = bs[t * stride_b ..]`, the output panels sit `stride_out`
/// apart, the `groups` A panels sit `stride_a` apart and items are
/// **sample-major, group-minor** (`t = sample * groups + group`) — the
/// layout of a grouped convolution's per-(sample, group) GEMMs over
/// `groups × samples`. `groups == 1` is one `A` shared by every item, the
/// dense conv-weight case.
///
/// This is the many-skinny-GEMMs entry point: a per-sample 1×1-conv GEMM at
/// 4×4–8×8 spatial has `n = 16..64 < NR`, so calling [`gemm`] per sample
/// re-packs the shared weight panel every time and runs every strip as a
/// ragged edge. Here every group's weight panel is packed **once per
/// k-panel**, its samples' column panels stream through the hot
/// micro-kernel back to back, and the n-blocked gather packing lays several
/// samples' skinny panels side by side in one `NR`-wide strip so the
/// register tile runs at full width. The optional [`Epilogue`] is applied
/// in the store pass on all ISA tiers, exactly like [`gemm_epilogue`]; its
/// `scale`/`shift` hold `groups * m` rows and item `t` uses rows
/// `[(t % groups) * m, (t % groups + 1) * m)`.
///
/// Overwrites each `m*n` output panel (elements between panels are left
/// untouched).
///
/// # Panics
///
/// Panics if `batch` is not a multiple of `groups`, any slice is shorter
/// than its strided contract, a stride is smaller than its panel, or the
/// epilogue's scale/shift hold fewer than `groups * m` entries.
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
pub fn gemm_batch_cyclic_strided(
    a: &[f32],
    bs: &[f32],
    outs: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    groups: usize,
    stride_a: usize,
    stride_b: usize,
    stride_out: usize,
    ep: Option<Epilogue<'_>>,
) {
    assert_cyclic_contract(
        a.len(),
        bs,
        outs,
        m,
        k,
        n,
        batch,
        groups,
        stride_a,
        stride_b,
        stride_out,
    );
    if let Some(e) = &ep {
        assert!(
            e.scale.len() >= groups * m,
            "epilogue scale needs {} entries",
            groups * m
        );
        assert!(
            e.shift.len() >= groups * m,
            "epilogue shift needs {} entries",
            groups * m
        );
    }
    gemm_batch_cyclic_impl(
        a, bs, outs, m, k, n, batch, groups, stride_a, stride_b, stride_out, false, ep,
    );
}

/// `outs[t] += A_{t % groups} * B_t` for `t < batch`; otherwise identical to
/// [`gemm_batch_cyclic_strided`] (no epilogue — accumulation implies the
/// caller provides the initial value, e.g. a bias fill).
///
/// # Panics
///
/// As [`gemm_batch_cyclic_strided`].
#[allow(
    clippy::too_many_arguments,
    reason = "GEMM geometry travels as scalars, as in BLAS"
)]
pub fn gemm_batch_cyclic_acc_strided(
    a: &[f32],
    bs: &[f32],
    outs: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    batch: usize,
    groups: usize,
    stride_a: usize,
    stride_b: usize,
    stride_out: usize,
) {
    assert_cyclic_contract(
        a.len(),
        bs,
        outs,
        m,
        k,
        n,
        batch,
        groups,
        stride_a,
        stride_b,
        stride_out,
    );
    gemm_batch_cyclic_impl(
        a, bs, outs, m, k, n, batch, groups, stride_a, stride_b, stride_out, true, None,
    );
}

/// `out = A * B^T` for row-major `A: [m, k]`, `B: [n, k]`, `out: [m, n]`.
///
/// Nothing is transposed up front: `Bᵀ` is `B`'s slice with its strides
/// swapped. The product runs in whichever orientation packs less, a pure
/// function of the shape (`nt_swapped`): as `A · Bᵀ`, with `Bᵀ`'s
/// strips gathered from `B`'s contiguous rows, or as `outᵀ = B · Aᵀ`, with
/// `B` broadcast in place, a small `Aᵀ` panel gathered from `A`'s rows and
/// each tile stored transposed. Either way every output element is the same
/// fused multiply-add chain over `k` as [`gemm`] of the transposed matrix
/// (the product `a·b` is commutative), so the bits are those of `gemm(a,
/// transpose(b))`. Packing scratch is thread-local, so steady-state calls
/// do not allocate.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` contract.
pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_contract(a, b, out, (m * k, n * k, m * n));
    out[..m * n].fill(0.0);
    let (x, w) = (Mat::rows(a, k), Mat::rows(b, k));
    if nt_swapped(m, k, n) {
        gemm_impl(w, x.t(), out, n, k, m, None, true);
    } else {
        gemm_impl(x, w.t(), out, m, k, n, None, false);
    }
}

/// Whether [`gemm_nt`] runs as `outᵀ = B · Aᵀ`: when that packs less.
/// The swapped route gathers `Aᵀ` (`m·k` elements) and stores every tile
/// through a transposing bounce (`2·m·n` copies); the other one gathers
/// `Bᵀ` (`n·k`) and stores full tiles in place. Over `m` 1–64, `k` 2–512
/// and `n` 1–64 on the AVX-512 host this rule's total time was within 1 %
/// of always taking the faster route, and no shape lost more than 1.7×
/// to it (`docs/PERF.md`).
fn nt_swapped(m: usize, k: usize, n: usize) -> bool {
    m * (k + 2 * n) < n * k
}

/// `out = A^T * B` for row-major `A: [k, m]`, `B: [k, n]`, `out: [m, n]`.
///
/// Nothing is transposed up front: `Aᵀ` is `A`'s slice with its strides
/// swapped, each `p` of an `MR`-row tile one contiguous run of `A`. The
/// direct path (`m <= 64`) broadcasts the full tiles from `A` in place and
/// packs only a ragged one; larger `m` packs its tiles from those runs. So
/// the bits are those of `gemm(transpose(a), b)`, and steady-state calls do
/// not allocate.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` contract.
pub fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_contract(a, b, out, (k * m, k * n, m * n));
    out[..m * n].fill(0.0);
    gemm_impl(
        Mat::rows(a, m).t(),
        Mat::rows(b, n),
        out,
        m,
        k,
        n,
        None,
        false,
    );
}

/// Transposes row-major `src: [rows, cols]` into `dst: [cols, rows]`.
///
/// `dst` is overwritten and must hold at least `rows * cols` elements. The
/// GEMM entry points never stage a transpose (an operand's transpose is a
/// stride swap, see [`gemm_nt`] / [`gemm_tn`]); this is for callers that
/// keep a transposed copy of their own, such as `hs-nn`'s convolution
/// backward.
///
/// # Panics
///
/// Panics if either slice is shorter than `rows * cols`.
pub fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    assert!(src.len() >= rows * cols, "transpose src too short");
    assert!(dst.len() >= rows * cols, "transpose dst too short");
    // Tiled to keep both sides cache-resident for large matrices.
    const T: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + T).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + T).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::matmul_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every epilogue activation.
    const ACTS: [EpilogueAct; 3] = [EpilogueAct::None, EpilogueAct::Relu, EpilogueAct::HardSwish];

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, ctx: &str) {
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
                "{ctx}: element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_naive_on_square_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        for size in [1usize, 2, 7, 8, 16, 33, 48, 100] {
            let a = random_matrix(&mut rng, size * size);
            let b = random_matrix(&mut rng, size * size);
            let mut expect = vec![0.0; size * size];
            matmul_naive(&a, &b, &mut expect, size, size, size);
            let mut got = vec![0.0; size * size];
            gemm(&a, &b, &mut got, size, size, size);
            assert_close(&expect, &got, 1e-5, &format!("square {size}"));
        }
    }

    #[test]
    fn matches_naive_on_ragged_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MR - 1, 17, NR - 1),
            (2 * MR + 3, 2 * KC + 5, 2 * NR + 7),
            (64, 1, 64),
            (1, 300, 1),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut expect = vec![0.0; m * n];
            matmul_naive(&a, &b, &mut expect, m, k, n);
            let mut got = vec![0.0; m * n];
            gemm(&a, &b, &mut got, m, k, n);
            assert_close(&expect, &got, 1e-5, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, k, n) = (13, 21, 17);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let mut once = vec![0.0; m * n];
        gemm(&a, &b, &mut once, m, k, n);
        let mut twice = vec![0.0; m * n];
        gemm_acc(&a, &b, &mut twice, m, k, n);
        gemm_acc(&a, &b, &mut twice, m, k, n);
        for (o, t) in once.iter().zip(twice.iter()) {
            assert!((2.0 * o - t).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_overwrites_stale_output() {
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut out = vec![999.0f32; 4];
        gemm(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, vec![2.0; 4]);
    }

    #[test]
    fn nan_and_inf_propagate() {
        // the seed kernel's `== 0.0` skip silently dropped NaN/Inf from the
        // zero-weight lanes; the GEMM path must keep IEEE semantics
        let a = vec![0.0f32, f32::NAN, 1.0, 2.0];
        let b = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut out = vec![0.0f32; 4];
        gemm(&a, &b, &mut out, 2, 2, 2);
        assert!(
            out[0].is_nan() && out[1].is_nan(),
            "0*NaN must stay NaN: {out:?}"
        );
        assert_eq!(&out[2..], &[7.0, 10.0]);

        let a = vec![1.0f32, f32::INFINITY];
        let b = vec![1.0f32, 0.0];
        let mut out = vec![0.0f32; 1];
        gemm(&a, &b, &mut out, 1, 2, 1);
        assert!(out[0].is_nan(), "1*1 + inf*0 must be NaN: {out:?}");
    }

    #[test]
    fn zero_dimensions_are_safe() {
        let mut out = vec![5.0f32; 6];
        gemm(&[], &[], &mut out, 0, 0, 0);
        gemm(&[], &[], &mut out[..0], 0, 4, 0);
        // k == 0 must yield a zero product
        let mut out = vec![5.0f32; 6];
        gemm(&[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, vec![0.0; 6]);
    }

    /// Scalar reference for [`gemm_epilogue`]: naive matmul, then the
    /// per-row affine + activation applied element-wise.
    fn epilogue_reference(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        ep: &Epilogue<'_>,
    ) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        matmul_naive(a, b, &mut out, m, k, n);
        for i in 0..m {
            for v in out[i * n..(i + 1) * n].iter_mut() {
                *v = ep.act.apply(*v * ep.scale[i] + ep.shift[i]);
            }
        }
        out
    }

    #[test]
    fn epilogue_matches_reference_across_shapes_and_activations() {
        let mut rng = StdRng::seed_from_u64(40);
        // shapes covering: full/partial tiles, full/edge strips, the
        // small-m direct path (m <= 64), the packed big-m path, and
        // multi-panel k (> KC)
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (MR, 17, NR),
            (MR + 3, KC + 9, NR + 5),
            (64, 32, 96),
            (65, 40, 50),
            (100, 2 * KC + 5, 2 * NR + 7),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let scale = random_matrix(&mut rng, m);
            let shift = random_matrix(&mut rng, m);
            for act in ACTS {
                let ep = Epilogue {
                    scale: &scale,
                    shift: &shift,
                    act,
                };
                let expect = epilogue_reference(&a, &b, m, k, n, &ep);
                // stale output contents must be ignored (overwrite semantics)
                let mut got = vec![777.0; m * n];
                gemm_epilogue(&a, &b, &mut got, m, k, n, &ep);
                assert_close(&expect, &got, 1e-4, &format!("{m}x{k}x{n} {act:?}"));
            }
        }
    }

    #[test]
    fn epilogue_nan_semantics_match_scalar_reference_on_full_and_ragged_tiles() {
        // a NaN in A poisons whole output rows; the kernel's store must treat
        // it exactly like EpilogueAct::apply — ReLU maps NaN to 0, hard-swish
        // propagates it — in place (full tiles) and through the bounce
        // buffer (ragged edge rows/cols)
        let mut rng = StdRng::seed_from_u64(42);
        // m = MR+1: rows 0..8 are a full tile, row 8 a ragged one;
        // n = NR+1 adds a ragged column strip
        let (m, k, n) = (MR + 1, 19, NR + 1);
        let mut a = random_matrix(&mut rng, m * k);
        a[3 * k + 5] = f32::NAN; // poison row 3 (full tile)
        a[MR * k] = f32::NAN; // poison row 8 (edge tile)
        let b = random_matrix(&mut rng, k * n);
        let scale = random_matrix(&mut rng, m);
        let shift = random_matrix(&mut rng, m);
        for act in ACTS {
            let ep = Epilogue {
                scale: &scale,
                shift: &shift,
                act,
            };
            let expect = epilogue_reference(&a, &b, m, k, n, &ep);
            let mut got = vec![0.0; m * n];
            gemm_epilogue(&a, &b, &mut got, m, k, n, &ep);
            for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    e.is_nan(),
                    g.is_nan(),
                    "{act:?}: element {i} ({},{}): NaN divergence {e} vs {g}",
                    i / n,
                    i % n
                );
                if !e.is_nan() {
                    assert!(
                        (e - g).abs() <= 1e-4 * e.abs().max(g.abs()).max(1.0),
                        "{act:?}: element {i}: {e} vs {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn epilogue_with_zero_k_applies_shift_and_activation() {
        let scale = vec![2.0f32, 2.0];
        let shift = vec![-1.0f32, 3.0];
        let mut out = vec![9.0f32; 6];
        gemm_epilogue(
            &[],
            &[],
            &mut out,
            2,
            0,
            3,
            &Epilogue {
                scale: &scale,
                shift: &shift,
                act: EpilogueAct::Relu,
            },
        );
        assert_eq!(out, vec![0.0, 0.0, 0.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn epilogue_activations_match_scalar_definition() {
        // one value per interesting regime, through the full GEMM path
        let a = vec![1.0f32; 4]; // 4x1
        let b = vec![1.0f32]; // 1x1
        for (act, input, expect) in [
            (EpilogueAct::Relu, -2.0f32, 0.0f32),
            (EpilogueAct::Relu, 2.0, 2.0),
            (EpilogueAct::HardSwish, -4.0, 0.0),
            (EpilogueAct::HardSwish, 3.0, 3.0),
            (EpilogueAct::HardSwish, 5.0, 5.0),
        ] {
            let scale = vec![input; 4];
            let shift = vec![0.0f32; 4];
            let mut out = vec![0.0f32; 4];
            gemm_epilogue(
                &a,
                &b,
                &mut out,
                4,
                1,
                1,
                &Epilogue {
                    scale: &scale,
                    shift: &shift,
                    act,
                },
            );
            for v in out {
                assert_eq!(v, expect, "{act:?}({input})");
            }
        }
    }

    /// Per-item reference for the batched entry points: item `t` multiplies
    /// `A_{t % groups}` with its own B panel via the plain [`gemm`] /
    /// [`gemm_epilogue`], epilogue rows offset by the item's group.
    #[allow(
        clippy::too_many_arguments,
        reason = "the test oracle takes the kernel's own scalar arguments"
    )]
    fn cyclic_reference(
        a: &[f32],
        bs: &[f32],
        outs: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        batch: usize,
        groups: usize,
        stride_a: usize,
        stride_b: usize,
        stride_out: usize,
        ep: Option<&Epilogue<'_>>,
    ) {
        for t in 0..batch {
            let g = t % groups;
            let a_g = &a[g * stride_a..g * stride_a + m * k];
            let b_t = &bs[t * stride_b..t * stride_b + k * n];
            let out_t = &mut outs[t * stride_out..t * stride_out + m * n];
            match ep {
                Some(e) => {
                    let e_g = Epilogue {
                        scale: &e.scale[g * m..],
                        shift: &e.shift[g * m..],
                        act: e.act,
                    };
                    gemm_epilogue(a_g, b_t, out_t, m, k, n, &e_g);
                }
                None => gemm(a_g, b_t, out_t, m, k, n),
            }
        }
    }

    #[test]
    fn cyclic_matches_per_item_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(60);
        // (m, k, n, groups, per_group): skinny n below NR, strip-spanning
        // boundaries, single sample; then one shared A (groups == 1) over
        // n < NR edge tiles, batch == 1, full strips, multi-panel k and
        // ragged m tiles
        for (m, k, n, groups, per_group) in [
            (4usize, 9usize, 4usize, 4usize, 6usize),
            (8, 16, 16, 2, 5),
            (3, 5, 2, 3, 1),
            (16, 32, 7, 1, 9),
            (MR + 1, 21, NR + 3, 2, 3),
            (1, 1, 1, 1, 1),
            (8, 16, 16, 1, 5),
            (24, 64, 16, 1, 8),
            (17, 33, 7, 1, 9),
            (64, 64, 64, 1, 4),
            (8, KC + 7, 5, 1, 11),
            (MR + 3, 19, NR + 5, 1, 3),
            (3, 5, 2, 1, 1),
        ] {
            let batch = groups * per_group;
            let stride_a = m * k;
            let a = random_matrix(&mut rng, groups * stride_a);
            let bs = random_matrix(&mut rng, batch * k * n);
            let mut expect = vec![0.0; batch * m * n];
            cyclic_reference(
                &a,
                &bs,
                &mut expect,
                m,
                k,
                n,
                batch,
                groups,
                stride_a,
                k * n,
                m * n,
                None,
            );
            // stale output contents must be ignored (overwrite semantics)
            let mut got = vec![777.0; batch * m * n];
            gemm_batch_cyclic_strided(
                &a,
                &bs,
                &mut got,
                m,
                k,
                n,
                batch,
                groups,
                stride_a,
                k * n,
                m * n,
                None,
            );
            assert_close(
                &expect,
                &got,
                1e-5,
                &format!("{m}x{k}x{n} g{groups} b{batch}"),
            );
        }
    }

    #[test]
    fn cyclic_epilogue_selects_per_group_rows() {
        let mut rng = StdRng::seed_from_u64(61);
        for (m, k, n, groups, per_group) in [
            (5usize, 12usize, 6usize, 3usize, 4usize),
            (8, 16, 16, 1, 6),
            (13, 40, 9, 1, 7),
            (64, 32, 50, 1, 3),
        ] {
            let batch = groups * per_group;
            let a = random_matrix(&mut rng, groups * m * k);
            let bs = random_matrix(&mut rng, batch * k * n);
            // distinct scale/shift per group so a row-offset mistake shows up
            let scale = random_matrix(&mut rng, groups * m);
            let shift = random_matrix(&mut rng, groups * m);
            for act in ACTS {
                let ep = Epilogue {
                    scale: &scale,
                    shift: &shift,
                    act,
                };
                let mut expect = vec![0.0; batch * m * n];
                cyclic_reference(
                    &a,
                    &bs,
                    &mut expect,
                    m,
                    k,
                    n,
                    batch,
                    groups,
                    m * k,
                    k * n,
                    m * n,
                    Some(&ep),
                );
                let mut got = vec![0.0; batch * m * n];
                gemm_batch_cyclic_strided(
                    &a,
                    &bs,
                    &mut got,
                    m,
                    k,
                    n,
                    batch,
                    groups,
                    m * k,
                    k * n,
                    m * n,
                    Some(ep),
                );
                assert_close(
                    &expect,
                    &got,
                    1e-4,
                    &format!("{m}x{k}x{n} g{groups} b{batch} {act:?}"),
                );
            }
        }
    }

    #[test]
    fn batched_strided_panels_leave_gaps_untouched() {
        // stride_out > m*n: the elements between output panels must survive,
        // and B panels may sit stride_b > k*n apart (the grouped-conv layout)
        let mut rng = StdRng::seed_from_u64(52);
        let (m, k, n, batch) = (5usize, 9usize, 11usize, 4usize);
        let (stride_b, stride_out) = (k * n + 13, m * n + 17);
        let a = random_matrix(&mut rng, m * k);
        let bs = random_matrix(&mut rng, (batch - 1) * stride_b + k * n);
        let mut expect = vec![-3.5f32; (batch - 1) * stride_out + m * n];
        let mut got = expect.clone();
        cyclic_reference(
            &a,
            &bs,
            &mut expect,
            m,
            k,
            n,
            batch,
            1,
            0,
            stride_b,
            stride_out,
            None,
        );
        gemm_batch_cyclic_strided(
            &a, &bs, &mut got, m, k, n, batch, 1, 0, stride_b, stride_out, None,
        );
        for (i, (e, g)) in expect.iter().zip(got.iter()).enumerate() {
            assert!(
                (e - g).abs() <= 1e-5 * e.abs().max(1.0),
                "element {i}: {e} vs {g}"
            );
        }
        // the gap elements specifically must still hold the sentinel
        for s in 0..batch {
            let gap = &got[s * stride_out + m * n..((s + 1) * stride_out).min(got.len())];
            assert!(gap.iter().all(|&v| v == -3.5), "sample {s}: gap clobbered");
        }
    }

    #[test]
    fn cyclic_acc_accumulates_and_shared_a_works() {
        let mut rng = StdRng::seed_from_u64(62);
        // stride_a == 0: every group shares one A panel
        for (m, k, n, groups, per_group) in
            [(4usize, 8usize, 5usize, 2usize, 3usize), (6, 12, 10, 1, 5)]
        {
            let batch = groups * per_group;
            let a = random_matrix(&mut rng, m * k);
            let bs = random_matrix(&mut rng, batch * k * n);
            let init = random_matrix(&mut rng, batch * m * n);
            let mut expect = vec![0.0; batch * m * n];
            cyclic_reference(
                &a,
                &bs,
                &mut expect,
                m,
                k,
                n,
                batch,
                groups,
                0,
                k * n,
                m * n,
                None,
            );
            for (e, i) in expect.iter_mut().zip(init.iter()) {
                *e += i;
            }
            let mut got = init;
            gemm_batch_cyclic_acc_strided(
                &a,
                &bs,
                &mut got,
                m,
                k,
                n,
                batch,
                groups,
                0,
                k * n,
                m * n,
            );
            assert_close(
                &expect,
                &got,
                1e-5,
                &format!("cyclic acc shared A g{groups}"),
            );
        }
    }

    #[test]
    fn batched_nan_stays_inside_its_sample() {
        // a NaN in sample 1's B panel must poison only sample 1's output,
        // even though the n-blocked strips pack samples side by side into
        // one register tile
        let mut rng = StdRng::seed_from_u64(55);
        let (m, k, n, batch) = (MR, 10usize, 6usize, 4usize);
        let a = random_matrix(&mut rng, m * k);
        let mut bs = random_matrix(&mut rng, batch * k * n);
        bs[k * n + 3] = f32::NAN; // sample 1, row 0, col 3
        let mut out = vec![0.0; batch * m * n];
        gemm_batch_cyclic_strided(&a, &bs, &mut out, m, k, n, batch, 1, 0, k * n, m * n, None);
        for s in 0..batch {
            let panel = &out[s * m * n..(s + 1) * m * n];
            if s == 1 {
                assert!(
                    panel.iter().any(|v| v.is_nan()),
                    "sample 1 must carry the NaN"
                );
            } else {
                assert!(
                    panel.iter().all(|v| !v.is_nan()),
                    "sample {s} polluted by sample 1's NaN"
                );
            }
        }
        // ...and a NaN in the shared A poisons every sample, like gemm
        let mut a_nan = a.clone();
        a_nan[2 * k] = f32::NAN; // row 2
        let bs_clean = random_matrix(&mut rng, batch * k * n);
        let mut out = vec![0.0; batch * m * n];
        gemm_batch_cyclic_strided(
            &a_nan,
            &bs_clean,
            &mut out,
            m,
            k,
            n,
            batch,
            1,
            0,
            k * n,
            m * n,
            None,
        );
        for s in 0..batch {
            let row2 = &out[s * m * n + 2 * n..s * m * n + 3 * n];
            assert!(
                row2.iter().all(|v| v.is_nan()),
                "sample {s} row 2 must be NaN"
            );
        }
    }

    #[test]
    fn batched_zero_dimensions_are_safe() {
        let b = vec![1.0f32; 12];
        let mut out = vec![5.0f32; 12];
        // m == 0 stores nothing; batch == 0 is a no-op
        gemm_batch_cyclic_strided(&[], &b, &mut out, 0, 3, 2, 2, 1, 0, 6, 0, None);
        gemm_batch_cyclic_strided(&[], &[], &mut out[..0], 2, 3, 2, 0, 1, 0, 6, 4, None);
        assert_eq!(out, vec![5.0; 12]);
        // k == 0 overwrites with zeros (and still applies an epilogue)
        let mut out = vec![5.0f32; 12];
        gemm_batch_cyclic_strided(&[], &[], &mut out, 2, 0, 3, 2, 1, 0, 0, 6, None);
        assert_eq!(out, vec![0.0; 12]);
        let scale = vec![1.0f32; 2];
        let shift = vec![2.0f32, -4.0];
        let mut out = vec![5.0f32; 12];
        gemm_batch_cyclic_strided(
            &[],
            &[],
            &mut out,
            2,
            0,
            3,
            2,
            1,
            0,
            0,
            6,
            Some(Epilogue {
                scale: &scale,
                shift: &shift,
                act: EpilogueAct::Relu,
            }),
        );
        assert_eq!(
            out,
            vec![2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    #[should_panic(expected = "must be a multiple of groups")]
    fn cyclic_rejects_ragged_group_batches() {
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 20];
        let mut out = vec![0.0f32; 10];
        gemm_batch_cyclic_strided(&a, &b, &mut out, 2, 2, 2, 5, 2, 4, 4, 4, None);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        for (r, c) in [(1usize, 1usize), (3, 8), (31, 33), (64, 65)] {
            let src = random_matrix(&mut rng, r * c);
            let mut t = vec![0.0; r * c];
            transpose_into(&src, &mut t, r, c);
            let mut back = vec![0.0; r * c];
            transpose_into(&t, &mut back, c, r);
            assert_eq!(src, back, "{r}x{c}");
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[j * r + i], src[i * c + j]);
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // One rounding rule per tier. Every tier this CPU runs is forced through
    // the crate's test hook, so the AVX2 and portable instantiations execute
    // on an AVX-512 host too.
    // -----------------------------------------------------------------------

    use crate::isa::{force_tier, supported_tiers};

    /// Runs `f` with every kernel call on this thread pinned to `tier`.
    fn on_tier<R>(tier: Isa, f: impl FnOnce() -> R) -> R {
        force_tier(Some(tier));
        let r = f();
        force_tier(None);
        r
    }

    /// The bits of `v`, with every NaN collapsed to one pattern (which
    /// operand's payload a NaN result carries is not something Rust pins).
    fn bits(v: &[f32]) -> Vec<u32> {
        let canon = |x: &f32| if x.is_nan() { u32::MAX } else { x.to_bits() };
        v.iter().map(canon).collect()
    }

    /// `got` is within `tol` of `expect`, with NaNs and infinities in exactly
    /// the same places.
    fn assert_close_same_placement(expect: &[f32], got: &[f32], tol: f32, ctx: &str) {
        assert_eq!(expect.len(), got.len(), "{ctx}");
        for (i, (e, g)) in expect.iter().zip(got).enumerate() {
            assert_eq!(e.is_nan(), g.is_nan(), "{ctx}: element {i}: {e} vs {g}");
            // `e == g` covers matching infinities, whose difference is NaN
            if !e.is_nan() && e != g {
                assert!(
                    (e - g).abs() <= tol * e.abs().max(g.abs()).max(1.0),
                    "{ctx}: element {i}: {e} vs {g}"
                );
            }
        }
    }

    /// One cyclic-batch problem under an epilogue with a non-zero shift.
    struct Problem {
        m: usize,
        k: usize,
        n: usize,
        groups: usize,
        batch: usize,
        a: Vec<f32>,
        bs: Vec<f32>,
        scale: Vec<f32>,
        shift: Vec<f32>,
        act: EpilogueAct,
        what: String,
    }

    impl Problem {
        fn ep(&self) -> Epilogue<'_> {
            Epilogue {
                scale: &self.scale,
                shift: &self.shift,
                act: self.act,
            }
        }

        /// The whole batch through one [`gemm_batch_cyclic_strided`].
        fn batched(&self) -> Vec<f32> {
            let (m, k, n) = (self.m, self.k, self.n);
            let mut out = vec![777.0; self.batch * m * n];
            gemm_batch_cyclic_strided(
                &self.a,
                &self.bs,
                &mut out,
                m,
                k,
                n,
                self.batch,
                self.groups,
                m * k,
                k * n,
                m * n,
                Some(self.ep()),
            );
            out
        }

        /// Item by item: `f(the item's group, its B panel, its output panel)`.
        fn per_item(&self, init: f32, f: impl Fn(usize, &[f32], &mut [f32])) -> Vec<f32> {
            let (m, k, n) = (self.m, self.k, self.n);
            let mut out = vec![init; self.batch * m * n];
            for (t, out_t) in out.chunks_mut(m * n).enumerate() {
                f(t % self.groups, &self.bs[t * k * n..(t + 1) * k * n], out_t);
            }
            out
        }

        /// Group `g`'s weight panel.
        fn group(&self, g: usize) -> &[f32] {
            &self.a[g * self.m * self.k..(g + 1) * self.m * self.k]
        }

        /// Item by item through [`gemm_epilogue`].
        fn looped(&self) -> Vec<f32> {
            self.per_item(777.0, |g, b, out| {
                let ep = self.ep().offset_rows(g * self.m);
                gemm_epilogue(self.group(g), b, out, self.m, self.k, self.n, &ep)
            })
        }

        /// `0.25 + A·B` item by item through [`gemm_acc`].
        fn accumulated(&self) -> Vec<f32> {
            self.per_item(0.25, |g, b, out| {
                gemm_acc(self.group(g), b, out, self.m, self.k, self.n)
            })
        }

        /// `init + A·B` item by item through the naive product, then the
        /// scalar epilogue where `with_ep`.
        fn reference(&self, init: f32, with_ep: bool) -> Vec<f32> {
            let (m, k, n) = (self.m, self.k, self.n);
            self.per_item(init, |g, b, out| {
                let mut product = vec![0.0; m * n];
                matmul_naive(
                    &self.a[g * m * k..(g + 1) * m * k],
                    b,
                    &mut product,
                    m,
                    k,
                    n,
                );
                for (i, (o, p)) in out.iter_mut().zip(product).enumerate() {
                    let row = g * m + i / n;
                    *o += p;
                    if with_ep {
                        *o = self.act.apply(*o * self.scale[row] + self.shift[row]);
                    }
                }
            })
        }
    }

    /// Ragged `(m, k, n, groups, samples)` shapes × every activation, then
    /// NaN / ±inf placed in a weight row or one item's column on two of them.
    fn problems() -> Vec<Problem> {
        let mut rng = StdRng::seed_from_u64(70);
        let shapes = [
            (3usize, 5usize, 2usize, 3usize, 2usize), // far below one tile
            (MR, 16, 16, 1, 5),                       // item-spanning strips, full rows
            (MR + 3, 19, NR + 5, 2, 2),               // ragged rows and columns
            (24, KC + 9, 7, 1, 9),                    // two k panels
            (2 * MR, 12, 2 * NR, 1, 2),               // full tiles only
            (70, 33, NR - 1, 1, 2),                   // the packed big-m path
        ];
        let poisons = [
            None,
            Some((true, f32::NAN)),
            Some((true, f32::INFINITY)),
            Some((false, f32::NAN)),
            Some((false, f32::NEG_INFINITY)),
        ];
        let mut out = Vec::new();
        for (si, (m, k, n, groups, samples)) in shapes.into_iter().enumerate() {
            let batch = groups * samples;
            let poisoned = if si == 1 || si == 2 { 5 } else { 1 };
            for (act, poison) in ACTS
                .into_iter()
                .flat_map(|act| poisons[..poisoned].iter().map(move |p| (act, *p)))
            {
                let mut a = random_matrix(&mut rng, groups * m * k);
                let mut bs = random_matrix(&mut rng, batch * k * n);
                match poison {
                    // the last row of the last group; the last item's first column
                    Some((true, v)) => a[(groups * m - 1) * k + k / 2] = v,
                    Some((false, v)) => bs[(batch - 1) * k * n + (k / 2) * n] = v,
                    None => {}
                }
                out.push(Problem {
                    m,
                    k,
                    n,
                    groups,
                    batch,
                    a,
                    bs,
                    scale: random_matrix(&mut rng, groups * m),
                    shift: random_matrix(&mut rng, groups * m),
                    act,
                    what: format!("{m}x{k}x{n} g{groups} b{batch} {act:?} {poison:?}"),
                });
            }
        }
        out
    }

    /// On `tier`: both routes (one batched call, a loop of per-item calls)
    /// return the same bits — an output is rounded by
    /// one rule wherever its tile falls — and those match the scalar
    /// reference, non-finite values in the same places.
    fn one_rounding_rule_on(tier: Isa) {
        if !tier.supported() {
            return;
        }
        for p in problems() {
            let ctx = format!("{tier:?} {}", p.what);
            let (batched, looped, acc) =
                on_tier(tier, || (p.batched(), p.looped(), p.accumulated()));
            assert_close_same_placement(&p.reference(0.0, true), &batched, 1e-4, &ctx);
            assert_eq!(bits(&batched), bits(&looped), "{ctx}: batched vs looped");
            let plain = p.reference(0.25, false);
            assert_close_same_placement(&plain, &acc, 1e-4, &format!("{ctx}: acc"));
        }
    }

    /// On `tier`: an output computed inside a full tile equals, bit for bit,
    /// the same output when dropped rows and columns make its tile ragged.
    fn full_and_ragged_tiles_agree_on(tier: Isa) {
        if !tier.supported() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(71);
        // (m, n) of full tiles only, on the small-m and the packed path
        for (m, n) in [(2 * MR, 2 * NR), (9 * MR, NR)] {
            let k = 37;
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let (scale, shift) = (random_matrix(&mut rng, m), random_matrix(&mut rng, m));
            let (m_cut, n_cut) = (m - 3, n - 5);
            let b_cut: Vec<f32> = b.chunks(n).flat_map(|row| &row[..n_cut]).copied().collect();
            for act in ACTS {
                let ep = Epilogue {
                    scale: &scale,
                    shift: &shift,
                    act,
                };
                let (full, cut, full_acc, cut_acc) = on_tier(tier, || {
                    let mut full = vec![0.0; m * n];
                    gemm_epilogue(&a, &b, &mut full, m, k, n, &ep);
                    let mut cut = vec![0.0; m_cut * n_cut];
                    gemm_epilogue(&a, &b_cut, &mut cut, m_cut, k, n_cut, &ep);
                    let mut full_acc = vec![0.25; m * n];
                    gemm_acc(&a, &b, &mut full_acc, m, k, n);
                    let mut cut_acc = vec![0.25; m_cut * n_cut];
                    gemm_acc(&a, &b_cut, &mut cut_acc, m_cut, k, n_cut);
                    (full, cut, full_acc, cut_acc)
                });
                let crop = |v: &[f32]| -> Vec<f32> {
                    v.chunks(n)
                        .take(m_cut)
                        .flat_map(|row| &row[..n_cut])
                        .copied()
                        .collect()
                };
                assert_eq!(bits(&crop(&full)), bits(&cut), "{tier:?} {m}x{n} {act:?}");
                assert_eq!(
                    bits(&crop(&full_acc)),
                    bits(&cut_acc),
                    "{tier:?} {m}x{n} acc"
                );
            }
        }
    }

    /// On `tier`: `gemm_nt(a, b)` ≡ `gemm(a, bᵀ)` and `gemm_tn(a, b)` ≡
    /// `gemm(aᵀ, b)` bit for bit, with the transposes materialised by
    /// [`transpose_into`], over full and ragged tiles, wide and narrow
    /// strips, both `gemm_nt` orientations, the direct and the packed path
    /// and one to three `k` panels. The left operand holds a NaN that
    /// reaches one output row and the right one a ±∞ that reaches one
    /// column, so the non-finite outputs must land in the same places too.
    fn transposed_products_match_gemm_on(tier: Isa) {
        if !tier.supported() {
            return;
        }
        const NS: [usize; 13] = [1, 4, 8, 12, 15, 16, 17, 32, 47, 48, 49, 64, 97];
        const KS: [usize; 8] = [1, 8, 16, 64, 192, KC, KC + 1, 2 * KC + 3];
        let ms = (1..=17).chain(31..=33).chain(47..=49).chain(65..=70);
        let mut rng = StdRng::seed_from_u64(80);
        for (m, n, k) in ms
            .flat_map(|m| NS.map(|n| (m, n)))
            .flat_map(|(m, n)| KS.map(|k| (m, n, k)))
        {
            let inf = if (m + n + k) % 2 == 0 {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            };
            // `A * Bᵀ`: a row of `a` is a row of the output, a row of `b` a
            // column
            let mut a = random_matrix(&mut rng, m * k);
            let mut b = random_matrix(&mut rng, n * k);
            a[(m / 2) * k + k / 2] = f32::NAN;
            b[(n - 1) * k + k - 1] = inf;
            let mut bt = vec![0.0; k * n];
            transpose_into(&b, &mut bt, n, k);
            let (nt, expect) = on_tier(tier, || {
                let mut nt = vec![777.0; m * n];
                gemm_nt(&a, &b, &mut nt, m, k, n);
                let mut expect = vec![0.0; m * n];
                gemm(&a, &bt, &mut expect, m, k, n);
                (nt, expect)
            });
            assert_eq!(bits(&nt), bits(&expect), "{tier:?} gemm_nt {m}x{k}x{n}");
            // `Aᵀ * B`: a column of `a` is a row of the output, a column of
            // `b` a column
            let mut a = random_matrix(&mut rng, k * m);
            let mut b = random_matrix(&mut rng, k * n);
            a[(k / 2) * m + m / 2] = f32::NAN;
            b[(k - 1) * n + n - 1] = inf;
            let mut at = vec![0.0; m * k];
            transpose_into(&a, &mut at, k, m);
            let (tn, expect) = on_tier(tier, || {
                let mut tn = vec![777.0; m * n];
                gemm_tn(&a, &b, &mut tn, m, k, n);
                let mut expect = vec![0.0; m * n];
                gemm(&at, &b, &mut expect, m, k, n);
                (tn, expect)
            });
            assert_eq!(bits(&tn), bits(&expect), "{tier:?} gemm_tn {m}x{k}x{n}");
        }
    }

    // one test per tier, so a run shows which instantiations executed (a
    // tier this CPU lacks passes vacuously)

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn one_rounding_rule_on_avx512() {
        one_rounding_rule_on(Isa::Avx512);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn one_rounding_rule_on_avx2() {
        one_rounding_rule_on(Isa::Avx2);
    }

    #[test]
    fn one_rounding_rule_on_portable() {
        one_rounding_rule_on(Isa::Portable);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn full_and_ragged_tiles_agree_on_avx512() {
        full_and_ragged_tiles_agree_on(Isa::Avx512);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn full_and_ragged_tiles_agree_on_avx2() {
        full_and_ragged_tiles_agree_on(Isa::Avx2);
    }

    #[test]
    fn full_and_ragged_tiles_agree_on_portable() {
        full_and_ragged_tiles_agree_on(Isa::Portable);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transposed_products_match_gemm_on_avx512() {
        transposed_products_match_gemm_on(Isa::Avx512);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transposed_products_match_gemm_on_avx2() {
        transposed_products_match_gemm_on(Isa::Avx2);
    }

    #[test]
    fn transposed_products_match_gemm_on_portable() {
        transposed_products_match_gemm_on(Isa::Portable);
    }

    #[test]
    fn vector_tiers_agree_bit_for_bit_and_portable_stays_within_rounding() {
        // AVX-512 and AVX2 both fuse each multiply-add, so they are the same
        // arithmetic; the portable tier rounds each product first
        let run = |tier: Isa| -> Vec<(String, Vec<f32>, Vec<f32>)> {
            on_tier(tier, || {
                problems()
                    .into_iter()
                    .map(|p| (p.what.clone(), p.batched(), p.accumulated()))
                    .collect()
            })
        };
        let mut tiers = supported_tiers();
        let best = tiers.next().expect("the portable tier always runs");
        let expect = run(best);
        for tier in tiers {
            for ((what, e_ep, e_acc), (_, g_ep, g_acc)) in expect.iter().zip(run(tier)) {
                let ctx = format!("{best:?} vs {tier:?}: {what}");
                if tier == Isa::Portable {
                    assert_close_same_placement(e_ep, &g_ep, 1e-5, &ctx);
                    assert_close_same_placement(e_acc, &g_acc, 1e-5, &ctx);
                } else {
                    assert_eq!(bits(e_ep), bits(&g_ep), "{ctx}");
                    assert_eq!(bits(e_acc), bits(&g_acc), "{ctx}: acc");
                }
            }
        }
    }
}
