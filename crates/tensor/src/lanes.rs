//! The lane abstraction every ISA-dispatched kernel in this crate is written
//! over: a vector of `f32` lanes and the dozen operations the GEMM
//! micro-kernel ([`gemm`](mod@crate::gemm)) and the 3×3 depthwise kernel
//! are spelled in, implemented for AVX-512 (16 lanes), AVX2+FMA (8) and a
//! scalar-array portable tier (8). A kernel is one generic body over
//! [`Lanes`], instantiated per tier behind a thin `#[target_feature]` entry
//! point that the runtime [`crate::isa`] decision selects.
//!
//! Every operation but [`Lanes::fma`] computes the same bits on every tier,
//! lane by lane. `fma` is the one place the tiers may differ: the two AVX
//! tiers fuse (one rounding — so AVX-512 ≡ AVX2 bit for bit), the portable
//! tier multiplies then adds (two), which is what a host without a vector
//! FMA can do at speed.
//!
//! # Safety
//!
//! This is the only file in the crate that names an `_mm*` intrinsic. A
//! vector tier's token ([`Avx512`], [`Avx2`]) is constructed through an
//! `unsafe fn new` whose contract is that the CPU has the tier's ISA —
//! callers do so only inside the `#[target_feature]` entry point they reach
//! after [`crate::isa::isa`] reported that tier — so holding a token is the
//! proof every method's intrinsics are available. Every vector memory access
//! is masked to the lanes that lie inside the slice it was handed — the mask
//! is derived from the slice's own length inside the access — so the kernel
//! bodies above the trait are safe code.

#![allow(unsafe_code, reason = "the ISA tier tokens and their intrinsics")]

use crate::gemm::EpilogueAct;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Bit `l` set for each of the first `n` lanes.
#[inline(always)]
pub(crate) fn lane_mask(n: usize) -> u32 {
    debug_assert!(n <= 16);
    (1u32 << n) - 1
}

/// Bit `l` set for each lane `l < n` whose element `start + l` lies inside
/// a slice of `len` elements.
#[inline(always)]
fn in_bounds(len: usize, start: isize, n: usize) -> u32 {
    let lo = (-start).clamp(0, n as isize) as usize;
    let hi = (len as isize - start).clamp(0, n as isize) as usize;
    lane_mask(hi) & !lane_mask(lo)
}

/// A vector of `N` `f32` lanes and the handful of operations the kernels are
/// written in. Lane masks are plain bit sets (`bit l` ↔ lane `l`). Every
/// implementation computes each operation but [`Lanes::fma`] to the same
/// bits, lane by lane — in particular `max` / `min` have the x86 operand-order semantics spelled
/// out below, which is what makes NaN handling tier-independent.
pub(crate) trait Lanes: Copy {
    /// The vector type.
    type V: Copy;
    /// Lanes per vector (at most 16).
    const N: usize;
    /// All lanes `x`.
    fn splat(self, x: f32) -> Self::V;
    /// Lane `l` is `row[start + l]` where that index exists, `0.0` elsewhere.
    fn load(self, row: &[f32], start: isize) -> Self::V;
    /// The `2N` elements from `row[start]` on, de-interleaved: lane `l` of
    /// the pair is `(row[start + 2l], row[start + 2l + 1])` where those
    /// indices exist, `0.0` elsewhere.
    fn load2(self, row: &[f32], start: isize) -> (Self::V, Self::V);
    /// Writes the first `dst.len().min(N)` lanes to `dst`.
    fn store(self, v: Self::V, dst: &mut [f32]);
    /// Lane-wise product.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise sum.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a · b + c`: one rounding on the AVX tiers, a [`Lanes::mul`]
    /// then a [`Lanes::add`] on the portable one.
    fn fma(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Lane-wise `if a > b { a } else { b }`: `b` on NaN or equal zeros.
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `if a < b { a } else { b }`: `b` on NaN or equal zeros.
    fn min(self, a: Self::V, b: Self::V) -> Self::V;
    /// `x` in the lanes of `mask`, `y` in the others.
    fn select(self, mask: u32, x: Self::V, y: Self::V) -> Self::V;
}

/// The scalar-array tier: the reference the vector tiers must equal, and
/// what runs where no vector ISA was detected.
#[derive(Clone, Copy)]
pub(crate) struct Portable;

impl Lanes for Portable {
    type V = [f32; 8];
    const N: usize = 8;

    #[inline(always)]
    fn splat(self, x: f32) -> [f32; 8] {
        [x; 8]
    }

    #[inline(always)]
    fn load(self, row: &[f32], start: isize) -> [f32; 8] {
        let whole = usize::try_from(start).ok().and_then(|s| row.get(s..s + 8));
        if let Some(whole) = whole {
            return whole.try_into().expect("eight elements");
        }
        let mask = in_bounds(row.len(), start, 8);
        std::array::from_fn(|l| {
            if mask >> l & 1 == 1 {
                row[(start + l as isize) as usize]
            } else {
                0.0
            }
        })
    }

    #[inline(always)]
    fn load2(self, row: &[f32], start: isize) -> ([f32; 8], [f32; 8]) {
        let at = |i: isize| {
            usize::try_from(i)
                .ok()
                .and_then(|i| row.get(i))
                .copied()
                .unwrap_or(0.0)
        };
        (
            std::array::from_fn(|l| at(start + 2 * l as isize)),
            std::array::from_fn(|l| at(start + 2 * l as isize + 1)),
        )
    }

    #[inline(always)]
    fn store(self, v: [f32; 8], dst: &mut [f32]) {
        for (d, s) in dst.iter_mut().zip(v) {
            *d = s;
        }
    }

    #[inline(always)]
    fn mul(self, a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        std::array::from_fn(|l| a[l] * b[l])
    }

    #[inline(always)]
    fn add(self, a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        std::array::from_fn(|l| a[l] + b[l])
    }

    #[inline(always)]
    fn fma(self, a: [f32; 8], b: [f32; 8], c: [f32; 8]) -> [f32; 8] {
        std::array::from_fn(|l| a[l] * b[l] + c[l])
    }

    #[inline(always)]
    fn max(self, a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        std::array::from_fn(|l| if a[l] > b[l] { a[l] } else { b[l] })
    }

    #[inline(always)]
    fn min(self, a: [f32; 8], b: [f32; 8]) -> [f32; 8] {
        std::array::from_fn(|l| if a[l] < b[l] { a[l] } else { b[l] })
    }

    #[inline(always)]
    fn select(self, mask: u32, x: [f32; 8], y: [f32; 8]) -> [f32; 8] {
        std::array::from_fn(|l| if mask >> l & 1 == 1 { x[l] } else { y[l] })
    }
}

/// The AVX-512F tier — holding one is the proof every method's intrinsics
/// are available.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx512(());

#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// # Safety
    ///
    /// The CPU must support `avx512f` (`Isa::Avx512.supported()`).
    #[inline(always)]
    pub(crate) unsafe fn new() -> Self {
        Avx512(())
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx512 {
    type V = __m512;
    const N: usize = 16;

    #[inline(always)]
    fn splat(self, x: f32) -> __m512 {
        // SAFETY: an `Avx512` exists only where avx512f was detected.
        unsafe { _mm512_set1_ps(x) }
    }

    #[inline(always)]
    fn load(self, row: &[f32], start: isize) -> __m512 {
        let mask = in_bounds(row.len(), start, 16) as __mmask16;
        // SAFETY: avx512f by the token. A masked load touches only its
        // enabled lanes (disabled lanes cannot fault), `in_bounds` enables
        // exactly the lanes inside `row`, and the base pointer is formed
        // with wrapping arithmetic, so it may lie outside the slice.
        unsafe { _mm512_maskz_loadu_ps(mask, row.as_ptr().wrapping_offset(start)) }
    }

    #[inline(always)]
    fn load2(self, row: &[f32], start: isize) -> (__m512, __m512) {
        let (a, b) = (self.load(row, start), self.load(row, start + 16));
        // SAFETY: an `Avx512` exists only where avx512f was detected.
        unsafe {
            let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
            let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
            (
                _mm512_permutex2var_ps(a, even, b),
                _mm512_permutex2var_ps(a, odd, b),
            )
        }
    }

    #[inline(always)]
    fn store(self, v: __m512, dst: &mut [f32]) {
        let mask = lane_mask(dst.len().min(16)) as __mmask16;
        // SAFETY: avx512f by the token; the masked store writes only the
        // first `dst.len().min(16)` lanes, all inside `dst`.
        unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), mask, v) }
    }

    #[inline(always)]
    fn mul(self, a: __m512, b: __m512) -> __m512 {
        // SAFETY: an `Avx512` exists only where avx512f was detected.
        unsafe { _mm512_mul_ps(a, b) }
    }

    #[inline(always)]
    fn add(self, a: __m512, b: __m512) -> __m512 {
        // SAFETY: an `Avx512` exists only where avx512f was detected.
        unsafe { _mm512_add_ps(a, b) }
    }

    #[inline(always)]
    fn fma(self, a: __m512, b: __m512, c: __m512) -> __m512 {
        // SAFETY: an `Avx512` exists only where avx512f was detected.
        unsafe { _mm512_fmadd_ps(a, b, c) }
    }

    #[inline(always)]
    fn max(self, a: __m512, b: __m512) -> __m512 {
        // SAFETY: an `Avx512` exists only where avx512f was detected.
        unsafe { _mm512_max_ps(a, b) }
    }

    #[inline(always)]
    fn min(self, a: __m512, b: __m512) -> __m512 {
        // SAFETY: an `Avx512` exists only where avx512f was detected.
        unsafe { _mm512_min_ps(a, b) }
    }

    #[inline(always)]
    fn select(self, mask: u32, x: __m512, y: __m512) -> __m512 {
        // SAFETY: an `Avx512` exists only where avx512f was detected.
        unsafe { _mm512_mask_blend_ps(mask as __mmask16, y, x) }
    }
}

/// The AVX2+FMA tier; a token like [`Avx512`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// # Safety
    ///
    /// The CPU must support `avx2` and `fma` (`Isa::Avx2.supported()`).
    #[inline(always)]
    pub(crate) unsafe fn new() -> Self {
        Avx2(())
    }

    /// Expands a lane bit set into the all-ones / all-zeros lane words the
    /// AVX masked moves and blends take.
    #[inline(always)]
    fn lane_words(self, mask: u32) -> __m256i {
        // SAFETY: an `Avx2` exists only where avx2 was detected.
        unsafe {
            let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(mask as i32), bit), bit)
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2 {
    type V = __m256;
    const N: usize = 8;

    #[inline(always)]
    fn splat(self, x: f32) -> __m256 {
        // SAFETY: an `Avx2` exists only where avx2 was detected.
        unsafe { _mm256_set1_ps(x) }
    }

    #[inline(always)]
    fn load(self, row: &[f32], start: isize) -> __m256 {
        let mask = in_bounds(row.len(), start, 8);
        let ptr = row.as_ptr().wrapping_offset(start);
        // SAFETY: avx2 by the token. With all eight lanes in bounds the
        // plain load reads `row[start..start + 8]`; otherwise the masked load
        // touches only its enabled lanes (disabled lanes cannot fault),
        // which `in_bounds` confines to `row`; the base pointer is formed
        // with wrapping arithmetic, so it may lie outside the slice.
        unsafe {
            if mask == 0xff {
                _mm256_loadu_ps(ptr)
            } else {
                _mm256_maskload_ps(ptr, self.lane_words(mask))
            }
        }
    }

    #[inline(always)]
    fn load2(self, row: &[f32], start: isize) -> (__m256, __m256) {
        let (a, b) = (self.load(row, start), self.load(row, start + 8));
        // SAFETY: an `Avx2` exists only where avx2 was detected.
        unsafe {
            // per 128-bit half: [a0 a2 b0 b2 | a4 a6 b4 b6], likewise the
            // odd elements; swapping the middle 64-bit quarters orders them
            let even = _mm256_castps_pd(_mm256_shuffle_ps::<0b10_00_10_00>(a, b));
            let odd = _mm256_castps_pd(_mm256_shuffle_ps::<0b11_01_11_01>(a, b));
            (
                _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(even)),
                _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(odd)),
            )
        }
    }

    #[inline(always)]
    fn store(self, v: __m256, dst: &mut [f32]) {
        // SAFETY: avx2 by the token; the plain store writes `dst[..8]`, the
        // masked one only the first `dst.len()` lanes.
        unsafe {
            if dst.len() >= 8 {
                _mm256_storeu_ps(dst.as_mut_ptr(), v)
            } else {
                let words = self.lane_words(lane_mask(dst.len()));
                _mm256_maskstore_ps(dst.as_mut_ptr(), words, v)
            }
        }
    }

    #[inline(always)]
    fn mul(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: an `Avx2` exists only where avx2 was detected.
        unsafe { _mm256_mul_ps(a, b) }
    }

    #[inline(always)]
    fn add(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: an `Avx2` exists only where avx2 was detected.
        unsafe { _mm256_add_ps(a, b) }
    }

    #[inline(always)]
    fn fma(self, a: __m256, b: __m256, c: __m256) -> __m256 {
        // SAFETY: an `Avx2` exists only where avx2 and fma were detected.
        unsafe { _mm256_fmadd_ps(a, b, c) }
    }

    #[inline(always)]
    fn max(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: an `Avx2` exists only where avx2 was detected.
        unsafe { _mm256_max_ps(a, b) }
    }

    #[inline(always)]
    fn min(self, a: __m256, b: __m256) -> __m256 {
        // SAFETY: an `Avx2` exists only where avx2 was detected.
        unsafe { _mm256_min_ps(a, b) }
    }

    #[inline(always)]
    fn select(self, mask: u32, x: __m256, y: __m256) -> __m256 {
        if mask & 0xff == 0xff {
            return x;
        }
        // SAFETY: an `Avx2` exists only where avx2 was detected.
        unsafe { _mm256_blendv_ps(y, x, _mm256_castsi256_ps(self.lane_words(mask))) }
    }
}

/// A kernel body that takes its activation as a lane closure.
pub(crate) trait ActBody<L: Lanes> {
    /// Runs the body on tier `l` with `act` applied to each stored vector.
    fn run(self, l: L, act: impl Fn(L::V) -> L::V + Copy);
}

/// Runs `body` with `act` resolved to a lane closure once, here, not per
/// element: the branch-faithful forms of [`EpilogueAct::apply`], so NaN
/// behaves as on the scalar path (`max` / `min` return their second operand
/// on NaN). The closures are `inline(always)` so they are
/// compiled inside the tier's `#[target_feature]` entry point, where the
/// intrinsics inline.
#[inline(always)]
pub(crate) fn with_act<L: Lanes>(l: L, act: EpilogueAct, body: impl ActBody<L>) {
    let (zero, one) = (l.splat(0.0), l.splat(1.0));
    match act {
        EpilogueAct::None => body.run(
            l,
            #[inline(always)]
            |v| v,
        ),
        EpilogueAct::Relu => body.run(
            l,
            #[inline(always)]
            |v| l.max(v, zero),
        ),
        EpilogueAct::HardSwish => {
            let (three, sixth) = (l.splat(3.0), l.splat(crate::gemm::SIXTH));
            body.run(
                l,
                #[inline(always)]
                |v| {
                    let t = l.mul(l.add(v, three), sixth);
                    l.mul(v, l.min(one, l.max(zero, t)))
                },
            )
        }
    }
}
