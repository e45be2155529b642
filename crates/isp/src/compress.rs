//! JPEG-style lossy compression: 8×8 block DCT, quality-scaled quantisation
//! and reconstruction.
//!
//! The paper's ablation varies the JPEG quality factor (85 baseline vs 50),
//! so what matters here is that the *quantisation loss depends on a quality
//! knob* in the same way — not byte-level JPEG compatibility.
//!
//! # Accumulation order
//!
//! Every captured pixel is part of a bit-exact replay (the datasets feed FL
//! runs whose weights are pinned), so the transforms' rounding is a contract.
//! The 8×8 cosine basis `B[k][n] = cos((2n + 1)kπ / 16)` is evaluated once
//! per [`jpeg_compress`] call, by one f32 expression. Each DCT output
//! `(u, v)` is the chain `acc = 0; acc += (block[x][y] · B[u][x]) · B[v][y]`
//! over `x` outer, `y` inner, then `((0.25 · c_u) · c_v) · acc`. Each inverse
//! output `(x, y)` is `acc = 0; acc += (((c_u · c_v) · coeff[u][v]) ·
//! B[u][x]) · B[v][y]` over `u` outer, `v` inner, then `0.25 · acc`. Eight
//! outputs of one row accumulate side by side in an `[f32; 8]`, so the
//! compiler may run them in vector lanes; no output's chain is split,
//! reordered, fused into an FMA or factored into separable passes, each of
//! which would move bits.

#![deny(clippy::disallowed_types)]

use crate::ImageBuf;
use serde::{Deserialize, Serialize};
use std::f32::consts::PI;

/// Compression selector (paper Table 3, "Image compression" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompressMethod {
    /// Skip compression — option 1 in the paper's ablation.
    None,
    /// JPEG-style DCT quantisation at the given quality (1–100).
    Jpeg(u8),
}

/// Base luminance quantisation table from the JPEG standard (Annex K).
const Q_TABLE: [[f32; 8]; 8] = [
    [16.0, 11.0, 10.0, 16.0, 24.0, 40.0, 51.0, 61.0],
    [12.0, 12.0, 14.0, 19.0, 26.0, 58.0, 60.0, 55.0],
    [14.0, 13.0, 16.0, 24.0, 40.0, 57.0, 69.0, 56.0],
    [14.0, 17.0, 22.0, 29.0, 51.0, 87.0, 80.0, 62.0],
    [18.0, 22.0, 37.0, 56.0, 68.0, 109.0, 103.0, 77.0],
    [24.0, 35.0, 55.0, 64.0, 81.0, 104.0, 113.0, 92.0],
    [49.0, 64.0, 78.0, 87.0, 103.0, 121.0, 120.0, 101.0],
    [72.0, 92.0, 95.0, 98.0, 112.0, 100.0, 103.0, 99.0],
];

/// Runs the selected compression round-trip (compress + decompress).
pub fn jpeg_compress(img: &ImageBuf, method: CompressMethod) -> ImageBuf {
    match method {
        CompressMethod::None => img.clone(),
        CompressMethod::Jpeg(quality) => jpeg_roundtrip(img, quality),
    }
}

/// Scales the base quantisation table for a quality factor, following the
/// libjpeg convention.
fn scaled_table(quality: u8) -> [[f32; 8]; 8] {
    let q = quality.clamp(1, 100) as f32;
    let scale = if q < 50.0 {
        5000.0 / q
    } else {
        200.0 - 2.0 * q
    };
    let mut table = [[0.0f32; 8]; 8];
    for i in 0..8 {
        for j in 0..8 {
            table[i][j] = ((Q_TABLE[i][j] * scale + 50.0) / 100.0).clamp(1.0, 255.0);
        }
    }
    table
}

/// `B[k][n] = cos((2n + 1)kπ / 16)`: row `k` is the `k`-th basis vector.
type Basis = [[f32; 8]; 8];

fn basis() -> Basis {
    let mut b = [[0.0f32; 8]; 8];
    for (k, row) in b.iter_mut().enumerate() {
        for (n, val) in row.iter_mut().enumerate() {
            *val = ((2.0 * n as f32 + 1.0) * k as f32 * PI / 16.0).cos();
        }
    }
    b
}

/// `B`'s transpose: row `n` holds `B[0][n] .. B[7][n]`.
fn transposed(b: &Basis) -> Basis {
    let mut t = [[0.0f32; 8]; 8];
    for (k, row) in b.iter().enumerate() {
        for (n, &val) in row.iter().enumerate() {
            t[n][k] = val;
        }
    }
    t
}

/// The DC term's normalisation; every other frequency scales by 1.
fn norm(k: usize) -> f32 {
    if k == 0 {
        1.0 / 2.0f32.sqrt()
    } else {
        1.0
    }
}

/// Forward 2-D DCT-II; `bt` is [`transposed`] `B`. Row `u` of the output
/// accumulates its eight `v` lanes together.
fn dct_8(block: &[[f32; 8]; 8], b: &Basis, bt: &Basis) -> [[f32; 8]; 8] {
    let mut out = [[0.0f32; 8]; 8];
    for (u, out_row) in out.iter_mut().enumerate() {
        let mut acc = [0.0f32; 8];
        for (x, row) in block.iter().enumerate() {
            for (y, &val) in row.iter().enumerate() {
                let t = val * b[u][x];
                for (a, &bv) in acc.iter_mut().zip(&bt[y]) {
                    *a += t * bv;
                }
            }
        }
        for (v, (out_val, a)) in out_row.iter_mut().zip(acc).enumerate() {
            *out_val = 0.25 * norm(u) * norm(v) * a;
        }
    }
    out
}

/// Inverse 2-D DCT; row `x` of the output accumulates its eight `y` lanes
/// together.
fn idct_8(coeffs: &[[f32; 8]; 8], b: &Basis) -> [[f32; 8]; 8] {
    let mut out = [[0.0f32; 8]; 8];
    for (x, out_row) in out.iter_mut().enumerate() {
        let mut acc = [0.0f32; 8];
        for (u, row) in coeffs.iter().enumerate() {
            for (v, &val) in row.iter().enumerate() {
                let t = norm(u) * norm(v) * val * b[u][x];
                for (a, &by) in acc.iter_mut().zip(&b[v]) {
                    *a += t * by;
                }
            }
        }
        for (out_val, a) in out_row.iter_mut().zip(acc) {
            *out_val = 0.25 * a;
        }
    }
    out
}

fn jpeg_roundtrip(img: &ImageBuf, quality: u8) -> ImageBuf {
    let table = scaled_table(quality);
    let b = basis();
    let bt = transposed(&b);
    let mut out = img.clone();
    for c in 0..img.channels {
        let mut r0 = 0;
        while r0 < img.height {
            let mut c0 = 0;
            while c0 < img.width {
                // gather an 8x8 block (edge blocks are padded by replication)
                let mut block = [[0.0f32; 8]; 8];
                for (i, row) in block.iter_mut().enumerate() {
                    for (j, val) in row.iter_mut().enumerate() {
                        let r = (r0 + i).min(img.height - 1);
                        let col = (c0 + j).min(img.width - 1);
                        *val = img.get(c, r, col) * 255.0 - 128.0;
                    }
                }
                let mut coeffs = dct_8(&block, &b, &bt);
                for (i, row) in coeffs.iter_mut().enumerate() {
                    for (j, val) in row.iter_mut().enumerate() {
                        *val = (*val / table[i][j]).round() * table[i][j];
                    }
                }
                let rec = idct_8(&coeffs, &b);
                for (i, row) in rec.iter().enumerate() {
                    for (j, &val) in row.iter().enumerate() {
                        let r = r0 + i;
                        let col = c0 + j;
                        if r < img.height && col < img.width {
                            out.set(c, r, col, ((val + 128.0) / 255.0).clamp(0.0, 1.0));
                        }
                    }
                }
                c0 += 8;
            }
            r0 += 8;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn textured(seed: u64) -> ImageBuf {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..3 * 16 * 16).map(|_| rng.gen_range(0.0..1.0)).collect();
        ImageBuf::from_planar(16, 16, 3, data)
    }

    #[test]
    fn none_is_identity() {
        let img = textured(0);
        assert_eq!(jpeg_compress(&img, CompressMethod::None), img);
    }

    #[test]
    fn dct_idct_round_trip() {
        let mut block = [[0.0f32; 8]; 8];
        for (i, row) in block.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ((i * 8 + j) as f32).sin() * 50.0;
            }
        }
        let b = basis();
        let rec = idct_8(&dct_8(&block, &b, &transposed(&b)), &b);
        for i in 0..8 {
            for j in 0..8 {
                assert!((rec[i][j] - block[i][j]).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn high_quality_is_nearly_lossless_on_smooth_images() {
        let img = ImageBuf::from_planar(16, 16, 3, vec![0.5; 3 * 256]);
        let out = jpeg_compress(&img, CompressMethod::Jpeg(95));
        assert!(img.mean_abs_diff(&out) < 0.01);
    }

    #[test]
    fn lower_quality_means_more_distortion() {
        let img = textured(1);
        let q85 = jpeg_compress(&img, CompressMethod::Jpeg(85));
        let q50 = jpeg_compress(&img, CompressMethod::Jpeg(50));
        let q10 = jpeg_compress(&img, CompressMethod::Jpeg(10));
        let d85 = img.mean_abs_diff(&q85);
        let d50 = img.mean_abs_diff(&q50);
        let d10 = img.mean_abs_diff(&q10);
        assert!(d85 <= d50, "q85 {d85} vs q50 {d50}");
        assert!(d50 <= d10, "q50 {d50} vs q10 {d10}");
        assert!(d10 > 0.0);
    }

    #[test]
    fn quality_table_scaling_is_monotonic() {
        let t90 = scaled_table(90);
        let t30 = scaled_table(30);
        // lower quality -> larger quantisation steps
        assert!(t30[4][4] > t90[4][4]);
    }

    #[test]
    fn handles_non_multiple_of_eight_sizes() {
        let img = ImageBuf::from_planar(10, 6, 3, vec![0.4; 3 * 60]);
        let out = jpeg_compress(&img, CompressMethod::Jpeg(70));
        assert_eq!((out.width, out.height), (10, 6));
        assert!(out.data.iter().all(|v| v.is_finite()));
    }
}
