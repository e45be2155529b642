//! Denoising stage: FBDD-style smoothing and wavelet BayesShrink.
//!
//! # Reads and accumulation order
//!
//! Every captured pixel feeds a bit-exact replay (`tests/capture_bits.rs`),
//! so the reads and the rounding are a contract. FBDD reads each channel
//! plane edge-replicated by one pixel, which is what clamping both
//! coordinates reads. The weight of a pair of pixels `a`, `b` is
//! `exp(−((b − a)·(b − a)) / (2σ²))`; `(b − a)²` and `(a − b)²` are the same
//! f32, so each pair's weight is computed once per plane, for its east,
//! south, south-east and south-west neighbour, and read by both ends. The
//! centre's own weight is that expression at `b = a`: 1 for a finite pixel,
//! and evaluated for a non-finite one. Each output adds its nine
//! `weight · value` terms and their weights into zeroed accumulators in
//! raster order (row outer, column inner, the centre included) and returns
//! `sum / weight`. The wavelet denoiser works on each plane's 2×2 blocks;
//! an odd last row or column is copied through.

#![deny(clippy::disallowed_types)]

use crate::image::pad_edges;
use crate::ImageBuf;
use serde::{Deserialize, Serialize};

/// Denoising algorithm selector (paper Table 3, "Denoising" row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DenoiseMethod {
    /// Skip denoising entirely — option 1 in the paper's ablation.
    None,
    /// FBDD-style impulse/chroma noise suppression, approximated by an
    /// edge-preserving weighted 3×3 smoothing — baseline.
    Fbdd,
    /// Haar-wavelet soft-thresholding with a BayesShrink threshold — option 2.
    WaveletBayesShrink,
}

/// Runs the selected denoiser over every channel of `img`.
pub fn denoise(img: &ImageBuf, method: DenoiseMethod) -> ImageBuf {
    match method {
        DenoiseMethod::None => img.clone(),
        DenoiseMethod::Fbdd => fbdd(img),
        DenoiseMethod::WaveletBayesShrink => wavelet_bayes_shrink(img),
    }
}

/// Edge-preserving 3×3 smoothing: neighbours are weighted by a Gaussian of
/// their intensity difference to the centre pixel (a small bilateral filter),
/// which matches FBDD's goal of removing impulse noise without washing out
/// edges.
fn fbdd(img: &ImageBuf) -> ImageBuf {
    let mut out = img.clone();
    let (w, h) = (img.width, img.height);
    let n = w * h;
    if n == 0 {
        return out;
    }
    type Span = std::ops::RangeInclusive<usize>;
    let sigma_r = 0.1f32;
    let two_sigma2 = 2.0 * sigma_r * sigma_r;
    let pair = |a: f32, b: f32| (-((b - a) * (b - a)) / two_sigma2).exp();
    // the plane edge-replicated by one pixel, and the weight of each pixel
    // paired with its east, south, south-east and south-west neighbour
    let stride = w + 2;
    let len = stride * (h + 2);
    let mut padded = Vec::with_capacity(len);
    let [mut east, mut south, mut south_east, mut south_west] =
        [0, 1, 2, 3].map(|_| vec![0.0; len]);
    for (src, o) in img.data.chunks_exact(n).zip(out.data.chunks_exact_mut(n)) {
        pad_edges(src, w, h, 1, &mut padded);
        // the pairs some output reads: those with an end inside the image
        let weigh = |weights: &mut [f32], rows: Span, cols: Span, step: usize| {
            for pr in rows {
                for pc in cols.clone() {
                    let p = pr * stride + pc;
                    weights[p] = pair(padded[p], padded[p + step]);
                }
            }
        };
        weigh(&mut east, 1..=h, 0..=w, 1);
        weigh(&mut south, 0..=h, 1..=w, stride);
        weigh(&mut south_east, 0..=h, 0..=w, stride + 1);
        weigh(&mut south_west, 0..=h, 1..=w + 1, stride - 1);
        for (r, o) in o.chunks_exact_mut(w).enumerate() {
            let first = (r + 1) * stride + 1;
            for (i, o) in (first..first + w).zip(o) {
                let (up, down) = (i - stride, i + stride);
                let centre = padded[i];
                // exp(−0) = 1; a non-finite centre weighs itself NaN
                let own = if centre.is_finite() {
                    1.0
                } else {
                    pair(centre, centre)
                };
                let terms = [
                    (south_east[up - 1], padded[up - 1]),
                    (south[up], padded[up]),
                    (south_west[up + 1], padded[up + 1]),
                    (east[i - 1], padded[i - 1]),
                    (own, centre),
                    (east[i], padded[i + 1]),
                    (south_west[i], padded[down - 1]),
                    (south[i], padded[down]),
                    (south_east[i], padded[down + 1]),
                ];
                let mut sum = 0.0;
                let mut weight = 0.0;
                for (wgt, v) in terms {
                    sum += wgt * v;
                    weight += wgt;
                }
                *o = sum / weight;
            }
        }
    }
    out
}

/// Single-level 2-D Haar decomposition, soft-thresholding of the detail
/// bands with a BayesShrink-style threshold, and reconstruction, one
/// channel plane at a time.
fn wavelet_bayes_shrink(img: &ImageBuf) -> ImageBuf {
    let mut out = img.clone();
    let h = img.height / 2 * 2;
    let w = img.width / 2 * 2;
    if h < 2 || w < 2 {
        return out;
    }
    let n = img.width * img.height;
    for (c, plane) in out.data.chunks_mut(n).enumerate() {
        wavelet_plane(img, c, plane, h, w);
    }
    out
}

/// BayesShrink on one channel plane; `plane` is that channel's output slice.
fn wavelet_plane(img: &ImageBuf, c: usize, plane: &mut [f32], h: usize, w: usize) {
    // forward Haar transform over 2x2 blocks
    let mut approx = vec![0.0f32; (h / 2) * (w / 2)];
    let mut det_h = vec![0.0f32; (h / 2) * (w / 2)];
    let mut det_v = vec![0.0f32; (h / 2) * (w / 2)];
    let mut det_d = vec![0.0f32; (h / 2) * (w / 2)];
    for r in 0..h / 2 {
        for col in 0..w / 2 {
            let a = img.get(c, 2 * r, 2 * col);
            let b = img.get(c, 2 * r, 2 * col + 1);
            let d = img.get(c, 2 * r + 1, 2 * col);
            let e = img.get(c, 2 * r + 1, 2 * col + 1);
            let idx = r * (w / 2) + col;
            approx[idx] = (a + b + d + e) / 4.0;
            det_h[idx] = (a - b + d - e) / 4.0;
            det_v[idx] = (a + b - d - e) / 4.0;
            det_d[idx] = (a - b - d + e) / 4.0;
        }
    }
    // BayesShrink threshold: sigma_noise^2 / sigma_signal, with the noise
    // estimated from the median absolute deviation of the diagonal band
    let mut abs_d: Vec<f32> = det_d.iter().map(|v| v.abs()).collect();
    // total_cmp: one NaN pixel must not panic the whole ISP pipeline
    abs_d.sort_by(f32::total_cmp);
    let mad = abs_d[abs_d.len() / 2];
    let sigma_noise = mad / 0.6745;
    let threshold_for = |band: &[f32]| -> f32 {
        let var: f32 = band.iter().map(|v| v * v).sum::<f32>() / band.len() as f32;
        let sigma_signal = (var - sigma_noise * sigma_noise).max(1e-12).sqrt();
        if sigma_signal < 1e-6 {
            f32::INFINITY
        } else {
            sigma_noise * sigma_noise / sigma_signal
        }
    };
    let soft = |v: f32, t: f32| -> f32 {
        if t.is_infinite() {
            0.0
        } else {
            v.signum() * (v.abs() - t).max(0.0)
        }
    };
    let th = threshold_for(&det_h);
    let tv = threshold_for(&det_v);
    let td = threshold_for(&det_d);
    for v in &mut det_h {
        *v = soft(*v, th);
    }
    for v in &mut det_v {
        *v = soft(*v, tv);
    }
    for v in &mut det_d {
        *v = soft(*v, td);
    }
    // inverse Haar, written to this channel's own plane slice
    let width = img.width;
    for r in 0..h / 2 {
        for col in 0..w / 2 {
            let idx = r * (w / 2) + col;
            let (a, hh, vv, dd) = (approx[idx], det_h[idx], det_v[idx], det_d[idx]);
            plane[2 * r * width + 2 * col] = a + hh + vv + dd;
            plane[2 * r * width + 2 * col + 1] = a - hh + vv - dd;
            plane[(2 * r + 1) * width + 2 * col] = a + hh - vv - dd;
            plane[(2 * r + 1) * width + 2 * col + 1] = a - hh - vv + dd;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy_flat(width: usize, height: usize, level: f32, noise: f32, seed: u64) -> ImageBuf {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..3 * width * height)
            .map(|_| level + rng.gen_range(-noise..noise))
            .collect();
        ImageBuf::from_planar(width, height, 3, data)
    }

    #[test]
    fn none_is_identity() {
        let img = noisy_flat(8, 8, 0.5, 0.1, 0);
        assert_eq!(denoise(&img, DenoiseMethod::None), img);
    }

    #[test]
    fn fbdd_reduces_noise_variance() {
        let img = noisy_flat(16, 16, 0.5, 0.2, 1);
        let den = denoise(&img, DenoiseMethod::Fbdd);
        let var = |im: &ImageBuf| {
            let mean = im.data.iter().sum::<f32>() / im.data.len() as f32;
            im.data.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / im.data.len() as f32
        };
        assert!(var(&den) < var(&img) * 0.8);
    }

    #[test]
    fn wavelet_reduces_noise_variance() {
        let img = noisy_flat(16, 16, 0.5, 0.2, 2);
        let den = denoise(&img, DenoiseMethod::WaveletBayesShrink);
        let var = |im: &ImageBuf| {
            let mean = im.data.iter().sum::<f32>() / im.data.len() as f32;
            im.data.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / im.data.len() as f32
        };
        assert!(var(&den) < var(&img));
    }

    #[test]
    fn wavelet_survives_nan_pixels() {
        // one NaN sensor pixel used to panic the MAD median sort
        // (`partial_cmp(..).unwrap()`); it must instead flow through like
        // any other IEEE value and leave the clean channels untouched
        let mut img = noisy_flat(16, 16, 0.5, 0.2, 3);
        let idx = img.data.len() / 2;
        img.data[idx] = f32::NAN;
        let den = denoise(&img, DenoiseMethod::WaveletBayesShrink);
        assert_eq!(den.width, img.width);
        assert_eq!(den.height, img.height);
        // channels without the NaN stay finite
        let plane = img.data.len() / 3;
        let poisoned = idx / plane;
        for c in 0..3 {
            let chan = &den.data[c * plane..(c + 1) * plane];
            if c != poisoned {
                assert!(
                    chan.iter().all(|v| v.is_finite()),
                    "clean channel {c} polluted"
                );
            }
        }
    }

    #[test]
    fn fbdd_preserves_strong_edges_better_than_box_blur() {
        // a step edge should survive the edge-preserving filter
        let mut img = ImageBuf::zeros(8, 8, 1);
        for r in 0..8 {
            for c in 4..8 {
                img.set(0, r, c, 1.0);
            }
        }
        let den = denoise(&img, DenoiseMethod::Fbdd);
        // edge contrast across the boundary stays close to 1.0
        let contrast = den.get(0, 4, 5) - den.get(0, 4, 2);
        assert!(contrast > 0.9, "edge contrast {contrast}");
    }

    #[test]
    fn methods_differ_on_noisy_input() {
        let img = noisy_flat(16, 16, 0.5, 0.2, 3);
        let a = denoise(&img, DenoiseMethod::Fbdd);
        let b = denoise(&img, DenoiseMethod::WaveletBayesShrink);
        assert!(a.mean_abs_diff(&b) > 1e-4);
    }
}
