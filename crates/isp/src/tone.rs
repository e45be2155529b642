//! Tone transformation: gamma encoding and tone equalisation.

use crate::ImageBuf;
use serde::{Deserialize, Serialize};

/// Tone-transformation selector (paper Table 3, "Tone transformation" row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ToneMethod {
    /// Skip tone mapping (leave the image linear) — option 1 in the ablation.
    None,
    /// Standard sRGB gamma encoding — baseline.
    SrgbGamma,
    /// sRGB gamma followed by global histogram (tone) equalisation — option 2.
    GammaEqualization,
}

/// Applies the selected tone transformation.
pub fn tone_map(img: &ImageBuf, method: ToneMethod) -> ImageBuf {
    match method {
        ToneMethod::None => img.clone(),
        ToneMethod::SrgbGamma => srgb_gamma(img),
        ToneMethod::GammaEqualization => equalize(&srgb_gamma(img)),
    }
}

/// The piecewise sRGB opto-electronic transfer function.
pub(crate) fn srgb_encode(v: f32) -> f32 {
    let v = v.clamp(0.0, 1.0);
    if v <= 0.003_130_8 {
        12.92 * v
    } else {
        1.055 * v.powf(1.0 / 2.4) - 0.055
    }
}

fn srgb_gamma(img: &ImageBuf) -> ImageBuf {
    let mut out = img.clone();
    for v in &mut out.data {
        *v = srgb_encode(*v);
    }
    out
}

/// Global histogram equalisation on the luminance, applied as a per-pixel
/// gain so colours are preserved.
fn equalize(img: &ImageBuf) -> ImageBuf {
    assert_eq!(img.channels, 3, "tone equalisation expects an RGB image");
    let n = img.width * img.height;
    // luminance histogram (64 bins is plenty for [0,1] data)
    const BINS: usize = 64;
    let mut hist = [0usize; BINS];
    let mut luma = vec![0.0f32; n];
    for (l, ((&r, &g), &b)) in luma.iter_mut().zip(
        img.data[..n]
            .iter()
            .zip(img.data[n..2 * n].iter())
            .zip(img.data[2 * n..3 * n].iter()),
    ) {
        let y = 0.2126 * r + 0.7152 * g + 0.0722 * b;
        *l = y;
        let bin = ((y * (BINS - 1) as f32).round() as usize).min(BINS - 1);
        hist[bin] += 1;
    }
    // cumulative distribution
    let mut cdf = [0.0f32; BINS];
    let mut acc = 0usize;
    for b in 0..BINS {
        acc += hist[b];
        cdf[b] = acc as f32 / n as f32;
    }
    // per-pixel gains from the CDF, then three independent plane multiplies
    let gain: Vec<f32> = luma
        .iter()
        .map(|&y| {
            let y = y.max(1e-6);
            let bin = ((y * (BINS - 1) as f32).round() as usize).min(BINS - 1);
            cdf[bin] / y
        })
        .collect();
    let mut out = img.clone();
    for plane in out.data.chunks_mut(n) {
        for (v, g) in plane.iter_mut().zip(&gain) {
            *v = (*v * g).clamp(0.0, 1.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let img = ImageBuf::from_planar(2, 2, 3, vec![0.3; 12]);
        assert_eq!(tone_map(&img, ToneMethod::None), img);
    }

    #[test]
    fn gamma_brightens_midtones() {
        let img = ImageBuf::from_planar(2, 2, 3, vec![0.2; 12]);
        let toned = tone_map(&img, ToneMethod::SrgbGamma);
        assert!(toned.data[0] > 0.2, "sRGB gamma lifts dark linear values");
    }

    #[test]
    fn gamma_preserves_black_and_white() {
        assert_eq!(srgb_encode(0.0), 0.0);
        assert!((srgb_encode(1.0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gamma_is_monotonic() {
        let mut prev = -1.0;
        for i in 0..=100 {
            let v = srgb_encode(i as f32 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn equalisation_spreads_the_histogram() {
        // a low-contrast image should gain contrast after equalisation
        let mut img = ImageBuf::zeros(8, 8, 3);
        for r in 0..8 {
            for c in 0..8 {
                let v = 0.4 + 0.1 * ((r * 8 + c) as f32 / 63.0);
                for ch in 0..3 {
                    img.set(ch, r, c, v);
                }
            }
        }
        let eq = tone_map(&img, ToneMethod::GammaEqualization);
        let range = |im: &ImageBuf| {
            let max = im.data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let min = im.data.iter().copied().fold(f32::INFINITY, f32::min);
            max - min
        };
        assert!(range(&eq) > range(&img));
    }

    #[test]
    fn tone_variants_differ() {
        let img = ImageBuf::from_planar(4, 4, 3, (0..48).map(|i| 0.1 + 0.015 * i as f32).collect());
        let a = tone_map(&img, ToneMethod::SrgbGamma);
        let b = tone_map(&img, ToneMethod::GammaEqualization);
        let c = tone_map(&img, ToneMethod::None);
        assert!(a.mean_abs_diff(&b) > 1e-4);
        assert!(a.mean_abs_diff(&c) > 1e-3);
    }
}
