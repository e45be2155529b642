//! Demosaicing: reconstructing a full RGB image from a Bayer mosaic.
//!
//! Three algorithms mirror the paper's Table 3 menu: PPG (baseline), pixel
//! binning (option 1) and AHD (option 2). The implementations are faithful to
//! the *behavioural signature* of each algorithm — gradient-directed
//! interpolation for PPG/AHD, resolution-halving superpixels for binning —
//! rather than bit-exact ports, which is what the heterogeneity study needs.

use crate::{ImageBuf, RawImage};
use serde::{Deserialize, Serialize};

/// Demosaicing algorithm selector (paper Table 3, "Demosaicing" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DemosaicMethod {
    /// Pixel-grouping (PPG-style) gradient-directed interpolation — baseline.
    Ppg,
    /// 2×2 pixel binning producing a half-resolution image — option 1.
    PixelBinning,
    /// Adaptive homogeneity-directed (AHD-style) interpolation — option 2.
    Ahd,
}

/// Runs the selected demosaicing algorithm.
pub fn demosaic(raw: &RawImage, method: DemosaicMethod) -> ImageBuf {
    match method {
        DemosaicMethod::Ppg => ppg(raw),
        DemosaicMethod::PixelBinning => pixel_binning(raw),
        DemosaicMethod::Ahd => ahd(raw),
    }
}

/// Clamped mosaic read used by the interpolators.
fn sample(raw: &RawImage, row: isize, col: isize) -> f32 {
    let r = row.clamp(0, raw.height as isize - 1) as usize;
    let c = col.clamp(0, raw.width as isize - 1) as usize;
    raw.get(r, c)
}

/// Averages the mosaic neighbours of `(row, col)` that carry colour `target`.
fn neighbour_mean(raw: &RawImage, row: usize, col: usize, target: usize, radius: isize) -> f32 {
    let mut sum = 0.0;
    let mut count = 0.0;
    for dr in -radius..=radius {
        for dc in -radius..=radius {
            if dr == 0 && dc == 0 {
                continue;
            }
            let rr = row as isize + dr;
            let cc = col as isize + dc;
            let rru = rr.clamp(0, raw.height as isize - 1) as usize;
            let ccu = cc.clamp(0, raw.width as isize - 1) as usize;
            if raw.pattern.channel_at(rru, ccu) == target {
                sum += raw.get(rru, ccu);
                count += 1.0;
            }
        }
    }
    if count > 0.0 {
        sum / count
    } else {
        raw.get(row, col)
    }
}

/// Runs `per_pixel` over every mosaic location, writing its `[r, g, b]`
/// result into the three output planes.
fn demosaic_rows<F>(raw: &RawImage, per_pixel: F) -> ImageBuf
where
    F: Fn(usize, usize) -> [f32; 3],
{
    let (w, h) = (raw.width, raw.height);
    let mut out = ImageBuf::zeros(w, h, 3);
    let n = w * h;
    let (rp, rest) = out.data.split_at_mut(n);
    let (gp, bp) = rest.split_at_mut(n);
    for (i, ((rv, gv), bv)) in rp
        .iter_mut()
        .zip(gp.iter_mut())
        .zip(bp.iter_mut())
        .enumerate()
    {
        let [pr, pg, pb] = per_pixel(i / w, i % w);
        *rv = pr;
        *gv = pg;
        *bv = pb;
    }
    out
}

/// PPG-style demosaic: green is interpolated along the direction of the
/// smaller gradient, red/blue are filled from local neighbourhood means.
fn ppg(raw: &RawImage) -> ImageBuf {
    demosaic_rows(raw, |r, c| {
        let own = raw.pattern.channel_at(r, c);
        let v = raw.get(r, c);
        let (ri, ci) = (r as isize, c as isize);
        let mut px = [0.0f32; 3];
        px[own] = v;
        if own != 1 {
            // interpolate green along the lower-gradient axis
            let gh = (sample(raw, ri, ci - 1) - sample(raw, ri, ci + 1)).abs();
            let gv = (sample(raw, ri - 1, ci) - sample(raw, ri + 1, ci)).abs();
            px[1] = if gh <= gv {
                0.5 * (sample(raw, ri, ci - 1) + sample(raw, ri, ci + 1))
            } else {
                0.5 * (sample(raw, ri - 1, ci) + sample(raw, ri + 1, ci))
            };
            // the remaining colour comes from the diagonal neighbours
            let other = if own == 0 { 2 } else { 0 };
            px[other] = neighbour_mean(raw, r, c, other, 1);
        } else {
            // green pixel: interpolate both red and blue from neighbours
            px[0] = neighbour_mean(raw, r, c, 0, 1);
            px[2] = neighbour_mean(raw, r, c, 2, 1);
        }
        px
    })
}

/// AHD-style demosaic: like PPG but the interpolation direction is chosen by
/// comparing the homogeneity (local variance) of horizontal and vertical
/// candidate reconstructions over a wider window.
fn ahd(raw: &RawImage) -> ImageBuf {
    demosaic_rows(raw, |r, c| {
        let own = raw.pattern.channel_at(r, c);
        let v = raw.get(r, c);
        let (ri, ci) = (r as isize, c as isize);
        let mut px = [0.0f32; 3];
        px[own] = v;
        if own != 1 {
            // candidate green values from each direction
            let gh = 0.5 * (sample(raw, ri, ci - 1) + sample(raw, ri, ci + 1));
            let gv = 0.5 * (sample(raw, ri - 1, ci) + sample(raw, ri + 1, ci));
            // homogeneity score: variation along each axis over radius 2
            let hom_h = (sample(raw, ri, ci - 2) - v).abs() + (sample(raw, ri, ci + 2) - v).abs();
            let hom_v = (sample(raw, ri - 2, ci) - v).abs() + (sample(raw, ri + 2, ci) - v).abs();
            let green = if hom_h <= hom_v { gh } else { gv };
            // second-order correction term characteristic of AHD
            let correction = if hom_h <= hom_v {
                0.25 * (2.0 * v - sample(raw, ri, ci - 2) - sample(raw, ri, ci + 2))
            } else {
                0.25 * (2.0 * v - sample(raw, ri - 2, ci) - sample(raw, ri + 2, ci))
            };
            px[1] = (green + correction).clamp(0.0, 1.0);
            let other = if own == 0 { 2 } else { 0 };
            px[other] = neighbour_mean(raw, r, c, other, 2);
        } else {
            px[0] = neighbour_mean(raw, r, c, 0, 2);
            px[2] = neighbour_mean(raw, r, c, 2, 2);
        }
        px
    })
}

/// 2×2 pixel binning: every Bayer quad collapses into one RGB superpixel and
/// the result is upsampled back to the sensor resolution so downstream code
/// sees a consistent geometry (the loss of detail is the point).
fn pixel_binning(raw: &RawImage) -> ImageBuf {
    let half_w = (raw.width / 2).max(1);
    let half_h = (raw.height / 2).max(1);
    let mut small = ImageBuf::zeros(half_w, half_h, 3);
    for r in 0..half_h {
        for c in 0..half_w {
            let mut sums = [0.0f32; 3];
            let mut counts = [0.0f32; 3];
            for dr in 0..2 {
                for dc in 0..2 {
                    let rr = (2 * r + dr).min(raw.height - 1);
                    let cc = (2 * c + dc).min(raw.width - 1);
                    let ch = raw.pattern.channel_at(rr, cc);
                    sums[ch] += raw.get(rr, cc);
                    counts[ch] += 1.0;
                }
            }
            for ch in 0..3 {
                let v = if counts[ch] > 0.0 {
                    sums[ch] / counts[ch]
                } else {
                    0.0
                };
                small.set(ch, r, c, v);
            }
        }
    }
    small.resize(raw.width, raw.height)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BayerPattern;

    /// A mosaic sampled from a constant grey scene should demosaic to a
    /// constant grey image under every algorithm.
    #[test]
    fn constant_scene_stays_constant() {
        let raw = RawImage::flat(16, 16, 0.4, BayerPattern::Rggb);
        for method in [
            DemosaicMethod::Ppg,
            DemosaicMethod::Ahd,
            DemosaicMethod::PixelBinning,
        ] {
            let rgb = demosaic(&raw, method);
            assert_eq!(rgb.channels, 3);
            assert_eq!((rgb.width, rgb.height), (16, 16));
            for &v in &rgb.data {
                assert!((v - 0.4).abs() < 1e-4, "{method:?} produced {v}");
            }
        }
    }

    /// The algorithms must keep the measured pixels exactly (PPG/AHD are
    /// interpolating, not smoothing, at sampled locations).
    #[test]
    fn measured_pixels_are_preserved() {
        let mut raw = RawImage::flat(8, 8, 0.2, BayerPattern::Rggb);
        raw.set(2, 2, 0.9); // an R location under RGGB
        let rgb = demosaic(&raw, DemosaicMethod::Ppg);
        assert_eq!(rgb.get(0, 2, 2), 0.9);
        let rgb = demosaic(&raw, DemosaicMethod::Ahd);
        assert_eq!(rgb.get(0, 2, 2), 0.9);
    }

    /// Binning discards spatial detail that PPG preserves: a single-pixel
    /// impulse should end up more spread out (lower peak) after binning.
    #[test]
    fn binning_loses_detail_relative_to_ppg() {
        let mut raw = RawImage::flat(16, 16, 0.1, BayerPattern::Rggb);
        raw.set(8, 8, 1.0);
        let ppg_img = demosaic(&raw, DemosaicMethod::Ppg);
        let bin_img = demosaic(&raw, DemosaicMethod::PixelBinning);
        let ch = raw.pattern.channel_at(8, 8);
        assert!(bin_img.get(ch, 8, 8) < ppg_img.get(ch, 8, 8));
    }

    /// Different algorithms should produce *different* images on structured
    /// content — that difference is exactly the heterogeneity under study.
    #[test]
    fn algorithms_disagree_on_structured_content() {
        let mut raw = RawImage::flat(16, 16, 0.1, BayerPattern::Rggb);
        for r in 0..16 {
            for c in 0..16 {
                if (r + c) % 3 == 0 {
                    raw.set(r, c, 0.8);
                }
            }
        }
        let a = demosaic(&raw, DemosaicMethod::Ppg);
        let b = demosaic(&raw, DemosaicMethod::Ahd);
        let c = demosaic(&raw, DemosaicMethod::PixelBinning);
        assert!(a.mean_abs_diff(&b) > 1e-4);
        assert!(a.mean_abs_diff(&c) > 1e-3);
    }

    #[test]
    fn works_for_other_bayer_patterns() {
        let raw = RawImage::flat(8, 8, 0.5, BayerPattern::Bggr);
        let rgb = demosaic(&raw, DemosaicMethod::Ppg);
        for &v in &rgb.data {
            assert!((v - 0.5).abs() < 1e-4);
        }
    }
}
