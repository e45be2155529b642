//! Demosaicing: reconstructing a full RGB image from a Bayer mosaic.
//!
//! Three algorithms mirror the paper's Table 3 menu: PPG (baseline), pixel
//! binning (option 1) and AHD (option 2). The implementations are faithful to
//! the *behavioural signature* of each algorithm — gradient-directed
//! interpolation for PPG/AHD, resolution-halving superpixels for binning —
//! rather than bit-exact ports, which is what the heterogeneity study needs.
//!
//! # Reads and accumulation order
//!
//! Every captured pixel feeds a bit-exact replay (`tests/capture_bits.rs`),
//! so the reads and the rounding are a contract. PPG and AHD read a
//! [`Padded`] copy of the mosaic and of its colour map, edge-replicated by
//! their window radius (1 and 2): a read past the border sees the nearest
//! edge pixel and that pixel's colour, which is what clamping both
//! coordinates reads. A neighbourhood mean is only asked for a colour other
//! than the centre's. It adds the window's pixels of that colour one by one
//! in raster order (row outer, column inner) into a zeroed `sum` and returns
//! `sum / count`, or the centre pixel when no neighbour has that colour.
//! Pixel binning averages each 2×2 quad per colour the same way and
//! resamples with [`ImageBuf::resize`].

#![deny(clippy::disallowed_types)]

use crate::image::pad_edges;
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

/// The mosaic and its colour map, each edge-replicated by `pad` pixels on
/// every side, row-major with `stride` values per row.
struct Padded {
    pad: usize,
    stride: usize,
    values: Vec<f32>,
    colours: Vec<u8>,
}

impl Padded {
    fn new(raw: &RawImage, pad: usize) -> Self {
        let (w, h) = (raw.width, raw.height);
        let colours: Vec<u8> = (0..w * h)
            .map(|i| raw.pattern.channel_at(i / w, i % w) as u8)
            .collect();
        let mut padded = Padded {
            pad,
            stride: w + 2 * pad,
            values: Vec::new(),
            colours: Vec::new(),
        };
        pad_edges(&raw.data, w, h, pad, &mut padded.values);
        pad_edges(&colours, w, h, pad, &mut padded.colours);
        padded
    }

    /// The value `(dr, dc)` away from padded index `i`.
    fn at(&self, i: usize, dr: isize, dc: isize) -> f32 {
        self.values[i.wrapping_add_signed(dr * self.stride as isize + dc)]
    }

    /// Mean of the pixels of colour `target` in the `(2·pad + 1)²` window
    /// around padded index `i`, centre excluded; the centre when there are
    /// none.
    fn neighbour_mean(&self, i: usize, target: u8) -> f32 {
        // the centre is never of the wanted colour, so it never counts
        debug_assert_ne!(self.colours[i], target);
        // gather the hits in raster order (a window is at most 5×5), then add
        // them one by one
        let mut hits = [0.0f32; 25];
        let mut count = 0;
        let (pad, stride) = (self.pad, self.stride);
        for dr in 0..=2 * pad {
            let row = i + dr * stride - pad * stride - pad;
            let window = row..row + 2 * pad + 1;
            let pixels = self.values[window.clone()]
                .iter()
                .zip(&self.colours[window]);
            for (&v, &colour) in pixels {
                hits[count] = v;
                count += usize::from(colour == target);
            }
        }
        if count > 0 {
            hits[..count].iter().fold(0.0, |sum, &v| sum + v) / count as f32
        } else {
            self.values[i]
        }
    }
}

/// Runs `per_pixel` over every mosaic location of a [`Padded`] copy of `raw`,
/// writing its `[r, g, b]` result into the three output planes. `per_pixel`
/// gets the padded index of the location, its value and its colour.
fn demosaic_rows<F>(raw: &RawImage, pad: usize, per_pixel: F) -> ImageBuf
where
    F: Fn(&Padded, usize, f32, u8) -> [f32; 3],
{
    let (w, h) = (raw.width, raw.height);
    let mut out = ImageBuf::zeros(w, h, 3);
    let n = w * h;
    if n == 0 {
        return out;
    }
    let padded = Padded::new(raw, pad);
    let (rp, rest) = out.data.split_at_mut(n);
    let (gp, bp) = rest.split_at_mut(n);
    let rows = rp.chunks_exact_mut(w).zip(gp.chunks_exact_mut(w));
    for (r, ((rr, gr), br)) in rows.zip(bp.chunks_exact_mut(w)).enumerate() {
        let first = (r + pad) * padded.stride + pad;
        let outs = rr.iter_mut().zip(gr.iter_mut()).zip(br.iter_mut());
        for (i, ((rv, gv), bv)) in (first..first + w).zip(outs) {
            let [pr, pg, pb] = per_pixel(&padded, i, padded.values[i], padded.colours[i]);
            *rv = pr;
            *gv = pg;
            *bv = pb;
        }
    }
    out
}

/// PPG-style demosaic: green is interpolated along the direction of the
/// smaller gradient, red/blue are filled from local neighbourhood means.
fn ppg(raw: &RawImage) -> ImageBuf {
    demosaic_rows(raw, 1, |p, i, v, own| {
        let mut px = [0.0f32; 3];
        px[own as usize] = v;
        if own != 1 {
            // interpolate green along the lower-gradient axis
            let (west, east) = (p.at(i, 0, -1), p.at(i, 0, 1));
            let (north, south) = (p.at(i, -1, 0), p.at(i, 1, 0));
            let gh = (west - east).abs();
            let gv = (north - south).abs();
            px[1] = if gh <= gv {
                0.5 * (west + east)
            } else {
                0.5 * (north + south)
            };
            // the remaining colour comes from the diagonal neighbours
            let other = if own == 0 { 2 } else { 0 };
            px[other] = p.neighbour_mean(i, other as u8);
        } else {
            // green pixel: interpolate both red and blue from neighbours
            px[0] = p.neighbour_mean(i, 0);
            px[2] = p.neighbour_mean(i, 2);
        }
        px
    })
}

/// AHD-style demosaic: like PPG but the interpolation direction is chosen by
/// comparing the homogeneity (local variance) of horizontal and vertical
/// candidate reconstructions over a wider window.
fn ahd(raw: &RawImage) -> ImageBuf {
    demosaic_rows(raw, 2, |p, i, v, own| {
        let mut px = [0.0f32; 3];
        px[own as usize] = v;
        if own != 1 {
            // candidate green values from each direction
            let gh = 0.5 * (p.at(i, 0, -1) + p.at(i, 0, 1));
            let gv = 0.5 * (p.at(i, -1, 0) + p.at(i, 1, 0));
            // homogeneity score: variation along each axis over radius 2
            let (west, east) = (p.at(i, 0, -2), p.at(i, 0, 2));
            let (north, south) = (p.at(i, -2, 0), p.at(i, 2, 0));
            let hom_h = (west - v).abs() + (east - v).abs();
            let hom_v = (north - v).abs() + (south - v).abs();
            let green = if hom_h <= hom_v { gh } else { gv };
            // second-order correction term characteristic of AHD
            let correction = if hom_h <= hom_v {
                0.25 * (2.0 * v - west - east)
            } else {
                0.25 * (2.0 * v - north - south)
            };
            px[1] = (green + correction).clamp(0.0, 1.0);
            let other = if own == 0 { 2 } else { 0 };
            px[other] = p.neighbour_mean(i, other as u8);
        } else {
            px[0] = p.neighbour_mean(i, 0);
            px[2] = p.neighbour_mean(i, 2);
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
