//! Planar RGB image and RAW Bayer-mosaic buffers.
//!
//! # Reads and accumulation order
//!
//! [`ImageBuf::resize`] feeds every captured pixel twice (scene to sensor,
//! ISP output to tensor), and the captures replay bit for bit
//! (`tests/capture_bits.rs`), so its rounding is a contract. Source
//! coordinates are `((i + 0.5) · scale − 0.5)` clamped to the image, one f32
//! expression per output column and per output row; each output pixel is the
//! left-associated sum of its four `value · row weight · column weight`
//! products, top-left, top-right, bottom-left, bottom-right.

#![deny(clippy::disallowed_types)]

use serde::{Deserialize, Serialize};

/// Bayer colour-filter-array layouts supported by the simulated sensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BayerPattern {
    /// Rows alternate R G / G B starting with red (most common layout).
    Rggb,
    /// Rows alternate B G / G R starting with blue.
    Bggr,
    /// Rows alternate G R / B G.
    Grbg,
}

impl BayerPattern {
    /// Returns the colour channel (0 = R, 1 = G, 2 = B) sampled at pixel
    /// `(row, col)` under this pattern.
    pub fn channel_at(&self, row: usize, col: usize) -> usize {
        let (r, c) = (row % 2, col % 2);
        match self {
            BayerPattern::Rggb => match (r, c) {
                (0, 0) => 0,
                (0, 1) | (1, 0) => 1,
                _ => 2,
            },
            BayerPattern::Bggr => match (r, c) {
                (0, 0) => 2,
                (0, 1) | (1, 0) => 1,
                _ => 0,
            },
            BayerPattern::Grbg => match (r, c) {
                (0, 0) | (1, 1) => 1,
                (0, 1) => 0,
                _ => 2,
            },
        }
    }
}

/// A planar floating-point RGB image with values nominally in `[0, 1]`.
///
/// Data layout is `[channel][row][col]`, matching the `[c, h, w]` tensors the
/// training stack consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageBuf {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Number of channels (3 for RGB).
    pub channels: usize,
    /// Planar pixel data, `channels * height * width` values.
    pub data: Vec<f32>,
}

impl ImageBuf {
    /// Creates a black image.
    pub fn zeros(width: usize, height: usize, channels: usize) -> Self {
        ImageBuf {
            width,
            height,
            channels,
            data: vec![0.0; channels * width * height],
        }
    }

    /// Creates an image from planar data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * width * height`.
    pub fn from_planar(width: usize, height: usize, channels: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            channels * width * height,
            "planar data length must be channels * width * height"
        );
        ImageBuf {
            width,
            height,
            channels,
            data,
        }
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, channel: usize, row: usize, col: usize) -> f32 {
        self.data[(channel * self.height + row) * self.width + col]
    }

    /// Mutable pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, channel: usize, row: usize, col: usize, value: f32) {
        self.data[(channel * self.height + row) * self.width + col] = value;
    }

    /// Mean value of one channel.
    pub fn channel_mean(&self, channel: usize) -> f32 {
        let n = self.width * self.height;
        let start = channel * n;
        self.data[start..start + n].iter().sum::<f32>() / n as f32
    }

    /// Maximum value of one channel.
    pub fn channel_max(&self, channel: usize) -> f32 {
        let n = self.width * self.height;
        let start = channel * n;
        self.data[start..start + n]
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Clamps every value to `[0, 1]` in place.
    pub fn clamp_unit(&mut self) {
        for v in &mut self.data {
            *v = v.clamp(0.0, 1.0);
        }
    }

    /// Bilinearly resamples the image to `new_width` × `new_height`.
    ///
    /// Each output column's source columns and weights `(x0, x1, wx, 1 − wx)`
    /// and each output row's `(y0, y1, wy, 1 − wy)` are computed once; every
    /// output pixel is then `v00·(1−wy)·(1−wx) + v01·(1−wy)·wx +
    /// v10·wy·(1−wx) + v11·wy·wx`, each product and the sum associated left.
    pub fn resize(&self, new_width: usize, new_height: usize) -> ImageBuf {
        let mut out = ImageBuf::zeros(new_width, new_height, self.channels);
        if out.data.is_empty() {
            return out;
        }
        let taps = |from: usize, to: usize| -> Vec<(usize, usize, f32, f32)> {
            let scale = from as f32 / to as f32;
            (0..to)
                .map(|i| {
                    let f = ((i as f32 + 0.5) * scale - 0.5).clamp(0.0, from as f32 - 1.0);
                    let i0 = f.floor() as usize;
                    let w = f - i0 as f32;
                    (i0, (i0 + 1).min(from - 1), w, 1.0 - w)
                })
                .collect()
        };
        let cols = taps(self.width, new_width);
        let rows = taps(self.height, new_height);
        let plane = self.width * self.height;
        let out_rows = out.data.chunks_exact_mut(new_width);
        let src_rows = self
            .data
            .chunks_exact(plane)
            .flat_map(|p| rows.iter().map(move |t| (p, t)));
        for (o, (src, &(y0, y1, wy, wy1))) in out_rows.zip(src_rows) {
            let (top, bottom) = (&src[y0 * self.width..], &src[y1 * self.width..]);
            for (v, &(x0, x1, wx, wx1)) in o.iter_mut().zip(&cols) {
                *v = top[x0] * wy1 * wx1
                    + top[x1] * wy1 * wx
                    + bottom[x0] * wy * wx1
                    + bottom[x1] * wy * wx;
            }
        }
        out
    }

    /// Mean absolute difference to another image of identical geometry.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn mean_abs_diff(&self, other: &ImageBuf) -> f32 {
        assert_eq!(self.data.len(), other.data.len(), "image sizes must match");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / self.data.len() as f32
    }
}

/// Writes `plane` (`width` × `height`, row-major, both non-zero) into `out`,
/// edge-replicated by `pad` pixels on every side: the padded pixel at
/// `(r, c)` is the plane's pixel at both coordinates clamped to the plane,
/// so a kernel that reads the padded copy reads what clamped reads would.
pub(crate) fn pad_edges<T: Copy>(
    plane: &[T],
    width: usize,
    height: usize,
    pad: usize,
    out: &mut Vec<T>,
) {
    out.clear();
    for pr in 0..height + 2 * pad {
        let row = &plane[pr.saturating_sub(pad).min(height - 1) * width..][..width];
        out.extend(std::iter::repeat_n(row[0], pad));
        out.extend_from_slice(row);
        out.extend(std::iter::repeat_n(row[width - 1], pad));
    }
}

/// An unprocessed single-channel Bayer mosaic straight off the simulated
/// sensor, with values nominally in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawImage {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// The colour-filter-array layout of the mosaic.
    pub pattern: BayerPattern,
    /// Mosaic data, `height * width` values in row-major order.
    pub data: Vec<f32>,
}

impl RawImage {
    /// Creates a constant-valued mosaic, useful for tests.
    pub fn flat(width: usize, height: usize, value: f32, pattern: BayerPattern) -> Self {
        RawImage {
            width,
            height,
            pattern,
            data: vec![value; width * height],
        }
    }

    /// Creates a RAW image from row-major mosaic data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_data(width: usize, height: usize, data: Vec<f32>, pattern: BayerPattern) -> Self {
        assert_eq!(data.len(), width * height, "mosaic data length mismatch");
        RawImage {
            width,
            height,
            pattern,
            data,
        }
    }

    /// Pixel accessor.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.width + col]
    }

    /// Mutable pixel accessor.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.data[row * self.width + col] = value;
    }

    /// Expands the mosaic into a grey 3-channel image without demosaicing
    /// (every channel receives the mosaic value). Used for the paper's
    /// RAW-data experiments, where models are trained directly on sensor
    /// output.
    pub fn to_grey_rgb(&self) -> ImageBuf {
        let mut out = ImageBuf::zeros(self.width, self.height, 3);
        for c in 0..3 {
            let n = self.width * self.height;
            out.data[c * n..(c + 1) * n].copy_from_slice(&self.data);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bayer_patterns_tile_correctly() {
        let p = BayerPattern::Rggb;
        assert_eq!(p.channel_at(0, 0), 0);
        assert_eq!(p.channel_at(0, 1), 1);
        assert_eq!(p.channel_at(1, 0), 1);
        assert_eq!(p.channel_at(1, 1), 2);
        assert_eq!(p.channel_at(2, 2), 0);
        let b = BayerPattern::Bggr;
        assert_eq!(b.channel_at(0, 0), 2);
        assert_eq!(b.channel_at(1, 1), 0);
        let g = BayerPattern::Grbg;
        assert_eq!(g.channel_at(0, 0), 1);
        assert_eq!(g.channel_at(0, 1), 0);
        assert_eq!(g.channel_at(1, 0), 2);
    }

    #[test]
    fn image_get_set_round_trip() {
        let mut img = ImageBuf::zeros(4, 3, 3);
        img.set(1, 2, 3, 0.7);
        assert_eq!(img.get(1, 2, 3), 0.7);
        assert_eq!(img.get(0, 0, 0), 0.0);
    }

    #[test]
    fn channel_statistics() {
        let mut img = ImageBuf::zeros(2, 2, 3);
        img.set(0, 0, 0, 1.0);
        img.set(0, 1, 1, 0.5);
        assert!((img.channel_mean(0) - 0.375).abs() < 1e-6);
        assert_eq!(img.channel_max(0), 1.0);
        assert_eq!(img.channel_mean(1), 0.0);
    }

    #[test]
    fn resize_preserves_constant_images() {
        let img = ImageBuf::from_planar(8, 8, 3, vec![0.25; 3 * 64]);
        let small = img.resize(4, 4);
        assert_eq!(small.width, 4);
        for &v in &small.data {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn resize_upsamples_smoothly() {
        let mut img = ImageBuf::zeros(2, 2, 1);
        img.set(0, 0, 0, 0.0);
        img.set(0, 0, 1, 1.0);
        img.set(0, 1, 0, 0.0);
        img.set(0, 1, 1, 1.0);
        let big = img.resize(4, 4);
        // left column stays dark, right column stays bright, middle interpolates
        assert!(big.get(0, 0, 0) < 0.3);
        assert!(big.get(0, 0, 3) > 0.7);
    }

    #[test]
    fn clamp_unit_bounds_values() {
        let mut img = ImageBuf::from_planar(1, 1, 3, vec![-0.5, 0.5, 1.5]);
        img.clamp_unit();
        assert_eq!(img.data, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn raw_to_grey_rgb_replicates_channels() {
        let raw = RawImage::flat(4, 4, 0.3, BayerPattern::Rggb);
        let rgb = raw.to_grey_rgb();
        assert_eq!(rgb.channels, 3);
        assert!((rgb.get(2, 1, 1) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn mean_abs_diff_is_zero_for_identical() {
        let a = ImageBuf::from_planar(2, 2, 1, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(a.mean_abs_diff(&a), 0.0);
    }
}
