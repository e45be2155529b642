//! The parametric image-sensor model: scene radiance in, RAW mosaic out.
//!
//! # Reads and accumulation order
//!
//! Every captured pixel feeds a bit-exact replay (`tests/capture_bits.rs`),
//! so the reads, the rounding and the RNG draws are a contract. A capture
//! resamples the scene ([`ImageBuf::resize`]), blurs it, then walks the
//! mosaic in raster order: each site reads its own colour's plane, computes
//! `((radiance · exposure) · response) · falloff`, draws its noise from the
//! stream only when the noise sigma is positive, and quantises. The blur
//! reads each pixel's 4-neighbourhood with the edge pixel standing in past
//! the border, and mixes `centre · (1 − s) + ((up + down + left + right) /
//! 4) · s`.

#![deny(clippy::disallowed_types)]

use hs_isp::{BayerPattern, ImageBuf, RawImage};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A parametric camera sensor.
///
/// The model captures the hardware properties the paper identifies as the
/// sources of RAW-level heterogeneity (Sec. 3.3): resolution, optics
/// sharpness, spectral (colour) response, exposure calibration, noise floor
/// and vignetting. [`SensorModel::capture`] renders a canonical scene into
/// the RAW Bayer mosaic this sensor would produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorModel {
    /// Mosaic width in pixels.
    pub width: usize,
    /// Mosaic height in pixels.
    pub height: usize,
    /// Colour-filter-array layout.
    pub pattern: BayerPattern,
    /// Per-channel spectral response gains (R, G, B). Values away from 1.0
    /// tint the RAW data and create the colour cast white balance must fix.
    pub color_response: [f32; 3],
    /// Exposure multiplier applied to scene radiance.
    pub exposure: f32,
    /// Standard deviation of signal-independent read noise.
    pub read_noise: f32,
    /// Scale of signal-dependent (shot) noise; the noise std is
    /// `shot_noise * sqrt(signal)`.
    pub shot_noise: f32,
    /// Strength of the radial vignetting falloff (0 disables it).
    pub vignetting: f32,
    /// Optical blur radius in sensor pixels (0 disables it); models cheaper
    /// lenses and smaller apertures.
    pub blur: f32,
    /// Quantisation bit depth of the ADC (e.g. 10 or 12).
    pub bit_depth: u8,
}

impl SensorModel {
    /// A neutral, noiseless reference sensor, useful in tests.
    pub fn ideal(width: usize, height: usize) -> Self {
        SensorModel {
            width,
            height,
            pattern: BayerPattern::Rggb,
            color_response: [1.0, 1.0, 1.0],
            exposure: 1.0,
            read_noise: 0.0,
            shot_noise: 0.0,
            vignetting: 0.0,
            blur: 0.0,
            bit_depth: 12,
        }
    }

    /// Renders `scene` (a linear-RGB radiance map in `[0, 1]`) into the RAW
    /// mosaic this sensor would capture.
    ///
    /// The same scene captured by two different sensor models produces
    /// different mosaics — that difference is the hardware component of
    /// system-induced data heterogeneity.
    pub fn capture(&self, scene: &ImageBuf, rng: &mut StdRng) -> RawImage {
        assert_eq!(scene.channels, 3, "scenes must be RGB radiance maps");
        // resample the scene to the sensor resolution
        let mut frame = scene.resize(self.width, self.height);
        if self.blur > 0.0 {
            frame = blur3(&frame, self.blur.min(1.0));
        }
        let mut raw = RawImage::flat(self.width, self.height, 0.0, self.pattern);
        if raw.data.is_empty() {
            return raw;
        }
        let cx = (self.width as f32 - 1.0) / 2.0;
        let cy = (self.height as f32 - 1.0) / 2.0;
        let max_r2 = cx * cx + cy * cy;
        let levels = (1u32 << self.bit_depth) as f32 - 1.0;
        let n = self.width * self.height;
        let planes = [0, 1, 2].map(|ch| &frame.data[ch * n..][..n]);
        let rows = raw.data.chunks_exact_mut(self.width);
        for (r, out) in rows.enumerate() {
            // the two colours of this mosaic row, for even and odd columns
            let colours = [0, 1].map(|c| self.pattern.channel_at(r, c));
            let dy = r as f32 - cy;
            for (c, o) in out.iter_mut().enumerate() {
                let ch = colours[c % 2];
                let mut v =
                    planes[ch][r * self.width + c] * self.exposure * self.color_response[ch];
                if self.vignetting > 0.0 {
                    let dx = c as f32 - cx;
                    let falloff = 1.0 - self.vignetting * (dx * dx + dy * dy) / max_r2;
                    v *= falloff.max(0.0);
                }
                // shot noise grows with the signal, read noise is constant
                let sigma = self.shot_noise * v.max(0.0).sqrt() + self.read_noise;
                if sigma > 0.0 {
                    v += gaussian(rng) * sigma;
                }
                // ADC quantisation
                *o = (v.clamp(0.0, 1.0) * levels).round() / levels;
            }
        }
        raw
    }
}

/// Samples a standard normal value via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Small separable blur mixing each pixel with its 4-neighbourhood by
/// `strength`.
fn blur3(img: &ImageBuf, strength: f32) -> ImageBuf {
    let mut out = img.clone();
    let (w, h) = (img.width, img.height);
    let n = w * h;
    if n == 0 {
        return out;
    }
    for (src, dst) in img.data.chunks_exact(n).zip(out.data.chunks_exact_mut(n)) {
        let row = |r: usize| &src[r * w..][..w];
        for (r, o) in dst.chunks_exact_mut(w).enumerate() {
            let (above, here, below) = (row(r.saturating_sub(1)), row(r), row((r + 1).min(h - 1)));
            for (col, o) in o.iter_mut().enumerate() {
                let left = here[col.saturating_sub(1)];
                let right = here[(col + 1).min(w - 1)];
                let centre = here[col];
                let neighbour_mean = (above[col] + below[col] + left + right) / 4.0;
                *o = centre * (1.0 - strength) + neighbour_mean * strength;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn scene() -> ImageBuf {
        let mut img = ImageBuf::zeros(32, 32, 3);
        for r in 0..32 {
            for c in 0..32 {
                img.set(0, r, c, 0.2 + 0.6 * (r as f32 / 31.0));
                img.set(1, r, c, 0.5);
                img.set(2, r, c, 0.2 + 0.6 * (c as f32 / 31.0));
            }
        }
        img
    }

    #[test]
    fn ideal_sensor_is_deterministic_and_faithful() {
        let sensor = SensorModel::ideal(32, 32);
        let mut rng1 = StdRng::seed_from_u64(0);
        let mut rng2 = StdRng::seed_from_u64(1);
        let a = sensor.capture(&scene(), &mut rng1);
        let b = sensor.capture(&scene(), &mut rng2);
        // no noise -> identical regardless of RNG
        assert_eq!(a.data, b.data);
        // green pixels read back the green radiance (0.5), up to quantisation
        assert!((a.get(0, 1) - 0.5).abs() < 0.01);
    }

    #[test]
    fn color_response_tints_the_mosaic() {
        let mut warm = SensorModel::ideal(32, 32);
        warm.color_response = [1.4, 1.0, 0.6];
        let mut rng = StdRng::seed_from_u64(0);
        let raw = warm.capture(&scene(), &mut rng);
        // an R site should now read hotter than the neutral sensor's R site
        let neutral = SensorModel::ideal(32, 32).capture(&scene(), &mut rng);
        assert!(raw.get(0, 0) > neutral.get(0, 0));
        assert!(raw.get(1, 1) < neutral.get(1, 1)); // a B site under RGGB
    }

    #[test]
    fn noise_perturbs_the_capture() {
        let mut noisy = SensorModel::ideal(32, 32);
        noisy.read_noise = 0.05;
        noisy.shot_noise = 0.05;
        let mut rng = StdRng::seed_from_u64(3);
        let a = noisy.capture(&scene(), &mut rng);
        let b = noisy.capture(&scene(), &mut rng);
        let diff: f32 = a
            .data
            .iter()
            .zip(b.data.iter())
            .map(|(x, y)| (x - y).abs())
            .sum::<f32>()
            / a.data.len() as f32;
        assert!(
            diff > 0.01,
            "noise should decorrelate captures, diff {diff}"
        );
    }

    #[test]
    fn vignetting_darkens_corners() {
        let mut vig = SensorModel::ideal(32, 32);
        vig.vignetting = 0.5;
        let mut rng = StdRng::seed_from_u64(0);
        let flat = ImageBuf::from_planar(32, 32, 3, vec![0.8; 3 * 32 * 32]);
        let raw = vig.capture(&flat, &mut rng);
        assert!(raw.get(0, 0) < raw.get(16, 16));
    }

    #[test]
    fn lower_bit_depth_quantises_more_coarsely() {
        let mut coarse = SensorModel::ideal(16, 16);
        coarse.bit_depth = 3;
        let mut rng = StdRng::seed_from_u64(0);
        let raw = coarse.capture(&scene(), &mut rng);
        let mut distinct: Vec<i32> = raw.data.iter().map(|v| (v * 1000.0) as i32).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= 8, "3-bit sensor has at most 8 levels");
    }

    #[test]
    fn different_sensors_produce_different_raw_data() {
        let sharp = SensorModel::ideal(32, 32);
        let mut soft = SensorModel::ideal(32, 32);
        soft.blur = 0.8;
        soft.color_response = [1.2, 1.0, 0.8];
        let mut rng = StdRng::seed_from_u64(0);
        let a = sharp.capture(&scene(), &mut rng);
        let b = soft.capture(&scene(), &mut rng);
        let diff: f32 = a
            .data
            .iter()
            .zip(b.data.iter())
            .map(|(x, y)| (x - y).abs())
            .sum::<f32>()
            / a.data.len() as f32;
        assert!(diff > 0.005);
    }
}
