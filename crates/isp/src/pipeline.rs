//! The end-to-end ISP pipeline: one algorithm choice per stage.

use crate::{
    demosaic, denoise, jpeg_compress, map_gamut, tone_map, white_balance, CompressMethod,
    DemosaicMethod, DenoiseMethod, GamutMethod, ImageBuf, RawImage, ToneMethod, WbMethod,
};
use serde::{Deserialize, Serialize};

/// The six ISP stages in pipeline order (paper Fig. 1 / Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IspStage {
    /// Noise suppression on the demosaiced image.
    Denoising,
    /// RAW mosaic to RGB reconstruction.
    Demosaicing,
    /// White balance (colour transformation).
    ColorTransformation,
    /// Gamut mapping to a standard colour space.
    GamutMapping,
    /// Gamma / tone curve.
    ToneTransformation,
    /// Lossy compression.
    ImageCompression,
}

impl IspStage {
    /// All stages in pipeline order.
    pub fn all() -> [IspStage; 6] {
        [
            IspStage::Denoising,
            IspStage::Demosaicing,
            IspStage::ColorTransformation,
            IspStage::GamutMapping,
            IspStage::ToneTransformation,
            IspStage::ImageCompression,
        ]
    }

    /// Human-readable name matching the paper's figures.
    pub fn as_str(&self) -> &'static str {
        match self {
            IspStage::Denoising => "Denoising",
            IspStage::Demosaicing => "Demosaicing",
            IspStage::ColorTransformation => "Color (WB)",
            IspStage::GamutMapping => "Gamut",
            IspStage::ToneTransformation => "Tone",
            IspStage::ImageCompression => "Compression",
        }
    }
}

impl serde::json::ToJson for IspStage {
    /// The stage's [`IspStage::as_str`] name.
    fn to_json(&self) -> serde::json::JsonValue {
        serde::json::ToJson::to_json(self.as_str())
    }
}

/// A complete ISP configuration: one algorithm per stage.
///
/// The three named constructors reproduce the paper's Table 3 columns; the
/// per-stage `with_*` builders support the ablation sweep of Fig. 3 and the
/// per-device pipelines of the simulated fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IspConfig {
    /// Denoising algorithm.
    pub denoise: DenoiseMethod,
    /// Demosaicing algorithm.
    pub demosaic: DemosaicMethod,
    /// White-balance algorithm.
    pub white_balance: WbMethod,
    /// Gamut mapping.
    pub gamut: GamutMethod,
    /// Tone transformation.
    pub tone: ToneMethod,
    /// Compression method.
    pub compress: CompressMethod,
}

impl IspConfig {
    /// The paper's Table 3 *Baseline* column: FBDD + PPG + gray-world + sRGB
    /// gamut + sRGB gamma + JPEG quality 85.
    pub fn baseline() -> Self {
        IspConfig {
            denoise: DenoiseMethod::Fbdd,
            demosaic: DemosaicMethod::Ppg,
            white_balance: WbMethod::GrayWorld,
            gamut: GamutMethod::Srgb,
            tone: ToneMethod::SrgbGamma,
            compress: CompressMethod::Jpeg(85),
        }
    }

    /// The paper's Table 3 *Option 1* column (each stage omitted, except
    /// demosaicing which switches to pixel binning).
    pub fn option1() -> Self {
        IspConfig {
            denoise: DenoiseMethod::None,
            demosaic: DemosaicMethod::PixelBinning,
            white_balance: WbMethod::None,
            gamut: GamutMethod::None,
            tone: ToneMethod::None,
            compress: CompressMethod::None,
        }
    }

    /// The paper's Table 3 *Option 2* column: wavelet BayesShrink + AHD +
    /// white-patch + ProPhoto + gamma-with-equalisation + JPEG quality 50.
    pub fn option2() -> Self {
        IspConfig {
            denoise: DenoiseMethod::WaveletBayesShrink,
            demosaic: DemosaicMethod::Ahd,
            white_balance: WbMethod::WhitePatch,
            gamut: GamutMethod::Prophoto,
            tone: ToneMethod::GammaEqualization,
            compress: CompressMethod::Jpeg(50),
        }
    }

    /// Returns a copy with the given stage replaced by its Table 3
    /// *Option 1* variant (used by the Fig. 3 ablation).
    pub fn with_stage_option1(mut self, stage: IspStage) -> Self {
        let o = IspConfig::option1();
        match stage {
            IspStage::Denoising => self.denoise = o.denoise,
            IspStage::Demosaicing => self.demosaic = o.demosaic,
            IspStage::ColorTransformation => self.white_balance = o.white_balance,
            IspStage::GamutMapping => self.gamut = o.gamut,
            IspStage::ToneTransformation => self.tone = o.tone,
            IspStage::ImageCompression => self.compress = o.compress,
        }
        self
    }

    /// Returns a copy with the given stage replaced by its Table 3
    /// *Option 2* variant (used by the Fig. 3 ablation).
    pub fn with_stage_option2(mut self, stage: IspStage) -> Self {
        let o = IspConfig::option2();
        match stage {
            IspStage::Denoising => self.denoise = o.denoise,
            IspStage::Demosaicing => self.demosaic = o.demosaic,
            IspStage::ColorTransformation => self.white_balance = o.white_balance,
            IspStage::GamutMapping => self.gamut = o.gamut,
            IspStage::ToneTransformation => self.tone = o.tone,
            IspStage::ImageCompression => self.compress = o.compress,
        }
        self
    }

    /// Runs the full pipeline on a RAW capture, producing a display-referred
    /// RGB image in `[0, 1]`.
    pub fn process(&self, raw: &RawImage) -> ImageBuf {
        // demosaic first (a prerequisite for the later stages), then denoise,
        // colour, gamut, tone and compression — matching Fig. 1's ordering of
        // the human-visible processing chain.
        let rgb = demosaic(raw, self.demosaic);
        let rgb = denoise(&rgb, self.denoise);
        let rgb = white_balance(&rgb, self.white_balance);
        let rgb = map_gamut(&rgb, self.gamut);
        let rgb = tone_map(&rgb, self.tone);
        let mut rgb = jpeg_compress(&rgb, self.compress);
        rgb.clamp_unit();
        rgb
    }
}

impl Default for IspConfig {
    fn default() -> Self {
        IspConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BayerPattern;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn structured_raw(seed: u64) -> RawImage {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut raw = RawImage::flat(24, 24, 0.0, BayerPattern::Rggb);
        for r in 0..24 {
            for c in 0..24 {
                let base = 0.3 + 0.3 * ((r as f32 / 6.0).sin() * (c as f32 / 5.0).cos());
                raw.set(r, c, (base + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0));
            }
        }
        raw
    }

    #[test]
    fn baseline_produces_valid_rgb() {
        let raw = structured_raw(0);
        let rgb = IspConfig::baseline().process(&raw);
        assert_eq!((rgb.width, rgb.height, rgb.channels), (24, 24, 3));
        assert!(rgb.data.iter().all(|v| (0.0..=1.0).contains(v)));
        // the image is not degenerate
        assert!(rgb.data.iter().any(|&v| v > 0.05));
    }

    #[test]
    fn table3_columns_are_distinct_pipelines() {
        let raw = structured_raw(1);
        let base = IspConfig::baseline().process(&raw);
        let o1 = IspConfig::option1().process(&raw);
        let o2 = IspConfig::option2().process(&raw);
        assert!(base.mean_abs_diff(&o1) > 1e-3);
        assert!(base.mean_abs_diff(&o2) > 1e-3);
        assert!(o1.mean_abs_diff(&o2) > 1e-3);
    }

    #[test]
    fn single_stage_ablation_changes_only_that_behaviour() {
        let raw = structured_raw(2);
        let base_cfg = IspConfig::baseline();
        let base = base_cfg.process(&raw);
        for stage in IspStage::all() {
            let ablated = base_cfg.with_stage_option1(stage).process(&raw);
            assert!(
                base.mean_abs_diff(&ablated) > 1e-5,
                "ablating {stage:?} should change the output"
            );
        }
    }

    #[test]
    fn color_and_tone_ablations_are_among_the_most_damaging() {
        // Reproduces the *direction* of the paper's Fig. 3 observation at the
        // image level: omitting WB or tone mapping moves the image further
        // from the baseline rendition than omitting compression. White
        // balance only matters when the capture carries a colour cast, as
        // real sensors do, so tint the mosaic the way a warm sensor would.
        let mut raw = structured_raw(3);
        for r in 0..raw.height {
            for c in 0..raw.width {
                let gain = match raw.pattern.channel_at(r, c) {
                    0 => 1.5,
                    2 => 0.6,
                    _ => 1.0,
                };
                let v = raw.get(r, c);
                raw.set(r, c, (v * gain).clamp(0.0, 1.0));
            }
        }
        let cfg = IspConfig::baseline();
        let base = cfg.process(&raw);
        let d_wb = base.mean_abs_diff(
            &cfg.with_stage_option1(IspStage::ColorTransformation)
                .process(&raw),
        );
        let d_tone = base.mean_abs_diff(
            &cfg.with_stage_option1(IspStage::ToneTransformation)
                .process(&raw),
        );
        let d_comp = base.mean_abs_diff(
            &cfg.with_stage_option1(IspStage::ImageCompression)
                .process(&raw),
        );
        assert!(d_wb > d_comp, "WB ablation {d_wb} vs compression {d_comp}");
        assert!(
            d_tone > d_comp,
            "tone ablation {d_tone} vs compression {d_comp}"
        );
    }

    #[test]
    fn stage_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            IspStage::all().iter().map(|s| s.as_str()).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(IspConfig::default(), IspConfig::baseline());
    }
}
