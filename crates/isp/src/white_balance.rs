//! Colour transformation stage: white balance.

use crate::ImageBuf;
use serde::{Deserialize, Serialize};

/// White-balance algorithm selector (paper Table 3, "Color transformation"
/// row — the paper singles out white balance as the most damaging stage to
/// omit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WbMethod {
    /// Skip white balancing — option 1 in the paper's ablation.
    None,
    /// Gray-world assumption: scale channels so their means match — baseline.
    GrayWorld,
    /// White-patch (max-RGB) assumption: scale channels so their maxima
    /// match — option 2.
    WhitePatch,
}

/// Applies the selected white-balance correction.
pub fn white_balance(img: &ImageBuf, method: WbMethod) -> ImageBuf {
    match method {
        WbMethod::None => img.clone(),
        WbMethod::GrayWorld => gray_world(img),
        WbMethod::WhitePatch => white_patch(img),
    }
}

/// Applies one gain per channel plane, clamping to `[0, 1]`.
fn apply_gains(img: &ImageBuf, gains: [f32; 3]) -> ImageBuf {
    let mut out = img.clone();
    let n = img.width * img.height;
    for (plane, gain) in out.data.chunks_mut(n).zip(gains) {
        for v in plane {
            *v = (*v * gain).clamp(0.0, 1.0);
        }
    }
    out
}

/// Scales each channel so its mean equals the overall luminance mean.
fn gray_world(img: &ImageBuf) -> ImageBuf {
    assert_eq!(img.channels, 3, "white balance expects an RGB image");
    let means = [
        img.channel_mean(0).max(1e-6),
        img.channel_mean(1).max(1e-6),
        img.channel_mean(2).max(1e-6),
    ];
    let grey = (means[0] + means[1] + means[2]) / 3.0;
    apply_gains(img, [grey / means[0], grey / means[1], grey / means[2]])
}

/// Scales each channel so its maximum maps to 1.0 (the brightest patch is
/// assumed to be white).
fn white_patch(img: &ImageBuf) -> ImageBuf {
    assert_eq!(img.channels, 3, "white balance expects an RGB image");
    apply_gains(
        img,
        [
            1.0 / img.channel_max(0).max(1e-6),
            1.0 / img.channel_max(1).max(1e-6),
            1.0 / img.channel_max(2).max(1e-6),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tinted_image() -> ImageBuf {
        // warm cast: red channel stronger than blue
        let mut img = ImageBuf::zeros(4, 4, 3);
        for r in 0..4 {
            for c in 0..4 {
                let base = 0.2 + 0.04 * (r * 4 + c) as f32;
                img.set(0, r, c, (base * 1.5).min(1.0));
                img.set(1, r, c, base);
                img.set(2, r, c, base * 0.6);
            }
        }
        img
    }

    #[test]
    fn none_is_identity() {
        let img = tinted_image();
        assert_eq!(white_balance(&img, WbMethod::None), img);
    }

    #[test]
    fn gray_world_equalises_channel_means() {
        let img = tinted_image();
        let wb = white_balance(&img, WbMethod::GrayWorld);
        let (r, g, b) = (wb.channel_mean(0), wb.channel_mean(1), wb.channel_mean(2));
        assert!((r - g).abs() < 0.02, "r {r} vs g {g}");
        assert!((g - b).abs() < 0.02, "g {g} vs b {b}");
    }

    #[test]
    fn white_patch_maps_maxima_to_one() {
        let img = tinted_image();
        let wb = white_balance(&img, WbMethod::WhitePatch);
        for c in 0..3 {
            assert!((wb.channel_max(c) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn methods_produce_different_results_on_tinted_input() {
        let img = tinted_image();
        let a = white_balance(&img, WbMethod::GrayWorld);
        let b = white_balance(&img, WbMethod::WhitePatch);
        assert!(a.mean_abs_diff(&b) > 1e-3);
    }

    #[test]
    fn neutral_image_is_roughly_unchanged_by_gray_world() {
        let img = ImageBuf::from_planar(2, 2, 3, vec![0.5; 12]);
        let wb = white_balance(&img, WbMethod::GrayWorld);
        assert!(img.mean_abs_diff(&wb) < 1e-6);
    }
}
