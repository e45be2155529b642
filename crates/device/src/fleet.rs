//! The simulated device fleet: the paper's nine smartphones plus a synthetic
//! long-tail fleet generator for the FLAIR-style experiment.

use crate::{DeviceProfile, SensorModel, Tier, Vendor};
use hs_isp::{
    BayerPattern, CompressMethod, DemosaicMethod, DenoiseMethod, GamutMethod, IspConfig,
    ToneMethod, WbMethod,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The nine devices of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceId {
    /// Google Pixel 5 (high-end).
    Pixel5,
    /// Google Pixel 2 (mid-end).
    Pixel2,
    /// Google Nexus 5X (low-end).
    Nexus5X,
    /// LG VELVET (high-end).
    Velvet,
    /// LG G7 (mid-end).
    G7,
    /// LG G4 (low-end).
    G4,
    /// Samsung Galaxy S22 (high-end).
    S22,
    /// Samsung Galaxy S9 (mid-end).
    S9,
    /// Samsung Galaxy S6 (low-end).
    S6,
}

impl DeviceId {
    /// All nine devices in the paper's Table 2 column order.
    pub fn all() -> [DeviceId; 9] {
        [
            DeviceId::Pixel5,
            DeviceId::Pixel2,
            DeviceId::Nexus5X,
            DeviceId::Velvet,
            DeviceId::G7,
            DeviceId::G4,
            DeviceId::S22,
            DeviceId::S9,
            DeviceId::S6,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            DeviceId::Pixel5 => "Pixel5",
            DeviceId::Pixel2 => "Pixel2",
            DeviceId::Nexus5X => "Nexus5X",
            DeviceId::Velvet => "VELVET",
            DeviceId::G7 => "G7",
            DeviceId::G4 => "G4",
            DeviceId::S22 => "S22",
            DeviceId::S9 => "S9",
            DeviceId::S6 => "S6",
        }
    }

    /// Index of this device within [`DeviceId::all`].
    pub fn index(&self) -> usize {
        DeviceId::all()
            .iter()
            .position(|d| d == self)
            .expect("device in list")
    }
}

#[allow(
    clippy::too_many_arguments,
    reason = "one argument per sensor parameter of the fleet table"
)]
fn sensor(
    res: usize,
    color: [f32; 3],
    exposure: f32,
    read_noise: f32,
    shot_noise: f32,
    vignetting: f32,
    blur: f32,
    bit_depth: u8,
    pattern: BayerPattern,
) -> SensorModel {
    SensorModel {
        width: res,
        height: res,
        pattern,
        color_response: color,
        exposure,
        read_noise,
        shot_noise,
        vignetting,
        blur,
        bit_depth,
    }
}

fn isp(
    denoise: DenoiseMethod,
    demosaic: DemosaicMethod,
    wb: WbMethod,
    gamut: GamutMethod,
    tone: ToneMethod,
    compress: CompressMethod,
) -> IspConfig {
    IspConfig {
        denoise,
        demosaic,
        white_balance: wb,
        gamut,
        tone,
        compress,
    }
}

/// Builds the full profile for one of the paper's nine devices.
///
/// Parameter choices follow the paper's qualitative structure: devices from
/// the same vendor share a colour-response family, higher tiers have higher
/// resolution, lower noise and more advanced ISP algorithms, and the Galaxy
/// S22 carries the most aggressive ("advanced") ISP, which in the paper makes
/// it the hardest target for models trained on other devices.
pub fn device_profile(id: DeviceId) -> DeviceProfile {
    use CompressMethod::Jpeg;
    let (vendor, tier, share, sensor, isp) = match id {
        DeviceId::Pixel5 => (
            Vendor::Google,
            Tier::High,
            0.01,
            sensor(
                48,
                [1.05, 1.0, 0.95],
                1.0,
                0.005,
                0.010,
                0.05,
                0.10,
                12,
                BayerPattern::Rggb,
            ),
            isp(
                DenoiseMethod::Fbdd,
                DemosaicMethod::Ppg,
                WbMethod::GrayWorld,
                GamutMethod::Srgb,
                ToneMethod::SrgbGamma,
                Jpeg(90),
            ),
        ),
        DeviceId::Pixel2 => (
            Vendor::Google,
            Tier::Mid,
            0.03,
            sensor(
                40,
                [1.08, 1.0, 0.92],
                0.97,
                0.010,
                0.020,
                0.08,
                0.15,
                10,
                BayerPattern::Rggb,
            ),
            isp(
                DenoiseMethod::Fbdd,
                DemosaicMethod::Ppg,
                WbMethod::GrayWorld,
                GamutMethod::Srgb,
                ToneMethod::SrgbGamma,
                Jpeg(85),
            ),
        ),
        DeviceId::Nexus5X => (
            Vendor::Google,
            Tier::Low,
            0.04,
            sensor(
                32,
                [1.15, 1.0, 0.85],
                0.90,
                0.020,
                0.040,
                0.15,
                0.30,
                10,
                BayerPattern::Rggb,
            ),
            isp(
                DenoiseMethod::None,
                DemosaicMethod::PixelBinning,
                WbMethod::GrayWorld,
                GamutMethod::Srgb,
                ToneMethod::SrgbGamma,
                Jpeg(70),
            ),
        ),
        DeviceId::Velvet => (
            Vendor::Lg,
            Tier::High,
            0.02,
            sensor(
                48,
                [0.95, 1.0, 1.08],
                1.05,
                0.006,
                0.012,
                0.06,
                0.10,
                12,
                BayerPattern::Grbg,
            ),
            isp(
                DenoiseMethod::WaveletBayesShrink,
                DemosaicMethod::Ahd,
                WbMethod::WhitePatch,
                GamutMethod::Srgb,
                ToneMethod::SrgbGamma,
                Jpeg(88),
            ),
        ),
        DeviceId::G7 => (
            Vendor::Lg,
            Tier::Mid,
            0.05,
            sensor(
                40,
                [0.90, 1.0, 1.12],
                1.10,
                0.012,
                0.025,
                0.10,
                0.20,
                10,
                BayerPattern::Grbg,
            ),
            isp(
                DenoiseMethod::WaveletBayesShrink,
                DemosaicMethod::Ppg,
                WbMethod::WhitePatch,
                GamutMethod::Srgb,
                ToneMethod::SrgbGamma,
                Jpeg(80),
            ),
        ),
        DeviceId::G4 => (
            Vendor::Lg,
            Tier::Low,
            0.08,
            sensor(
                32,
                [0.85, 1.0, 1.20],
                1.15,
                0.025,
                0.050,
                0.18,
                0.35,
                10,
                BayerPattern::Grbg,
            ),
            isp(
                DenoiseMethod::None,
                DemosaicMethod::PixelBinning,
                WbMethod::WhitePatch,
                GamutMethod::Srgb,
                ToneMethod::SrgbGamma,
                Jpeg(65),
            ),
        ),
        DeviceId::S22 => (
            Vendor::Samsung,
            Tier::High,
            0.12,
            sensor(
                48,
                [1.20, 1.0, 1.10],
                1.20,
                0.004,
                0.008,
                0.03,
                0.05,
                12,
                BayerPattern::Bggr,
            ),
            isp(
                DenoiseMethod::WaveletBayesShrink,
                DemosaicMethod::Ahd,
                WbMethod::GrayWorld,
                GamutMethod::Prophoto,
                ToneMethod::GammaEqualization,
                Jpeg(92),
            ),
        ),
        DeviceId::S9 => (
            Vendor::Samsung,
            Tier::Mid,
            0.27,
            sensor(
                40,
                [1.12, 1.0, 1.02],
                1.10,
                0.010,
                0.020,
                0.07,
                0.15,
                10,
                BayerPattern::Bggr,
            ),
            isp(
                DenoiseMethod::Fbdd,
                DemosaicMethod::Ahd,
                WbMethod::GrayWorld,
                GamutMethod::Srgb,
                ToneMethod::SrgbGamma,
                Jpeg(85),
            ),
        ),
        DeviceId::S6 => (
            Vendor::Samsung,
            Tier::Low,
            0.38,
            sensor(
                32,
                [1.10, 1.0, 0.95],
                1.00,
                0.020,
                0.045,
                0.12,
                0.30,
                10,
                BayerPattern::Bggr,
            ),
            isp(
                DenoiseMethod::Fbdd,
                DemosaicMethod::PixelBinning,
                WbMethod::GrayWorld,
                GamutMethod::Srgb,
                ToneMethod::SrgbGamma,
                Jpeg(75),
            ),
        ),
    };
    DeviceProfile {
        name: id.as_str().to_string(),
        vendor,
        tier,
        market_share: share,
        sensor,
        isp,
    }
}

/// Returns the full nine-device fleet (paper Table 1) in
/// [`DeviceId::all`] order.
pub fn paper_devices() -> Vec<DeviceProfile> {
    DeviceId::all()
        .iter()
        .map(|&id| device_profile(id))
        .collect()
}

/// Generates a synthetic long-tail fleet of `n` device types, used for the
/// FLAIR-style experiment where more than a thousand device types
/// participate. Parameters are drawn from the same families as the paper
/// fleet so the heterogeneity is comparable in kind, just broader in scale.
pub fn synthetic_fleet(n: usize, seed: u64) -> Vec<DeviceProfile> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let tier = match rng.gen_range(0..3) {
                0 => Tier::Low,
                1 => Tier::Mid,
                _ => Tier::High,
            };
            let res = match tier {
                Tier::Low => 32,
                Tier::Mid => 40,
                Tier::High => 48,
            };
            let noise_scale = match tier {
                Tier::Low => 1.0,
                Tier::Mid => 0.5,
                Tier::High => 0.25,
            };
            let vendor = match rng.gen_range(0..3) {
                0 => Vendor::Samsung,
                1 => Vendor::Lg,
                _ => Vendor::Google,
            };
            let pattern = match rng.gen_range(0..3) {
                0 => BayerPattern::Rggb,
                1 => BayerPattern::Bggr,
                _ => BayerPattern::Grbg,
            };
            let sensor = SensorModel {
                width: res,
                height: res,
                pattern,
                color_response: [rng.gen_range(0.8..1.25), 1.0, rng.gen_range(0.8..1.25)],
                exposure: rng.gen_range(0.85..1.2),
                read_noise: rng.gen_range(0.002..0.03) * noise_scale,
                shot_noise: rng.gen_range(0.005..0.05) * noise_scale,
                vignetting: rng.gen_range(0.0..0.2),
                blur: rng.gen_range(0.0..0.4),
                bit_depth: if tier == Tier::High { 12 } else { 10 },
            };
            let isp = IspConfig {
                denoise: match rng.gen_range(0..3) {
                    0 => DenoiseMethod::None,
                    1 => DenoiseMethod::Fbdd,
                    _ => DenoiseMethod::WaveletBayesShrink,
                },
                demosaic: match rng.gen_range(0..3) {
                    0 => DemosaicMethod::Ppg,
                    1 => DemosaicMethod::Ahd,
                    _ => DemosaicMethod::PixelBinning,
                },
                white_balance: match rng.gen_range(0..3) {
                    0 => WbMethod::None,
                    1 => WbMethod::GrayWorld,
                    _ => WbMethod::WhitePatch,
                },
                gamut: if rng.gen_bool(0.8) {
                    GamutMethod::Srgb
                } else {
                    GamutMethod::Prophoto
                },
                tone: if rng.gen_bool(0.8) {
                    ToneMethod::SrgbGamma
                } else {
                    ToneMethod::GammaEqualization
                },
                compress: CompressMethod::Jpeg(rng.gen_range(50..=95)),
            };
            DeviceProfile {
                name: format!("synthetic-{i:04}"),
                vendor,
                tier,
                market_share: 1.0 / n as f32,
                sensor,
                isp,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_isp::ImageBuf;

    #[test]
    fn fleet_has_nine_distinct_devices() {
        let fleet = paper_devices();
        assert_eq!(fleet.len(), 9);
        let names: std::collections::HashSet<_> = fleet.iter().map(|d| d.name.clone()).collect();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn market_shares_sum_to_one() {
        let total: f32 = paper_devices().iter().map(|d| d.market_share).sum();
        assert!((total - 1.0).abs() < 1e-5, "market shares sum to {total}");
    }

    #[test]
    fn dominant_devices_are_s9_and_s6() {
        // the paper's fairness analysis singles out Galaxy S9 and S6 as the
        // dominant (most common) devices
        let fleet = paper_devices();
        let mut sorted: Vec<_> = fleet.iter().collect();
        sorted.sort_by(|a, b| b.market_share.total_cmp(&a.market_share));
        assert_eq!(sorted[0].name, "S6");
        assert_eq!(sorted[1].name, "S9");
    }

    #[test]
    fn tiers_order_resolution_and_noise() {
        for vendor_devices in [
            [DeviceId::Pixel5, DeviceId::Pixel2, DeviceId::Nexus5X],
            [DeviceId::Velvet, DeviceId::G7, DeviceId::G4],
            [DeviceId::S22, DeviceId::S9, DeviceId::S6],
        ] {
            let high = device_profile(vendor_devices[0]);
            let low = device_profile(vendor_devices[2]);
            assert!(high.sensor.width > low.sensor.width);
            assert!(high.sensor.read_noise < low.sensor.read_noise);
        }
    }

    #[test]
    fn same_vendor_devices_are_more_similar_than_cross_vendor() {
        // colour-response distance: Pixel5 vs Pixel2 should be smaller than
        // Pixel5 vs G4 (matches the paper's observation that Pixel5/Pixel2
        // degrade least on each other)
        let dist = |a: DeviceId, b: DeviceId| {
            let pa = device_profile(a).sensor.color_response;
            let pb = device_profile(b).sensor.color_response;
            pa.iter()
                .zip(pb.iter())
                .map(|(x, y)| (x - y).abs())
                .sum::<f32>()
        };
        assert!(dist(DeviceId::Pixel5, DeviceId::Pixel2) < dist(DeviceId::Pixel5, DeviceId::G4));
        assert!(dist(DeviceId::Pixel5, DeviceId::Pixel2) < dist(DeviceId::Pixel5, DeviceId::S22));
    }

    #[test]
    fn devices_render_the_same_scene_differently() {
        let scene = {
            let mut img = ImageBuf::zeros(48, 48, 3);
            for r in 0..48 {
                for c in 0..48 {
                    img.set(0, r, c, 0.3 + 0.4 * (r as f32 / 47.0));
                    img.set(1, r, c, 0.5);
                    img.set(2, r, c, 0.3 + 0.4 * (c as f32 / 47.0));
                }
            }
            img
        };
        let mut rng = StdRng::seed_from_u64(0);
        let a = device_profile(DeviceId::Pixel5).render(&scene, &mut rng);
        let b = device_profile(DeviceId::S22).render(&scene, &mut rng);
        // resize to a common geometry before comparing
        let b = b.resize(a.width, a.height);
        assert!(a.mean_abs_diff(&b) > 0.01, "devices should disagree");
    }

    #[test]
    fn device_id_round_trips_through_index() {
        for id in DeviceId::all() {
            assert_eq!(DeviceId::all()[id.index()], id);
        }
    }

    #[test]
    fn synthetic_fleet_is_deterministic_and_diverse() {
        let a = synthetic_fleet(20, 7);
        let b = synthetic_fleet(20, 7);
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
        let resolutions: std::collections::HashSet<_> = a.iter().map(|d| d.sensor.width).collect();
        assert!(resolutions.len() > 1, "fleet should span multiple tiers");
    }
}
