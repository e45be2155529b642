//! Device metadata: vendor, performance tier and the full per-device profile.

use crate::SensorModel;
use hs_isp::IspConfig;
use serde::{Deserialize, Serialize};

/// Smartphone vendor (paper Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// Samsung Galaxy family.
    Samsung,
    /// LG family.
    Lg,
    /// Google Pixel / Nexus family.
    Google,
}

impl Vendor {
    /// Human-readable vendor name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Vendor::Samsung => "Samsung",
            Vendor::Lg => "LG",
            Vendor::Google => "Google",
        }
    }
}

/// Performance tier (paper Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Low-end devices (oldest, simplest sensors and ISPs).
    Low,
    /// Mid-range devices.
    Mid,
    /// High-end devices (newest sensors, most advanced ISPs).
    High,
}

// Written out, not derived: the derived `PartialOrd` calls `partial_cmp`,
// which clippy.toml bans. Declaration order, as a derive would give.
impl Ord for Tier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for Tier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Tier {
    /// Human-readable tier name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Tier::Low => "low-end",
            Tier::Mid => "mid-end",
            Tier::High => "high-end",
        }
    }
}

/// A complete simulated device: identity metadata plus the sensor (hardware)
/// and ISP configuration (software) that together determine how it renders a
/// scene.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Stable display name (e.g. "Pixel5").
    pub name: String,
    /// Manufacturer.
    pub vendor: Vendor,
    /// Performance tier.
    pub tier: Tier,
    /// Fraction of the client population using this device type (paper
    /// Table 1 market shares, used for the fairness experiment).
    pub market_share: f32,
    /// The hardware half of system-induced heterogeneity.
    pub sensor: SensorModel,
    /// The software half of system-induced heterogeneity.
    pub isp: IspConfig,
}

impl DeviceProfile {
    /// Renders a scene end to end (sensor capture followed by the device's
    /// ISP), producing the processed RGB image this device would contribute
    /// to federated training.
    pub fn render(
        &self,
        scene: &hs_isp::ImageBuf,
        rng: &mut rand::rngs::StdRng,
    ) -> hs_isp::ImageBuf {
        let raw = self.sensor.capture(scene, rng);
        self.isp.process(&raw)
    }

    /// Renders a scene to RAW only (no ISP), expanded to a grey RGB image —
    /// the paper's RAW-data experimental condition (Sec. 3.3 / Fig. 2).
    pub fn render_raw(
        &self,
        scene: &hs_isp::ImageBuf,
        rng: &mut rand::rngs::StdRng,
    ) -> hs_isp::ImageBuf {
        self.sensor.capture(scene, rng).to_grey_rgb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_isp::ImageBuf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> DeviceProfile {
        DeviceProfile {
            name: "TestPhone".into(),
            vendor: Vendor::Google,
            tier: Tier::Mid,
            market_share: 0.1,
            sensor: SensorModel::ideal(16, 16),
            isp: IspConfig::baseline(),
        }
    }

    #[test]
    fn render_produces_rgb_at_sensor_resolution() {
        let scene = ImageBuf::from_planar(32, 32, 3, vec![0.4; 3 * 1024]);
        let mut rng = StdRng::seed_from_u64(0);
        let img = profile().render(&scene, &mut rng);
        assert_eq!((img.width, img.height, img.channels), (16, 16, 3));
    }

    #[test]
    fn render_raw_bypasses_the_isp() {
        let mut scene = ImageBuf::zeros(32, 32, 3);
        for r in 0..32 {
            for c in 0..32 {
                scene.set(0, r, c, 0.9);
                scene.set(1, r, c, 0.1);
                scene.set(2, r, c, 0.1);
            }
        }
        let mut rng = StdRng::seed_from_u64(0);
        let raw_img = profile().render_raw(&scene, &mut rng);
        // all three channels identical (grey replication of the mosaic)
        let n = raw_img.width * raw_img.height;
        assert_eq!(raw_img.data[..n], raw_img.data[n..2 * n]);
    }

    #[test]
    fn vendor_and_tier_names() {
        assert_eq!(Vendor::Samsung.as_str(), "Samsung");
        assert_eq!(Tier::High.as_str(), "high-end");
        assert!(Tier::High > Tier::Low);
    }
}
