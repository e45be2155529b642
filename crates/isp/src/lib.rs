//! # hs-isp
//!
//! A from-scratch image-signal-processing (ISP) pipeline mirroring the six
//! stages the HeteroSwitch paper identifies as the software half of
//! system-induced data heterogeneity (paper Fig. 1 and Table 3):
//!
//! 1. **Denoising** — FBDD-style smoothing or wavelet BayesShrink,
//! 2. **Demosaicing** — PPG-style gradient demosaic, AHD-style
//!    homogeneity-directed demosaic, or 2×2 pixel binning,
//! 3. **Color transformation (white balance)** — gray-world or white-patch,
//! 4. **Gamut mapping** — sRGB or ProPhoto primaries,
//! 5. **Tone transformation** — sRGB gamma, optionally with histogram
//!    equalisation,
//! 6. **Image compression** — JPEG-style 8×8 DCT quantisation at a quality
//!    factor.
//!
//! Each stage has the paper's *Baseline / Option 1 / Option 2* variants so the
//! ISP-ablation experiment (paper Fig. 3) can be regenerated, and an
//! [`IspConfig`] bundles one choice per stage so every simulated device can
//! carry its own pipeline.
//!
//! Every stage is one serial loop on the calling thread. The simulated
//! sensors are at most 48×48 px, where a stage takes tens of microseconds:
//! too little for a fork and join inside it to matter end to end
//! (`docs/PERF.md`, "Fan-out census").
//!
//! ```
//! use hs_isp::{IspConfig, RawImage, BayerPattern};
//!
//! let raw = RawImage::flat(16, 16, 0.5, BayerPattern::Rggb);
//! let rgb = IspConfig::baseline().process(&raw);
//! assert_eq!((rgb.width, rgb.height), (16, 16));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod compress;
mod demosaic;
mod denoise;
mod gamut;
mod image;
mod pipeline;
mod tone;
mod white_balance;

pub use compress::{jpeg_compress, CompressMethod};
pub use demosaic::{demosaic, DemosaicMethod};
pub use denoise::{denoise, DenoiseMethod};
pub use gamut::{map_gamut, GamutMethod};
pub use image::{BayerPattern, ImageBuf, RawImage};
pub use pipeline::{IspConfig, IspStage};
pub use tone::{tone_map, ToneMethod};
pub use white_balance::{white_balance, WbMethod};
