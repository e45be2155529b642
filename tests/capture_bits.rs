//! Pins the bits of the capture path: each kernel on its own (demosaic,
//! denoise, resize, every fleet sensor and the JPEG stage), and whole
//! per-device datasets rendered through each device's sensor and ISP.
//!
//! The JPEG stage's DCT and inverse DCT keep one accumulation order per
//! output (`crates/isp/src/compress.rs` states it), and
//! `build_device_datasets` builds each device on its own capture stream, so
//! a dataset is a pure function of its configuration and seed: whoever runs
//! which device, and at whatever thread target. The literals below are FNV-1a
//! hashes of every pixel bit; CI runs this file at a 1- and a 2-thread
//! target, and `datasets_are_pinned_at_every_thread_target` also rebuilds
//! datasets at a 1-thread target in the same process.
//!
//! The ISP evaluates `f32::cos` and the sensor `f32::exp` / `ln`, so the
//! literals are those of the platform's libm (x86-64 glibc). A change that
//! moves them on purpose gets every moved row printed, ready to paste, and
//! says why.

use heteroswitch_repro::data::{
    build_device_datasets, CaptureMode, DeviceDataset, Imagenet12Config, Labels,
};
use heteroswitch_repro::device::{paper_devices, SensorModel};
use heteroswitch_repro::isp::{
    demosaic, denoise, jpeg_compress, BayerPattern, CompressMethod, DemosaicMethod, DenoiseMethod,
    ImageBuf, RawImage,
};
use heteroswitch_repro::parallel::set_num_threads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a (64-bit) over the little-endian bytes of `bits`.
fn fnv1a(bits: impl IntoIterator<Item = u32>) -> u64 {
    bits.into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every quality a device uses (`synthetic_fleet` draws 50–95, which covers
/// `paper_devices()` and the ISP presets), plus both ends of the scale.
fn qualities() -> impl Iterator<Item = u8> {
    [1].into_iter().chain(50..=95).chain([100])
}

/// A smooth gradient under uniform noise, so every DCT frequency is live.
fn textured(width: usize, height: usize, seed: u64) -> ImageBuf {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut img = ImageBuf::zeros(width, height, 3);
    for c in 0..3 {
        for r in 0..height {
            for col in 0..width {
                let ramp = (r + col + 7 * c) as f32 / (width + height + 14) as f32;
                img.set(c, r, col, 0.6 * ramp + rng.gen_range(0.0..0.4));
            }
        }
    }
    img
}

/// `(width, height, hash)`: the hash runs over the round trip at every one
/// of [`qualities`], in order. 10×6 takes the edge-replicated partial block.
const JPEG_PINS: [(usize, usize, u64); 4] = [
    (48, 48, 0xba2dd81c98c6dca5),
    (40, 40, 0xe3c7eeee52748697),
    (20, 20, 0x5286a9eeb8078ff1),
    (10, 6, 0x136cfed5f20986e0),
];

#[test]
fn jpeg_round_trip_bits_are_pinned() {
    let mut moved = Vec::new();
    for (width, height, want) in JPEG_PINS {
        let img = textured(width, height, (width * height) as u64);
        let got = fnv1a(qualities().flat_map(|q| {
            let out = jpeg_compress(&img, CompressMethod::Jpeg(q));
            out.data.into_iter().map(f32::to_bits)
        }));
        if got != want {
            moved.push(format!("    ({width}, {height}, {got:#018x}),"));
        }
    }
    assert!(moved.is_empty(), "moved rows:\n{}", moved.join("\n"));
}

/// A mosaic of uniform noise over a ramp, so every neighbour read matters.
fn textured_raw(width: usize, height: usize, pattern: BayerPattern, seed: u64) -> RawImage {
    let img = textured(width, height, seed);
    RawImage::from_data(width, height, img.data[..width * height].to_vec(), pattern)
}

/// `(width, height)`.
type Size = (usize, usize);

/// Sizes that take every edge case of the windowed kernels: images smaller
/// than AHD's 5×5 window, odd sizes, one dimension of 1, and the fleet's 48.
const DEMOSAIC_SIZES: [Size; 7] = [(1, 1), (2, 2), (3, 5), (5, 3), (10, 6), (45, 33), (48, 48)];

/// `(method, pattern, hash)`: the hash runs over every one of
/// [`DEMOSAIC_SIZES`], in order.
const DEMOSAIC_PINS: [(DemosaicMethod, BayerPattern, u64); 9] = [
    (DemosaicMethod::Ppg, BayerPattern::Rggb, 0xde2be082c29e7859),
    (DemosaicMethod::Ppg, BayerPattern::Bggr, 0x900857f8e1a536b5),
    (DemosaicMethod::Ppg, BayerPattern::Grbg, 0x77f271276d16e410),
    (DemosaicMethod::Ahd, BayerPattern::Rggb, 0x916a08fa7e4cc282),
    (DemosaicMethod::Ahd, BayerPattern::Bggr, 0xf090aa45c0a6e482),
    (DemosaicMethod::Ahd, BayerPattern::Grbg, 0x80c3a8f945674671),
    (
        DemosaicMethod::PixelBinning,
        BayerPattern::Rggb,
        0x646e1934e754cdca,
    ),
    (
        DemosaicMethod::PixelBinning,
        BayerPattern::Bggr,
        0x5714875f066ce7ca,
    ),
    (
        DemosaicMethod::PixelBinning,
        BayerPattern::Grbg,
        0xd54f651602ec6877,
    ),
];

#[test]
fn demosaic_bits_are_pinned() {
    let mut moved = Vec::new();
    for (method, pattern, want) in DEMOSAIC_PINS {
        let got = fnv1a(DEMOSAIC_SIZES.into_iter().flat_map(|(w, h)| {
            let raw = textured_raw(w, h, pattern, (w * h) as u64);
            demosaic(&raw, method).data.into_iter().map(f32::to_bits)
        }));
        if got != want {
            moved.push(format!(
                "    (DemosaicMethod::{method:?}, BayerPattern::{pattern:?}, {got:#018x}),"
            ));
        }
    }
    assert!(moved.is_empty(), "moved rows:\n{}", moved.join("\n"));
}

/// Sizes for the denoisers: a single pixel, a single row, sizes below and at
/// FBDD's 3×3 window, an odd height for the wavelet's 2×2 blocks, and 48.
const DENOISE_SIZES: [Size; 6] = [(1, 1), (1, 7), (2, 2), (3, 3), (10, 6), (48, 48)];

/// `(method, hash)`: the hash runs over every one of [`DENOISE_SIZES`].
const DENOISE_PINS: [(DenoiseMethod, u64); 2] = [
    (DenoiseMethod::Fbdd, 0x4c4bf5ec87e39bf4),
    (DenoiseMethod::WaveletBayesShrink, 0x333fba0522bdcc42),
];

#[test]
fn denoise_bits_are_pinned() {
    let mut moved = Vec::new();
    for (method, want) in DENOISE_PINS {
        let got = fnv1a(DENOISE_SIZES.into_iter().flat_map(|(w, h)| {
            let img = textured(w, h, (w * h) as u64);
            denoise(&img, method).data.into_iter().map(f32::to_bits)
        }));
        if got != want {
            moved.push(format!("    (DenoiseMethod::{method:?}, {got:#018x}),"));
        }
    }
    assert!(moved.is_empty(), "moved rows:\n{}", moved.join("\n"));
}

/// `(from, to, hash)`: down, up, identity, and one non-square resample.
const RESIZE_PINS: [(Size, Size, u64); 7] = [
    ((48, 48), (32, 32), 0x5c95b911af655d16),
    ((40, 40), (32, 32), 0x55cd2769753489ad),
    ((32, 32), (48, 48), 0x082bd34f8fc6bb79),
    ((48, 48), (48, 48), 0xfb837d0a043b7589),
    ((7, 7), (3, 3), 0x949312ca8823d66d),
    ((3, 3), (7, 7), 0x8793626e23aee374),
    ((10, 6), (7, 9), 0xc6a00734c84f0b1c),
];

#[test]
fn resize_bits_are_pinned() {
    let mut moved = Vec::new();
    for ((w, h), (to_w, to_h), want) in RESIZE_PINS {
        let img = textured(w, h, (w * h) as u64);
        let got = fnv1a(img.resize(to_w, to_h).data.into_iter().map(f32::to_bits));
        if got != want {
            moved.push(format!("    (({w}, {h}), ({to_w}, {to_h}), {got:#018x}),"));
        }
    }
    assert!(moved.is_empty(), "moved rows:\n{}", moved.join("\n"));
}

/// `(device, hash)`: each `paper_devices()` sensor captures the same 48-px
/// scene from a stream seeded by its index, as built and again with a 24-bit
/// ADC. The fleet's 10–12-bit quantisation absorbs most one-ULP moves in the
/// analogue chain; the fine ADC keeps them.
const SENSOR_PINS: [(&str, u64); 9] = [
    ("Pixel5", 0x13d98ae4489dba68),
    ("Pixel2", 0xaeacf821dbfcbee9),
    ("Nexus5X", 0x8b4cfc39c09c11de),
    ("VELVET", 0x50be0f40e4728eaa),
    ("G7", 0x78a51b71a873efbe),
    ("G4", 0x48295fcbbdb126ef),
    ("S22", 0xcec8207c9295f75c),
    ("S9", 0x557027523ade4c34),
    ("S6", 0x912c62b1ec6a9176),
];

#[test]
fn sensor_capture_bits_are_pinned() {
    let scene = textured(48, 48, 48);
    let devices = paper_devices();
    assert_eq!(devices.len(), SENSOR_PINS.len());
    let mut moved = Vec::new();
    for (i, (d, (name, want))) in devices.iter().zip(SENSOR_PINS).enumerate() {
        let fine = SensorModel {
            bit_depth: 24,
            ..d.sensor.clone()
        };
        let got = fnv1a([&d.sensor, &fine].into_iter().flat_map(|sensor| {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let raw = sensor.capture(&scene, &mut rng);
            raw.data.into_iter().map(f32::to_bits)
        }));
        if got != want || d.name != name {
            moved.push(format!("    ({:?}, {got:#018x}),", d.name));
        }
    }
    assert!(moved.is_empty(), "moved rows:\n{}", moved.join("\n"));
}

/// FBDD weighs every neighbour by `exp` of its squared difference, so one NaN
/// pixel poisons exactly its own 3×3 window, edge-replicated at the border,
/// and nothing else.
#[test]
fn fbdd_nan_poisons_exactly_its_window() {
    let (w, h) = (10, 8);
    for (nan_r, nan_c) in [(3, 4), (0, 0), (7, 9), (0, 5)] {
        let mut img = textured(w, h, 1);
        let plane = w * h;
        img.set(1, nan_r, nan_c, f32::NAN);
        let out = denoise(&img, DenoiseMethod::Fbdd);
        for (i, v) in out.data.iter().enumerate() {
            let (c, r, col) = (i / plane, i % plane / w, i % w);
            let near = c == 1 && r.abs_diff(nan_r) <= 1 && col.abs_diff(nan_c) <= 1;
            assert_eq!(
                v.is_nan(),
                near,
                "NaN at ({nan_r}, {nan_c}): output ({c}, {r}, {col}) = {v}"
            );
        }
    }
}

/// The perf ledger's `vision` set-up: nine devices, 12 classes, 10 + 3
/// scenes per class, 48-px scenes captured into 32-px tensors.
fn vision(mode: CaptureMode) -> Imagenet12Config {
    Imagenet12Config {
        num_classes: 12,
        image_size: 32,
        scene_size: 48,
        train_per_class: 10,
        test_per_class: 3,
        mode,
    }
}

fn tiny(mode: CaptureMode) -> Imagenet12Config {
    Imagenet12Config {
        mode,
        ..Imagenet12Config::tiny()
    }
}

/// Every device's name, train and test pixels and labels, in device order.
fn datasets_hash(datasets: &[DeviceDataset]) -> u64 {
    let labels = |l: &Labels| match l {
        Labels::Classes(y) => y.iter().map(|&c| c as u32).collect::<Vec<_>>(),
        _ => panic!("expected class labels"),
    };
    fnv1a(datasets.iter().flat_map(|d| {
        let name = d.device.bytes().map(u32::from);
        let sets = [&d.train, &d.test].into_iter().flat_map(|s| {
            let pixels =
                s.x.iter()
                    .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()));
            pixels.chain(labels(&s.labels)).collect::<Vec<_>>()
        });
        name.chain(sets).collect::<Vec<_>>()
    }))
}

/// `(what, configuration, mode, seed, hash)` over `paper_devices()`, each
/// built at the default thread target and rebuilt at a 1-thread target.
type DatasetPin = (
    &'static str,
    fn(CaptureMode) -> Imagenet12Config,
    CaptureMode,
    u64,
    u64,
);

const DATASET_PINS: [DatasetPin; 4] = [
    (
        "vision",
        vision,
        CaptureMode::Processed,
        1,
        0x3ebc2f2afed6b39a,
    ),
    ("vision", vision, CaptureMode::Raw, 1, 0xf7af7312bc079b82),
    ("tiny", tiny, CaptureMode::Processed, 7, 0xc48cfe9e09629c87),
    ("tiny", tiny, CaptureMode::Raw, 7, 0x6c757a2b213bc978),
];

#[test]
fn datasets_are_pinned_at_every_thread_target() {
    let devices = paper_devices();
    let mut moved = Vec::new();
    for (what, cfg, mode, seed, want) in DATASET_PINS {
        let build = || datasets_hash(&build_device_datasets(&devices, cfg(mode), seed));
        let got = build();
        set_num_threads(Some(1));
        let serial = build();
        set_num_threads(None);
        assert_eq!(serial, got, "{what} {mode:?}: 1-thread vs default target");
        if got != want {
            moved.push(format!(
                "    ({what:?}, {what}, CaptureMode::{mode:?}, {seed}, {got:#018x}),"
            ));
        }
    }
    assert!(moved.is_empty(), "moved rows:\n{}", moved.join("\n"));
}
