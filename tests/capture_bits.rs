//! Pins the bits of the capture path: the JPEG stage on its own, and whole
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
use heteroswitch_repro::device::paper_devices;
use heteroswitch_repro::isp::{jpeg_compress, CompressMethod, ImageBuf};
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
