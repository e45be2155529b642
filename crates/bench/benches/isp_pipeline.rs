//! Criterion micro-benchmarks for the ISP pipeline: per-stage cost and the
//! 48→32 px resample, one sensor capture and the end-to-end sensor→ISP
//! rendering path of the simulated devices, and one whole per-device dataset
//! build (scenes serial, devices on the pool).

use criterion::{criterion_group, criterion_main, Criterion};
use hs_data::{build_device_datasets, CaptureMode, Imagenet12Config};
use hs_device::{paper_devices, DeviceId};
use hs_isp::{
    demosaic, denoise, jpeg_compress, tone_map, white_balance, BayerPattern, CompressMethod,
    DemosaicMethod, DenoiseMethod, ImageBuf, IspConfig, RawImage, ToneMethod, WbMethod,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn structured_raw(size: usize) -> RawImage {
    let mut rng = StdRng::seed_from_u64(3);
    let mut raw = RawImage::flat(size, size, 0.0, BayerPattern::Rggb);
    for r in 0..size {
        for c in 0..size {
            let v = 0.4
                + 0.3 * ((r as f32 / 5.0).sin() * (c as f32 / 7.0).cos())
                + rng.gen_range(-0.05..0.05);
            raw.set(r, c, v.clamp(0.0, 1.0));
        }
    }
    raw
}

fn structured_rgb(size: usize) -> ImageBuf {
    demosaic(&structured_raw(size), DemosaicMethod::Ppg)
}

fn bench_stages(c: &mut Criterion) {
    let raw = structured_raw(48);
    let rgb = structured_rgb(48);
    c.bench_function("isp/demosaic_ppg_48", |b| {
        b.iter(|| demosaic(black_box(&raw), DemosaicMethod::Ppg))
    });
    c.bench_function("isp/demosaic_ahd_48", |b| {
        b.iter(|| demosaic(black_box(&raw), DemosaicMethod::Ahd))
    });
    c.bench_function("isp/denoise_fbdd_48", |b| {
        b.iter(|| denoise(black_box(&rgb), DenoiseMethod::Fbdd))
    });
    c.bench_function("isp/denoise_wavelet_48", |b| {
        b.iter(|| denoise(black_box(&rgb), DenoiseMethod::WaveletBayesShrink))
    });
    c.bench_function("isp/white_balance_gray_world_48", |b| {
        b.iter(|| white_balance(black_box(&rgb), WbMethod::GrayWorld))
    });
    c.bench_function("isp/tone_equalization_48", |b| {
        b.iter(|| tone_map(black_box(&rgb), ToneMethod::GammaEqualization))
    });
    c.bench_function("isp/jpeg_q85_48", |b| {
        b.iter(|| jpeg_compress(black_box(&rgb), CompressMethod::Jpeg(85)))
    });
    // a 48-px capture into the 32-px tensor the models train on
    c.bench_function("isp/resize_48_to_32", |b| {
        b.iter(|| black_box(&rgb).resize(32, 32))
    });
}

fn bench_pipelines(c: &mut Criterion) {
    let raw = structured_raw(48);
    c.bench_function("isp/full_pipeline_baseline_48", |b| {
        b.iter(|| IspConfig::baseline().process(black_box(&raw)))
    });
    c.bench_function("isp/full_pipeline_option2_48", |b| {
        b.iter(|| IspConfig::option2().process(black_box(&raw)))
    });
    // end-to-end device rendering (sensor + ISP) for a high-end device
    let fleet = paper_devices();
    let device = fleet[DeviceId::S22.index()].clone();
    let mut scene = ImageBuf::zeros(48, 48, 3);
    for r in 0..48 {
        for col in 0..48 {
            scene.set(0, r, col, 0.3 + 0.4 * (r as f32 / 47.0));
            scene.set(1, r, col, 0.5);
            scene.set(2, r, col, 0.3 + 0.4 * (col as f32 / 47.0));
        }
    }
    c.bench_function("device/sensor_capture_s22_48", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| device.sensor.capture(black_box(&scene), &mut rng))
    });
    c.bench_function("device/render_s22_48", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| device.render(black_box(&scene), &mut rng))
    });
}

fn bench_datasets(c: &mut Criterion) {
    // the perf ledger's `vision` set-up: nine devices, 12 classes, 10 + 3
    // scenes per class, 48-px scenes captured into 32-px tensors
    let devices = paper_devices();
    let cfg = Imagenet12Config {
        num_classes: 12,
        image_size: 32,
        scene_size: 48,
        train_per_class: 10,
        test_per_class: 3,
        mode: CaptureMode::Processed,
    };
    c.bench_function("data/build_device_datasets_vision", |b| {
        b.iter(|| build_device_datasets(black_box(&devices), cfg, 1))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_stages, bench_pipelines, bench_datasets
}
criterion_main!(benches);
