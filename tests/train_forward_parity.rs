//! One forward body per layer: for every leaf layer whose training forward
//! is its inference body plus a stored input, `forward(x, true)` returns
//! the bits of `forward(x, false)`. A training forward that grew its own
//! arithmetic again would have to reproduce those bits exactly, route for
//! route, or fail here.
//!
//! The `Conv2d` rows are the zoo's geometries on both sides of the
//! batched-GEMM threshold (`ohw < 96`): dense 3×3, strided, grouped,
//! depthwise and 1×1, at batch 1, 3 and 10. Run it at
//! `HS_PARALLEL_THREADS=1` and `=2`: the inference side is sharded by
//! sample range at two threads, the training side never is.

use heteroswitch_repro::nn::{
    Conv2d, Flatten, GlobalAvgPool, HardSigmoid, HardSwish, Layer, Linear, MaxPool2d, Relu,
    SqueezeExcite,
};
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod support;
use support::params;

/// A conv with a non-zero bias, so the bias path is part of the parity.
fn conv(cin: usize, cout: usize, k: usize, s: usize, groups: usize, rng: &mut StdRng) -> Conv2d {
    let mut conv = Conv2d::new(cin, cout, k, s, k / 2, groups, rng);
    params(&mut conv)[1].value = Tensor::rand_uniform(&[cout], -0.5, 0.5, rng);
    conv
}

#[test]
fn the_training_forward_is_the_inference_forward_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(30);
    // (what, layer, input dims without the batch)
    let table: Vec<(&str, Box<dyn Layer>, Vec<usize>)> = vec![
        (
            "conv 3x3 ohw 256",
            Box::new(conv(16, 16, 3, 1, 1, &mut rng)),
            vec![16, 16, 16],
        ),
        (
            "conv 3x3 ohw 64",
            Box::new(conv(16, 32, 3, 1, 1, &mut rng)),
            vec![16, 8, 8],
        ),
        (
            "conv 3x3 s2 ohw 256",
            Box::new(conv(3, 16, 3, 2, 1, &mut rng)),
            vec![3, 32, 32],
        ),
        (
            "conv 3x3 s2 ohw 64",
            Box::new(conv(16, 24, 3, 2, 1, &mut rng)),
            vec![16, 16, 16],
        ),
        (
            "conv 1x1 g4 ohw 256",
            Box::new(conv(16, 32, 1, 1, 4, &mut rng)),
            vec![16, 16, 16],
        ),
        (
            "conv 3x3 g2 ohw 16",
            Box::new(conv(24, 24, 3, 1, 2, &mut rng)),
            vec![24, 4, 4],
        ),
        (
            "depthwise ohw 256",
            Box::new(conv(32, 32, 3, 1, 32, &mut rng)),
            vec![32, 16, 16],
        ),
        (
            "depthwise s2 ohw 64",
            Box::new(conv(48, 48, 3, 2, 48, &mut rng)),
            vec![48, 16, 16],
        ),
        (
            "conv 1x1 ohw 256",
            Box::new(conv(16, 64, 1, 1, 1, &mut rng)),
            vec![16, 16, 16],
        ),
        (
            "conv 1x1 ohw 16",
            Box::new(conv(96, 32, 1, 1, 1, &mut rng)),
            vec![96, 4, 4],
        ),
        ("linear", Box::new(Linear::new(40, 12, &mut rng)), vec![40]),
        ("relu", Box::new(Relu::new()), vec![6, 5, 5]),
        ("hard_sigmoid", Box::new(HardSigmoid::new()), vec![6, 5, 5]),
        ("hard_swish", Box::new(HardSwish::new()), vec![6, 5, 5]),
        ("max_pool", Box::new(MaxPool2d::new(2)), vec![6, 9, 8]),
        (
            "global_avg_pool",
            Box::new(GlobalAvgPool::new()),
            vec![6, 5, 5],
        ),
        ("flatten", Box::new(Flatten::new()), vec![6, 5, 5]),
        (
            "squeeze_excite",
            Box::new(SqueezeExcite::new(16, 4, &mut rng)),
            vec![16, 6, 6],
        ),
    ];
    for (what, mut layer, dims) in table {
        for batch in [1usize, 3, 10] {
            let shape: Vec<usize> = std::iter::once(batch).chain(dims.iter().copied()).collect();
            // spread over the activations' kinks (±3, 0)
            let x = Tensor::rand_uniform(&shape, -8.0, 8.0, &mut rng);
            let trained = layer.forward(&x, true);
            let inferred = layer.forward(&x, false);
            assert_eq!(trained.dims(), inferred.dims(), "{what} b={batch}");
            for (i, (t, f)) in trained
                .as_slice()
                .iter()
                .zip(inferred.as_slice())
                .enumerate()
            {
                assert_eq!(
                    t.to_bits(),
                    f.to_bits(),
                    "{what} b={batch}: element {i}: train {t} vs infer {f}"
                );
            }
        }
    }
}
