//! Structural pins over the public read-only walk (`Network::for_each_layer`,
//! `Layer::for_each_child`, `name()`, `as_conv2d()`, `as_linear()`).

use heteroswitch_repro::nn::models::{build_vision_model, ModelKind, VisionConfig};
use heteroswitch_repro::nn::{
    ConvAlgo, Flatten, InvertedResidual, Layer, Linear, Network, Relu, Sequential,
};
use heteroswitch_repro::tensor::DType;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The traffic claim behind the two-backend dispatch, on the models the
/// paper trains: every depthwise layer plans the direct kernel and every
/// other conv im2col→GEMM — unfused or fused, f32 or quantized (whose
/// weights only the GEMM packing layer can widen).
#[test]
fn zoo_convs_plan_one_route_per_geometry() {
    for kind in [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ] {
        for (fused, dtype) in [
            (false, DType::F32),
            (true, DType::F32),
            (false, DType::F16),
            (true, DType::F16),
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut net = build_vision_model(kind, VisionConfig::new(3, 12, 32), &mut rng);
            if fused {
                net.fuse_inference();
            }
            net.to_dtype(dtype);
            let ctx = format!("{kind:?} fused={fused} {dtype:?}");
            let (mut direct, mut im2col) = (0, 0);
            net.for_each_layer(&mut |_, layer| match layer.as_conv2d() {
                Some(conv) if conv.is_depthwise() => {
                    assert_eq!(conv.planned_algo(), ConvAlgo::DirectDepthwise, "{ctx}");
                    assert!(!conv.is_quantized(), "{ctx}: depthwise weights stay f32");
                    direct += 1;
                }
                Some(conv) => {
                    assert_eq!(conv.planned_algo(), ConvAlgo::Im2colGemm, "{ctx}");
                    assert_eq!(conv.is_quantized(), dtype != DType::F32, "{ctx}");
                    im2col += 1;
                }
                None => {}
            });
            // the walk reached real layers of both kinds where the
            // architecture has them
            let has_depthwise =
                matches!(kind, ModelKind::MobileNetV3Small | ModelKind::ShuffleNetV2);
            assert_eq!(direct > 0, has_depthwise, "{ctx}: {direct} depthwise convs");
            assert!(im2col > 0, "{ctx}: no dense convs visited");
        }
    }
}

/// Hard-swish and ReLU both have an epilogue form, so fusion leaves no
/// stand-alone activation pass: MobileNet's stem and head fuse theirs, and
/// every conv -> bn -> act run inside a block collapses to one fused layer.
#[test]
fn fused_mobilenet_keeps_no_stand_alone_activation_layer() {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = VisionConfig::new(3, 7, 32);
    let mut net = build_vision_model(ModelKind::MobileNetV3Small, cfg, &mut rng);
    net.fuse_inference();
    let mut names = Vec::new();
    net.for_each_layer(&mut |depth, layer| {
        if depth == 0 {
            names.push(layer.name());
        }
    });
    let block = "inverted_residual";
    let fused = "fused_conv_bn_act";
    assert_eq!(
        names,
        [
            fused,
            block,
            block,
            block,
            fused,
            "global_avg_pool",
            "linear"
        ]
    );

    for use_hs in [true, false] {
        let mut block = InvertedResidual::new(16, 32, 16, 3, 2, true, use_hs, &mut rng);
        block.fuse_inference();
        let mut names = Vec::new();
        block.for_each_child(&mut |layer| names.push(layer.name()));
        assert_eq!(
            names,
            [fused, fused, "squeeze_excite", fused],
            "use_hs={use_hs}"
        );
    }
}

/// A fused layer yields the original layers it owns, so the walk finds every
/// `Linear` whether or not a `Linear -> ReLU` run was fused around it — on
/// the zoo and on the `fleet_mlp`-shaped stack.
#[test]
fn the_walk_reaches_every_linear_fused_or_not() {
    let linears = |net: &Network| {
        let mut count = 0;
        net.for_each_layer(&mut |_, layer| count += usize::from(layer.as_linear().is_some()));
        count
    };
    let mut rng = StdRng::seed_from_u64(5);
    let mut nets: Vec<(String, Network)> = [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ]
    .into_iter()
    .map(|kind| {
        let cfg = VisionConfig::new(3, 12, 32);
        (format!("{kind:?}"), build_vision_model(kind, cfg, &mut rng))
    })
    .collect();
    let mlp = Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Linear::new(48, 16, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 4, &mut rng)),
    ]);
    nets.push(("mlp".into(), Network::new(mlp)));
    for (name, net) in &mut nets {
        let unfused = linears(net);
        net.fuse_inference();
        assert_eq!(linears(net), unfused, "{name}");
    }
    let (_, mlp) = nets.last().expect("pushed above");
    assert_eq!(linears(mlp), 2);
}
