//! Structural pins over the public walks (`Network::for_each_layer`,
//! `Layer::for_each_child`, `Network::for_each_state`, `name()`,
//! `downcast_ref`), and over which layers define which structural hooks.

use heteroswitch_repro::nn::models::{build_vision_model, ecg_net, ModelKind, VisionConfig};
use heteroswitch_repro::nn::{
    BatchNorm2d, Conv2d, ConvAlgo, Flatten, InvertedResidual, Linear, Network, Relu, Sequential,
    State,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::Path;

/// The four vision models and the ECG regressor: every network the paper
/// trains.
fn zoo(rng: &mut StdRng) -> Vec<(String, Network)> {
    let mut nets: Vec<(String, Network)> = [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ]
    .into_iter()
    .map(|kind| {
        let cfg = VisionConfig::new(3, 12, 32);
        (format!("{kind:?}"), build_vision_model(kind, cfg, rng))
    })
    .collect();
    nets.push(("ecg_net".into(), ecg_net(16, rng)));
    nets
}

/// The non-test part of a source file: everything before its
/// `#[cfg(test)] mod tests`.
fn non_test(src: &str) -> &str {
    src.find("#[cfg(test)]\nmod tests")
        .map_or(src, |i| &src[..i])
}

/// One `impl Layer for X` of the source: the type, the string literal its
/// `name()` returns, and the methods its body defines.
struct LayerImpl {
    ty: String,
    name: String,
    methods: Vec<String>,
}

/// Every `impl Layer for X` outside test modules under `dir`.
fn layer_impls(dir: &Path, out: &mut Vec<LayerImpl>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("read source dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            layer_impls(&path, out);
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read source");
        let src = non_test(&src);
        for (at, _) in src.match_indices("impl Layer for ") {
            let rest = &src[at + "impl Layer for ".len()..];
            let ty = rest
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next();
            // rustfmt closes a top-level impl with a `}` in column 0
            let body = &rest[..rest.find("\n}").unwrap_or(rest.len())];
            let name = body
                .split_once("fn name(&self) -> &'static str {")
                .and_then(|(_, b)| b.split('"').nth(1))
                .unwrap_or_else(|| panic!("{}: no name() literal", path.display()));
            let methods = body
                .lines()
                .filter_map(|l| l.strip_prefix("    fn "))
                .map(|l| l.split(['(', '<']).next().unwrap_or(l).to_string())
                .collect();
            out.push(LayerImpl {
                ty: ty.expect("type name").to_string(),
                name: name.to_string(),
                methods,
            });
        }
    }
}

/// The traffic claim behind the two-backend dispatch, on the models the
/// paper trains: every depthwise layer plans the direct kernel and every
/// other conv im2col→GEMM — unfused or fused.
#[test]
fn zoo_convs_plan_one_route_per_geometry() {
    for kind in [
        ModelKind::SimpleCnn,
        ModelKind::MobileNetV3Small,
        ModelKind::ShuffleNetV2,
        ModelKind::SqueezeNet,
    ] {
        for fused in [false, true] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut net = build_vision_model(kind, VisionConfig::new(3, 12, 32), &mut rng);
            if fused {
                net.fuse_inference();
            }
            let ctx = format!("{kind:?} fused={fused}");
            let (mut direct, mut im2col) = (0, 0);
            net.for_each_layer(&mut |_, layer| match layer.downcast_ref::<Conv2d>() {
                Some(conv) if conv.is_depthwise() => {
                    assert_eq!(conv.planned_algo(), ConvAlgo::DirectDepthwise, "{ctx}");
                    direct += 1;
                }
                Some(conv) => {
                    assert_eq!(conv.planned_algo(), ConvAlgo::Im2colGemm, "{ctx}");
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
        let block = InvertedResidual::new(16, 32, 16, 3, 2, true, use_hs, &mut rng);
        let mut net = Network::new(Sequential::new(vec![Box::new(block)]));
        net.fuse_inference();
        let mut names = Vec::new();
        net.for_each_layer(&mut |depth, layer| {
            if depth == 1 {
                names.push(layer.name());
            }
        });
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
        net.for_each_layer(&mut |_, layer| {
            count += usize::from(layer.downcast_ref::<Linear>().is_some());
        });
        count
    };
    let mut rng = StdRng::seed_from_u64(5);
    let mut nets = zoo(&mut rng);
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

/// The layer catalogue is closed: every `Layer` implemented in `hs-nn` is
/// reached by some network the paper trains, unfused or fused, and every
/// epilogue activation but `None` is some zoo layer's `epilogue_act()`. A
/// layer or activation a new experiment needs lands with that experiment.
/// `Sequential` is exempt: `for_each_layer` flattens it (a nested
/// `Sequential` is a block's body, its layers the block's children).
#[test]
fn every_layer_and_epilogue_activation_is_reached_by_the_zoo() {
    let mut rng = StdRng::seed_from_u64(9);
    let (mut names, mut acts) = (BTreeSet::new(), BTreeSet::new());
    for (_, mut net) in zoo(&mut rng) {
        for fused in [false, true] {
            if fused {
                net.fuse_inference();
            }
            net.for_each_layer(&mut |_, layer| {
                names.insert(layer.name());
                if let Some(act) = layer.epilogue_act() {
                    acts.insert(format!("{act:?}"));
                }
            });
        }
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut impls = Vec::new();
    layer_impls(&root.join("crates/nn/src"), &mut impls);
    assert!(impls.len() > 10, "found only {} impls", impls.len());
    let unreached: Vec<_> = impls
        .iter()
        .filter(|i| i.ty != "Sequential" && !names.contains(i.name.as_str()))
        .map(|i| &i.ty)
        .collect();

    let gemm = std::fs::read_to_string(root.join("crates/tensor/src/gemm.rs")).expect("gemm.rs");
    let (_, body) = gemm
        .split_once("pub enum EpilogueAct {")
        .expect("EpilogueAct definition");
    let variants: Vec<&str> = body[..body.find('}').expect("enum end")]
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with('#'))
        .map(|l| l.trim_end_matches(',').split('(').next().unwrap_or(l))
        .collect();
    assert!(variants.contains(&"None"), "parsed {variants:?}");
    let unused: Vec<_> = variants
        .iter()
        .filter(|v| **v != "None" && !acts.iter().any(|a| a.split('(').next() == Some(**v)))
        .collect();
    assert!(
        unreached.is_empty() && unused.is_empty(),
        "no zoo network reaches {unreached:?}; no zoo layer computes {unused:?}"
    );
}

/// `ShuffleUnit` yields its channel shuffle after its branches, the order
/// its inference runs them in, so a ShuffleNetV2 walk visits one
/// `channel_shuffle` as the last child of every unit, fused or not.
#[test]
fn the_shufflenet_walk_visits_every_channel_shuffle() {
    let mut rng = StdRng::seed_from_u64(4);
    let cfg = VisionConfig::new(3, 12, 32);
    let mut net = build_vision_model(ModelKind::ShuffleNetV2, cfg, &mut rng);
    for fused in [false, true] {
        if fused {
            net.fuse_inference();
        }
        let mut visits: Vec<(usize, &'static str)> = Vec::new();
        net.for_each_layer(&mut |depth, layer| visits.push((depth, layer.name())));
        let units: Vec<usize> = (0..visits.len())
            .filter(|&i| visits[i] == (0, "shuffle_unit"))
            .collect();
        assert_eq!(units.len(), 4, "fused={fused}");
        for start in units {
            let last_child = visits[start + 1..]
                .iter()
                .take_while(|(depth, _)| *depth > 0)
                .filter(|(depth, _)| *depth == 1)
                .last();
            assert_eq!(
                last_child,
                Some(&(1, "channel_shuffle")),
                "fused={fused}: unit at visit {start}"
            );
        }
    }
}

/// The shapes `for_each_layer` reads off the stateful leaves it visits — a
/// convolution's weight and bias, a linear layer's weight and bias, a batch
/// norm's γ, β and running mean and variance — split into parameters and
/// buffers.
fn visited_shapes(net: &Network) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let (mut params, mut buffers) = (Vec::new(), Vec::new());
    net.for_each_layer(&mut |_, layer| {
        if let Some(conv) = layer.downcast_ref::<Conv2d>() {
            params.push(conv.weight_dims().to_vec());
            params.push(vec![conv.out_channels()]);
        } else if let Some(linear) = layer.downcast_ref::<Linear>() {
            params.push(vec![linear.out_features(), linear.in_features()]);
            params.push(vec![linear.out_features()]);
        } else if let Some(bn) = layer.downcast_ref::<BatchNorm2d>() {
            params.extend([vec![bn.channels()], vec![bn.channels()]]);
            buffers.extend([vec![bn.channels()], vec![bn.channels()]]);
        }
    });
    (params, buffers)
}

/// Walk order is weight order: the stateful leaves the read-only walk
/// visits, in visiting order, hold the tensors the state walk yields, in
/// yielding order — for every zoo network, unfused and fused. A ShuffleNetV2
/// downsampling unit runs its projection branch first but yields its main
/// branch first, in both walks.
#[test]
fn the_layer_walk_visits_leaves_in_the_state_walks_order() {
    let mut rng = StdRng::seed_from_u64(6);
    for (name, mut net) in zoo(&mut rng) {
        for fused in [false, true] {
            if fused {
                net.fuse_inference();
            }
            let (mut params, mut buffers) = (Vec::new(), Vec::new());
            net.for_each_state(&mut |s| match s {
                State::Param(p) => params.push(p.value.dims().to_vec()),
                State::Buffer(b) => buffers.push(b.dims().to_vec()),
            });
            let visited = visited_shapes(&net);
            assert!(!params.is_empty(), "{name}");
            assert_eq!(visited, (params, buffers), "{name} fused={fused}");
        }
    }
}

/// The structural hooks stay where the one walk puts them: a leaf yields
/// its state (`for_each_state`); a container yields its children (`for_each_child` and
/// `for_each_child_mut`, always both) and inherits everything that recurses;
/// only `Sequential`, which owns the runs fusion rewrites, writes
/// `fuse_inference`. No layer forwards state to its children by hand.
#[test]
fn only_leaves_yield_state_and_only_containers_yield_children() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut impls = Vec::new();
    layer_impls(&root.join("crates/nn/src"), &mut impls);
    assert!(impls.len() > 10, "found only {} impls", impls.len());
    let (mut leaves, mut containers) = (0, 0);
    for imp in &impls {
        let defines = |m: &str| imp.methods.iter().any(|d| d == m);
        let container = defines("for_each_child");
        assert_eq!(
            defines("for_each_child_mut"),
            container,
            "{}: for_each_child and for_each_child_mut come as a pair",
            imp.ty
        );
        assert!(
            !(container && defines("for_each_state")),
            "{}: a container inherits for_each_state from the walk",
            imp.ty
        );
        assert_eq!(
            defines("fuse_inference"),
            imp.ty == "Sequential",
            "{}: only Sequential rewrites for fusion",
            imp.ty
        );
        if container {
            containers += 1;
        } else {
            leaves += 1;
        }
    }
    assert!(
        leaves > 0 && containers > 0,
        "{leaves} leaves, {containers} containers"
    );
}
