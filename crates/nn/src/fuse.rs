//! The inference fusion pass: collapses `Conv2d -> BatchNorm2d ->
//! activation` and `Linear -> activation` runs inside a [`Sequential`] into
//! fused layers.
//!
//! Fusion is a *structural* rewrite with *behavioural* equivalence:
//!
//! * **Inference** ([`Layer::infer`]) runs the fast path — batch-norm (and
//!   the convolution bias) folded into a per-output-channel scale/shift that
//!   the GEMM applies in its micro-kernel store loop together with the
//!   activation ([`hs_tensor::gemm_epilogue`]), so a three-layer stack
//!   becomes one GEMM with zero extra passes over the activation tensor.
//! * **Training** ([`Layer::forward_train`]) and `backward` delegate to the original
//!   layers unchanged — a fused network remains exactly trainable, which the
//!   federated-learning simulator relies on.
//! * **Weight layout is invariant**: a fused layer is a container whose
//!   children are the original layers, in their original order, so the
//!   state walk ([`Layer::for_each_state`]) — and with it
//!   [`crate::Network::weights`] / [`crate::Network::set_weights`] — visits
//!   the same tensors in the same order before and after fusion, and FL
//!   aggregation is oblivious to it.
//!
//! The pass recognises a run by the concrete types of its layers
//! (`<dyn Layer>::downcast_ref` to [`Conv2d`], [`BatchNorm2d`] or
//! [`Linear`]) and by [`Layer::epilogue_act`] for the activation.
//!
//! The scale/shift fold is recomputed from the batch-norm's *current*
//! running statistics on every inference forward (an `O(channels)` loop into
//! a workspace tensor), so weight updates and server aggregation between
//! rounds are always reflected.
//!
//! Every activation with an [`EpilogueAct`] form fuses — ReLU and hard-swish,
//! so no `Conv -> BN -> activation` stack of the mobile zoo keeps a
//! stand-alone activation pass. Patterns that do not match — an activation
//! without an epilogue form (hard-sigmoid), a batch-norm whose width
//! disagrees with the convolution, anything else in between — are left
//! untouched, falling back to the exact layer-by-layer path.

use crate::{BatchNorm2d, Conv2d, Layer, Linear, Sequential, Workspace};
use hs_tensor::{EpilogueAct, Tensor};

/// Rewrites a layer list, fusing `conv (-> bn) (-> act)` and `linear -> act`
/// runs. Composite layers are recursed into (via [`Layer::fuse_inference`])
/// before matching, so the blocks of the model zoo fuse their inner stacks.
pub(crate) fn fuse_layers(layers: Vec<Box<dyn Layer>>) -> Vec<Box<dyn Layer>> {
    let mut out: Vec<Box<dyn Layer>> = Vec::with_capacity(layers.len());
    let mut iter = layers.into_iter().peekable();
    while let Some(mut layer) = iter.next() {
        layer.fuse_inference();
        if let Some(conv) = layer.downcast_ref::<Conv2d>() {
            let out_channels = conv.out_channels();
            let bn_matches = iter
                .peek()
                .and_then(|l| l.downcast_ref::<BatchNorm2d>())
                .is_some_and(|bn| bn.channels() == out_channels);
            let bn = if bn_matches { iter.next() } else { None };
            let act_matches = iter.peek().is_some_and(|l| l.epilogue_act().is_some());
            let act = if act_matches { iter.next() } else { None };
            if bn.is_some() || act.is_some() {
                out.push(Box::new(FusedConvBnAct::new(layer, bn, act)));
            } else {
                out.push(layer);
            }
        } else if layer.downcast_ref::<Linear>().is_some() {
            if iter.peek().is_some_and(|l| l.epilogue_act().is_some()) {
                let act = iter.next().expect("peeked activation");
                out.push(Box::new(FusedLinearAct::new(layer, act)));
            } else {
                out.push(layer);
            }
        } else {
            out.push(layer);
        }
    }
    out
}

/// A fused `Conv2d (-> BatchNorm2d) (-> activation)` stack.
///
/// Owns the original layers: training and backward delegate to them
/// unchanged, parameters/buffers are exposed in the original order, and only
/// the inference forward takes the folded single-GEMM path.
pub struct FusedConvBnAct {
    conv: Box<dyn Layer>,
    bn: Option<Box<dyn Layer>>,
    act: Option<Box<dyn Layer>>,
    act_kind: EpilogueAct,
}

impl FusedConvBnAct {
    /// Builds the fused layer. `conv` must be a [`crate::Conv2d`]; `bn`,
    /// when present, a [`crate::BatchNorm2d`] of matching width; `act`, when
    /// present, an activation with an [`EpilogueAct`] form.
    ///
    /// # Panics
    ///
    /// Panics if the provided layers are not of those types.
    pub fn new(
        conv: Box<dyn Layer>,
        bn: Option<Box<dyn Layer>>,
        act: Option<Box<dyn Layer>>,
    ) -> Self {
        let out_channels = conv
            .downcast_ref::<Conv2d>()
            .expect("FusedConvBnAct needs a Conv2d")
            .out_channels();
        if let Some(bn) = &bn {
            let bn = bn
                .downcast_ref::<BatchNorm2d>()
                .expect("FusedConvBnAct needs a BatchNorm2d");
            assert_eq!(
                bn.channels(),
                out_channels,
                "FusedConvBnAct: batch-norm width must match the conv's output channels"
            );
        }
        let act_kind = match &act {
            Some(a) => a
                .epilogue_act()
                .expect("FusedConvBnAct activation must have an epilogue form"),
            None => EpilogueAct::None,
        };
        FusedConvBnAct {
            conv,
            bn,
            act,
            act_kind,
        }
    }
}

impl Layer for FusedConvBnAct {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        // exact fallback: run the original layers so batch statistics,
        // caches and gradients behave as if never fused
        let mut x = self.conv.forward_train(input);
        if let Some(bn) = &mut self.bn {
            x = bn.forward_train(&x);
        }
        if let Some(act) = &mut self.act {
            x = act.forward_train(&x);
        }
        x
    }

    /// One GEMM (or depthwise pass) whose epilogue carries the folded
    /// per-output-channel scale/shift — recomputed here from the batch-norm's
    /// current running statistics (identity scale when there is no
    /// batch-norm), with the convolution bias folded into `shift` — and the
    /// activation.
    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let conv = self
            .conv
            .downcast_ref::<Conv2d>()
            .expect("validated in new()");
        let bias = conv.bias_values();
        let mut fold = ws.take();
        fold.resize_to(&[2, bias.len()]);
        let (scale, shift) = fold.as_mut_slice().split_at_mut(bias.len());
        match &self.bn {
            Some(bn) => {
                let bn = bn
                    .downcast_ref::<BatchNorm2d>()
                    .expect("validated in new()");
                bn.fold_inference(scale, shift);
                // y = scale * (conv + bias) + shift
                for ((sh, &sc), &b) in shift.iter_mut().zip(scale.iter()).zip(bias.iter()) {
                    *sh += sc * b;
                }
            }
            None => {
                scale.fill(1.0);
                shift.copy_from_slice(bias);
            }
        }
        conv.infer_epilogue(input, Some((scale, shift, self.act_kind)), out, ws);
        ws.give(fold);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = match &mut self.act {
            Some(act) => act.backward(grad_out),
            None => grad_out.clone(),
        };
        let g = match &mut self.bn {
            Some(bn) => bn.backward(&g),
            None => g,
        };
        self.conv.backward(&g)
    }

    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        for layer in std::iter::once(&self.conv).chain(&self.bn).chain(&self.act) {
            f(layer.as_ref());
        }
    }

    fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut dyn Layer)) {
        for layer in std::iter::once(&mut self.conv)
            .chain(&mut self.bn)
            .chain(&mut self.act)
        {
            f(layer.as_mut());
        }
    }

    fn name(&self) -> &'static str {
        "fused_conv_bn_act"
    }
}

/// A fused `Linear -> activation` pair: inference runs the GEMM plus one
/// combined bias+activation pass; training and backward delegate to the
/// original layers.
pub struct FusedLinearAct {
    linear: Box<dyn Layer>,
    act: Box<dyn Layer>,
    act_kind: EpilogueAct,
}

impl FusedLinearAct {
    /// Builds the fused pair. `linear` must be a [`crate::Linear`] and `act`
    /// an activation with an [`EpilogueAct`] form.
    ///
    /// # Panics
    ///
    /// Panics if the provided layers are not of those kinds.
    pub fn new(linear: Box<dyn Layer>, act: Box<dyn Layer>) -> Self {
        assert!(
            linear.downcast_ref::<Linear>().is_some(),
            "FusedLinearAct needs a Linear"
        );
        let act_kind = act
            .epilogue_act()
            .expect("FusedLinearAct activation must have an epilogue form");
        FusedLinearAct {
            linear,
            act,
            act_kind,
        }
    }
}

impl Layer for FusedLinearAct {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let x = self.linear.forward_train(input);
        self.act.forward_train(&x)
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        let linear = self
            .linear
            .downcast_ref::<Linear>()
            .expect("validated in new()");
        linear.infer_act(input, self.act_kind, out);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.act.backward(grad_out);
        self.linear.backward(&g)
    }

    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        f(self.linear.as_ref());
        f(self.act.as_ref());
    }

    fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut dyn Layer)) {
        f(self.linear.as_mut());
        f(self.act.as_mut());
    }

    fn name(&self) -> &'static str {
        "fused_linear_act"
    }
}

/// Convenience: fuses a whole [`Sequential`] (recursively) and returns it,
/// for call sites that build models functionally.
pub fn fuse_sequential(mut seq: Sequential) -> Sequential {
    seq.fuse_inference();
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardSigmoid, HardSwish, MaxPool2d, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_names(seq: &Sequential) -> Vec<&'static str> {
        let mut names = Vec::new();
        seq.for_each_child(&mut |l| names.push(l.name()));
        names
    }

    #[test]
    fn fuses_conv_bn_act_runs() {
        let mut rng = StdRng::seed_from_u64(0);
        let seq = Sequential::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Conv2d::new(8, 8, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
        ]);
        let fused = fuse_sequential(seq);
        assert_eq!(
            layer_names(&fused),
            vec!["fused_conv_bn_act", "max_pool2d", "fused_conv_bn_act"]
        );
    }

    #[test]
    fn fuses_conv_act_without_bn_and_linear_act() {
        let mut rng = StdRng::seed_from_u64(1);
        let seq = Sequential::new(vec![
            Box::new(Conv2d::new(2, 4, 3, 1, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Conv2d::depthwise(4, 3, 2, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(HardSwish::new()),
            Box::new(Linear::new(4, 4, &mut rng)),
            Box::new(HardSwish::new()),
            Box::new(Linear::new(4, 2, &mut rng)),
        ]);
        let fused = fuse_sequential(seq);
        assert_eq!(
            layer_names(&fused),
            vec![
                "fused_conv_bn_act",
                "fused_conv_bn_act",
                "fused_linear_act",
                "linear"
            ]
        );
    }

    #[test]
    fn leaves_unsupported_patterns_alone() {
        let mut rng = StdRng::seed_from_u64(2);
        let seq = Sequential::new(vec![
            // hard-sigmoid has no epilogue form: bn fuses, act stays
            Box::new(Conv2d::new(2, 4, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(HardSigmoid::new()),
            // width-mismatched bn must not fuse
            Box::new(Conv2d::new(4, 4, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(2)),
        ]);
        let fused = fuse_sequential(seq);
        assert_eq!(
            layer_names(&fused),
            vec![
                "fused_conv_bn_act",
                "hard_sigmoid",
                "conv2d",
                "batch_norm2d"
            ]
        );
    }

    #[test]
    fn fusion_preserves_weight_layout() {
        let mut rng = StdRng::seed_from_u64(3);
        let build = |rng: &mut StdRng| {
            crate::Network::new(Sequential::new(vec![
                Box::new(Conv2d::new(1, 4, 3, 1, 1, 1, rng)),
                Box::new(BatchNorm2d::new(4)),
                Box::new(Relu::new()),
            ]))
        };
        let mut net = build(&mut rng);
        let before = net.weights();
        net.fuse_inference();
        assert_eq!(net.weights(), before, "fusion must not reorder weights");
        // and set_weights still lands in the same places
        let bumped: Vec<f32> = before.iter().map(|v| v + 1.0).collect();
        net.set_weights(&bumped);
        assert_eq!(net.weights(), bumped);
    }
}
