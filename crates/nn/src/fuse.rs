//! The inference fusion pass: collapses `Conv2d -> BatchNorm2d ->
//! activation` and `Linear -> activation` runs inside a [`Sequential`] into
//! fused layers.
//!
//! Fusion is a *structural* rewrite with *behavioural* equivalence:
//!
//! * **Inference** (`train == false`) runs the fast path — batch-norm (and
//!   the convolution bias) folded into a per-output-channel scale/shift that
//!   the GEMM applies in its micro-kernel store loop together with the
//!   activation ([`hs_tensor::gemm_epilogue`]), so a three-layer stack
//!   becomes one GEMM with zero extra passes over the activation tensor.
//! * **Training** (`train == true`) and `backward` delegate to the original
//!   layers unchanged — a fused network remains exactly trainable, which the
//!   federated-learning simulator relies on.
//! * **Weight layout is invariant**: the fused layers expose their children's
//!   parameters and buffers in the original order, so
//!   [`crate::Network::weights`] / [`crate::Network::set_weights`] round-trip
//!   identically before and after fusion and FL aggregation is oblivious to
//!   it.
//!
//! The scale/shift fold is recomputed from the batch-norm's *current*
//! running statistics on every inference forward (an `O(channels)` loop into
//! reusable buffers), so weight updates and server aggregation between
//! rounds are always reflected.
//!
//! Every activation with an [`EpilogueAct`] form fuses — the ReLU family and
//! hard-swish, so no `Conv -> BN -> activation` stack of the mobile zoo keeps
//! a stand-alone activation pass. Patterns that do not match — an activation
//! without an epilogue form (sigmoid, tanh, hard-sigmoid), a batch-norm whose
//! width disagrees with the convolution, anything else in between — are left
//! untouched, falling back to the exact layer-by-layer path.

use crate::{Layer, Param, ParamStore, Sequential};
use hs_tensor::{DType, EpilogueAct, Tensor};

/// Rewrites a layer list, fusing `conv (-> bn) (-> act)` and `linear -> act`
/// runs. Composite layers are recursed into (via [`Layer::fuse_inference`])
/// before matching, so the blocks of the model zoo fuse their inner stacks.
pub(crate) fn fuse_layers(layers: Vec<Box<dyn Layer>>) -> Vec<Box<dyn Layer>> {
    let mut out: Vec<Box<dyn Layer>> = Vec::with_capacity(layers.len());
    let mut iter = layers.into_iter().peekable();
    while let Some(mut layer) = iter.next() {
        layer.fuse_inference();
        if let Some(conv) = layer.as_conv2d() {
            let out_channels = conv.out_channels();
            let bn_matches = iter
                .peek()
                .and_then(|l| l.as_batch_norm())
                .is_some_and(|bn| bn.channels() == out_channels);
            let bn = if bn_matches { iter.next() } else { None };
            let act_matches = iter.peek().is_some_and(|l| l.epilogue_act().is_some());
            let act = if act_matches { iter.next() } else { None };
            if bn.is_some() || act.is_some() {
                out.push(Box::new(FusedConvBnAct::new(layer, bn, act)));
            } else {
                out.push(layer);
            }
        } else if layer.as_linear().is_some() {
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
    /// Reusable fold buffers (per-output-channel scale/shift) for the
    /// exclusive-access inference entry points.
    scale: Vec<f32>,
    shift: Vec<f32>,
    /// Reusable im2col scratch handed to the conv's shared-state body.
    col_scratch: Vec<f32>,
}

impl FusedConvBnAct {
    /// Builds the fused layer. `conv` must be a [`crate::Conv2d`]; `bn`,
    /// when present, a [`crate::BatchNorm2d`] of matching width; `act`, when
    /// present, an activation with an [`EpilogueAct`] form.
    ///
    /// # Panics
    ///
    /// Panics if the typed views of the provided layers do not match those
    /// expectations.
    pub fn new(
        conv: Box<dyn Layer>,
        bn: Option<Box<dyn Layer>>,
        act: Option<Box<dyn Layer>>,
    ) -> Self {
        assert!(conv.as_conv2d().is_some(), "FusedConvBnAct needs a Conv2d");
        if let Some(bn) = &bn {
            assert!(
                bn.as_batch_norm().is_some(),
                "FusedConvBnAct needs a BatchNorm2d"
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
            scale: Vec::new(),
            shift: Vec::new(),
            col_scratch: Vec::new(),
        }
    }

    /// Computes the folded per-output-channel scale/shift from the current
    /// batch-norm running statistics (identity scale when there is no
    /// batch-norm), with the convolution bias folded into `shift`.
    fn fold_into(&self, scale: &mut Vec<f32>, shift: &mut Vec<f32>) {
        let conv = self.conv.as_conv2d().expect("validated in new()");
        let bias = conv.bias_values();
        match &self.bn {
            Some(bn) => {
                let bn = bn.as_batch_norm().expect("validated in new()");
                bn.fold_inference(scale, shift);
                // y = scale * (conv + bias) + shift
                for ((sh, &sc), &b) in shift.iter_mut().zip(scale.iter()).zip(bias.iter()) {
                    *sh += sc * b;
                }
            }
            None => {
                scale.clear();
                scale.resize(bias.len(), 1.0);
                shift.clear();
                shift.extend_from_slice(bias);
            }
        }
    }

    /// The exclusive-access fused inference forward, writing into `out`.
    fn infer_into(&mut self, input: &Tensor, out: &mut Tensor) {
        let mut scale = std::mem::take(&mut self.scale);
        let mut shift = std::mem::take(&mut self.shift);
        let mut col = std::mem::take(&mut self.col_scratch);
        self.fold_into(&mut scale, &mut shift);
        let conv = self.conv.as_conv2d().expect("validated in new()");
        conv.infer_into(input, Some((&scale, &shift, self.act_kind)), out, &mut col);
        self.scale = scale;
        self.shift = shift;
        self.col_scratch = col;
    }
}

impl Layer for FusedConvBnAct {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            // exact fallback: run the original layers so batch statistics,
            // caches and gradients behave as if never fused
            let mut x = self.conv.forward(input, true);
            if let Some(bn) = &mut self.bn {
                x = bn.forward(&x, true);
            }
            if let Some(act) = &mut self.act {
                x = act.forward(&x, true);
            }
            x
        } else {
            let mut out = Tensor::zeros(&[0]);
            self.infer_into(input, &mut out);
            out
        }
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

    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        if train {
            *out = self.forward(input, true);
        } else {
            self.infer_into(input, out);
        }
    }

    fn forward_eval(&self, input: &Tensor) -> Option<Tensor> {
        let (mut scale, mut shift) = (Vec::new(), Vec::new());
        self.fold_into(&mut scale, &mut shift);
        let conv = self.conv.as_conv2d().expect("validated in new()");
        let mut out = Tensor::zeros(&[0]);
        crate::conv::with_eval_col_scratch(|col| {
            conv.infer_into(input, Some((&scale, &shift, self.act_kind)), &mut out, col)
        });
        Some(out)
    }

    fn for_each_conv2d_mut(&mut self, f: &mut dyn FnMut(&mut crate::Conv2d)) {
        self.conv.for_each_conv2d_mut(f);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv.params_mut();
        if let Some(bn) = &mut self.bn {
            p.extend(bn.params_mut());
        }
        if let Some(act) = &mut self.act {
            p.extend(act.params_mut());
        }
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        let mut b = self.conv.buffers_mut();
        if let Some(bn) = &mut self.bn {
            b.extend(bn.buffers_mut());
        }
        if let Some(act) = &mut self.act {
            b.extend(act.buffers_mut());
        }
        b
    }

    fn to_dtype(&mut self, dtype: DType) {
        self.conv.to_dtype(dtype);
        if let Some(bn) = &mut self.bn {
            bn.to_dtype(dtype);
        }
        if let Some(act) = &mut self.act {
            act.to_dtype(dtype);
        }
    }

    fn param_stores(&mut self) -> Vec<ParamStore<'_>> {
        let mut p = self.conv.param_stores();
        if let Some(bn) = &mut self.bn {
            p.extend(bn.param_stores());
        }
        if let Some(act) = &mut self.act {
            p.extend(act.param_stores());
        }
        p
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
    /// Panics if the typed views of the provided layers do not match.
    pub fn new(linear: Box<dyn Layer>, act: Box<dyn Layer>) -> Self {
        assert!(
            linear.as_linear().is_some(),
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
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            let x = self.linear.forward(input, true);
            self.act.forward(&x, true)
        } else {
            let mut out = Tensor::zeros(&[0]);
            let linear = self.linear.as_linear().expect("validated in new()");
            linear.infer_into(input, self.act_kind, &mut out);
            out
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.act.backward(grad_out);
        self.linear.backward(&g)
    }

    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        if train {
            *out = self.forward(input, true);
        } else {
            let linear = self.linear.as_linear().expect("validated in new()");
            linear.infer_into(input, self.act_kind, out);
        }
    }

    fn forward_eval(&self, input: &Tensor) -> Option<Tensor> {
        let mut out = Tensor::zeros(&[0]);
        let linear = self.linear.as_linear().expect("validated in new()");
        linear.infer_into(input, self.act_kind, &mut out);
        Some(out)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.linear.params_mut();
        p.extend(self.act.params_mut());
        p
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        let mut b = self.linear.buffers_mut();
        b.extend(self.act.buffers_mut());
        b
    }

    fn to_dtype(&mut self, dtype: DType) {
        self.linear.to_dtype(dtype);
        self.act.to_dtype(dtype);
    }

    fn param_stores(&mut self) -> Vec<ParamStore<'_>> {
        let mut p = self.linear.param_stores();
        p.extend(self.act.param_stores());
        p
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
    use crate::{
        BatchNorm2d, Conv2d, HardSigmoid, HardSwish, LeakyRelu, Linear, MaxPool2d, Relu, Relu6,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_names(seq: &Sequential) -> Vec<&'static str> {
        seq.layers().iter().map(|l| l.name()).collect()
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
            Box::new(Relu6::new()),
            Box::new(Conv2d::depthwise(4, 3, 2, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(HardSwish::new()),
            Box::new(Linear::new(4, 4, &mut rng)),
            Box::new(LeakyRelu::new(0.1)),
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
