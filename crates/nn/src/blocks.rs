//! Composite building blocks used by the mobile model zoo: squeeze-excite
//! attention, MobileNetV3 inverted residuals, SqueezeNet fire modules and
//! ShuffleNetV2 units with their channel shuffle.

use crate::layer::store;
use crate::{
    BatchNorm2d, Conv2d, GlobalAvgPool, HardSigmoid, HardSwish, Layer, Linear, Relu, Sequential,
    Workspace,
};
use hs_tensor::{dot_lanes, Tensor};
use rand::rngs::StdRng;

/// Extracts channels `[from, to)` of a `[n, c, h, w]` tensor.
fn slice_channels(x: &Tensor, from: usize, to: usize) -> Tensor {
    let mut out = Tensor::zeros(&[0]);
    slice_channels_into(x, from, to, &mut out);
    out
}

/// [`slice_channels`] into a caller-owned tensor (resized in place).
fn slice_channels_into(x: &Tensor, from: usize, to: usize, out: &mut Tensor) {
    let dims = x.dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert!(
        from < to && to <= c,
        "invalid channel slice {from}..{to} of {c}"
    );
    let hw = h * w;
    let data = x.as_slice();
    out.resize_to(&[n, to - from, h, w]);
    let o = out.as_mut_slice();
    let span = (to - from) * hw;
    for ni in 0..n {
        let base = ni * c * hw;
        o[ni * span..(ni + 1) * span].copy_from_slice(&data[base + from * hw..base + to * hw]);
    }
}

/// Concatenates two `[n, c, h, w]` tensors along the channel axis.
fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
    Tensor::concat(&[a, b], 1)
}

/// [`concat_channels`] into a caller-owned tensor (resized in place).
fn concat_channels_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (da, db) = (a.dims(), b.dims());
    assert_eq!(da[0], db[0], "concat batch mismatch");
    assert_eq!(&da[2..], &db[2..], "concat spatial mismatch");
    let (n, ca, cb) = (da[0], da[1], db[1]);
    let hw = da[2] * da[3];
    out.resize_to(&[n, ca + cb, da[2], da[3]]);
    let o = out.as_mut_slice();
    let (xa, xb) = (a.as_slice(), b.as_slice());
    let span = (ca + cb) * hw;
    for ni in 0..n {
        o[ni * span..ni * span + ca * hw].copy_from_slice(&xa[ni * ca * hw..(ni + 1) * ca * hw]);
        o[ni * span + ca * hw..(ni + 1) * span]
            .copy_from_slice(&xb[ni * cb * hw..(ni + 1) * cb * hw]);
    }
}

/// Scales each channel of the `[n, c, h, w]` input `x` by its gate
/// (`gates[n * c]`), writing into `out` (resized): the squeeze-excite
/// gating of both the training and the inference forward.
fn apply_gates(x: &Tensor, gates: &[f32], out: &mut Tensor) {
    let dims = x.dims();
    let hw = dims[2] * dims[3];
    out.resize_to(dims);
    let (o, x) = (out.as_mut_slice(), x.as_slice());
    for (nc, &g) in gates.iter().enumerate() {
        for (ov, &xv) in o[nc * hw..(nc + 1) * hw]
            .iter_mut()
            .zip(&x[nc * hw..(nc + 1) * hw])
        {
            *ov = xv * g;
        }
    }
}

/// Squeeze-and-excitation channel attention.
///
/// Computes per-channel gates from globally pooled features and rescales the
/// input channels by those gates, as used inside MobileNetV3 blocks.
pub struct SqueezeExcite {
    squeeze: Sequential,
    cached_input: Option<Tensor>,
    cached_scale: Option<Tensor>,
}

impl SqueezeExcite {
    /// Creates a squeeze-excite block over `channels` with the given
    /// reduction factor (clamped so the bottleneck has at least 2 units).
    pub fn new(channels: usize, reduction: usize, rng: &mut StdRng) -> Self {
        let hidden = (channels / reduction.max(1)).max(2);
        let squeeze = Sequential::new(vec![
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(channels, hidden, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(hidden, channels, rng)),
            Box::new(HardSigmoid::new()),
        ]);
        SqueezeExcite {
            squeeze,
            cached_input: None,
            cached_scale: None,
        }
    }
}

impl Layer for SqueezeExcite {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let scale = self.squeeze.forward_train(input); // [n, c]
        let mut out = Tensor::zeros(&[0]);
        apply_gates(input, scale.as_slice(), &mut out);
        store(&mut self.cached_input, input);
        self.cached_scale = Some(scale);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let scale = self.cached_scale.as_ref().expect("missing cache");
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = h * w;
        let go = grad_out.as_slice();
        let x = input.as_slice();
        let s = scale.as_slice();

        // gradient flowing directly through the channel scaling
        let mut grad_direct = vec![0.0f32; x.len()];
        // gradient w.r.t. the per-channel gates
        let mut grad_scale = vec![0.0f32; n * c];
        for nc in 0..n * c {
            let (go, x) = (&go[nc * hw..(nc + 1) * hw], &x[nc * hw..(nc + 1) * hw]);
            let g = s[nc];
            for (d, &dy) in grad_direct[nc * hw..(nc + 1) * hw].iter_mut().zip(go) {
                *d = dy * g;
            }
            grad_scale[nc] = dot_lanes(go, x);
        }
        let grad_through_squeeze = self
            .squeeze
            .backward(&Tensor::from_vec(grad_scale, &[n, c]));
        Tensor::from_vec(grad_direct, dims).add(&grad_through_squeeze)
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let mut scale = ws.take();
        self.squeeze.infer(input, &mut scale, ws); // [n, c]
        apply_gates(input, scale.as_slice(), out);
        ws.give(scale);
    }

    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        f(&self.squeeze);
    }

    fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut dyn Layer)) {
        f(&mut self.squeeze);
    }

    fn name(&self) -> &'static str {
        "squeeze_excite"
    }
}

/// A MobileNetV3 inverted-residual block: expand (1×1) → depthwise (k×k,
/// stride) → optional squeeze-excite → project (1×1), with a skip connection
/// when the shapes allow it.
pub struct InvertedResidual {
    body: Sequential,
    use_skip: bool,
}

impl InvertedResidual {
    /// Builds an inverted residual block.
    ///
    /// `use_hs` selects hard-swish (true) or ReLU (false) activations and
    /// `use_se` adds a squeeze-excite stage after the depthwise convolution.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per column of the MobileNetV3 block table"
    )]
    pub fn new(
        in_channels: usize,
        expand_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        use_se: bool,
        use_hs: bool,
        rng: &mut StdRng,
    ) -> Self {
        let pad = kernel / 2;
        let mut body = Sequential::empty();
        let act = |use_hs: bool| -> Box<dyn Layer> {
            if use_hs {
                Box::new(HardSwish::new())
            } else {
                Box::new(Relu::new())
            }
        };
        if expand_channels != in_channels {
            body.push(Box::new(Conv2d::new(
                in_channels,
                expand_channels,
                1,
                1,
                0,
                1,
                rng,
            )));
            body.push(Box::new(BatchNorm2d::new(expand_channels)));
            body.push(act(use_hs));
        }
        body.push(Box::new(Conv2d::depthwise(
            expand_channels,
            kernel,
            stride,
            pad,
            rng,
        )));
        body.push(Box::new(BatchNorm2d::new(expand_channels)));
        body.push(act(use_hs));
        if use_se {
            body.push(Box::new(SqueezeExcite::new(expand_channels, 4, rng)));
        }
        body.push(Box::new(Conv2d::new(
            expand_channels,
            out_channels,
            1,
            1,
            0,
            1,
            rng,
        )));
        body.push(Box::new(BatchNorm2d::new(out_channels)));
        InvertedResidual {
            body,
            use_skip: stride == 1 && in_channels == out_channels,
        }
    }
}

impl Layer for InvertedResidual {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let y = self.body.forward_train(input);
        if self.use_skip {
            y.add(input)
        } else {
            y
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.body.backward(grad_out);
        if self.use_skip {
            g.add(grad_out)
        } else {
            g
        }
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        // the body writes straight into `out`; the skip connection folds the
        // input in afterwards, in place
        self.body.infer(input, out, ws);
        if self.use_skip {
            assert_eq!(
                out.dims(),
                input.dims(),
                "skip connection requires shape-preserving body"
            );
            for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
                *o += x;
            }
        }
    }

    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        f(&self.body);
    }

    fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut dyn Layer)) {
        f(&mut self.body);
    }

    fn name(&self) -> &'static str {
        "inverted_residual"
    }
}

/// A SqueezeNet fire module: squeeze (1×1) followed by parallel 1×1 and 3×3
/// expansions concatenated along the channel axis.
pub struct Fire {
    squeeze: Sequential,
    expand1: Sequential,
    expand3: Sequential,
    expand1_channels: usize,
    expand3_channels: usize,
    cached_squeezed: Option<Tensor>,
}

impl Fire {
    /// Builds a fire module.
    pub fn new(
        in_channels: usize,
        squeeze_channels: usize,
        expand1_channels: usize,
        expand3_channels: usize,
        rng: &mut StdRng,
    ) -> Self {
        let squeeze = Sequential::new(vec![
            Box::new(Conv2d::new(in_channels, squeeze_channels, 1, 1, 0, 1, rng)),
            Box::new(Relu::new()),
        ]);
        let expand1 = Sequential::new(vec![
            Box::new(Conv2d::new(
                squeeze_channels,
                expand1_channels,
                1,
                1,
                0,
                1,
                rng,
            )),
            Box::new(Relu::new()),
        ]);
        let expand3 = Sequential::new(vec![
            Box::new(Conv2d::new(
                squeeze_channels,
                expand3_channels,
                3,
                1,
                1,
                1,
                rng,
            )),
            Box::new(Relu::new()),
        ]);
        Fire {
            squeeze,
            expand1,
            expand3,
            expand1_channels,
            expand3_channels,
            cached_squeezed: None,
        }
    }

    /// Total number of output channels (`expand1 + expand3`).
    pub fn out_channels(&self) -> usize {
        self.expand1_channels + self.expand3_channels
    }
}

impl Layer for Fire {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let squeezed = self.squeeze.forward_train(input);
        let e1 = self.expand1.forward_train(&squeezed);
        let e3 = self.expand3.forward_train(&squeezed);
        self.cached_squeezed = Some(squeezed);
        concat_channels(&e1, &e3)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g1 = slice_channels(grad_out, 0, self.expand1_channels);
        let g3 = slice_channels(
            grad_out,
            self.expand1_channels,
            self.expand1_channels + self.expand3_channels,
        );
        let gs1 = self.expand1.backward(&g1);
        let gs3 = self.expand3.backward(&g3);
        self.squeeze.backward(&gs1.add(&gs3))
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let (mut squeezed, mut e1, mut e3) = (ws.take(), ws.take(), ws.take());
        self.squeeze.infer(input, &mut squeezed, ws);
        self.expand1.infer(&squeezed, &mut e1, ws);
        self.expand3.infer(&squeezed, &mut e3, ws);
        concat_channels_into(&e1, &e3, out);
        ws.give(e3);
        ws.give(e1);
        ws.give(squeezed);
    }

    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        f(&self.squeeze);
        f(&self.expand1);
        f(&self.expand3);
    }

    fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut dyn Layer)) {
        f(&mut self.squeeze);
        f(&mut self.expand1);
        f(&mut self.expand3);
    }

    fn name(&self) -> &'static str {
        "fire"
    }
}

/// Channel shuffle with a fixed group count, as used between ShuffleNetV2
/// units.
pub struct ChannelShuffle {
    groups: usize,
}

impl ChannelShuffle {
    /// Creates a channel shuffle with `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn new(groups: usize) -> Self {
        assert!(groups >= 1, "groups must be positive");
        ChannelShuffle { groups }
    }

    fn permute(&self, x: &Tensor, inverse: bool) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        self.permute_into(x, inverse, &mut out);
        out
    }

    /// [`ChannelShuffle::permute`] into a caller-owned tensor (resized in
    /// place).
    fn permute_into(&self, x: &Tensor, inverse: bool, out: &mut Tensor) {
        let dims = x.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let g = self.groups;
        assert_eq!(c % g, 0, "channels must divide by groups");
        let cpg = c / g;
        let hw = h * w;
        let data = x.as_slice();
        out.resize_to(dims);
        let o = out.as_mut_slice();
        for ni in 0..n {
            for gi in 0..g {
                for j in 0..cpg {
                    // forward shuffle: output channel j*g + gi takes input channel gi*cpg + j
                    let (src, dst) = if inverse {
                        (j * g + gi, gi * cpg + j)
                    } else {
                        (gi * cpg + j, j * g + gi)
                    };
                    let src_off = (ni * c + src) * hw;
                    let dst_off = (ni * c + dst) * hw;
                    o[dst_off..dst_off + hw].copy_from_slice(&data[src_off..src_off + hw]);
                }
            }
        }
    }
}

impl Layer for ChannelShuffle {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.permute(input, false)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.permute(grad_out, true)
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        self.permute_into(input, false, out);
    }

    fn name(&self) -> &'static str {
        "channel_shuffle"
    }
}

/// A ShuffleNetV2 unit.
///
/// With `stride == 1` the input channels are split in half, one half passes
/// through a 1×1 → depthwise 3×3 → 1×1 branch, and the halves are
/// concatenated and shuffled. With `stride == 2` both branches process the
/// full input and the output doubles the channel count (downsampling unit).
pub struct ShuffleUnit {
    stride: usize,
    half: usize,
    branch_main: Sequential,
    branch_proj: Option<Sequential>,
    shuffle: ChannelShuffle,
    cached_input: Option<Tensor>,
}

impl ShuffleUnit {
    /// Builds a ShuffleNetV2 unit over `channels` input channels.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 1` and `channels` is odd, or stride is not 1 or 2.
    pub fn new(channels: usize, stride: usize, rng: &mut StdRng) -> Self {
        assert!(stride == 1 || stride == 2, "stride must be 1 or 2");
        let half = if stride == 1 {
            assert_eq!(channels % 2, 0, "stride-1 shuffle unit needs even channels");
            channels / 2
        } else {
            channels
        };
        let branch_main = Sequential::new(vec![
            Box::new(Conv2d::new(half, half, 1, 1, 0, 1, rng)),
            Box::new(BatchNorm2d::new(half)),
            Box::new(Relu::new()),
            Box::new(Conv2d::depthwise(half, 3, stride, 1, rng)),
            Box::new(BatchNorm2d::new(half)),
            Box::new(Conv2d::new(half, half, 1, 1, 0, 1, rng)),
            Box::new(BatchNorm2d::new(half)),
            Box::new(Relu::new()),
        ]);
        let branch_proj = if stride == 2 {
            Some(Sequential::new(vec![
                Box::new(Conv2d::depthwise(channels, 3, 2, 1, rng)),
                Box::new(BatchNorm2d::new(channels)),
                Box::new(Conv2d::new(channels, channels, 1, 1, 0, 1, rng)),
                Box::new(BatchNorm2d::new(channels)),
                Box::new(Relu::new()),
            ]))
        } else {
            None
        };
        ShuffleUnit {
            stride,
            half,
            branch_main,
            branch_proj,
            shuffle: ChannelShuffle::new(2),
            cached_input: None,
        }
    }

    /// Number of output channels produced by the unit.
    pub fn out_channels(&self) -> usize {
        // both the stride-1 and stride-2 unit shapes emit half * 2 channels
        self.half * 2
    }
}

impl Layer for ShuffleUnit {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        let out = if self.stride == 1 {
            let x1 = slice_channels(input, 0, self.half);
            let x2 = slice_channels(input, self.half, self.half * 2);
            let y2 = self.branch_main.forward_train(&x2);
            concat_channels(&x1, &y2)
        } else {
            let y1 = self
                .branch_proj
                .as_mut()
                .expect("stride-2 unit has a projection branch")
                .forward_train(input);
            let y2 = self.branch_main.forward_train(input);
            concat_channels(&y1, &y2)
        };
        self.shuffle.forward_train(&out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.shuffle.backward(grad_out);
        if self.stride == 1 {
            let g1 = slice_channels(&g, 0, self.half);
            let g2 = slice_channels(&g, self.half, self.half * 2);
            let gx2 = self.branch_main.backward(&g2);
            // reassemble [g1 | gx2] along channels
            concat_channels(&g1, &gx2)
        } else {
            let channels = self.half;
            let g1 = slice_channels(&g, 0, channels);
            let g2 = slice_channels(&g, channels, channels * 2);
            let gx1 = self
                .branch_proj
                .as_mut()
                .expect("stride-2 unit has a projection branch")
                .backward(&g1);
            let gx2 = self.branch_main.backward(&g2);
            gx1.add(&gx2)
        }
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let (mut y1, mut y2, mut cat) = (ws.take(), ws.take(), ws.take());
        if self.stride == 1 {
            // identity half into y1, processed half through the main branch
            // (staged in `cat`, which is free until the concat)
            slice_channels_into(input, 0, self.half, &mut y1);
            slice_channels_into(input, self.half, self.half * 2, &mut cat);
            self.branch_main.infer(&cat, &mut y2, ws);
        } else {
            self.branch_proj
                .as_ref()
                .expect("stride-2 unit has a projection branch")
                .infer(input, &mut y1, ws);
            self.branch_main.infer(input, &mut y2, ws);
        }
        concat_channels_into(&y1, &y2, &mut cat);
        self.shuffle.permute_into(&cat, false, out);
        ws.give(cat);
        ws.give(y2);
        ws.give(y1);
    }

    /// Main branch, projection branch, shuffle: the weight order, which
    /// checkpoints and FL weight vectors depend on. Inference runs the
    /// projection first; the branches are independent, so this order is
    /// layout only.
    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        f(&self.branch_main);
        if let Some(proj) = &self.branch_proj {
            f(proj);
        }
        f(&self.shuffle);
    }

    fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut dyn Layer)) {
        f(&mut self.branch_main);
        if let Some(proj) = &mut self.branch_proj {
            f(proj);
        }
        f(&mut self.shuffle);
    }

    fn name(&self) -> &'static str {
        "shuffle_unit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn slice_and_concat_channels_round_trip() {
        let mut r = rng();
        let x = Tensor::rand_uniform(&[2, 6, 3, 3], -1.0, 1.0, &mut r);
        let a = slice_channels(&x, 0, 2);
        let b = slice_channels(&x, 2, 6);
        let back = concat_channels(&a, &b);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn residual_adds_identity() {
        // a shape-preserving inverted residual whose projection batch-norm
        // is zeroed: the body contributes nothing, so the skip connection
        // passes the input forward and the gradient backward unchanged
        let mut r = rng();
        let mut block = InvertedResidual::new(4, 8, 4, 3, 1, false, false, &mut r);
        let (mut params, _) = crate::layer::states(&mut block);
        let n = params.len();
        for p in &mut params[n - 2..] {
            p.value.as_mut_slice().fill(0.0);
        }
        let x = Tensor::rand_uniform(&[2, 4, 5, 5], -1.0, 1.0, &mut r);
        assert_eq!(block.forward(&x, false), x);
        assert_eq!(block.forward(&x, true), x);
        let g = Tensor::rand_uniform(&[2, 4, 5, 5], -1.0, 1.0, &mut r);
        assert_eq!(block.backward(&g), g);
    }

    #[test]
    fn squeeze_excite_preserves_shape_and_bounds() {
        let mut r = rng();
        let mut se = SqueezeExcite::new(4, 4, &mut r);
        let x = Tensor::rand_uniform(&[2, 4, 5, 5], 0.0, 1.0, &mut r);
        let y = se.forward(&x, true);
        assert_eq!(y.dims(), x.dims());
        // hard-sigmoid gates lie in [0, 1], so |y| <= |x| element-wise
        for (xi, yi) in x.as_slice().iter().zip(y.as_slice()) {
            assert!(yi.abs() <= xi.abs() + 1e-6);
        }
        let g = se.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn inverted_residual_shapes_with_and_without_stride() {
        let mut r = rng();
        let mut block = InvertedResidual::new(4, 8, 4, 3, 1, true, true, &mut r);
        let x = Tensor::rand_uniform(&[1, 4, 8, 8], -1.0, 1.0, &mut r);
        assert_eq!(block.forward(&x, false).dims(), &[1, 4, 8, 8]);

        let mut down = InvertedResidual::new(4, 8, 6, 3, 2, false, false, &mut r);
        assert_eq!(down.forward(&x, false).dims(), &[1, 6, 4, 4]);
    }

    #[test]
    fn inverted_residual_backward_shapes() {
        let mut r = rng();
        let mut block = InvertedResidual::new(4, 8, 4, 3, 1, true, true, &mut r);
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut r);
        let y = block.forward(&x, true);
        let g = block.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
        assert!(!crate::layer::states(&mut block).0.is_empty());
    }

    #[test]
    fn fire_module_concatenates_expansions() {
        let mut r = rng();
        let mut fire = Fire::new(4, 2, 3, 5, &mut r);
        assert_eq!(fire.out_channels(), 8);
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut r);
        let y = fire.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 6, 6]);
        let g = fire.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn channel_shuffle_is_a_permutation() {
        let mut shuffle = ChannelShuffle::new(2);
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 8, 1, 1]);
        let y = shuffle.forward(&x, false);
        let mut sorted: Vec<f32> = y.as_slice().to_vec();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(sorted, x.as_slice());
        // backward applies the inverse permutation
        let back = shuffle.backward(&y);
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn channel_shuffle_carries_nan_inputs_without_panicking() {
        // Regression for the PR 4 denoise class: this test's permutation
        // check used to sort with `partial_cmp(..).unwrap()`, which panics
        // on the first NaN — `total_cmp` gives NaN a defined (last) rank.
        let mut shuffle = ChannelShuffle::new(2);
        let mut vals: Vec<f32> = (0..8).map(|v| v as f32).collect();
        vals[3] = f32::NAN;
        let x = Tensor::from_vec(vals, &[1, 8, 1, 1]);
        let y = shuffle.forward(&x, false);
        let mut sorted: Vec<f32> = y.as_slice().to_vec();
        sorted.sort_by(f32::total_cmp);
        assert!(
            sorted[7].is_nan(),
            "positive NaN sorts last under total_cmp"
        );
        assert_eq!(&sorted[..7], &[0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0]);
        // the permutation and its inverse carry the NaN payload through
        let back = shuffle.backward(&y);
        assert!(back.as_slice()[3].is_nan());
        for (i, (&b, &orig)) in back.as_slice().iter().zip(x.as_slice()).enumerate() {
            if i != 3 {
                assert_eq!(b, orig);
            }
        }
    }

    #[test]
    fn shuffle_unit_stride1_preserves_shape() {
        let mut r = rng();
        let mut unit = ShuffleUnit::new(8, 1, &mut r);
        let x = Tensor::rand_uniform(&[1, 8, 8, 8], -1.0, 1.0, &mut r);
        let y = unit.forward(&x, true);
        assert_eq!(y.dims(), &[1, 8, 8, 8]);
        let g = unit.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }

    #[test]
    fn shuffle_unit_stride2_downsamples_and_doubles_channels() {
        let mut r = rng();
        let mut unit = ShuffleUnit::new(8, 2, &mut r);
        assert_eq!(unit.out_channels(), 16);
        let x = Tensor::rand_uniform(&[1, 8, 8, 8], -1.0, 1.0, &mut r);
        let y = unit.forward(&x, true);
        assert_eq!(y.dims(), &[1, 16, 4, 4]);
        let g = unit.backward(&Tensor::ones(y.dims()));
        assert_eq!(g.dims(), x.dims());
    }
}
