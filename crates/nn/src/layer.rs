//! The [`Layer`] trait implemented by every building block of the network
//! stack.

use crate::{BatchNorm2d, Conv2d, Linear, Param};
use hs_tensor::{DType, EpilogueAct, QTensor, Tensor};

/// A view of one stored parameter tensor, in the fixed order the checkpoint
/// format walks them. For an f32 network every store is `F32`; after
/// [`crate::Network::to_dtype`] the quantized weights show up as `Quant`
/// stores in the same positions, so the shape-based fingerprint (and thus
/// checkpoint compatibility) is dtype-independent.
pub enum ParamStore<'a> {
    /// An `f32` parameter (value + gradient).
    F32(&'a mut Param),
    /// A quantized inference weight (no gradient; training is disabled on
    /// quantized layers).
    Quant(&'a mut QTensor),
}

impl ParamStore<'_> {
    /// The stored tensor's dimensions.
    pub fn dims(&self) -> &[usize] {
        match self {
            ParamStore::F32(p) => p.value.dims(),
            ParamStore::Quant(q) => q.dims(),
        }
    }

    /// Number of scalar elements in the stored tensor.
    pub fn len(&self) -> usize {
        match self {
            ParamStore::F32(p) => p.len(),
            ParamStore::Quant(q) => q.len(),
        }
    }

    /// Whether the stored tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage dtype of the stored tensor.
    pub fn dtype(&self) -> DType {
        match self {
            ParamStore::F32(_) => DType::F32,
            ParamStore::Quant(q) => q.dtype(),
        }
    }
}

/// A differentiable network building block.
///
/// A layer caches whatever it needs during [`Layer::forward`] (inputs, masks,
/// intermediate activations) and uses that cache in [`Layer::backward`] to
/// produce the gradient with respect to its input while accumulating
/// parameter gradients into its [`Param`]s.
///
/// Layers are `Send + Sync` so client updates can run on worker threads in
/// the federated-learning simulator and evaluation batches can be sharded
/// across the pool against one shared `&Network`.
///
/// Beyond the training pair (`forward`/`backward`), the trait carries three
/// groups of default-implemented inference hooks, so existing layers keep
/// working unchanged:
///
/// * [`Layer::forward_into`] — allocation-free forward into a caller-owned
///   arena tensor (the forward-plan path),
/// * [`Layer::forward_eval`] — `&self` inference for batch-sharded
///   evaluation,
/// * [`Layer::fuse_inference`] plus the typed views ([`Layer::as_conv2d`],
///   [`Layer::as_batch_norm`], [`Layer::as_linear`],
///   [`Layer::epilogue_act`]) — the hooks the conv/BN/activation fusion pass
///   uses to pattern-match and rebuild layer runs.
pub trait Layer: Send + Sync {
    /// Computes the layer output for `input`.
    ///
    /// `train` selects training-time behaviour (e.g. batch-norm batch
    /// statistics, dropout masking); inference uses running statistics and
    /// identity dropout.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the layer output) backwards,
    /// returning the gradient w.r.t. the layer input and accumulating
    /// parameter gradients.
    ///
    /// Must be called after a `forward` pass with `train == true`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Writes the layer output for `input` into `out`, resizing it via
    /// [`Tensor::resize_to`] so a warm arena buffer is reused instead of
    /// reallocated. `out` never aliases `input`.
    ///
    /// The default falls back to [`Layer::forward`] (which allocates);
    /// layers on the inference hot path override it.
    fn forward_into(&mut self, input: &Tensor, out: &mut Tensor, train: bool) {
        *out = self.forward(input, train);
    }

    /// Inference-mode forward that only reads shared state, so one network
    /// can evaluate many batches concurrently from `&self`.
    ///
    /// Returns `None` when the layer has no shared-state inference path
    /// (the default); callers must then fall back to the exclusive
    /// [`Layer::forward`] with `train == false`. Implementations must return
    /// exactly what `forward(input, false)` would.
    fn forward_eval(&self, _input: &Tensor) -> Option<Tensor> {
        None
    }

    /// Rewrites this layer's children for fused inference (conv/BN/activation
    /// and linear/activation runs collapse into fused layers; see
    /// [`crate::fuse`]). Containers recurse; leaves do nothing.
    fn fuse_inference(&mut self) {}

    /// Mutable access to the trainable parameters, outermost layers first.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Mutable access to non-trainable state tensors (e.g. batch-norm running
    /// statistics) that must still be exchanged between FL clients and the
    /// server.
    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Converts this layer's inference weights to the requested storage
    /// dtype (see [`crate::Network::to_dtype`]). Containers recurse; leaves
    /// with weight tensors override; everything else keeps the no-op
    /// default. Converting back to [`DType::F32`] restores dequantized `f32`
    /// weights.
    fn to_dtype(&mut self, _dtype: DType) {}

    /// Mutable access to every stored parameter tensor, in the same fixed
    /// order as [`Layer::params_mut`] on an f32 network. This is the walk
    /// the checkpoint format uses: unlike `params_mut`, quantized weights
    /// appear here (as [`ParamStore::Quant`]) so fingerprints and save/load
    /// cover them.
    fn param_stores(&mut self) -> Vec<ParamStore<'_>> {
        self.params_mut().into_iter().map(ParamStore::F32).collect()
    }

    /// Typed view for the fusion pass: `Some` iff this layer is a plain
    /// [`Conv2d`].
    fn as_conv2d(&self) -> Option<&Conv2d> {
        None
    }

    /// Visits every [`Conv2d`] reachable from this layer (containers and
    /// fused layers recurse; leaves other than `Conv2d` do nothing). Used to
    /// force a convolution backend network-wide in tests and the backend
    /// benches — see [`crate::ConvAlgo`].
    fn for_each_conv2d_mut(&mut self, _f: &mut dyn FnMut(&mut Conv2d)) {}

    /// Typed view for the fusion pass: `Some` iff this layer is a plain
    /// [`BatchNorm2d`].
    fn as_batch_norm(&self) -> Option<&BatchNorm2d> {
        None
    }

    /// Typed view for the fusion pass: `Some` iff this layer is a plain
    /// [`Linear`].
    fn as_linear(&self) -> Option<&Linear> {
        None
    }

    /// The element-wise activation this layer computes, when it is expressible
    /// as a GEMM-epilogue activation (ReLU family, hard-swish). `None` for
    /// everything else, which keeps such layers out of the fusion pass.
    fn epilogue_act(&self) -> Option<EpilogueAct> {
        None
    }

    /// A short human-readable layer name used in debugging output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal identity layer exercising the trait's default methods.
    struct Identity;

    impl Layer for Identity {
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
        fn name(&self) -> &'static str {
            "identity"
        }
    }

    #[test]
    fn default_params_and_buffers_are_empty() {
        let mut id = Identity;
        assert!(id.params_mut().is_empty());
        assert!(id.buffers_mut().is_empty());
        let x = Tensor::ones(&[2, 2]);
        assert_eq!(id.forward(&x, true).as_slice(), x.as_slice());
        assert_eq!(id.backward(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn layers_are_object_safe() {
        let _boxed: Box<dyn Layer> = Box::new(Identity);
    }

    #[test]
    fn default_inference_hooks_are_conservative() {
        let mut id = Identity;
        let x = Tensor::ones(&[2, 2]);
        // forward_eval: unsupported by default
        assert!(id.forward_eval(&x).is_none());
        // typed views: not a conv/bn/linear/activation
        assert!(id.as_conv2d().is_none());
        assert!(id.as_batch_norm().is_none());
        assert!(id.as_linear().is_none());
        assert!(id.epilogue_act().is_none());
        // forward_into falls back to forward
        let mut out = Tensor::zeros(&[0]);
        id.forward_into(&x, &mut out, false);
        assert_eq!(out.as_slice(), x.as_slice());
        // fuse_inference and to_dtype are no-ops; param_stores mirrors params
        id.fuse_inference();
        id.to_dtype(DType::F16);
        assert!(id.param_stores().is_empty());
    }
}
