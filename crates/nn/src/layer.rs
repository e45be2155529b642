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

/// Caller-owned scratch for [`Layer::infer`]: a LIFO pool of tensors.
///
/// A layer [`take`](Workspace::take)s whatever intermediates it needs
/// (ping-pong activations, branch outputs, im2col columns, folded
/// scale/shift) and [`give`](Workspace::give)s them back before returning,
/// in reverse order of taking. The pool then looks the same after a pass as
/// before it, so the next pass over the same network hands every call site
/// the tensor it sized last time and — because [`Tensor::resize_to`] keeps
/// capacity — allocates nothing.
///
/// One workspace serves one inference at a time; concurrent inferences over
/// a shared `&Network` each bring their own.
#[derive(Default)]
pub struct Workspace {
    free: Vec<Tensor>,
}

impl Workspace {
    /// An empty (cold) workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a tensor out of the pool; its shape and contents are
    /// unspecified, so callers `resize_to` and overwrite it.
    pub fn take(&mut self) -> Tensor {
        self.free.pop().unwrap_or_else(|| Tensor::zeros(&[0]))
    }

    /// Returns a tensor to the pool.
    pub fn give(&mut self, tensor: Tensor) {
        self.free.push(tensor);
    }
}

/// A differentiable network building block.
///
/// A layer has one training forward and one inference forward:
///
/// * [`Layer::forward_train`] caches whatever [`Layer::backward`] needs
///   (inputs, masks, intermediate activations); `backward` turns that cache
///   into the gradient with respect to the layer input while accumulating
///   parameter gradients into the layer's [`Param`]s.
/// * [`Layer::infer`] reads only shared state (`&self`), writes into a
///   caller-owned output and takes its scratch from a caller-owned
///   [`Workspace`] — so one network serves any number of concurrent
///   inferences, and a warm workspace makes each of them allocation-free.
///
/// [`Layer::forward`] dispatches between the two. Layers are `Send + Sync`
/// so client updates can run on worker threads in the federated-learning
/// simulator and evaluation batches can be sharded across the pool against
/// one shared `&Network`.
///
/// [`Layer::fuse_inference`] plus the typed views ([`Layer::as_conv2d`],
/// [`Layer::as_batch_norm`], [`Layer::as_linear`], [`Layer::epilogue_act`])
/// are the hooks the conv/BN/activation fusion pass uses to pattern-match
/// and rebuild layer runs. [`Layer::for_each_child`] is the read-only
/// structural walk: nothing outside a layer can reach into it to change
/// what its inference runs.
pub trait Layer: Send + Sync {
    /// Computes the layer output for `input`: [`Layer::forward_train`] when
    /// `train` (batch-norm batch statistics, dropout masking, gradient
    /// caches), otherwise [`Layer::infer`] on a cold [`Workspace`] — the
    /// same arithmetic as [`crate::Network::infer`], paying the allocations
    /// a kept workspace saves.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            return self.forward_train(input);
        }
        let mut out = Tensor::zeros(&[0]);
        self.infer(input, &mut out, &mut Workspace::new());
        out
    }

    /// The training forward: computes the output with training-time
    /// behaviour and caches what [`Layer::backward`] consumes.
    fn forward_train(&mut self, input: &Tensor) -> Tensor;

    /// Propagates `grad_out` (gradient w.r.t. the layer output) backwards,
    /// returning the gradient w.r.t. the layer input and accumulating
    /// parameter gradients.
    ///
    /// Must be called after a [`Layer::forward_train`] pass.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The inference forward (running statistics, identity dropout): writes
    /// the output for `input` into `out`, resizing it via
    /// [`Tensor::resize_to`] so a warm buffer is reused instead of
    /// reallocated. `out` never aliases `input`. Touches no layer state —
    /// not the parameters, not batch-norm statistics, not a pending
    /// training cache.
    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace);

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

    /// Visits this layer's direct children, in execution order: a container
    /// or block yields the layers of its body (or bodies, one after the
    /// other), a fused layer the original layers it owns; leaves have none.
    /// Read-only — with [`Layer::name`] and the typed views this is how a
    /// caller enumerates what a network is made of
    /// ([`crate::Network::for_each_layer`] is the recursive walk).
    fn for_each_child(&self, _f: &mut dyn FnMut(&dyn Layer)) {}

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

    /// A minimal identity layer exercising the trait's provided methods.
    struct Identity;

    impl Layer for Identity {
        fn forward_train(&mut self, input: &Tensor) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
        fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
            out.clone_from(input);
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
    fn default_hooks_are_conservative() {
        let mut id = Identity;
        let x = Tensor::ones(&[2, 2]);
        // typed views: not a conv/bn/linear/activation
        assert!(id.as_conv2d().is_none());
        assert!(id.as_batch_norm().is_none());
        assert!(id.as_linear().is_none());
        assert!(id.epilogue_act().is_none());
        id.for_each_child(&mut |_| panic!("a leaf has no children"));
        // forward(_, false) is infer on a cold workspace
        assert_eq!(id.forward(&x, false), x);
        // fuse_inference and to_dtype are no-ops; param_stores mirrors params
        id.fuse_inference();
        id.to_dtype(DType::F16);
        assert!(id.param_stores().is_empty());
    }

    #[test]
    fn workspace_hands_back_what_it_was_given_last_first() {
        let mut ws = Workspace::new();
        assert_eq!(ws.take().len(), 0, "a cold pool makes empty tensors");
        ws.give(Tensor::ones(&[2]));
        ws.give(Tensor::ones(&[3]));
        assert_eq!(ws.take().len(), 3);
        assert_eq!(ws.take().len(), 2);
    }
}
