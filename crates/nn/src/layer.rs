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
/// a shared `&Network` each bring their own. An inference that is split
/// across the pool by sample range keeps one sub-workspace per range in
/// here too, so a warm sharded pass allocates nothing either (beyond the
/// pool's own per-task boxes).
#[derive(Default)]
pub struct Workspace {
    free: Vec<Tensor>,
    /// Per-sample-range state of a sharded inference ([`infer_sharded`]),
    /// indexed by range, so each range meets the tensors it sized last time.
    shards: Vec<Shard>,
}

/// One sample range of a sharded inference: its input rows, its output
/// rows, and the workspace the whole plan runs over for them.
struct Shard {
    input: Tensor,
    out: Tensor,
    ws: Workspace,
    /// Scratch for a `[batch, ...]` shape: the range's input, and for range
    /// 0 also the joined output, resized without allocating.
    dims: Vec<usize>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            input: Tensor::zeros(&[0]),
            out: Tensor::zeros(&[0]),
            ws: Workspace::new(),
            dims: Vec::new(),
        }
    }

    /// Copies `rows` (`len` samples of an input shaped `dims`) into the
    /// range's input and runs the whole plan over them.
    fn run<L: Layer + ?Sized>(&mut self, layer: &L, dims: &[usize], rows: &[f32], len: usize) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.dims[0] = len;
        self.input.resize_to(&self.dims);
        self.input.as_mut_slice().copy_from_slice(rows);
        layer.infer(&self.input, &mut self.out, &mut self.ws);
    }
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

/// [`Layer::infer`] into a fresh output on a cold [`Workspace`]: the
/// training forward of a layer whose training arithmetic is its inference
/// body, after it has stored what its backward reads.
pub(crate) fn infer_fresh<L: Layer + ?Sized>(layer: &L, input: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&[0]);
    layer.infer(input, &mut out, &mut Workspace::new());
    out
}

/// Copies `t` into a training cache `slot`, reusing the buffer the slot
/// holds from the last step.
pub(crate) fn store(slot: &mut Option<Tensor>, t: &Tensor) {
    let kept = slot.get_or_insert_with(|| Tensor::zeros(&[0]));
    kept.resize_to(t.dims());
    kept.as_mut_slice().copy_from_slice(t.as_slice());
}

/// Whether `layer` is, or contains, a [`Conv2d`].
fn has_conv<L: Layer + ?Sized>(layer: &L) -> bool {
    let mut found = layer.as_conv2d().is_some();
    layer.for_each_child(&mut |child| found = found || has_conv(child));
    found
}

/// How many contiguous sample ranges [`infer_sharded`] splits a batch of `n`
/// into at a thread target of `threads`: one per thread, at most one per
/// sample — unless the batch cannot be split, there is no second thread, the
/// caller already is a pool worker (a fan-out would run inline), or the plan
/// holds no convolution. A conv-free plan (an MLP) costs a few microseconds
/// per batch, less than one pool dispatch and join (`docs/PERF.md`, "One
/// fan-out per batch").
fn shard_count<L: Layer + ?Sized>(layer: &L, n: usize, threads: usize, on_pool: bool) -> usize {
    if n < 2 || threads < 2 || on_pool || !has_conv(layer) {
        1
    } else {
        threads.min(n)
    }
}

/// The one inference step behind every entry point — [`Layer::forward`]
/// with `train == false`, [`crate::Network::infer`] and
/// [`crate::Network::infer_with`]: [`Layer::infer`] over the whole batch on
/// the calling thread, or, when [`shard_count`] says so, one pool task per
/// contiguous sample range, each running the whole plan serially over its
/// own sub-workspace (a pool task's layers do not fan out again), and one
/// join that concatenates the output rows.
///
/// The bits do not depend on the split: no layer mixes samples at
/// inference, and every GEMM tile is stored by one rule wherever a range
/// boundary cuts the batched route's register strips.
pub(crate) fn infer_sharded<L: Layer + ?Sized>(
    layer: &L,
    input: &Tensor,
    out: &mut Tensor,
    ws: &mut Workspace,
) {
    let n = input.dims().first().copied().unwrap_or(0);
    let shards = shard_count(
        layer,
        n,
        hs_parallel::num_threads(),
        hs_parallel::inside_pool(),
    );
    if shards == 1 {
        return layer.infer(input, out, ws);
    }
    if ws.shards.len() < shards {
        ws.shards.resize_with(shards, Shard::new);
    }
    let shards = &mut ws.shards[..shards];
    let (in_dims, x) = (input.dims(), input.as_slice());
    let row = x.len() / n;
    let count = shards.len();
    hs_parallel::scope(|s| {
        for (i, shard) in shards.iter_mut().enumerate() {
            let (lo, hi) = (i * n / count, (i + 1) * n / count);
            let rows = &x[lo * row..hi * row];
            s.spawn(move || shard.run(layer, in_dims, rows, hi - lo));
        }
    });
    let first = &mut shards[0];
    first.dims.clear();
    first.dims.extend_from_slice(first.out.dims());
    first.dims[0] = n;
    out.resize_to(&first.dims);
    let mut rows = out.as_mut_slice();
    for shard in shards.iter() {
        let (head, rest) = rows.split_at_mut(shard.out.len());
        head.copy_from_slice(shard.out.as_slice());
        rows = rest;
    }
}

/// A differentiable network building block.
///
/// A layer has one training forward and one inference forward:
///
/// * [`Layer::forward_train`] caches whatever [`Layer::backward`] needs
///   (inputs, intermediate activations); `backward` turns that cache
///   into the gradient with respect to the layer input while accumulating
///   parameter gradients into the layer's [`Param`]s. Where training and
///   inference compute the same function (every leaf but batch norm),
///   `forward_train` stores what `backward` reads and runs `infer`: one
///   forward body per layer.
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
    /// `train` (batch-norm batch statistics, gradient caches), otherwise the
    /// inference step of [`crate::Network::infer`] (sharded by sample range
    /// where that pays) on a cold [`Workspace`] — the same arithmetic,
    /// paying the allocations a kept workspace saves.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            return self.forward_train(input);
        }
        let mut out = Tensor::zeros(&[0]);
        infer_sharded(&*self, input, &mut out, &mut Workspace::new());
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

    /// The inference forward (batch-norm running statistics): writes
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
    /// as a GEMM-epilogue activation (ReLU, hard-swish). `None` for
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
    fn the_shard_rule_splits_only_convolutional_batches_off_the_pool() {
        use crate::{BatchNorm2d, Flatten, Linear, Relu, Sequential};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(12, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]);
        let bare = Conv2d::new(3, 4, 3, 1, 1, 1, &mut rng);
        // the conv of a fused block sits two levels below the top stack
        let mut fused = Sequential::new(vec![Box::new(Sequential::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(Relu::new()),
        ]))]);
        fused.fuse_inference();
        for (threads, n) in [(1, 1), (2, 8), (4, 3), (4, 32)] {
            assert_eq!(shard_count(&mlp, n, threads, false), 1, "conv-free");
        }
        for plan in [&bare as &dyn Layer, &fused] {
            let name = plan.name();
            assert_eq!(shard_count(plan, 0, 4, false), 1, "{name}: empty batch");
            assert_eq!(shard_count(plan, 1, 4, false), 1, "{name}: one sample");
            assert_eq!(shard_count(plan, 8, 1, false), 1, "{name}: one thread");
            assert_eq!(shard_count(plan, 8, 4, true), 1, "{name}: on a pool worker");
            for (threads, n, shards) in [(2, 2, 2), (2, 8, 2), (4, 3, 3), (4, 8, 4)] {
                assert_eq!(shard_count(plan, n, threads, false), shards, "{name}");
            }
        }
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
