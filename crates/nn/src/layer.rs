//! The [`Layer`] trait implemented by every building block of the network
//! stack, and the one structural walk over a layer tree.
//!
//! The walk decides the order state is visited in, and with it the flat
//! weight layout that FL aggregation, SWAD, the FedProx / Scaffold
//! corrections and checkpoints all share: a container yields its children
//! ([`Layer::for_each_child_mut`]) in **weight order**, a leaf yields its
//! parameters and buffers ([`Layer::for_each_state`]), and the flat vector
//! is every parameter in walk order followed by every buffer in walk order.

use crate::{Conv2d, Param};
use hs_tensor::{EpilogueAct, Tensor};
use std::any::{Any, TypeId};

/// One piece of a leaf's state, as [`Layer::for_each_state`] yields it.
pub enum State<'a> {
    /// A trainable parameter (value + gradient).
    Param(&'a mut Param),
    /// A non-trainable tensor that still travels with the weights (batch-norm
    /// running statistics).
    Buffer(&'a mut Tensor),
}

/// The state under `layer`, collected in walk order and split into the two
/// halves of the flat layout: every parameter store, then every buffer. This
/// is the `Vec` view for tests and the checkpoint codec; hot paths walk
/// ([`Layer::for_each_state`]) and collect nothing.
pub fn states<L: Layer + ?Sized>(layer: &mut L) -> (Vec<&mut Param>, Vec<&mut Tensor>) {
    let (mut params, mut buffers) = (Vec::new(), Vec::new());
    layer.for_each_state(&mut |s| match s {
        State::Param(p) => params.push(p),
        State::Buffer(b) => buffers.push(b),
    });
    (params, buffers)
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
/// a shared `&Network` each bring their own. A convolutional batch runs in
/// sample tiles of 8 192 input pixels (8 samples at 32×32), so the pool
/// stops growing with the batch; a batch split across the pool keeps one
/// sub-workspace per sample range in here too. A warm tiled or ranged pass allocates
/// nothing either (beyond the pool's own per-task boxes when the ranges fan
/// out).
#[derive(Default)]
pub struct Workspace {
    free: Vec<Tensor>,
    /// Per-sample-range state of a batch split across the pool
    /// ([`infer_sharded`]), indexed by range, so each range meets the
    /// tensors it sized last time. Its first entry's tile buffers also
    /// serve a batch that runs in tiles on the calling thread.
    shards: Vec<Shard>,
}

/// One sample range of a batch split across the pool: the range's output
/// rows, the sub-workspace its tiles run over, and their buffers.
struct Shard {
    out: Tensor,
    ws: Workspace,
    tiles: Tiles,
}

/// What one tile of samples reads and writes besides the workspace: its
/// input rows, and its output rows when the range has more than one tile.
struct Tiles {
    input: Tensor,
    out: Tensor,
    /// Scratch for a `[batch, ...]` shape, resized without allocating.
    dims: Vec<usize>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            out: Tensor::zeros(&[0]),
            ws: Workspace::new(),
            tiles: Tiles::new(),
        }
    }
}

impl Tiles {
    fn new() -> Self {
        Tiles {
            input: Tensor::zeros(&[0]),
            out: Tensor::zeros(&[0]),
            dims: Vec::new(),
        }
    }

    /// Runs the whole plan over `len` samples (`rows`, of an input shaped
    /// `dims`) in tiles of [`tile`] samples over `ws`, each tile's output
    /// rows copied into place in `out`. A range of one tile writes `out`
    /// itself.
    fn run<L: Layer + ?Sized>(
        &mut self,
        layer: &L,
        dims: &[usize],
        rows: &[f32],
        len: usize,
        out: &mut Tensor,
        ws: &mut Workspace,
    ) {
        let (row, step) = (rows.len() / len, tile(dims));
        for lo in (0..len).step_by(step) {
            let hi = (lo + step).min(len);
            self.dims.clear();
            self.dims.extend_from_slice(dims);
            self.dims[0] = hi - lo;
            self.input.resize_to(&self.dims);
            self.input
                .as_mut_slice()
                .copy_from_slice(&rows[lo * row..hi * row]);
            if hi - lo == len {
                return layer.infer(&self.input, out, ws);
            }
            layer.infer(&self.input, &mut self.out, ws);
            if lo == 0 {
                self.dims.clear();
                self.dims.extend_from_slice(self.out.dims());
                self.dims[0] = len;
                out.resize_to(&self.dims);
            }
            let per = self.out.len() / (hi - lo);
            out.as_mut_slice()[lo * per..hi * per].copy_from_slice(self.out.as_slice());
        }
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
    // `Any::type_id` reaches an unsized `L` (a `dyn Layer`) through its
    // vtable, where `downcast_ref` needs the `dyn Layer` itself
    let mut found = layer.type_id() == TypeId::of::<Conv2d>();
    layer.for_each_child(&mut |child| found = found || has_conv(child));
    found
}

/// The input pixels (spatial positions) one tile of a convolutional plan
/// covers. A plan's scratch grows with its input's spatial size, and the
/// most any zoo plan keeps per input pixel is ≈ 270 B (SimpleCnn; 157 B for
/// MobileNetV3-small, `docs/PERF.md`, "Inference in sample tiles"), so one
/// tile's workspace stays near 2 MiB, one core's L2 on the reference host
/// (`nproc=2 simd=avx512f`): 8 samples at 32×32 (`vision`, and every
/// serving batch there), 32 at 16×16 (a quick-scale client's whole batch).
const TILE_PIXELS: usize = 8192;

/// The samples one tile of a convolutional plan runs for an input shaped
/// `dims` (`[batch, channels, spatial...]`): [`TILE_PIXELS`] over the
/// pixels of one sample, at least one.
fn tile(dims: &[usize]) -> usize {
    let pixels: usize = dims.iter().skip(2).product();
    (TILE_PIXELS / pixels.max(1)).max(1)
}

/// How [`infer_sharded`] cuts a batch of `n` at a thread target of
/// `threads` when its tile is `tile` samples: `None` for one pass over the
/// whole batch, else `Some(ranges)` contiguous sample ranges, each running
/// in tiles.
///
/// A convolutional plan takes one range per thread, at most one per sample
/// — unless the batch cannot be split, there is no second thread, or the
/// caller already is a pool worker (a fan-out would run inline) — and runs
/// a single range whole when it fits one tile, before the plan is walked.
/// A conv-free plan (an MLP) costs a few microseconds per batch, less than
/// one pool dispatch and join (`docs/PERF.md`, "One fan-out per batch"),
/// and runs whole.
fn split<L: Layer + ?Sized>(
    layer: &L,
    n: usize,
    threads: usize,
    on_pool: bool,
    tile: usize,
) -> Option<usize> {
    let ranges = if n < 2 || threads < 2 || on_pool {
        1
    } else {
        threads.min(n)
    };
    if (ranges == 1 && n <= tile) || !has_conv(layer) {
        None
    } else {
        Some(ranges)
    }
}

/// The one inference step behind every entry point — [`Layer::forward`]
/// with `train == false`, [`crate::Network::infer`] and
/// [`crate::Network::infer_with`]. A batch of one tile takes
/// [`Layer::infer`] on the calling thread. Anything else runs the ranges of
/// [`split`] in tiles ([`Tiles::run`]): one range on the calling thread over
/// the caller's workspace, several as one pool task each (a pool task's
/// layers do not fan out again) over a sub-workspace each, their output
/// rows concatenated.
///
/// The bits do not depend on the cut: no layer mixes samples at inference,
/// and every GEMM tile is stored by one rule wherever a range or tile
/// boundary cuts the batched route's register strips.
pub(crate) fn infer_sharded<L: Layer + ?Sized>(
    layer: &L,
    input: &Tensor,
    out: &mut Tensor,
    ws: &mut Workspace,
) {
    let n = input.dims().first().copied().unwrap_or(0);
    let (threads, on_pool) = (hs_parallel::num_threads(), hs_parallel::inside_pool());
    let Some(ranges) = split(layer, n, threads, on_pool, tile(input.dims())) else {
        return layer.infer(input, out, ws);
    };
    let mut shards = std::mem::take(&mut ws.shards);
    if shards.len() < ranges {
        shards.resize_with(ranges, Shard::new);
    }
    let (in_dims, x) = (input.dims(), input.as_slice());
    if ranges == 1 {
        shards[0].tiles.run(layer, in_dims, x, n, out, ws);
    } else {
        let shards = &mut shards[..ranges];
        let row = x.len() / n;
        hs_parallel::scope(|s| {
            for (i, shard) in shards.iter_mut().enumerate() {
                let (lo, hi) = (i * n / ranges, (i + 1) * n / ranges);
                let rows = &x[lo * row..hi * row];
                let Shard { out, ws, tiles } = shard;
                s.spawn(move || tiles.run(layer, in_dims, rows, hi - lo, out, ws));
            }
        });
        let first = &mut shards[0];
        first.tiles.dims.clear();
        first.tiles.dims.extend_from_slice(first.out.dims());
        first.tiles.dims[0] = n;
        out.resize_to(&first.tiles.dims);
        let mut rows = out.as_mut_slice();
        for shard in shards.iter() {
            let (head, rest) = rows.split_at_mut(shard.out.len());
            head.copy_from_slice(shard.out.as_slice());
            rows = rest;
        }
    }
    ws.shards = shards;
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
/// Structure is one walk. A container implements
/// [`Layer::for_each_child`] and [`Layer::for_each_child_mut`], yielding
/// the same children in the same (weight) order; a leaf implements
/// [`Layer::for_each_state`]. Everything else that recurses —
/// [`Layer::fuse_inference`], a container's
/// `for_each_state` — is a provided method over that walk, so no container
/// forwards state by hand. `Layer: Any`, so a caller that needs the concrete
/// type of a visited layer (the fusion pass, a structural test) asks for it
/// with [`downcast_ref`](#method.downcast_ref); [`Layer::epilogue_act`] says
/// which activation a layer computes. Nothing outside a layer can reach into
/// it through the read-only walk to change what its inference runs.
pub trait Layer: Any + Send + Sync {
    /// Computes the layer output for `input`: [`Layer::forward_train`] when
    /// `train` (batch-norm batch statistics, gradient caches), otherwise the
    /// inference step of [`crate::Network::infer`] (in sample ranges and
    /// tiles where that pays) on a cold [`Workspace`] — the same arithmetic,
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

    /// Rewrites runs of layers for fused inference (conv/BN/activation and
    /// linear/activation runs collapse into fused layers; see
    /// [`crate::fuse`]). Only [`crate::Sequential`], which owns the runs,
    /// rewrites; everything else recurses into its children.
    fn fuse_inference(&mut self) {
        self.for_each_child_mut(&mut |child| child.fuse_inference());
    }

    /// Visits this layer's direct children, read-only: a container or block
    /// yields its body (or bodies), a fused layer the original layers it
    /// owns; leaves have none. The order is **weight order**, the one
    /// [`Layer::for_each_child_mut`] yields and the flat weight layout
    /// follows — not necessarily execution order (a ShuffleNetV2
    /// downsampling unit runs its projection branch first but yields its
    /// main branch first, where checkpoints and FL vectors put it).
    /// [`crate::Network::for_each_layer`] is the recursive walk.
    fn for_each_child(&self, _f: &mut dyn FnMut(&dyn Layer)) {}

    /// [`Layer::for_each_child`]'s mutable twin: the same children in the
    /// same order. The recursion behind [`Layer::for_each_state`] and
    /// [`Layer::fuse_inference`].
    fn for_each_child_mut<'a>(&'a mut self, _f: &mut dyn FnMut(&'a mut dyn Layer)) {}

    /// Visits every parameter and buffer under this layer in walk order. A
    /// leaf yields its own state — parameters and buffers each in a fixed
    /// order — and a container, by default, its children's.
    fn for_each_state<'a>(&'a mut self, f: &mut dyn FnMut(State<'a>)) {
        self.for_each_child_mut(&mut |child| child.for_each_state(&mut *f));
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

impl dyn Layer {
    /// This layer as a `T`, when it is one.
    pub fn downcast_ref<T: Layer>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }
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
        let (params, buffers) = states(&mut id);
        assert!(params.is_empty() && buffers.is_empty());
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
        // not an activation, and a leaf: no children either way
        assert!(id.epilogue_act().is_none());
        id.for_each_child(&mut |_| panic!("a leaf has no children"));
        id.for_each_child_mut(&mut |_| panic!("a leaf has no children"));
        // forward(_, false) is infer on a cold workspace
        assert_eq!(id.forward(&x, false), x);
        // fuse_inference recurses into nothing
        id.fuse_inference();
    }

    #[test]
    fn downcast_ref_names_the_concrete_type() {
        use crate::{BatchNorm2d, Linear};
        let layer: Box<dyn Layer> = Box::new(BatchNorm2d::new(3));
        assert_eq!(
            layer.downcast_ref::<BatchNorm2d>().map(|bn| bn.channels()),
            Some(3)
        );
        assert!(layer.downcast_ref::<Linear>().is_none());
        assert!(layer.downcast_ref::<Conv2d>().is_none());
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
        for (threads, n) in [(1, 1), (2, 8), (4, 3), (4, 32), (1, 120)] {
            for on_pool in [false, true] {
                assert_eq!(
                    split(&mlp, n, threads, on_pool, 1),
                    None,
                    "conv-free: whole"
                );
            }
        }
        for plan in [&bare as &dyn Layer, &fused] {
            let name = plan.name();
            assert_eq!(split(plan, 0, 4, false, 1), None, "{name}: empty batch");
            assert_eq!(split(plan, 1, 4, false, 1), None, "{name}: one sample");
            assert_eq!(split(plan, 8, 1, false, 8), None, "{name}: one tile");
            assert_eq!(split(plan, 8, 4, true, 32), None, "{name}: on the pool");
            assert_eq!(split(plan, 9, 1, false, 8), Some(1), "{name}: one thread");
            assert_eq!(split(plan, 120, 4, true, 8), Some(1), "{name}: on the pool");
            // off the pool a batch splits whatever its tile
            for (threads, n, shards) in [(2, 2, 2), (2, 8, 2), (4, 3, 3), (4, 8, 4), (2, 120, 2)] {
                assert_eq!(
                    split(plan, n, threads, false, usize::MAX),
                    Some(shards),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn a_tile_covers_a_fixed_number_of_input_pixels() {
        assert_eq!(
            tile(&[120, 3, 32, 32]),
            8,
            "vision: a serving batch is one tile"
        );
        assert_eq!(
            tile(&[120, 1, 32, 32]),
            8,
            "a RAW mosaic: channels do not count"
        );
        assert_eq!(
            tile(&[24, 3, 16, 16]),
            32,
            "quick scale: a client's batch is one tile"
        );
        assert_eq!(tile(&[2, 3, 256, 256]), 1, "at least one sample");
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
