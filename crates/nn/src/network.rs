//! The [`Network`] wrapper: a trainable model whose parameters and buffers
//! can be flattened into a single weight vector for federated aggregation.
//!
//! Inference has one route, [`Layer::infer`] down the layer stack, with two
//! entry points that differ only in who owns the scratch:
//! [`Network::infer`] uses the network's own [`Workspace`] and output
//! buffer (exclusive access, nothing to manage), [`Network::infer_with`]
//! takes the caller's (shared access, one workspace per concurrent caller).
//! Both split a convolutional batch across the pool once, by sample range,
//! when there is a second thread to use, and each range runs the whole plan
//! in sample tiles of 8 192 input pixels (8 samples at 32×32), its rows
//! copied into place (`infer_sharded`).

use crate::layer::infer_sharded;
use crate::{Layer, Loss, Param, Sequential, State, Target, Workspace};
use hs_tensor::Tensor;

/// A trainable model: a [`Sequential`] stack plus the weight-vector plumbing
/// needed by federated learning (flatten / restore all parameters and
/// batch-norm buffers).
pub struct Network {
    /// The top-level stack (the checkpoint codec names buffers by its
    /// layers).
    pub(crate) layers: Sequential,
    /// Scratch and output buffer behind [`Network::infer`], warm after the
    /// first pass at each input shape.
    ws: Workspace,
    out: Tensor,
}

impl Network {
    /// Wraps a sequential layer stack into a network.
    pub fn new(layers: Sequential) -> Self {
        Network {
            layers,
            ws: Workspace::new(),
            out: Tensor::zeros(&[0]),
        }
    }

    /// Runs a forward pass. `train` enables training-time behaviour
    /// (batch statistics, gradient caches); without it this is
    /// [`Network::infer_with`] on a cold workspace.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.layers.forward(x, train)
    }

    /// The inference forward over the network's own workspace: after the
    /// first pass at a given input shape it allocates nothing on one
    /// thread, and on more only the pool's task boxes (one per sample
    /// range, plus the join's counter). Returns a
    /// reference to the network's output buffer (clone it if the result
    /// must outlive the next call).
    pub fn infer(&mut self, x: &Tensor) -> &Tensor {
        infer_sharded(&self.layers, x, &mut self.out, &mut self.ws);
        &self.out
    }

    /// The inference forward from shared access, so any number of threads
    /// can run one `&Network`, each over its own workspace. The returned
    /// tensor comes out of `ws`; [`Workspace::give`] it back once read and
    /// the next call reuses it (and, warm, allocates nothing).
    ///
    /// Bit-identical to [`Network::infer`] and `forward(x, false)`.
    pub fn infer_with(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut out = ws.take();
        infer_sharded(&self.layers, x, &mut out, ws);
        out
    }

    /// Rewrites the layer stack for fused inference: conv/BN/activation and
    /// linear/activation runs collapse into fused layers (recursively, so
    /// the model-zoo blocks fuse their inner stacks). Training behaviour and
    /// the flattened weight layout are unchanged; see [`crate::fuse`].
    pub fn fuse_inference(&mut self) {
        self.layers.fuse_inference();
    }

    /// Visits every layer of the network depth-first in walk order
    /// ([`Layer::for_each_child`]), parents before their children, passing
    /// each layer's nesting depth (0 for the top-level stack's layers). A
    /// [`Sequential`] nested in a block is that block's body, not a layer of
    /// its own: it is not visited, and its layers are the block's children.
    /// Read-only: with [`Layer::name`] and `<dyn Layer>::downcast_ref` it
    /// enumerates what the network is made of — e.g. which backend every
    /// convolution plans ([`crate::Conv2d::planned_algo`]) — without being
    /// able to change it.
    pub fn for_each_layer(&self, f: &mut dyn FnMut(usize, &dyn Layer)) {
        fn walk(layer: &dyn Layer, depth: usize, f: &mut dyn FnMut(usize, &dyn Layer)) {
            layer.for_each_child(&mut |child| {
                if child.downcast_ref::<Sequential>().is_some() {
                    walk(child, depth, f);
                } else {
                    f(depth, child);
                    walk(child, depth + 1, f);
                }
            });
        }
        walk(&self.layers, 0, f);
    }

    /// Back-propagates the loss gradient through every layer, accumulating
    /// parameter gradients.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.layers.backward(grad)
    }

    /// Visits every parameter and buffer in walk order
    /// ([`Layer::for_each_state`]): the order of the flat layout, which is
    /// every parameter followed by every buffer.
    pub fn for_each_state<'a>(&'a mut self, f: &mut dyn FnMut(State<'a>)) {
        self.layers.for_each_state(f);
    }

    /// Visits every parameter in walk order — the first half of the flat
    /// layout. Collects nothing: the optimizer step, the FedProx and
    /// Scaffold corrections and the weight-vector plumbing all walk here.
    pub fn for_each_param(&mut self, mut f: impl FnMut(&mut Param)) {
        self.for_each_state(&mut |s| {
            if let State::Param(p) = s {
                f(p);
            }
        });
    }

    /// Visits every buffer in walk order — the second half of the flat
    /// layout.
    fn for_each_buffer(&mut self, mut f: impl FnMut(&mut Tensor)) {
        self.for_each_state(&mut |s| {
            if let State::Buffer(b) = s {
                f(b);
            }
        });
    }

    /// Clears the accumulated gradient of every parameter.
    pub fn zero_grad(&mut self) {
        self.for_each_param(Param::zero_grad);
    }

    /// Total number of scalars in the flattened weight vector
    /// (parameters followed by buffers).
    pub fn num_weights(&mut self) -> usize {
        let mut n = 0;
        self.for_each_state(&mut |s| {
            n += match s {
                State::Param(p) => p.len(),
                State::Buffer(b) => b.len(),
            }
        });
        n
    }

    /// Flattens all parameters and buffers into a single vector.
    ///
    /// The layout is: every parameter value in walk order, followed by every
    /// buffer in walk order. [`Network::set_weights`] expects the same
    /// layout, so a vector produced by one replica of a model can be loaded
    /// into another replica built by the same constructor.
    pub fn weights(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_weights());
        self.for_each_param(|p| out.extend_from_slice(p.value.as_slice()));
        self.for_each_buffer(|b| out.extend_from_slice(b.as_slice()));
        out
    }

    /// Restores all parameters and buffers from a flat vector produced by
    /// [`Network::weights`] on a structurally identical network.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match [`Network::num_weights`].
    pub fn set_weights(&mut self, flat: &[f32]) {
        let expected = self.num_weights();
        assert_eq!(
            flat.len(),
            expected,
            "weight vector length {} does not match model size {}",
            flat.len(),
            expected
        );
        let mut rest = flat;
        let mut fill = |dst: &mut [f32]| {
            let (head, tail) = rest.split_at(dst.len());
            dst.copy_from_slice(head);
            rest = tail;
        };
        self.for_each_param(|p| fill(p.value.as_mut_slice()));
        self.for_each_buffer(|b| fill(b.as_mut_slice()));
    }

    /// Flattens the current parameter gradients (buffers contribute zeros),
    /// using the same layout as [`Network::weights`].
    pub fn gradients(&mut self) -> Vec<f32> {
        let len = self.num_weights();
        let mut out = Vec::with_capacity(len);
        self.for_each_param(|p| out.extend_from_slice(p.grad.as_slice()));
        out.resize(len, 0.0);
        out
    }

    /// Runs a full training step on one batch: forward, loss, backward.
    /// Returns the batch loss; the caller applies the optimizer.
    pub fn forward_backward(&mut self, x: &Tensor, target: &Target, loss: &dyn Loss) -> f32 {
        let out = self.forward(x, true);
        let (l, grad) = loss.forward(&out, target);
        self.backward(&grad);
        l
    }

    /// Evaluates the mean loss on a batch without touching gradients or
    /// batch-norm running statistics, through [`Network::infer`].
    pub fn eval_loss(&mut self, x: &Tensor, target: &Target, loss: &dyn Loss) -> f32 {
        let (l, _) = loss.forward(self.infer(x), target);
        l
    }

    /// Predicted class indices for a batch, through [`Network::infer`].
    pub fn predict_classes(&mut self, x: &Tensor) -> Vec<usize> {
        self.infer(x).argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrossEntropyLoss, Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(Sequential::new(vec![
            Box::new(Linear::new(6, 10, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(10, 4, &mut rng)),
        ]))
    }

    #[test]
    fn weights_round_trip() {
        let mut a = net(0);
        let mut b = net(99);
        let wa = a.weights();
        assert_eq!(wa.len(), a.num_weights());
        b.set_weights(&wa);
        assert_eq!(b.weights(), wa);
    }

    #[test]
    fn set_weights_changes_predictions() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let mut a = net(0);
        let mut b = net(99);
        let before = b.forward(&x, false);
        b.set_weights(&a.weights());
        let after = b.forward(&x, false);
        let same_as_a = a.forward(&x, false);
        assert_ne!(before.as_slice(), after.as_slice());
        assert_eq!(after.as_slice(), same_as_a.as_slice());
    }

    #[test]
    fn gradients_align_with_weights_layout() {
        let mut n = net(1);
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_uniform(&[3, 6], -1.0, 1.0, &mut rng);
        let loss = n.forward_backward(&x, &Target::Classes(vec![0, 1, 2]), &CrossEntropyLoss);
        assert!(loss.is_finite());
        let g = n.gradients();
        assert_eq!(g.len(), n.num_weights());
        assert!(g.iter().any(|&v| v != 0.0));
        n.zero_grad();
        assert!(n.gradients().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn set_weights_rejects_wrong_length() {
        let mut n = net(0);
        n.set_weights(&[0.0; 3]);
    }

    #[test]
    fn predict_classes_returns_batch_size() {
        let mut n = net(0);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&[5, 6], -1.0, 1.0, &mut rng);
        assert_eq!(n.predict_classes(&x).len(), 5);
    }
}
