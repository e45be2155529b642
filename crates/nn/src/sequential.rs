//! A container that chains layers in order.
//!
//! Inference ([`Layer::infer`]) ping-pongs the intermediate activations
//! between two tensors taken from the caller's [`Workspace`] and has the
//! last layer write straight into the caller's `out`, so a chain of any
//! depth — including the bodies of the zoo's composite blocks, which are
//! nested `Sequential`s — costs two pool slots and, warm, no allocation.
//! Training hands the caller's input to the first layer and the caller's
//! output gradient to the last, so a container adds no copy to either pass.

use crate::{Layer, Workspace};
use hs_tensor::Tensor;

/// Runs a list of layers in sequence; the workhorse container for every model
/// in the zoo.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Creates an empty container (useful with [`Sequential::push`]).
    pub fn empty() -> Self {
        Sequential::new(Vec::new())
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        // the first layer reads the caller's input; only an empty container
        // copies it
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward_train(input);
        for layer in rest {
            x = layer.forward_train(&x);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return grad_out.clone();
        };
        let mut g = last.backward(grad_out);
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, ws: &mut Workspace) {
        let Some((last, rest)) = self.layers.split_last() else {
            out.resize_to(input.dims());
            out.as_mut_slice().copy_from_slice(input.as_slice());
            return;
        };
        let Some((first, mid)) = rest.split_first() else {
            return last.infer(input, out, ws);
        };
        let (mut cur, mut next) = (ws.take(), ws.take());
        first.infer(input, &mut cur, ws);
        for layer in mid {
            layer.infer(&cur, &mut next, ws);
            std::mem::swap(&mut cur, &mut next);
        }
        last.infer(&cur, out, ws);
        // give back in reverse order of taking, whichever way the swaps
        // left the two names
        if mid.len() % 2 == 1 {
            std::mem::swap(&mut cur, &mut next);
        }
        ws.give(next);
        ws.give(cur);
    }

    fn fuse_inference(&mut self) {
        let layers = std::mem::take(&mut self.layers);
        self.layers = crate::fuse::fuse_layers(layers);
    }

    fn for_each_child(&self, f: &mut dyn FnMut(&dyn Layer)) {
        for layer in &self.layers {
            f(layer.as_ref());
        }
    }

    fn for_each_child_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut dyn Layer)) {
        for layer in &mut self.layers {
            f(layer.as_mut());
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chains_layers_in_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]);
        let x = Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        let y = seq.forward(&x, true);
        assert_eq!(y.dims(), &[3, 2]);
        let g = seq.backward(&Tensor::ones(&[3, 2]));
        assert_eq!(g.dims(), &[3, 4]);
    }

    #[test]
    fn aggregates_child_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]);
        // two linear layers, each with weight + bias
        assert_eq!(crate::layer::states(&mut seq).0.len(), 4);
    }

    #[test]
    fn push_grows_container() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = Sequential::empty();
        assert!(seq.is_empty());
        seq.push(Box::new(Linear::new(2, 2, &mut rng)));
        assert_eq!(seq.len(), 1);
    }
}
