//! Stochastic gradient descent.

use crate::Network;

/// Vanilla stochastic gradient descent: `w -= lr * grad`.
///
/// The HeteroSwitch paper trains every local model with plain SGD (appendix
/// A.2), with no momentum and no weight decay, so the optimiser holds only
/// the learning rate.
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
}

impl Sgd {
    /// Creates a vanilla SGD optimizer with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Applies one update step to every parameter of `net` using the
    /// gradients accumulated since the last [`Network::zero_grad`], then
    /// clears the gradients.
    pub fn step(&mut self, net: &mut Network) {
        net.for_each_param(|p| {
            p.value.add_scaled(&p.grad, -self.lr);
            p.zero_grad();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrossEntropyLoss, Linear, Loss, Network, Relu, Sequential, Target};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_net(rng: &mut StdRng) -> Network {
        Network::new(Sequential::new(vec![
            Box::new(Linear::new(4, 16, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(16, 3, rng)),
        ]))
    }

    #[test]
    fn sgd_reduces_loss_on_toy_problem() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = toy_net(&mut rng);
        let mut opt = Sgd::new(0.5);
        let x = hs_tensor::Tensor::rand_uniform(&[12, 4], -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let target = Target::Classes(labels);

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let logits = net.forward(&x, true);
            let (loss, grad) = CrossEntropyLoss.forward(&logits, &target);
            net.backward(&grad);
            opt.step(&mut net);
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss should halve: {first:?} -> {last}"
        );
    }

    #[test]
    fn step_clears_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = toy_net(&mut rng);
        let x = hs_tensor::Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng);
        let logits = net.forward(&x, true);
        let (_, grad) = CrossEntropyLoss.forward(&logits, &Target::Classes(vec![0, 1, 2]));
        net.backward(&grad);
        let mut opt = Sgd::new(0.01);
        opt.step(&mut net);
        net.for_each_param(|p| assert_eq!(p.grad.sum(), 0.0));
    }
}
