//! Fully-connected (dense) layer.

use crate::layer::{infer_fresh, store};
use crate::{Layer, Param, State, Workspace};
use hs_tensor::{he_normal, EpilogueAct, Tensor};
use rand::rngs::StdRng;

/// A fully-connected layer computing `y = x W^T + b`.
///
/// Input shape `[n, in_features]`, output shape `[n, out_features]`.
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a new dense layer with He-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = Param::new(he_normal(&[out_features, in_features], in_features, rng));
        let bias = Param::new(Tensor::zeros(&[out_features]));
        Linear {
            weight,
            bias,
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The inference forward into `out` (resized in place): `y = x W^T + b`
    /// followed by `act`, with the bias add and activation fused into one
    /// pass over the output instead of two separate tensor traversals.
    /// [`Layer::infer`] is this with no activation; [`crate::FusedLinearAct`]
    /// passes its own.
    pub(crate) fn infer_act(&self, input: &Tensor, act: EpilogueAct, out: &mut Tensor) {
        assert_eq!(input.rank(), 2, "Linear expects a [n, features] input");
        assert_eq!(
            input.dims()[1],
            self.in_features,
            "Linear expects {} input features, got {}",
            self.in_features,
            input.dims()[1]
        );
        let n = input.dims()[0];
        out.resize_to(&[n, self.out_features]);
        hs_tensor::gemm_nt(
            input.as_slice(),
            self.weight.value.as_slice(),
            out.as_mut_slice(),
            n,
            self.in_features,
            self.out_features,
        );
        let b = self.bias.value.as_slice();
        for row in out.as_mut_slice().chunks_mut(self.out_features) {
            for (o, &bv) in row.iter_mut().zip(b.iter()) {
                *o = act.apply(*o + bv);
            }
        }
    }
}

impl Layer for Linear {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        store(&mut self.cached_input, input);
        infer_fresh(self, input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward(train=true)");
        // grad_w = grad_out^T  x  input  -> [out, in]
        let grad_w = grad_out.matmul_tn(input);
        self.weight.accumulate_grad(&grad_w);
        // grad_b = column sums of grad_out
        let grad_b = grad_out.sum_axis(0);
        self.bias.accumulate_grad(&grad_b);
        // grad_input = grad_out x W -> [n, in]
        grad_out.matmul(&self.weight.value)
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        self.infer_act(input, EpilogueAct::None, out);
    }

    /// Weight, then bias.
    fn for_each_state<'a>(&'a mut self, f: &mut dyn FnMut(State<'a>)) {
        f(State::Param(&mut self.weight));
        f(State::Param(&mut self.bias));
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(5, 3, &mut rng);
        let x = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng);
        let y = l.forward(&x, false);
        assert_eq!(y.dims(), &[4, 3]);
    }

    #[test]
    fn identity_weight_passthrough() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 3, &mut rng);
        l.weight.value = Tensor::eye(3);
        l.bias.value = Tensor::zeros(&[3]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = l.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);

        // analytic gradient of sum(output) w.r.t. weight[0][0]
        let y = l.forward(&x, true);
        let grad_out = Tensor::ones(y.dims());
        let grad_in = l.backward(&grad_out);
        let analytic_w = l.weight.grad.at(&[0, 0]);

        // numerical gradient
        let eps = 1e-3;
        let base_w = l.weight.value.at(&[0, 0]);
        *l.weight.value.at_mut(&[0, 0]) = base_w + eps;
        let plus = l.forward(&x, false).sum();
        *l.weight.value.at_mut(&[0, 0]) = base_w - eps;
        let minus = l.forward(&x, false).sum();
        *l.weight.value.at_mut(&[0, 0]) = base_w;
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic_w - numerical).abs() < 1e-2,
            "analytic {analytic_w} vs numerical {numerical}"
        );

        // input gradient: d sum(xW^T+b) / dx = column sums of W
        let w_col_sum = l.weight.value.sum_axis(0);
        for j in 0..3 {
            assert!((grad_in.at(&[0, j]) - w_col_sum.at(&[j])).abs() < 1e-5);
        }
    }

    #[test]
    fn params_report_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(4, 2, &mut rng);
        let (params, buffers) = crate::states(&mut l);
        assert!(buffers.is_empty());
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].value.dims(), &[2, 4]);
        assert_eq!(params[1].value.dims(), &[2]);
    }
}
