//! Fully-connected (dense) layer.

use crate::layer::{infer_fresh, store};
use crate::{Layer, Param, ParamStore, State, Workspace};
use hs_tensor::{he_normal, DType, EpilogueAct, QTensor, Tensor, WeightMat};
use rand::rngs::StdRng;

/// A fully-connected layer computing `y = x W^T + b`.
///
/// Input shape `[n, in_features]`, output shape `[n, out_features]`.
pub struct Linear {
    weight: Param,
    bias: Param,
    /// Quantized inference weight (f16 or i8). When set, `weight` is emptied
    /// (halved/quartered resident bytes are the point) and the inference
    /// GEMM streams the quantized buffer, widening on transpose. Training is
    /// disabled while quantized.
    qweight: Option<QTensor>,
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
            qweight: None,
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

    /// Whether the layer currently holds a quantized weight.
    pub fn is_quantized(&self) -> bool {
        self.qweight.is_some()
    }

    /// The weight as a runtime-dtype GEMM operand.
    fn weight_mat(&self) -> WeightMat<'_> {
        match &self.qweight {
            Some(q) => q.as_mat(),
            None => WeightMat::F32(self.weight.value.as_slice()),
        }
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
        hs_tensor::gemm_nt_q(
            input.as_slice(),
            self.weight_mat(),
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
        assert!(
            self.qweight.is_none(),
            "Linear: cannot train a quantized layer — call to_dtype(DType::F32) first"
        );
        store(&mut self.cached_input, input);
        infer_fresh(self, input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            self.qweight.is_none(),
            "Linear: cannot backprop through a quantized layer — call to_dtype(DType::F32) first"
        );
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

    /// Weight, then bias; a quantized weight keeps the weight's position.
    fn for_each_state<'a>(&'a mut self, f: &mut dyn FnMut(State<'a>)) {
        f(State::Param(match &mut self.qweight {
            Some(q) => ParamStore::Quant(q),
            None => ParamStore::F32(&mut self.weight),
        }));
        f(State::Param(ParamStore::F32(&mut self.bias)));
    }

    fn to_dtype(&mut self, dtype: DType) {
        match (dtype, self.qweight.take()) {
            (DType::F32, Some(q)) => {
                self.weight.value = q.to_f32();
                self.weight.grad = Tensor::zeros(self.weight.value.dims());
                self.cached_input = None;
            }
            (DType::F32, None) => {}
            (_, prior) => {
                // quantize from the full-precision weight when we still have
                // it; otherwise re-quantize through f32 (lossless for the
                // same dtype, best-effort across dtypes)
                let f32_weight = match &prior {
                    Some(q) => q.to_f32(),
                    None => std::mem::replace(&mut self.weight.value, Tensor::zeros(&[0])),
                };
                self.qweight = QTensor::quantize(&f32_weight, dtype);
                self.weight.value = Tensor::zeros(&[0]);
                self.weight.grad = Tensor::zeros(&[0]);
                self.cached_input = None;
            }
        }
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
        assert_eq!(params[0].dims(), &[2, 4]);
        assert_eq!(params[1].dims(), &[2]);
    }

    #[test]
    fn quantized_inference_stays_close_and_round_trips() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut l = Linear::new(16, 8, &mut rng);
        let x = Tensor::rand_uniform(&[4, 16], -1.0, 1.0, &mut rng);
        let reference = l.forward(&x, false);
        let w_before = l.weight.value.clone();
        for dtype in [DType::F16, DType::I8] {
            l.to_dtype(dtype);
            assert!(l.is_quantized());
            // the quantized weight takes the f32 weight's place in the walk
            let (stores, _) = crate::states(&mut l);
            assert_eq!(stores.len(), 2);
            assert_eq!(stores[0].dtype(), dtype);
            assert_eq!(stores[0].dims(), &[8, 16]);
            assert_eq!(stores[1].dtype(), DType::F32);
            let y = l.forward(&x, false);
            let tol = if dtype == DType::F16 { 5e-3 } else { 5e-2 };
            for (a, b) in reference.as_slice().iter().zip(y.as_slice()) {
                assert!(
                    (a - b).abs() <= tol * a.abs().max(1.0),
                    "{dtype}: {a} vs {b}"
                );
            }
            l.to_dtype(DType::F32);
            assert!(!l.is_quantized());
        }
        // f16 -> f32 -> (weights round-trip within f16 precision); restore
        // the pristine weights first — the i8 round trip above was lossy
        l.weight.value = w_before.clone();
        l.to_dtype(DType::F16);
        l.to_dtype(DType::F32);
        for (a, b) in w_before.as_slice().iter().zip(l.weight.value.as_slice()) {
            assert!((a - b).abs() <= 4.9e-4 * a.abs().max(1e-3), "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot train a quantized layer")]
    fn training_a_quantized_layer_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut l = Linear::new(4, 2, &mut rng);
        l.to_dtype(DType::I8);
        let x = Tensor::zeros(&[1, 4]);
        let _ = l.forward(&x, true);
    }
}
