//! Batch normalisation over the channel axis of `[n, c, h, w]` tensors.

use crate::{Layer, Param, Workspace};
use hs_tensor::Tensor;

/// Batch normalisation for convolutional feature maps.
///
/// During training the layer normalises with batch statistics and updates the
/// running mean/variance buffers; during inference it uses the running
/// statistics. The running buffers are exposed through
/// [`Layer::buffers_mut`] so the federated-learning server aggregates them
/// along with the trainable parameters, matching the behaviour of FedAvg on
/// standard deep-learning frameworks.
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    // forward cache
    cached_normalized: Option<Tensor>,
    cached_std_inv: Option<Vec<f32>>,
    cached_dims: Option<Vec<usize>>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cached_normalized: None,
            cached_std_inv: None,
            cached_dims: None,
        }
    }

    /// Number of channels this layer normalises.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Folds the inference normalisation into a per-channel affine
    /// `y = scale[c] * x + shift[c]` with `scale = gamma / sqrt(var + eps)`
    /// and `shift = beta - mean * scale`, writing one entry per channel into
    /// the caller's slices. This is the form the fusion pass feeds into the
    /// GEMM epilogue (after also folding the convolution bias into `shift`).
    pub(crate) fn fold_inference(&self, scale: &mut [f32], shift: &mut [f32]) {
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        let mean = self.running_mean.as_slice();
        let var = self.running_var.as_slice();
        for c in 0..self.channels {
            let s = gamma[c] / (var[c] + self.eps).sqrt();
            scale[c] = s;
            shift[c] = beta[c] - mean[c] * s;
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "BatchNorm2d expects a [n, c, h, w] input");
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let x = input.as_slice();
        let count = (n * h * w) as f32;
        let hw = h * w;

        let mut out = vec![0.0f32; x.len()];
        let mut normalized = vec![0.0f32; x.len()];
        let mut std_inv = vec![0.0f32; c];

        for ci in 0..c {
            let mut mean = 0.0f32;
            for ni in 0..n {
                let off = ni * c * hw + ci * hw;
                mean += x[off..off + hw].iter().sum::<f32>();
            }
            mean /= count;
            let mut var = 0.0f32;
            for ni in 0..n {
                let off = ni * c * hw + ci * hw;
                var += x[off..off + hw]
                    .iter()
                    .map(|&v| (v - mean).powi(2))
                    .sum::<f32>();
            }
            var /= count;
            // update running statistics
            let rm = self.running_mean.as_mut_slice();
            let rv = self.running_var.as_mut_slice();
            rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean;
            rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var;
            let inv = 1.0 / (var + self.eps).sqrt();
            std_inv[ci] = inv;
            let g = self.gamma.value.as_slice()[ci];
            let b = self.beta.value.as_slice()[ci];
            for ni in 0..n {
                let off = ni * c * hw + ci * hw;
                for i in 0..hw {
                    let norm = (x[off + i] - mean) * inv;
                    normalized[off + i] = norm;
                    out[off + i] = g * norm + b;
                }
            }
        }

        self.cached_normalized = Some(Tensor::from_vec(normalized, dims));
        self.cached_std_inv = Some(std_inv);
        self.cached_dims = Some(dims.to_vec());
        Tensor::from_vec(out, dims)
    }

    /// A single fused per-channel affine pass over the input using running
    /// statistics.
    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        assert_eq!(input.rank(), 4, "BatchNorm2d expects a [n, c, h, w] input");
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let hw = h * w;
        let x = input.as_slice();
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        let mean = self.running_mean.as_slice();
        let var = self.running_var.as_slice();
        out.resize_to(dims);
        let o = out.as_mut_slice();
        for ci in 0..c {
            let s = gamma[ci] / (var[ci] + self.eps).sqrt();
            let t = beta[ci] - mean[ci] * s;
            for ni in 0..n {
                let off = (ni * c + ci) * hw;
                for (ov, &xv) in o[off..off + hw].iter_mut().zip(x[off..off + hw].iter()) {
                    *ov = s * xv + t;
                }
            }
        }
    }

    fn as_batch_norm(&self) -> Option<&BatchNorm2d> {
        Some(self)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let normalized = self
            .cached_normalized
            .as_ref()
            .expect("backward called before forward(train=true)");
        let std_inv = self.cached_std_inv.as_ref().expect("missing cache");
        let dims = self.cached_dims.clone().expect("missing cache");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = h * w;
        let count = (n * hw) as f32;

        let go = grad_out.as_slice();
        let norm = normalized.as_slice();
        let gamma = self.gamma.value.as_slice().to_vec();

        let mut grad_gamma = vec![0.0f32; c];
        let mut grad_beta = vec![0.0f32; c];
        let mut grad_in = vec![0.0f32; go.len()];

        for ci in 0..c {
            // per-channel reductions
            let mut sum_go = 0.0f32;
            let mut sum_go_norm = 0.0f32;
            for ni in 0..n {
                let off = ni * c * hw + ci * hw;
                for i in 0..hw {
                    sum_go += go[off + i];
                    sum_go_norm += go[off + i] * norm[off + i];
                }
            }
            grad_beta[ci] = sum_go;
            grad_gamma[ci] = sum_go_norm;
            let g = gamma[ci];
            let inv = std_inv[ci];
            for ni in 0..n {
                let off = ni * c * hw + ci * hw;
                for i in 0..hw {
                    // standard batch-norm backward:
                    // dx = gamma * inv / m * (m*dy - sum(dy) - x_hat * sum(dy*x_hat))
                    grad_in[off + i] = g * inv / count
                        * (count * go[off + i] - sum_go - norm[off + i] * sum_go_norm);
                }
            }
        }

        self.gamma
            .accumulate_grad(&Tensor::from_vec(grad_gamma, &[c]));
        self.beta
            .accumulate_grad(&Tensor::from_vec(grad_beta, &[c]));
        Tensor::from_vec(grad_in, &dims)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.running_mean, &mut self.running_var]
    }

    fn name(&self) -> &'static str {
        "batch_norm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_output_is_normalised_per_channel() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::rand_uniform(&[4, 3, 6, 6], 2.0, 5.0, &mut rng);
        let y = bn.forward(&x, true);
        // each channel of the output should be ~zero-mean, ~unit-variance
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                for i in 0..6 {
                    for j in 0..6 {
                        vals.push(y.at(&[ni, ci, i, j]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn inference_uses_running_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::rand_uniform(&[8, 2, 4, 4], 0.0, 1.0, &mut rng);
        // several training passes move the running stats towards the batch stats
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        let y_train = bn.forward(&x, true);
        let y_eval = bn.forward(&x, false);
        // with converged running stats, train and eval outputs should agree closely
        for (a, b) in y_train.as_slice().iter().zip(y_eval.as_slice()) {
            assert!((a - b).abs() < 0.1);
        }
    }

    #[test]
    fn buffers_expose_running_stats() {
        let mut bn = BatchNorm2d::new(4);
        assert_eq!(bn.buffers_mut().len(), 2);
        assert_eq!(bn.params_mut().len(), 2);
    }

    #[test]
    fn gradient_sums_are_consistent() {
        // The gradient w.r.t. beta equals the sum of upstream gradients.
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::rand_uniform(&[2, 2, 3, 3], -1.0, 1.0, &mut rng);
        let y = bn.forward(&x, true);
        let grad_out = Tensor::rand_uniform(y.dims(), -1.0, 1.0, &mut rng);
        let _ = bn.backward(&grad_out);
        let expected: f32 = (0..2)
            .map(|ni| {
                (0..3)
                    .map(|i| (0..3).map(|j| grad_out.at(&[ni, 0, i, j])).sum::<f32>())
                    .sum::<f32>()
            })
            .sum();
        assert!((bn.params_mut()[1].grad.at(&[0]) - expected).abs() < 1e-4);
    }

    #[test]
    fn input_gradient_matches_numerical() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bn = BatchNorm2d::new(1);
        let mut x = Tensor::rand_uniform(&[2, 1, 2, 2], -1.0, 1.0, &mut rng);
        // weight the output so the gradient is non-trivial
        let weights = Tensor::rand_uniform(&[2, 1, 2, 2], 0.5, 1.5, &mut rng);

        let y = bn.forward(&x, true);
        let _ = y;
        let grad_in = bn.backward(&weights);
        let analytic = grad_in.at(&[0, 0, 1, 0]);

        let eps = 1e-3;
        let base = x.at(&[0, 0, 1, 0]);
        // numerical: fresh layers so running stats do not interfere
        let mut bn_plus = BatchNorm2d::new(1);
        *x.at_mut(&[0, 0, 1, 0]) = base + eps;
        let plus = bn_plus.forward(&x, true).mul(&weights).sum();
        let mut bn_minus = BatchNorm2d::new(1);
        *x.at_mut(&[0, 0, 1, 0]) = base - eps;
        let minus = bn_minus.forward(&x, true).mul(&weights).sum();
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic - numerical).abs() < 0.05,
            "analytic {analytic} vs numerical {numerical}"
        );
    }
}
