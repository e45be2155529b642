//! Batch normalisation over the channel axis of `[n, c, h, w]` tensors.

use crate::{Layer, Param, State, Workspace};
use hs_tensor::{LaneSum, Tensor};

/// Batch normalisation for convolutional feature maps.
///
/// During training the layer normalises with batch statistics and updates the
/// running mean/variance buffers; during inference it uses the running
/// statistics. The running buffers are yielded by
/// [`Layer::for_each_state`] so the federated-learning server aggregates them
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
        // the channel's run in sample ni
        let run = |ni: usize, ci: usize| (ni * c + ci) * hw..(ni * c + ci + 1) * hw;

        let mut out = vec![0.0f32; x.len()];
        let mut normalized = vec![0.0f32; x.len()];
        let mut std_inv = vec![0.0f32; c];
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        let rm = self.running_mean.as_mut_slice();
        let rv = self.running_var.as_mut_slice();

        for ci in 0..c {
            let mut sum = LaneSum::default();
            for ni in 0..n {
                sum.add(&x[run(ni, ci)]);
            }
            let mean = sum.total() / count;
            // the centred values go to `normalized` (scaled below), and
            // their dot product with themselves is the variance
            let mut sq = LaneSum::default();
            for ni in 0..n {
                let centred = &mut normalized[run(ni, ci)];
                for (d, &v) in centred.iter_mut().zip(&x[run(ni, ci)]) {
                    *d = v - mean;
                }
                sq.add_dot(centred, centred);
            }
            let var = sq.total() / count;
            // update running statistics
            rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean;
            rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var;
            let inv = 1.0 / (var + self.eps).sqrt();
            std_inv[ci] = inv;
            let (g, b) = (gamma[ci], beta[ci]);
            for ni in 0..n {
                let norm = &mut normalized[run(ni, ci)];
                for (nv, o) in norm.iter_mut().zip(&mut out[run(ni, ci)]) {
                    *nv *= inv;
                    *o = g * *nv + b;
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
        let gamma = self.gamma.value.as_slice();
        let run = |ni: usize, ci: usize| (ni * c + ci) * hw..(ni * c + ci + 1) * hw;

        let mut grad_gamma = vec![0.0f32; c];
        let mut grad_beta = vec![0.0f32; c];
        let mut grad_in = vec![0.0f32; go.len()];

        for ci in 0..c {
            // per-channel reductions
            let (mut sum_go, mut sum_go_norm) = (LaneSum::default(), LaneSum::default());
            for ni in 0..n {
                sum_go.add(&go[run(ni, ci)]);
                sum_go_norm.add_dot(&go[run(ni, ci)], &norm[run(ni, ci)]);
            }
            let (sum_go, sum_go_norm) = (sum_go.total(), sum_go_norm.total());
            grad_beta[ci] = sum_go;
            grad_gamma[ci] = sum_go_norm;
            // standard batch-norm backward:
            // dx = gamma * inv / m * (m*dy - sum(dy) - x_hat * sum(dy*x_hat))
            let scale = gamma[ci] * std_inv[ci] / count;
            for ni in 0..n {
                let r = run(ni, ci);
                let (dy, x_hat) = (&go[r.clone()], &norm[r.clone()]);
                for ((gi, &dy), &xh) in grad_in[r].iter_mut().zip(dy).zip(x_hat) {
                    *gi = scale * (count * dy - sum_go - xh * sum_go_norm);
                }
            }
        }

        self.gamma
            .accumulate_grad(&Tensor::from_vec(grad_gamma, &[c]));
        self.beta
            .accumulate_grad(&Tensor::from_vec(grad_beta, &[c]));
        Tensor::from_vec(grad_in, &dims)
    }

    /// Parameters γ, β, then buffers running mean, running variance.
    fn for_each_state<'a>(&'a mut self, f: &mut dyn FnMut(State<'a>)) {
        f(State::Param(&mut self.gamma));
        f(State::Param(&mut self.beta));
        f(State::Buffer(&mut self.running_mean));
        f(State::Buffer(&mut self.running_var));
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

    /// The training pass computed in `f64`: output, running mean and
    /// variance after one update from the defaults, input gradient, and the
    /// gamma and beta gradients.
    struct Reference {
        y: Vec<f64>,
        running_mean: Vec<f64>,
        running_var: Vec<f64>,
        grad_in: Vec<f64>,
        grad_gamma: Vec<f64>,
        grad_beta: Vec<f64>,
    }

    fn reference(x: &Tensor, go: &Tensor, gamma: &[f32], beta: &[f32]) -> Reference {
        let d = x.dims();
        let (n, c, hw) = (d[0], d[1], d[2] * d[3]);
        let m = (n * hw) as f64;
        let (x, go) = (x.as_slice(), go.as_slice());
        let idx = |ni: usize, ci: usize| (ni * c + ci) * hw..(ni * c + ci + 1) * hw;
        let mut r = Reference {
            y: vec![0.0; x.len()],
            running_mean: vec![0.0; c],
            running_var: vec![0.0; c],
            grad_in: vec![0.0; x.len()],
            grad_gamma: vec![0.0; c],
            grad_beta: vec![0.0; c],
        };
        for ci in 0..c {
            let vals = |s: &[f32]| -> Vec<f64> {
                (0..n)
                    .flat_map(|ni| s[idx(ni, ci)].iter().map(|&v| v as f64))
                    .collect::<Vec<_>>()
            };
            let (xc, gc) = (vals(x), vals(go));
            let mean = xc.iter().sum::<f64>() / m;
            let var = xc.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / m;
            let inv = 1.0 / (var + 1e-5).sqrt();
            let xh: Vec<f64> = xc.iter().map(|v| (v - mean) * inv).collect();
            r.running_mean[ci] = 0.1 * mean;
            r.running_var[ci] = 0.9 + 0.1 * var;
            let sum_g: f64 = gc.iter().sum();
            let sum_gx: f64 = gc.iter().zip(&xh).map(|(g, h)| g * h).sum();
            r.grad_beta[ci] = sum_g;
            r.grad_gamma[ci] = sum_gx;
            let g = gamma[ci] as f64;
            let pos = (0..n).flat_map(|ni| idx(ni, ci));
            for (k, i) in pos.enumerate() {
                r.y[i] = g * xh[k] + beta[ci] as f64;
                r.grad_in[i] = g * inv / m * (m * gc[k] - sum_g - xh[k] * sum_gx);
            }
        }
        r
    }

    /// One training forward + backward from fresh running statistics.
    fn train_step(
        x: &Tensor,
        go: &Tensor,
        gamma: &[f32],
        beta: &[f32],
    ) -> (BatchNorm2d, Tensor, Tensor) {
        let c = x.dims()[1];
        let mut bn = BatchNorm2d::new(c);
        bn.gamma.value = Tensor::from_vec(gamma.to_vec(), &[c]);
        bn.beta.value = Tensor::from_vec(beta.to_vec(), &[c]);
        let y = bn.forward(x, true);
        let gin = bn.backward(go);
        (bn, y, gin)
    }

    /// One tolerance for every quantity: relative, floored at magnitude one.
    const TOL: f64 = 1e-4;

    fn assert_close(expect: &[f64], got: &[f32], what: &str) {
        assert_eq!(expect.len(), got.len(), "{what}: length");
        for (i, (&e, &g)) in expect.iter().zip(got).enumerate() {
            assert!(
                (e - g as f64).abs() <= TOL * e.abs().max(1.0),
                "{what}[{i}]: f64 {e} vs f32 {g}"
            );
        }
    }

    #[test]
    fn training_pass_matches_an_f64_reference() {
        // hw covers a single element, a partial lane group, a ragged
        // remainder and whole lane groups
        let mut rng = StdRng::seed_from_u64(4);
        for (h, w) in [(1usize, 1usize), (2, 2), (7, 7), (16, 16)] {
            for n in [1usize, 3, 10] {
                let c = 5;
                let what = format!("n={n} hw={}", h * w);
                // per-channel offsets, so the mean is far from zero
                let mut x = Tensor::rand_uniform(&[n, c, h, w], -1.0, 3.0, &mut rng);
                for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                    *v += ((i / (h * w)) % c) as f32;
                }
                let go = Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, &mut rng);
                let gamma = Tensor::rand_uniform(&[c], 0.5, 1.5, &mut rng);
                let beta = Tensor::rand_uniform(&[c], -0.5, 0.5, &mut rng);
                let (gamma, beta) = (gamma.as_slice(), beta.as_slice());
                let r = reference(&x, &go, gamma, beta);
                let (bn, y, gin) = train_step(&x, &go, gamma, beta);
                assert_close(&r.y, y.as_slice(), &format!("{what}: y"));
                assert_close(&r.grad_in, gin.as_slice(), &format!("{what}: grad_in"));
                assert_close(
                    &r.running_mean,
                    bn.running_mean.as_slice(),
                    &format!("{what}: running_mean"),
                );
                assert_close(
                    &r.running_var,
                    bn.running_var.as_slice(),
                    &format!("{what}: running_var"),
                );
                assert_close(
                    &r.grad_gamma,
                    bn.gamma.grad.as_slice(),
                    &format!("{what}: grad_gamma"),
                );
                assert_close(
                    &r.grad_beta,
                    bn.beta.grad.as_slice(),
                    &format!("{what}: grad_beta"),
                );
            }
        }
    }

    #[test]
    fn a_nan_poisons_only_its_own_channel() {
        let mut rng = StdRng::seed_from_u64(5);
        let (n, c, h, w) = (3usize, 4usize, 5usize, 5usize);
        let hw = h * w;
        let x = Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, &mut rng);
        let go = Tensor::rand_uniform(&[n, c, h, w], -1.0, 1.0, &mut rng);
        let (gamma, beta) = (vec![1.0f32; c], vec![0.0f32; c]);
        let (mut clean, y_clean, gin_clean) = train_step(&x, &go, &gamma, &beta);
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let per_channel = |t: &Tensor, ci: usize| -> Vec<f32> {
            (0..n)
                .flat_map(|ni| t.as_slice()[(ni * c + ci) * hw..][..hw].to_vec())
                .collect()
        };
        // channel 2 of sample 1, once in the input and once in grad_out
        let poisoned = 2;
        for in_input in [true, false] {
            let (mut x, mut go) = (x.clone(), go.clone());
            *(if in_input { &mut x } else { &mut go }).at_mut(&[1, poisoned, 2, 3]) = f32::NAN;
            let (mut bn, y, gin) = train_step(&x, &go, &gamma, &beta);
            let what = if in_input {
                "NaN input"
            } else {
                "NaN grad_out"
            };
            for ci in 0..c {
                let grads = |bn: &mut BatchNorm2d| {
                    (bn.gamma.grad.as_slice()[ci], bn.beta.grad.as_slice()[ci])
                };
                let ((gg, gb), (gg_clean, gb_clean)) = (grads(&mut bn), grads(&mut clean));
                if ci == poisoned {
                    // an input NaN reaches the statistics, so every output,
                    // input gradient and gamma gradient; beta's gradient is
                    // Σ grad_out alone
                    assert!(
                        per_channel(&gin, ci).iter().all(|v| v.is_nan()),
                        "{what}: grad_in"
                    );
                    assert!(gg.is_nan(), "{what}: grad_gamma");
                    assert_eq!(
                        per_channel(&y, ci).iter().all(|v| v.is_nan()),
                        in_input,
                        "{what}: y"
                    );
                    assert_eq!(gb.is_nan(), !in_input, "{what}: grad_beta");
                } else {
                    let what = format!("{what}: channel {ci}");
                    assert_eq!(
                        bits(&per_channel(&y, ci)),
                        bits(&per_channel(&y_clean, ci)),
                        "{what}: y"
                    );
                    assert_eq!(
                        bits(&per_channel(&gin, ci)),
                        bits(&per_channel(&gin_clean, ci)),
                        "{what}: grad_in"
                    );
                    assert_eq!(
                        (gg.to_bits(), gb.to_bits()),
                        (gg_clean.to_bits(), gb_clean.to_bits()),
                        "{what}: grads"
                    );
                }
            }
            let stats = |bn: &mut BatchNorm2d| -> Vec<u32> {
                [&bn.running_mean, &bn.running_var]
                    .iter()
                    .flat_map(|b| bits(b.as_slice()))
                    .collect()
            };
            let (got, want) = (stats(&mut bn), stats(&mut clean));
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                if in_input && i % c == poisoned {
                    assert!(f32::from_bits(*g).is_nan(), "{what}: running stat {i}");
                } else {
                    assert_eq!(g, w, "{what}: running stat {i}");
                }
            }
        }
    }

    #[test]
    fn buffers_expose_running_stats() {
        let mut bn = BatchNorm2d::new(4);
        let (params, buffers) = crate::states(&mut bn);
        assert_eq!((params.len(), buffers.len()), (2, 2));
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
        assert!((bn.beta.grad.at(&[0]) - expected).abs() < 1e-4);
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
        let plus = bn_plus.forward(&x, true).zip(&weights, |a, b| a * b).sum();
        let mut bn_minus = BatchNorm2d::new(1);
        *x.at_mut(&[0, 0, 1, 0]) = base - eps;
        let minus = bn_minus.forward(&x, true).zip(&weights, |a, b| a * b).sum();
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic - numerical).abs() < 0.05,
            "analytic {analytic} vs numerical {numerical}"
        );
    }
}
