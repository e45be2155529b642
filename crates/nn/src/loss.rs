//! Loss functions and training targets.

use hs_tensor::Tensor;

/// The supervision signal for one batch.
#[derive(Debug, Clone)]
pub enum Target {
    /// Single-label classification: one class index per sample.
    Classes(Vec<usize>),
    /// Multi-label classification: a `[n, labels]` tensor of 0/1 indicators.
    MultiHot(Tensor),
    /// Regression targets: a `[n]` or `[n, 1]` tensor of values.
    Values(Tensor),
}

impl Target {
    /// Number of samples covered by the target.
    pub fn len(&self) -> usize {
        match self {
            Target::Classes(c) => c.len(),
            Target::MultiHot(t) => t.dims()[0],
            Target::Values(t) => t.dims()[0],
        }
    }

    /// Whether the target covers zero samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A differentiable loss producing the scalar loss and the gradient with
/// respect to the model output (logits / predictions).
pub trait Loss: Send + Sync {
    /// Returns `(mean loss, d loss / d logits)` for a batch.
    fn forward(&self, logits: &Tensor, target: &Target) -> (f32, Tensor);
}

/// Softmax cross-entropy for single-label classification.
///
/// Expects logits of shape `[n, classes]` and [`Target::Classes`].
pub struct CrossEntropyLoss;

impl Loss for CrossEntropyLoss {
    fn forward(&self, logits: &Tensor, target: &Target) -> (f32, Tensor) {
        let labels = match target {
            Target::Classes(l) => l,
            _ => panic!("CrossEntropyLoss requires Target::Classes"),
        };
        assert_eq!(logits.rank(), 2, "logits must be [n, classes]");
        let (n, c) = (logits.dims()[0], logits.dims()[1]);
        assert_eq!(labels.len(), n, "label count must match batch size");
        let probs = logits.softmax_rows();
        let p = probs.as_slice();
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        let g = grad.as_mut_slice();
        for (i, &label) in labels.iter().enumerate() {
            assert!(label < c, "label {label} out of range for {c} classes");
            let pi = p[i * c + label].max(1e-12);
            loss -= pi.ln();
            g[i * c + label] -= 1.0;
        }
        let scale = 1.0 / n as f32;
        grad.scale_inplace(scale);
        (loss * scale, grad)
    }
}

/// Numerically-stable scalar sigmoid: never evaluates `exp` of a positive
/// argument, so it cannot overflow at either extreme.
fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy with logits, for multi-label classification.
///
/// Expects logits of shape `[n, labels]` and [`Target::MultiHot`].
pub struct BceWithLogitsLoss;

impl Loss for BceWithLogitsLoss {
    fn forward(&self, logits: &Tensor, target: &Target) -> (f32, Tensor) {
        let y = match target {
            Target::MultiHot(t) => t,
            _ => panic!("BceWithLogitsLoss requires Target::MultiHot"),
        };
        assert_eq!(logits.dims(), y.dims(), "logits and targets must align");
        let n = logits.dims()[0] as f32;
        let total = logits.len() as f32;
        let mut loss = 0.0f32;
        let mut grad = Tensor::zeros(logits.dims());
        {
            let x = logits.as_slice();
            let t = y.as_slice();
            let g = grad.as_mut_slice();
            for i in 0..x.len() {
                let p = sigmoid_scalar(x[i]);
                // numerically-stable BCE: max(x,0) - x*t + ln(1 + exp(-|x|))
                loss += x[i].max(0.0) - x[i] * t[i] + (1.0 + (-x[i].abs()).exp()).ln();
                g[i] = (p - t[i]) / total;
            }
        }
        let _ = n;
        (loss / total, grad)
    }
}

/// Mean-squared-error loss for regression.
///
/// Expects predictions of shape `[n]` or `[n, 1]` and [`Target::Values`].
pub struct MseLoss;

impl Loss for MseLoss {
    fn forward(&self, preds: &Tensor, target: &Target) -> (f32, Tensor) {
        let y = match target {
            Target::Values(t) => t,
            _ => panic!("MseLoss requires Target::Values"),
        };
        assert_eq!(
            preds.len(),
            y.len(),
            "prediction and target element counts must match"
        );
        let n = preds.len() as f32;
        let mut loss = 0.0f32;
        let mut grad = Tensor::zeros(preds.dims());
        {
            let p = preds.as_slice();
            let t = y.as_slice();
            let g = grad.as_mut_slice();
            for i in 0..p.len() {
                let d = p[i] - t[i];
                loss += d * d;
                g[i] = 2.0 * d / n;
            }
        }
        (loss / n, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, -10.0, 10.0, -10.0], &[2, 3]);
        let (loss, _) = CrossEntropyLoss.forward(&logits, &Target::Classes(vec![0, 1]));
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_logits_equals_ln_c() {
        let logits = Tensor::zeros(&[4, 12]);
        let (loss, _) = CrossEntropyLoss.forward(&logits, &Target::Classes(vec![0, 3, 7, 11]));
        assert!((loss - (12.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 1.0, 0.1, 0.0, -1.0], &[2, 3]);
        let (_, grad) = CrossEntropyLoss.forward(&logits, &Target::Classes(vec![2, 0]));
        for i in 0..2 {
            let row_sum: f32 = (0..3).map(|j| grad.at(&[i, j])).sum();
            assert!(row_sum.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_numerical() {
        let mut logits = Tensor::from_vec(vec![0.5, -0.3, 0.8], &[1, 3]);
        let target = Target::Classes(vec![1]);
        let (_, grad) = CrossEntropyLoss.forward(&logits, &target);
        let eps = 1e-3;
        for j in 0..3 {
            let base = logits.at(&[0, j]);
            *logits.at_mut(&[0, j]) = base + eps;
            let (plus, _) = CrossEntropyLoss.forward(&logits, &target);
            *logits.at_mut(&[0, j]) = base - eps;
            let (minus, _) = CrossEntropyLoss.forward(&logits, &target);
            *logits.at_mut(&[0, j]) = base;
            let numerical = (plus - minus) / (2.0 * eps);
            assert!((grad.at(&[0, j]) - numerical).abs() < 1e-3);
        }
    }

    #[test]
    fn bce_gradient_matches_numerical() {
        let mut logits = Tensor::from_vec(vec![0.4, -1.2, 2.0, 0.0], &[2, 2]);
        let target = Target::MultiHot(Tensor::from_vec(vec![1.0, 0.0, 1.0, 1.0], &[2, 2]));
        let (_, grad) = BceWithLogitsLoss.forward(&logits, &target);
        let eps = 1e-3;
        for i in 0..4 {
            let base = logits.as_slice()[i];
            logits.as_mut_slice()[i] = base + eps;
            let (plus, _) = BceWithLogitsLoss.forward(&logits, &target);
            logits.as_mut_slice()[i] = base - eps;
            let (minus, _) = BceWithLogitsLoss.forward(&logits, &target);
            logits.as_mut_slice()[i] = base;
            let numerical = (plus - minus) / (2.0 * eps);
            assert!((grad.as_slice()[i] - numerical).abs() < 1e-3);
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        let (lo, hi) = (sigmoid_scalar(-100.0), sigmoid_scalar(100.0));
        assert!((0.0..1e-6).contains(&lo), "{lo}");
        assert!(hi > 1.0 - 1e-6 && hi <= 1.0, "{hi}");
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let preds = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let target = Target::Values(Tensor::from_vec(vec![0.0, 4.0], &[2]));
        let (loss, grad) = MseLoss.forward(&preds, &target);
        assert!((loss - (1.0 + 4.0) / 2.0).abs() < 1e-6);
        assert!((grad.at(&[0]) - 1.0).abs() < 1e-6);
        assert!((grad.at(&[1]) + 2.0).abs() < 1e-6);
    }

    #[test]
    fn target_len_reports_samples() {
        assert_eq!(Target::Classes(vec![1, 2, 3]).len(), 3);
        assert_eq!(Target::MultiHot(Tensor::zeros(&[5, 4])).len(), 5);
        assert_eq!(Target::Values(Tensor::zeros(&[7])).len(), 7);
        assert!(!Target::Classes(vec![0]).is_empty());
    }
}
