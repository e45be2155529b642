//! Inverted dropout regularisation.

use crate::{Layer, Workspace};
use hs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1 / (1 - p)`; inference is the
/// identity.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and a deterministic
    /// internal RNG seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng: StdRng::seed_from_u64(seed),
            cached_mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        if self.p == 0.0 {
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let mask_data: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < self.p {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect();
        let mask = Tensor::from_vec(mask_data, input.dims());
        let out = input.mul(&mask);
        self.cached_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.cached_mask {
            Some(mask) => grad_out.mul(mask),
            None => grad_out.clone(),
        }
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        out.resize_to(input.dims());
        out.as_mut_slice().copy_from_slice(input.as_slice());
    }

    fn name(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(d.forward(&x, false).as_slice(), x.as_slice());
    }

    #[test]
    fn training_preserves_expected_value() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones(&[10000]);
        let y = d.forward(&x, true);
        // inverted dropout keeps E[y] == E[x]
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::ones(&[64]));
        // gradient is zero exactly where the forward output was zeroed
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_probability() {
        let _ = Dropout::new(1.0, 0);
    }
}
