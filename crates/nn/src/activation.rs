//! Element-wise activation layers.
//!
//! The model zoo relies on ReLU plus the hard-swish / hard-sigmoid pair
//! introduced by MobileNetV3.

use crate::layer::{infer_fresh, store};
use crate::{Layer, Workspace};
use hs_tensor::{EpilogueAct, Tensor};

/// Writes `f` applied to every element of `input` into `out` (resized),
/// the shared [`Layer::infer`] body of the activations.
fn map_into<F: Fn(f32) -> f32>(input: &Tensor, out: &mut Tensor, f: F) {
    out.resize_to(input.dims());
    for (o, &x) in out.as_mut_slice().iter_mut().zip(input.as_slice().iter()) {
        *o = f(x);
    }
}

/// Rectified linear unit: `max(0, x)`.
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        store(&mut self.cached_input, input);
        infer_fresh(self, input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        grad_out.zip(input, |g, x| if x > 0.0 { g } else { 0.0 })
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        map_into(input, out, |x| x.max(0.0));
    }

    fn epilogue_act(&self) -> Option<EpilogueAct> {
        Some(EpilogueAct::Relu)
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// MobileNetV3 hard-sigmoid: `clamp((x + 3) / 6, 0, 1)`.
pub struct HardSigmoid {
    cached_input: Option<Tensor>,
}

impl HardSigmoid {
    /// Creates a hard-sigmoid activation layer.
    pub fn new() -> Self {
        HardSigmoid { cached_input: None }
    }
}

impl Default for HardSigmoid {
    fn default() -> Self {
        Self::new()
    }
}

/// Scalar hard sigmoid shared with [`HardSwish`].
pub(crate) fn hard_sigmoid_scalar(x: f32) -> f32 {
    ((x + 3.0) / 6.0).clamp(0.0, 1.0)
}

impl Layer for HardSigmoid {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        store(&mut self.cached_input, input);
        infer_fresh(self, input)
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        map_into(input, out, hard_sigmoid_scalar);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        // select form: the slope is computed everywhere and both compares
        // run (`&`, not `&&`), so the loop is branch-free and vectorises
        grad_out.zip(input, |g, x| {
            let slope = g / 6.0;
            if (x > -3.0) & (x < 3.0) {
                slope
            } else {
                0.0
            }
        })
    }

    fn name(&self) -> &'static str {
        "hard_sigmoid"
    }
}

/// MobileNetV3 hard-swish: `x * hard_sigmoid(x)`.
pub struct HardSwish {
    cached_input: Option<Tensor>,
}

impl HardSwish {
    /// Creates a hard-swish activation layer.
    pub fn new() -> Self {
        HardSwish { cached_input: None }
    }
}

impl Default for HardSwish {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for HardSwish {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        store(&mut self.cached_input, input);
        infer_fresh(self, input)
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        map_into(input, out, |x| x * hard_sigmoid_scalar(x));
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        // select form: the ramp `(2x + 3) / 6` is computed everywhere, then
        // two selects clamp it — the same bits as the three-way branch (NaN
        // fails both compares and keeps the ramp's NaN), but branch-free, so
        // the loop vectorises and a spread of `x` around ±3 cannot
        // mispredict
        grad_out.zip(input, |g, x| {
            let ramp = (2.0 * x + 3.0) / 6.0;
            let d = if x <= -3.0 { 0.0 } else { ramp };
            let d = if x >= 3.0 { 1.0 } else { d };
            g * d
        })
    }

    fn epilogue_act(&self) -> Option<EpilogueAct> {
        Some(EpilogueAct::HardSwish)
    }

    fn name(&self) -> &'static str {
        "hard_swish"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numerical_check<L: Layer>(layer: &mut L, x0: f32) {
        // compares analytic d out/d in at a single point against finite differences
        let eps = 1e-3;
        let x = Tensor::from_vec(vec![x0], &[1]);
        let _ = layer.forward(&x, true);
        let analytic = layer.backward(&Tensor::ones(&[1])).at(&[0]);
        let plus = layer
            .forward(&Tensor::from_vec(vec![x0 + eps], &[1]), false)
            .at(&[0]);
        let minus = layer
            .forward(&Tensor::from_vec(vec![x0 - eps], &[1]), false)
            .at(&[0]);
        let numerical = (plus - minus) / (2.0 * eps);
        assert!(
            (analytic - numerical).abs() < 1e-2,
            "{}: analytic {analytic} vs numerical {numerical} at {x0}",
            layer.name()
        );
    }

    #[test]
    fn relu_clips_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]), false);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient() {
        numerical_check(&mut Relu::new(), 0.7);
        numerical_check(&mut Relu::new(), -0.7);
    }

    #[test]
    fn hard_sigmoid_gradient() {
        numerical_check(&mut HardSigmoid::new(), 1.0);
        numerical_check(&mut HardSigmoid::new(), -4.0);
    }

    #[test]
    fn hard_swish_gradient() {
        numerical_check(&mut HardSwish::new(), 1.0);
        numerical_check(&mut HardSwish::new(), -1.0);
        numerical_check(&mut HardSwish::new(), 4.0);
    }

    #[test]
    fn backward_is_the_branch_formula_bit_for_bit() {
        // the branch forms each backward had before it became a select;
        // `x` sits on and around the kinks, at signed zeros, infinities,
        // NaN and a subnormal, `g` includes a NaN
        let up = |x: f32| f32::from_bits(x.to_bits() + 1);
        let xs = [
            3.0,
            -3.0,
            up(3.0),
            up(-3.0),
            f32::from_bits(3.0f32.to_bits() - 1),
            f32::from_bits((-3.0f32).to_bits() - 1),
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(1),
        ];
        let gs = [1.0f32, -2.5, f32::NAN];
        type Formula = fn(f32, f32) -> f32;
        let table: [(Box<dyn Layer>, Formula); 3] = [
            (Box::new(HardSwish::new()), |g, x| {
                let d = if x <= -3.0 {
                    0.0
                } else if x >= 3.0 {
                    1.0
                } else {
                    (2.0 * x + 3.0) / 6.0
                };
                g * d
            }),
            (Box::new(HardSigmoid::new()), |g, x| {
                if x > -3.0 && x < 3.0 {
                    g / 6.0
                } else {
                    0.0
                }
            }),
            (Box::new(Relu::new()), |g, x| if x > 0.0 { g } else { 0.0 }),
        ];
        // every (x, g) pair in one tensor, long enough for the vector body
        let (x, g): (Vec<f32>, Vec<f32>) = xs
            .iter()
            .flat_map(|&x| gs.iter().map(move |&g| (x, g)))
            .unzip();
        let dims = [x.len()];
        for (mut layer, formula) in table {
            let _ = layer.forward(&Tensor::from_vec(x.clone(), &dims), true);
            let got = layer.backward(&Tensor::from_vec(g.clone(), &dims));
            for ((&x, &g), &d) in x.iter().zip(&g).zip(got.as_slice()) {
                assert_eq!(
                    d.to_bits(),
                    formula(g, x).to_bits(),
                    "{}: x = {x:e}, g = {g}",
                    layer.name()
                );
            }
        }
    }

    #[test]
    fn hard_swish_matches_definition() {
        let mut h = HardSwish::new();
        let y = h.forward(&Tensor::from_vec(vec![-4.0, 0.0, 4.0], &[3]), false);
        assert_eq!(y.at(&[0]), 0.0);
        assert_eq!(y.at(&[1]), 0.0);
        assert_eq!(y.at(&[2]), 4.0);
    }
}
