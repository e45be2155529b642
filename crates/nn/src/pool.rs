//! Pooling and reshaping layers.

use crate::layer::{infer_fresh, store};
use crate::{Layer, Workspace};
use hs_tensor::Tensor;

/// 2-D max pooling with a square window and stride equal to the window size.
pub struct MaxPool2d {
    size: usize,
    cached_input: Option<Tensor>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window size (and stride).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "pool size must be positive");
        MaxPool2d {
            size,
            cached_input: None,
        }
    }

    /// Visits every window of the `[n, c, h, w]` input `x` with its output
    /// index, its maximum and the index of the element holding it: the first
    /// strict maximum in row-major order, or the window's first element when
    /// nothing beats -inf (all NaN or all -inf). `infer` keeps the maximum,
    /// `backward` routes the window's gradient to the element.
    fn for_each_window(&self, x: &Tensor, mut f: impl FnMut(usize, f32, usize)) {
        let (nc, h, w) = (x.dims()[0] * x.dims()[1], x.dims()[2], x.dims()[3]);
        let s = self.size;
        let (oh, ow) = (h / s, w / s);
        let x = x.as_slice();
        for p in 0..nc {
            for oi in 0..oh {
                for oj in 0..ow {
                    let first = (p * h + oi * s) * w + oj * s;
                    let (mut best, mut arg) = (f32::NEG_INFINITY, first);
                    for di in 0..s {
                        for dj in 0..s {
                            let idx = first + di * w + dj;
                            if x[idx] > best {
                                (best, arg) = (x[idx], idx);
                            }
                        }
                    }
                    f((p * oh + oi) * ow + oj, best, arg);
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        store(&mut self.cached_input, input);
        infer_fresh(self, input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let go = grad_out.as_slice();
        let mut grad_in = vec![0.0f32; input.len()];
        self.for_each_window(input, |o_idx, _, arg| grad_in[arg] += go[o_idx]);
        Tensor::from_vec(grad_in, input.dims())
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        assert_eq!(input.rank(), 4, "MaxPool2d expects a [n, c, h, w] input");
        let (d, s) = (input.dims(), self.size);
        out.resize_to(&[d[0], d[1], d[2] / s, d[3] / s]);
        let o = out.as_mut_slice();
        self.for_each_window(input, |o_idx, best, _| o[o_idx] = best);
    }

    fn name(&self) -> &'static str {
        "max_pool2d"
    }
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
pub struct GlobalAvgPool {
    cached_in_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool {
            cached_in_dims: None,
        }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cached_in_dims = Some(input.dims().to_vec());
        infer_fresh(self, input)
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        assert_eq!(
            input.rank(),
            4,
            "GlobalAvgPool expects a [n, c, h, w] input"
        );
        let dims = input.dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = (h * w) as f32;
        let x = input.as_slice();
        out.resize_to(&[n, c]);
        let o = out.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * h * w;
                o[ni * c + ci] = x[off..off + h * w].iter().sum::<f32>() / hw;
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_dims = self
            .cached_in_dims
            .clone()
            .expect("backward before forward");
        let (n, c, h, w) = (in_dims[0], in_dims[1], in_dims[2], in_dims[3]);
        let norm = 1.0 / (h * w) as f32;
        let go = grad_out.as_slice();
        let mut grad_in = vec![0.0f32; n * c * h * w];
        for ni in 0..n {
            for ci in 0..c {
                let g = go[ni * c + ci] * norm;
                let off = (ni * c + ci) * h * w;
                for v in &mut grad_in[off..off + h * w] {
                    *v = g;
                }
            }
        }
        Tensor::from_vec(grad_in, &in_dims)
    }

    fn name(&self) -> &'static str {
        "global_avg_pool"
    }
}

/// Flattens `[n, ...]` into `[n, prod(...)]`.
pub struct Flatten {
    cached_in_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            cached_in_dims: None,
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cached_in_dims = Some(input.dims().to_vec());
        infer_fresh(self, input)
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, _ws: &mut Workspace) {
        assert!(input.rank() >= 2, "Flatten expects at least a rank-2 input");
        let dims = input.dims();
        let rest: usize = dims[1..].iter().product();
        out.resize_to(&[dims[0], rest]);
        out.as_mut_slice().copy_from_slice(input.as_slice());
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_dims = self
            .cached_in_dims
            .clone()
            .expect("backward before forward");
        grad_out.reshape(&in_dims)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_reduces_and_routes_gradient() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = pool.forward(&x, true);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        let g = pool.backward(&Tensor::ones(&[1, 1, 2, 2]));
        // gradient flows only to the max positions
        assert_eq!(g.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(g.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn a_window_without_a_maximum_keeps_its_gradient_inside() {
        // nothing in sample 1 beats -inf: its forward value stays -inf and
        // its gradient goes to its own window's first element, not to
        // element 0 of the batch
        for fill in [f32::NAN, f32::NEG_INFINITY] {
            let mut pool = MaxPool2d::new(2);
            let x = Tensor::from_vec(
                vec![1.0, 4.0, 3.0, 2.0, fill, fill, fill, fill],
                &[2, 1, 2, 2],
            );
            let y = pool.forward(&x, true);
            assert_eq!(y.as_slice(), &[4.0, f32::NEG_INFINITY], "{fill}");
            let g = pool.backward(&Tensor::ones(&[2, 1, 1, 1]));
            assert_eq!(
                g.as_slice(),
                &[0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                "{fill}"
            );
        }
    }

    #[test]
    fn avg_pool_averages_and_spreads_gradient() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[4.0]);
        let g = pool.backward(&Tensor::ones(&[1, 1]));
        assert_eq!(g.as_slice(), &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn global_avg_pool_shapes() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = pool.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.as_slice(), &[1.0; 6]);
        let g = pool.backward(&Tensor::ones(&[2, 3]));
        assert_eq!(g.dims(), &[2, 3, 4, 4]);
        assert!((g.sum() - 6.0).abs() < 1e-5);
    }

    #[test]
    fn flatten_round_trips() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.dims(), &[2, 48]);
        let g = f.backward(&y);
        assert_eq!(g.dims(), &[2, 3, 4, 4]);
    }
}
