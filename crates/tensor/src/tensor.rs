//! The [`Tensor`] type: contiguous, row-major `f32` storage with a shape.

use crate::{Result, Shape, TensorError};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` tensor — the compute dtype everywhere.
///
/// All data is stored contiguously in a `Vec<f32>`. The type favours a small,
/// predictable API over generality: every operation allocates its result and
/// nothing is lazy, which keeps the training stack above it easy to reason
/// about and to test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.num_elements()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.num_elements()],
            shape,
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `dims`. Use
    /// [`Tensor::try_from_vec`] for a fallible variant.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let len = data.len();
        Tensor::try_from_vec(data, dims).unwrap_or_else(|e| {
            panic!("Tensor::from_vec: {len} data elements do not fit shape {dims:?} ({e})")
        })
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the data length does not
    /// match the shape.
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor with values drawn uniformly from `[low, high)`.
    pub fn rand_uniform(dims: &[usize], low: f32, high: f32, rng: &mut StdRng) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.num_elements())
            .map(|_| rng.gen_range(low..high))
            .collect();
        Tensor { data, shape }
    }

    /// Creates a tensor with values drawn from a normal distribution with the
    /// given mean and standard deviation (Box–Muller transform).
    pub fn rand_normal(dims: &[usize], mean: f32, std: f32, rng: &mut StdRng) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor { data, shape }
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The tensor dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The tensor rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying data in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access via a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.flat_index(index)]
    }

    /// Mutable element access via a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let i = self.shape.flat_index(index);
        &mut self.data[i]
    }

    // ---------------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------------

    /// Reshapes this tensor in place to `dims`, resizing the backing buffer
    /// while reusing its capacity. Existing element values are unspecified
    /// afterwards (grown regions are zero-filled) — this is the primitive
    /// behind allocation-free inference (`hs_nn::Workspace`): after warm-up
    /// a `resize_to` to a previously seen size allocates nothing.
    pub fn resize_to(&mut self, dims: &[usize]) {
        if self.shape.dims() != dims {
            // reuse the shape's own storage: a warm resize must not
            // allocate, and the common case (same dims as last forward)
            // skips even the copy
            self.shape.copy_from(dims);
        }
        self.data.resize(self.shape.num_elements(), 0.0);
    }

    /// Returns a tensor with the same data reinterpreted under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the number of elements would change.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.num_elements(),
            self.len(),
            "reshape cannot change the number of elements"
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires a rank-2 tensor");
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Stacks tensors of identical shape along a new leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or the shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "stack requires at least one tensor");
        let first = items[0].dims().to_vec();
        let mut data = Vec::with_capacity(items.len() * items[0].len());
        for t in items {
            assert_eq!(
                t.dims(),
                &first[..],
                "all stacked tensors must share a shape"
            );
            data.extend_from_slice(t.as_slice());
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(&first);
        Tensor::from_vec(data, &dims)
    }

    /// Concatenates rank-equal tensors along an existing axis.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree on any axis other than `axis`, or `items`
    /// is empty.
    pub fn concat(items: &[&Tensor], axis: usize) -> Tensor {
        assert!(!items.is_empty(), "concat requires at least one tensor");
        let rank = items[0].rank();
        assert!(
            axis < rank,
            "concat axis {axis} out of range for rank {rank}"
        );
        for t in items {
            assert_eq!(t.rank(), rank, "all concatenated tensors must share rank");
            for ax in 0..rank {
                if ax != axis {
                    assert_eq!(
                        t.dims()[ax],
                        items[0].dims()[ax],
                        "dimension {ax} must agree for concat"
                    );
                }
            }
        }
        let mut out_dims = items[0].dims().to_vec();
        out_dims[axis] = items.iter().map(|t| t.dims()[axis]).sum();
        let outer: usize = out_dims[..axis].iter().product();
        let inner: usize = out_dims[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(out_dims.iter().product());
        for o in 0..outer {
            for t in items {
                let ax_len = t.dims()[axis];
                let start = o * ax_len * inner;
                data.extend_from_slice(&t.as_slice()[start..start + ax_len * inner]);
            }
        }
        Tensor::from_vec(data, &out_dims)
    }

    // ---------------------------------------------------------------------
    // Element-wise operations
    // ---------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(
            self.dims(),
            other.dims(),
            "zip requires identical shapes ({:?} vs {:?})",
            self.dims(),
            other.dims()
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "add_assign requires identical shapes"
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Adds `scale * other` into `self` in place (AXPY).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "add_scaled requires identical shapes"
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by a scalar in place.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(|x| x * s);
    }

    /// Clamps every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    // ---------------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.data.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 3]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 3]).sum(), 6.0);
        assert_eq!(Tensor::full(&[4], 2.5).sum(), 10.0);
    }

    #[test]
    fn eye_has_unit_trace_per_row() {
        let t = Tensor::eye(3);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 0.0);
        assert_eq!(t.sum(), 3.0);
    }

    #[test]
    fn try_from_vec_validates_length() {
        assert!(Tensor::try_from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::try_from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    #[should_panic(expected = "2 data elements do not fit shape [3]")]
    fn from_vec_panics_with_an_actionable_message() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn transpose_swaps_axes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert_eq!(tt.at(&[2, 0]), 3.0);
    }

    #[test]
    fn stack_builds_batch() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn concat_along_channel_axis() {
        let a = Tensor::full(&[1, 2, 2, 2], 1.0);
        let b = Tensor::full(&[1, 3, 2, 2], 2.0);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.dims(), &[1, 5, 2, 2]);
        assert_eq!(c.sum(), 1.0 * 8.0 + 2.0 * 12.0);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.zip(&b, |x, y| y - x).as_slice(), &[3.0, 3.0, 3.0]);
        let mut c = a.clone();
        c.scale_inplace(2.0);
        assert_eq!(c.as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let b = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[4]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let t = Tensor::full(&[10], 3.0);
        assert!(t.variance().abs() < 1e-9);
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.max() < 0.5);
        assert!(t.min() >= -0.5);
    }

    #[test]
    fn rand_normal_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::rand_normal(&[20000], 1.0, 2.0, &mut rng);
        assert!((t.mean() - 1.0).abs() < 0.1);
        assert!((t.variance().sqrt() - 2.0).abs() < 0.1);
    }

    #[test]
    fn clamp_bounds_values() {
        let t = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]);
        assert_eq!(t.clamp(0.0, 1.0).as_slice(), &[0.0, 0.5, 1.0]);
    }
}
