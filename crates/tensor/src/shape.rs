//! Shape and stride bookkeeping for row-major contiguous tensors.

use serde::{Deserialize, Serialize};

/// Dimensions of a tensor, stored outermost-first (row-major).
///
/// `Shape` is a thin wrapper around a `Vec<usize>` that caches nothing and
/// recomputes strides on demand; tensors in this workspace are small enough
/// that the simplicity is worth far more than the saved multiplications.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimensions.
    ///
    /// A zero-length slice denotes a scalar; dimensions of size zero are
    /// permitted and yield empty tensors.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Overwrites this shape with `dims`, reusing the existing storage — the
    /// allocation-free companion of [`Shape::new`] used by
    /// [`crate::Tensor::resize_to`].
    pub(crate) fn copy_from(&mut self, dims: &[usize]) {
        self.0.clear();
        self.0.extend_from_slice(dims);
    }

    /// Number of dimensions (the tensor rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements described by this shape.
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides, i.e. the number of elements to skip to advance one
    /// step along each axis.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds; this is an internal indexing primitive and misuse is a bug.
    pub fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.0.len()
        );
        let strides = self.strides();
        let mut offset = 0;
        for (axis, (&i, &d)) in index.iter().zip(self.0.iter()).enumerate() {
            assert!(i < d, "index {i} out of bounds for axis {axis} (size {d})");
            offset += i * strides[axis];
        }
        offset
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_elements_is_product() {
        assert_eq!(Shape::new(&[2, 3, 4]).num_elements(), 24);
        assert_eq!(Shape::new(&[]).num_elements(), 1);
        assert_eq!(Shape::new(&[5, 0]).num_elements(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
    }

    #[test]
    fn flat_index_round_trip() {
        let shape = Shape::new(&[2, 3, 4]);
        assert_eq!(shape.flat_index(&[0, 0, 0]), 0);
        assert_eq!(shape.flat_index(&[1, 2, 3]), 23);
        assert_eq!(shape.flat_index(&[1, 0, 2]), 14);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flat_index_rejects_out_of_bounds() {
        Shape::new(&[2, 2]).flat_index(&[2, 0]);
    }
}
