//! Linear-algebra and axis-wise operations on [`Tensor`].
//!
//! These live in their own module (as inherent methods on [`Tensor`]) to keep
//! `tensor.rs` focused on storage, constructors and element-wise math.

use crate::Tensor;

impl Tensor {
    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Runs on the blocked, SIMD-dispatched [`gemm`](crate::gemm::gemm)
    /// kernel layer, on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, _, n) = self.matmul_dims(other);
        let mut out = vec![0.0f32; m * n];
        self.matmul_into(other, &mut out);
        Tensor::from_vec(out, &[m, n])
    }

    /// [`Tensor::matmul`] writing into a caller-provided buffer (first
    /// `m * n` elements are overwritten), so hot loops can reuse storage.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches or if `out` is shorter than `m * n`.
    pub fn matmul_into(&self, other: &Tensor, out: &mut [f32]) {
        let (m, k, n) = self.matmul_dims(other);
        crate::gemm::gemm(self.as_slice(), other.as_slice(), out, m, k, n);
    }

    /// `A * B^T` for `A: [m, k]`, `B: [n, k]`, without materialising the
    /// transpose anywhere: the kernel reads `B` where it lies
    /// ([`crate::gemm::gemm_nt`]), so steady-state calls allocate only the
    /// result, and the bits are those of `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the `k` dimensions differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_nt requires rank-2 left operand");
        assert_eq!(other.rank(), 2, "matmul_nt requires rank-2 right operand");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_nt inner dimensions must agree ({k} vs {k2})");
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_nt(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// `A^T * B` for `A: [k, m]`, `B: [k, n]`, without materialising the
    /// transpose anywhere: the kernel reads `A` where it lies
    /// ([`crate::gemm::gemm_tn`]), and the bits are those of
    /// `self.transpose().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the `k` dimensions differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_tn requires rank-2 left operand");
        assert_eq!(other.rank(), 2, "matmul_tn requires rank-2 right operand");
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_tn inner dimensions must agree ({k} vs {k2})");
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm_tn(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    /// The seed's scalar i-k-j matmul, kept as the reference implementation
    /// for parity tests and benchmarks (see [`crate::naive`]).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    pub fn matmul_naive(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = self.matmul_dims(other);
        let mut out = vec![0.0f32; m * n];
        crate::naive::matmul_naive(self.as_slice(), other.as_slice(), &mut out, m, k, n);
        Tensor::from_vec(out, &[m, n])
    }

    fn matmul_dims(&self, other: &Tensor) -> (usize, usize, usize) {
        assert_eq!(self.rank(), 2, "matmul requires rank-2 left operand");
        assert_eq!(other.rank(), 2, "matmul requires rank-2 right operand");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul inner dimensions must agree ({k} vs {k2})");
        (m, k, n)
    }

    /// Sums along `axis`, removing that axis from the result.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        let rank = self.rank();
        assert!(axis < rank, "axis {axis} out of range for rank {rank}");
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let ax = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        let data = self.as_slice();
        for o in 0..outer {
            for a in 0..ax {
                let base = (o * ax + a) * inner;
                let out_base = o * inner;
                for i in 0..inner {
                    out[out_base + i] += data[base + i];
                }
            }
        }
        let mut out_dims: Vec<usize> = dims[..axis].to_vec();
        out_dims.extend_from_slice(&dims[axis + 1..]);
        if out_dims.is_empty() {
            out_dims.push(1);
        }
        Tensor::from_vec(out, &out_dims)
    }

    /// Row-wise argmax of a rank-2 tensor (`[n, c] -> n indices`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a rank-2 tensor");
        let (n, c) = (self.dims()[0], self.dims()[1]);
        assert!(c > 0, "argmax_rows requires at least one column");
        let data = self.as_slice();
        (0..n)
            .map(|i| {
                let row = &data[i * c..(i + 1) * c];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Row-wise softmax of a rank-2 tensor, numerically stabilised by
    /// subtracting the row maximum.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "softmax_rows requires a rank-2 tensor");
        let (n, c) = (self.dims()[0], self.dims()[1]);
        let data = self.as_slice();
        let mut out = vec![0.0f32; n * c];
        for i in 0..n {
            let row = &data[i * c..(i + 1) * c];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - max).exp();
                out[i * c + j] = e;
                denom += e;
            }
            for j in 0..c {
                out[i * c + j] /= denom;
            }
        }
        Tensor::from_vec(out, &[n, c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_matches_transpose_identity() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 0.5, -1.0, 2.0, 0.0, 1.0], &[3, 2]);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((l - r).abs() < 1e-5);
        }
    }

    #[test]
    fn sum_axis_middle() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let s = t.sum_axis(1);
        assert_eq!(s.dims(), &[2, 4]);
        // first output element = t[0,0,0] + t[0,1,0] + t[0,2,0] = 0 + 4 + 8
        assert_eq!(s.at(&[0, 0]), 12.0);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let row_sum: f32 = (0..3).map(|j| s.at(&[i, j])).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        assert!(s.at(&[0, 2]) > s.at(&[0, 0]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = t.softmax_rows();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
    }
}
