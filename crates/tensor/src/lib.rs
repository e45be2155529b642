//! # hs-tensor
//!
//! A minimal, dependency-light `f32` n-dimensional tensor library used as the
//! numerical substrate for the HeteroSwitch reproduction. It provides exactly
//! what the neural-network stack (`hs-nn`), the ISP pipeline (`hs-isp`) and
//! the federated-learning simulator (`hs-fl`) need:
//!
//! * contiguous row-major storage with shape/stride bookkeeping,
//! * element-wise arithmetic and mapping,
//! * 2-D matrix multiplication and transposition,
//! * whole-tensor reductions (sum, mean, max), axis sums and row-wise
//!   argmax and softmax,
//! * random initialisation helpers with explicit, seedable RNGs.
//!
//! The hot paths run on the [`mod@gemm`] kernel layer: a cache-blocked,
//! register-tiled GEMM whose one micro-kernel is instantiated for AVX-512,
//! AVX2 and a portable tier and dispatched at runtime. Every kernel runs on
//! the calling thread; the crate spawns no work of its own. One specialised
//! convolution kernel sits beside it — [`depthwise_conv2d`] (direct
//! per-channel spatial convolution, with its training twin
//! [`depthwise_conv2d_backward`]) — sharing the GEMM epilogue's fused
//! scale/shift+activation semantics.
//! The seed's scalar kernels are preserved in [`naive`] as the correctness
//! reference. `unsafe` is confined to the ISA-dispatched kernels — the
//! vector lane implementations in `lanes.rs` and the `#[target_feature]`
//! instantiations of the GEMM micro-kernel in `gemm.rs` and of the 3×3
//! depthwise kernel in `depthwise.rs` (see each module's safety notes);
//! everything else in the crate denies it.
//!
//! ```
//! use hs_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)] // allowed only in lanes.rs and the two kernels over it (gemm.rs, depthwise.rs)

mod depthwise;
mod dtype;
mod error;
pub mod gemm;
mod init;
mod isa;
mod lanes;
pub mod naive;
mod ops;
mod reduce;
mod shape;
mod tensor;

pub use depthwise::{depthwise_conv2d, depthwise_conv2d_backward, valid_out_range};
pub use dtype::DType;
pub use error::TensorError;
pub use gemm::{
    gemm, gemm_acc, gemm_batch_cyclic_acc_strided, gemm_batch_cyclic_strided, gemm_epilogue,
    gemm_nt, gemm_tn, transpose_into, Epilogue, EpilogueAct,
};
pub use init::{he_normal, uniform, xavier_uniform};
pub use naive::matmul_naive;
pub use reduce::{dot_lanes, sum_lanes, LaneSum};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for results produced by fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
