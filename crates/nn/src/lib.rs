//! # hs-nn
//!
//! A from-scratch, CPU-only neural-network training stack built on
//! [`hs_tensor`]. It provides the layer-wise forward/backward machinery,
//! losses, an SGD optimizer and the scaled-down mobile model zoo
//! (MobileNetV3-small-style, ShuffleNetV2-style, SqueezeNet-style and a
//! simple CNN) used throughout the HeteroSwitch reproduction.
//!
//! The design intentionally mirrors a classic "layers own their gradients"
//! architecture rather than a tape-based autograd: every [`Layer`] caches
//! whatever it needs during `forward` and produces the input gradient during
//! `backward`. This keeps the federated-learning simulator simple — a model
//! is just a [`Network`] whose parameters can be flattened into a `Vec<f32>`
//! for aggregation on the server.
//!
//! ```
//! use hs_nn::{Linear, Network, Relu, Sequential, CrossEntropyLoss, Loss, Sgd, Target};
//! use hs_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 3, &mut rng)),
//! ]));
//! let x = Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut rng);
//! let target = Target::Classes(vec![0, 2]);
//! let logits = net.forward(&x, true);
//! let (loss, grad) = CrossEntropyLoss.forward(&logits, &target);
//! net.backward(&grad);
//! Sgd::new(0.1).step(&mut net);
//! assert!(loss.is_finite());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod activation;
mod blocks;
mod checkpoint;
mod conv;
pub mod fuse;
mod layer;
mod linear;
mod loss;
pub mod models;
mod network;
mod norm;
mod optim;
mod param;
mod pool;
mod sequential;

pub use activation::{HardSigmoid, HardSwish, Relu};
pub use blocks::{ChannelShuffle, Fire, InvertedResidual, ShuffleUnit, SqueezeExcite};
pub use checkpoint::{CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use conv::{batched_gemm_crossovers, Conv2d, ConvAlgo};
pub use fuse::{fuse_sequential, FusedConvBnAct, FusedLinearAct};
pub use hs_tensor::EpilogueAct;
pub use layer::{states, Layer, State, Workspace};
pub use linear::Linear;
pub use loss::{BceWithLogitsLoss, CrossEntropyLoss, Loss, MseLoss, Target};
pub use network::Network;
pub use norm::BatchNorm2d;
pub use optim::Sgd;
pub use param::Param;
pub use pool::{Flatten, GlobalAvgPool, MaxPool2d};
pub use sequential::Sequential;
