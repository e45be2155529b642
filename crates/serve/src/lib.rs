//! # hs-serve
//!
//! A dynamic micro-batching inference server over the `hs-nn` model zoo —
//! the subsystem that turns the repository's fast kernels into a *system*:
//! queueing, shared versioned weights and backpressure in one place.
//!
//! ## Architecture
//!
//! ```text
//!  ModelRegistry ──► supervisor: build each version once, swap Arc<Network>
//!  clients ──► ServeClient::submit ──► BoundedQueue (admission control)
//!                                          │  try_push: full → Backpressure
//!                                          ▼
//!                         worker threads (each owns only a Workspace)
//!                           1. collect_batch: full / everyone present / max_wait
//!                           2. drop expired requests (deadlines)
//!                           3. clone the current Arc: one version per batch
//!                           4. one batched Network::infer_with forward
//!                           5. route logits rows via completion slots
//!                                          │
//!  clients ◄── Pending::wait ◄─────────────┘      ServerMetrics: p50/p95/p99,
//!                                                 batch-size histogram
//! ```
//!
//! Single-sample requests enter a bounded MPMC queue; a batcher coalesces
//! them under a [`BatchPolicy`] (`max_batch`, `max_wait_us`) into **one**
//! batched forward on the server's one network. That forward is where the
//! repository's performance stack pays off: the network is fused
//! (conv→BN→activation epilogues), a warm forward allocates nothing, and
//! the batched small-GEMM path packs each weight panel once while several
//! samples' skinny columns fill the register strips — the measured
//! economics the batcher exists to exploit (see `docs/PERF.md` and
//! `docs/SERVING.md`).
//!
//! Model weights come from the [`ModelRegistry`]: named, versioned
//! checkpoint blobs (the `hs-nn` binary checkpoint format) published by a
//! training loop — e.g. `hs-fl`'s `run_with_checkpoints` hook — each built
//! once and swapped in atomically for the next batch, so a simulated FL run
//! can keep improving the global model *while it is being served*.
//!
//! ## Quick start
//!
//! ```
//! use hs_serve::{BatchPolicy, ModelRegistry, Server, ServerConfig};
//! use hs_nn::{Linear, Network, Sequential};
//! use hs_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! // any constructor that rebuilds the same architecture works as a factory
//! let replica = || {
//!     let mut rng = StdRng::seed_from_u64(0);
//!     Network::new(Sequential::new(vec![Box::new(Linear::new(4, 3, &mut rng))]))
//! };
//!
//! // publish a "trained" model into the registry…
//! let registry = Arc::new(ModelRegistry::new());
//! registry.publish("demo", &mut replica());
//!
//! // …serve it, and drive a request through the batching path
//! let server = Server::start(
//!     Arc::clone(&registry),
//!     "demo",
//!     replica,
//!     &[4],
//!     ServerConfig::new(1, 16, BatchPolicy::new(4, 100)),
//! )
//! .unwrap();
//! let client = server.client();
//! let response = client.infer(Tensor::ones(&[4]), None).unwrap();
//! assert_eq!(response.logits.len(), 3);
//! server.shutdown();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod batcher;
mod metrics;
mod queue;
mod registry;
mod server;

pub use batcher::{collect_batch, BatchPolicy, CloseReason, Collected};
pub use metrics::{BatchBucket, MetricsSnapshot, ServerMetrics};
pub use queue::{BoundedQueue, Companion, Popped, PushError};
pub use registry::{ModelRegistry, ModelVersion};
pub use server::{
    BrownoutConfig, Pending, Response, ServeClient, ServeError, Server, ServerConfig, StartError,
};
