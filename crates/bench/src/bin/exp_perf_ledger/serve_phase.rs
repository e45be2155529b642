//! The serving phase shared by both workloads: publish the trained global
//! model to a `ModelRegistry`, start a one-worker `Server`
//! (queue 256, `BatchPolicy::new(8, 500)`, f32), and drive it from one
//! generator thread — `sat` keeps a window of 8 in flight, `solo` a window
//! of 1 (a lone request waits out `max_wait`, the light-load latency).
//!
//! Every response is checked: logits within 1e-5 (relative to
//! `max(|reference|, 1)`, the tolerance `tests/serving_e2e.rs` pins) of a
//! direct `Network::infer` on the same sample by a replica loaded from the
//! same checkpoint, and `model_version` as published.

use crate::loadgen::{Outcome, Target};
use hs_nn::Network;
use hs_serve::{
    BatchPolicy, ModelRegistry, Pending, Response, ServeClient, ServeError, Server, ServerConfig,
};
use hs_tensor::{DType, Tensor};
use std::sync::Arc;
use std::time::Duration;

pub const WORKERS: usize = 1;
pub const QUEUE_CAPACITY: usize = 256;
pub const MAX_BATCH: usize = 8;
pub const MAX_WAIT_US: u64 = 500;
pub const SAT_WINDOW: usize = 8;
pub const SOLO_WINDOW: usize = 1;
/// Deadline of the open-loop overload diagnostic.
pub const OVERLOAD_DEADLINE: Duration = Duration::from_millis(25);

/// Builds one unweighted replica of the served architecture.
pub type ReplicaFactory = Arc<dyn Fn() -> Network + Send + Sync>;

/// The served model: registry name, replica factory, per-sample shape.
pub struct ServeModel {
    pub name: &'static str,
    pub factory: ReplicaFactory,
    pub input_dims: Vec<usize>,
}

/// A running server plus the verifying request target, and how long each
/// set-up step took.
pub struct Live {
    pub server: Server,
    pub target: ServeTarget,
    pub publish_ns: u64,
    pub start_ns: u64,
    pub first_response_ns: u64,
}

impl Live {
    /// Registry publish + `Server::start` + first response.
    pub fn setup_ns(&self) -> u64 {
        self.publish_ns + self.start_ns + self.first_response_ns
    }
}

/// Publishes `trained`, starts the server and serves one request.
/// Building the verification reference is not part of the set-up time.
pub fn bring_up(
    model: &ServeModel,
    trained: &mut Network,
    samples: Vec<Tensor>,
) -> Result<Live, String> {
    let registry = Arc::new(ModelRegistry::new());
    let t0 = hs_obs::now_ns();
    let version = registry.publish(model.name, trained);
    let t1 = hs_obs::now_ns();
    let factory = Arc::clone(&model.factory);
    let config = ServerConfig::new(
        WORKERS,
        QUEUE_CAPACITY,
        BatchPolicy::new(MAX_BATCH, MAX_WAIT_US),
    )
    .with_dtype(DType::F32);
    let server = Server::start(
        Arc::clone(&registry),
        model.name,
        move || factory(),
        &model.input_dims,
        config,
    )
    .map_err(|e| format!("server failed to start: {e}"))?;
    let t2 = hs_obs::now_ns();

    // reference: what the server's replicas are — fused, loaded from the
    // published checkpoint — run directly, one sample at a time
    let bytes = &registry
        .latest(model.name)
        .ok_or("published model vanished from the registry")?
        .bytes;
    let mut reference = (model.factory)();
    reference.fuse_inference();
    reference
        .load_checkpoint_bytes(bytes)
        .map_err(|e| format!("reference replica failed to load: {e}"))?;
    let expected = samples
        .iter()
        .map(|s| {
            let mut dims = vec![1];
            dims.extend_from_slice(s.dims());
            reference.infer(&s.reshape(&dims)).as_slice().to_vec()
        })
        .collect();
    let target = ServeTarget {
        client: server.client(),
        samples,
        expected,
        version,
    };

    let t3 = hs_obs::now_ns();
    let first = target.wait(target.submit(0, None).map_err(|o| format!("{o:?}"))?, 0);
    let t4 = hs_obs::now_ns();
    if !matches!(first, Outcome::Ok { .. }) {
        return Err(format!("first response was {first:?}"));
    }
    Ok(Live {
        server,
        target,
        publish_ns: t1 - t0,
        start_ns: t2 - t1,
        first_response_ns: t4 - t3,
    })
}

/// The real [`Target`]: a `ServeClient` cycling a pool of seeded samples,
/// classifying every outcome and verifying every response.
pub struct ServeTarget {
    client: ServeClient,
    samples: Vec<Tensor>,
    expected: Vec<Vec<f32>>,
    version: u64,
}

fn logits_match(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= 1e-5 * b.abs().max(1.0))
}

impl ServeTarget {
    fn classify(&self, result: Result<Response, ServeError>, seq: usize) -> Outcome {
        match result {
            Ok(r) => {
                let want = &self.expected[seq % self.expected.len()];
                if r.model_version == self.version && logits_match(&r.logits, want) {
                    Outcome::Ok {
                        server_ns: r.latency.as_nanos() as u64,
                    }
                } else {
                    Outcome::Mismatch
                }
            }
            Err(ServeError::Backpressure { .. }) => Outcome::Rejected,
            Err(ServeError::DeadlineExceeded { .. }) => Outcome::Expired,
            Err(ServeError::Shed { .. }) => Outcome::Shed,
            Err(_) => Outcome::Failed,
        }
    }
}

impl Target for ServeTarget {
    type Ticket = Pending;

    fn submit(&self, seq: usize, deadline: Option<Duration>) -> Result<Pending, Outcome> {
        let sample = self.samples[seq % self.samples.len()].clone();
        self.client
            .submit(sample, deadline)
            .map_err(|e| self.classify(Err(e), seq))
    }

    fn wait(&self, ticket: Pending, seq: usize) -> Outcome {
        self.classify(ticket.wait(), seq)
    }

    fn try_wait(&self, ticket: Pending, seq: usize) -> Result<Outcome, Pending> {
        ticket.try_wait().map(|result| self.classify(result, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logits_tolerance_is_relative_above_one_and_absolute_below() {
        assert!(logits_match(&[1.0, 100.0], &[1.000_009, 100.000_9]));
        assert!(!logits_match(&[1.0], &[1.000_02]));
        assert!(!logits_match(&[100.0], &[100.002]));
        assert!(logits_match(&[1e-7], &[0.0]));
        assert!(!logits_match(&[1.0], &[1.0, 2.0]));
        assert!(!logits_match(&[f32::NAN], &[0.0]));
    }
}
