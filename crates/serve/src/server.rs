//! The serving engine: admission, micro-batched execution by a pool of
//! workers sharing one built network per published version, and response
//! routing.
//!
//! Request lifecycle:
//!
//! 1. A [`ServeClient`] validates the sample shape and [`BoundedQueue::
//!    try_push`]es a request carrying its completion [`Pending`] slot —
//!    a full queue rejects immediately with [`ServeError::Backpressure`].
//! 2. A worker thread collects a micro-batch under the
//!    [`crate::BatchPolicy`] (full, everyone present, or `max_wait` — see
//!    [`crate::collect_batch`]), drops requests whose deadline already passed
//!    ([`ServeError::DeadlineExceeded`]), stacks the survivors into one
//!    `[b, ...]` tensor and runs **one** batched forward on the server's
//!    current fused [`Network`], over the worker's own [`Workspace`]
//!    ([`Network::infer_with`]). Skinny per-sample GEMMs coalesce across
//!    the batch — the whole point of batching here — and a convolutional
//!    batch is split across the shared pool once, by sample range, each
//!    range running the whole plan in sample tiles of 8 192 input pixels
//!    (at 32 px and below, a batch of at most `max_batch = 8` is one tile);
//!    a warm forward allocates only that fan-out's task boxes.
//! 3. Each request's logits row is routed back through its completion slot;
//!    latency and batch-size metrics are recorded.
//!
//! Every admitted request is counted out of the system
//! ([`BoundedQueue::finish`]) exactly once, *before* its waiter is released,
//! whichever way it leaves: response, expiry, shed, worker panic or
//! shutdown drain. [`Server::in_flight`] reads the balance, and the
//! batcher's close rule runs on it.
//!
//! Which weights are served is one slot: the supervisor checks the
//! [`ModelRegistry`] every poll tick, builds a newly published version once
//! (factory, fusion, checkpoint load) outside any lock, and swaps the
//! shared `Arc` in. A batch clones that `Arc` when it opens, so it runs on
//! exactly one version by construction. A version that fails to build is
//! rejected once and never retried; the current one keeps serving.
//!
//! The whole lifecycle is traced through `hs_obs` when `HS_TRACE` is set:
//! an `admit` span per submission, `batch_collect` (payload: why the batch
//! closed — 0 full, 1 everyone present, 2 timed out)/`batch_execute`/
//! `batch_route` spans per batch, per-request `request`/`queue_wait`/
//! `serve` spans reconstructed from captured timestamps, and instant
//! events for `rejected`/`expired`/`shed` requests and supervisor
//! transitions (`worker_panic`, `worker_restart`, `brownout_enter`,
//! `brownout_exit`). With tracing off each site is a single relaxed
//! atomic load (see `docs/OBSERVABILITY.md`).

use crate::batcher::{collect_batch, BatchPolicy, Collected};
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::queue::{BoundedQueue, Popped, PushError};
use crate::registry::{ModelRegistry, ModelVersion};
use hs_nn::{CheckpointError, Network, Workspace};
use hs_obs::{instant_ns, now_ns, trace};
use hs_parallel::sync::{lock, wait};
use hs_tensor::{DType, Tensor};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a request was not served.
#[derive(Debug)]
pub enum ServeError {
    /// The admission queue is full: shed load or retry later.
    Backpressure {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The request's deadline passed before a worker executed it.
    DeadlineExceeded {
        /// How long the request had been waiting when it was dropped.
        waited: Duration,
    },
    /// The sample's shape does not match the model the server was built
    /// for.
    ShapeMismatch {
        /// Per-sample input shape the server expects.
        expected: Vec<usize>,
        /// Shape of the rejected sample.
        got: Vec<usize>,
    },
    /// The server is shutting down (or already shut down).
    Shutdown,
    /// The worker executing this request's batch panicked; the request was
    /// aborted (the supervisor respawns the worker, so later requests keep
    /// being served).
    WorkerPanicked,
    /// Brownout load-shedding: the server is in sustained overload and this
    /// request's deadline slack was too small to be worth executing. Unlike
    /// [`ServeError::Backpressure`] (admission-time, queue full) this is an
    /// execution-time decision; callers should retry with backoff or lower
    /// their offered load.
    Shed {
        /// Queue depth observed when the request was shed.
        queue_depth: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Backpressure { capacity } => write!(
                f,
                "request rejected: admission queue is at capacity ({capacity}) — the server \
                 is overloaded; retry with backoff or raise queue_capacity/workers"
            ),
            ServeError::DeadlineExceeded { waited } => write!(
                f,
                "request expired after waiting {waited:?}: its deadline passed before a \
                 worker could execute it"
            ),
            ServeError::ShapeMismatch { expected, got } => write!(
                f,
                "sample shape {got:?} does not match the served model's input {expected:?}"
            ),
            ServeError::Shutdown => write!(f, "server is shut down"),
            ServeError::WorkerPanicked => write!(
                f,
                "internal error: the worker executing this request's batch panicked; \
                 the request was aborted"
            ),
            ServeError::Shed { queue_depth } => write!(
                f,
                "request shed: the server is in brownout (queue depth {queue_depth}) and \
                 this request's deadline slack was too small to execute; retry with backoff"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why [`Server::start`] refused to start.
#[derive(Debug)]
pub enum StartError {
    /// No version of the requested model is published in the registry.
    UnknownModel {
        /// The requested name.
        name: String,
        /// Names that are published.
        available: Vec<String>,
    },
    /// The latest published checkpoint does not load into the network the
    /// factory builds.
    Checkpoint(CheckpointError),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::UnknownModel { name, available } => write!(
                f,
                "model {name:?} has no published version in the registry (available: \
                 {available:?}); publish a checkpoint before starting the server"
            ),
            StartError::Checkpoint(e) => write!(
                f,
                "latest published checkpoint does not load into the served network: {e}"
            ),
        }
    }
}

impl std::error::Error for StartError {}

impl From<CheckpointError> for StartError {
    fn from(e: CheckpointError) -> Self {
        StartError::Checkpoint(e)
    }
}

/// A served inference result.
#[derive(Debug, Clone)]
pub struct Response {
    /// The model's output row for this sample (e.g. class logits).
    pub logits: Vec<f32>,
    /// Registry version of the model that produced the output.
    pub model_version: u64,
    /// Submit-to-completion latency.
    pub latency: Duration,
    /// Size of the batch this request was executed in.
    pub batch_size: usize,
}

/// The per-request completion slot: one writer (the executing worker), one
/// waiter (the client that submitted).
struct Slot {
    state: Mutex<Option<Result<Response, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// First completion wins; later writes (e.g. the [`Request`] drop
    /// guard firing after a normal completion) are ignored.
    fn complete(&self, result: Result<Response, ServeError>) {
        let mut state = lock(&self.state);
        if state.is_none() {
            *state = Some(result);
            drop(state);
            self.ready.notify_all();
        }
    }
}

/// A handle to one in-flight request ([`ServeClient::submit`]); redeem it
/// with [`Pending::wait`].
pub struct Pending {
    slot: Arc<Slot>,
}

impl fmt::Debug for Pending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let done = lock(&self.slot.state).is_some();
        f.debug_struct("Pending").field("done", &done).finish()
    }
}

impl Pending {
    /// Blocks until the request completes (successfully or not).
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut state = lock(&self.slot.state);
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = wait(&self.slot.ready, state);
        }
    }

    /// Non-blocking poll: the outcome if the request has completed, or the
    /// handle back (`Err`) to poll again later. Consuming `self` keeps the
    /// completion single-shot — a redeemed handle cannot be waited on
    /// twice.
    pub fn try_wait(self) -> Result<Result<Response, ServeError>, Pending> {
        let taken = lock(&self.slot.state).take();
        match taken {
            Some(result) => Ok(result),
            None => Err(self),
        }
    }
}

/// One queued inference request.
struct Request {
    sample: Tensor,
    enqueued: Instant,
    deadline: Option<Instant>,
    slot: Arc<Slot>,
    /// `hs_obs` correlation id stamped at admission (0 when tracing is
    /// off); every trace record for this request carries it as payload.
    trace_id: u64,
}

impl Drop for Request {
    /// Completion back-stop: a request dropped without a result (its
    /// executing worker panicked mid-batch, or the server was torn down
    /// with it still queued) fails its waiter instead of stranding it on a
    /// condvar forever. A no-op after a normal completion (first write
    /// wins in [`Slot::complete`]).
    fn drop(&mut self) {
        self.slot.complete(Err(ServeError::WorkerPanicked));
    }
}

/// Brownout (overload self-protection) knobs.
///
/// The supervisor samples the admission-queue depth every poll tick; when
/// it stays at or above `high_watermark × queue_capacity` for
/// `enter_ticks` consecutive ticks the server enters brownout, and it
/// exits once the depth stays at or below `low_watermark × queue_capacity`
/// for `exit_ticks` ticks (watermark hysteresis, so the mode doesn't
/// flap). While browned out, workers close batches `wait_divisor`× sooner
/// (trading batch fullness for queue drain rate) and shed queued requests
/// whose deadline slack has fallen under `min_slack` with
/// [`ServeError::Shed`] — those requests were going to expire anyway, and
/// shedding them early spends the forward pass on requests that can still
/// make their deadlines instead of letting p99 collapse for everyone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Queue-depth fraction (of capacity) that counts as overload.
    pub high_watermark: f32,
    /// Queue-depth fraction at which the overload is considered over.
    pub low_watermark: f32,
    /// Consecutive over-watermark supervisor ticks before entering.
    pub enter_ticks: u32,
    /// Consecutive under-watermark supervisor ticks before exiting.
    pub exit_ticks: u32,
    /// Factor by which `max_wait` shrinks while browned out (≥ 1).
    pub wait_divisor: u32,
    /// Minimum deadline slack for a request to be worth executing while
    /// browned out; requests with less are shed.
    pub min_slack: Duration,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            high_watermark: 0.75,
            low_watermark: 0.25,
            enter_ticks: 3,
            exit_ticks: 10,
            wait_divisor: 4,
            min_slack: Duration::from_millis(2),
        }
    }
}

impl BrownoutConfig {
    fn validate(&self) {
        assert!(
            self.high_watermark > 0.0 && self.high_watermark <= 1.0,
            "high_watermark must be in (0, 1], got {}",
            self.high_watermark
        );
        assert!(
            self.low_watermark > 0.0 && self.low_watermark <= self.high_watermark,
            "low_watermark must be in (0, high_watermark], got {}",
            self.low_watermark
        );
        assert!(self.enter_ticks > 0, "enter_ticks must be positive");
        assert!(self.exit_ticks > 0, "exit_ticks must be positive");
        assert!(self.wait_divisor > 0, "wait_divisor must be positive");
    }
}

/// Server sizing, batching and self-healing knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker threads executing batches. Each owns only its
    /// scratch; all of them run the one network the server holds.
    pub workers: usize,
    /// Admission queue bound (requests beyond it are rejected with
    /// [`ServeError::Backpressure`]).
    pub queue_capacity: usize,
    /// The micro-batching policy.
    pub policy: BatchPolicy,
    /// Restart budget per worker slot: how many times the supervisor
    /// respawns a panicked worker before declaring the slot dead. When
    /// every slot is dead the server closes its queue and fails remaining
    /// requests with [`ServeError::Shutdown`] instead of hanging them.
    pub max_worker_restarts: u32,
    /// Base respawn delay; doubles per restart of the same slot (capped at
    /// 64× the base) so a crash-looping model doesn't spin the CPU.
    pub restart_backoff: Duration,
    /// How often the supervisor reaps panicked workers, samples the queue
    /// depth for brownout decisions and checks the registry for a newer
    /// version (so, plus one build, how soon a publish starts serving).
    pub supervisor_poll: Duration,
    /// Brownout (overload self-protection) configuration.
    pub brownout: BrownoutConfig,
}

impl ServerConfig {
    /// A configuration with the given knobs, default self-healing knobs
    /// (5 restarts per worker at 5 ms base backoff, a 1 ms supervisor
    /// poll, default [`BrownoutConfig`]).
    pub fn new(workers: usize, queue_capacity: usize, policy: BatchPolicy) -> Self {
        assert!(workers > 0, "server needs at least one worker");
        ServerConfig {
            workers,
            queue_capacity,
            policy,
            max_worker_restarts: 5,
            restart_backoff: Duration::from_millis(5),
            supervisor_poll: Duration::from_millis(1),
            brownout: BrownoutConfig::default(),
        }
    }

    /// The default worker count: one per available hardware thread
    /// (`std::thread::available_parallelism`), 1 when that is unknowable.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    }

    /// Returns `self` unchanged: f32 is the only weight dtype. This exists
    /// only for the perf ledger's serving phase, which calls
    /// `.with_dtype(DType::F32)`; it goes, with [`DType`], when ROADMAP
    /// item 2 drops that call.
    pub fn with_dtype(self, _: DType) -> Self {
        self
    }
}

impl Default for ServerConfig {
    /// One worker per available hardware thread, a 64-deep admission queue
    /// and a `(8, 200 µs)` batching policy.
    fn default() -> Self {
        ServerConfig::new(Self::default_workers(), 64, BatchPolicy::new(8, 200))
    }
}

/// One published version as the server runs it.
struct Served {
    version: u64,
    net: Network,
}

/// The one place a served network is made: the factory's architecture,
/// fused, then loaded from the published version's bytes.
fn build(make: &Factory, from: &ModelVersion) -> Result<Served, CheckpointError> {
    let mut net = make();
    net.fuse_inference();
    net.load_checkpoint_bytes(&from.bytes)?;
    let version = from.version;
    Ok(Served { version, net })
}

/// The caller's model constructor ([`Server::start`]'s `replica`).
type Factory = dyn Fn() -> Network + Send + Sync;

/// State shared by clients, workers and the supervisor.
struct Shared {
    queue: BoundedQueue<Request>,
    metrics: ServerMetrics,
    input_dims: Vec<usize>,
    policy: BatchPolicy,
    brownout: BrownoutConfig,
    /// Set by the supervisor's watermark hysteresis; read by workers to
    /// shrink `max_wait` and shed low-slack requests.
    brownout_active: AtomicBool,
    /// Fault-injection hook ([`Server::inject_worker_panic`]): the next
    /// worker to start a batch swaps this to false and panics.
    panic_fuse: AtomicBool,
    /// The version every batch that opens from now on runs on. Only the
    /// supervisor writes it (and `Server::start` seeds it).
    current: Mutex<Arc<Served>>,
}

/// A cloneable request-submission handle (the "connection" object load
/// generators hand to each client thread).
#[derive(Clone)]
pub struct ServeClient {
    shared: Arc<Shared>,
}

impl ServeClient {
    /// Submits one single-sample request; returns a [`Pending`] completion
    /// handle without blocking on execution. `deadline` (measured from now)
    /// lets the server drop the request unexecuted once it can no longer be
    /// useful; one too far away to add to the clock is no deadline.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] for a sample that does not match the
    /// served model, [`ServeError::Backpressure`] when the admission queue
    /// is full, [`ServeError::Shutdown`] after shutdown began.
    pub fn submit(
        &self,
        sample: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Pending, ServeError> {
        if sample.dims() != &self.shared.input_dims[..] {
            return Err(ServeError::ShapeMismatch {
                expected: self.shared.input_dims.clone(),
                got: sample.dims().to_vec(),
            });
        }
        let trace_id = trace::next_id();
        let admit = trace::span("admit");
        admit.set_payload(trace_id);
        let slot = Arc::new(Slot::new());
        #[expect(
            clippy::disallowed_methods,
            reason = "request deadlines and queue-wait metrics are real time"
        )]
        let now = Instant::now();
        let request = Request {
            sample,
            enqueued: now,
            deadline: deadline.and_then(|d| now.checked_add(d)),
            slot: Arc::clone(&slot),
            trace_id,
        };
        match self.shared.queue.try_push(request) {
            Ok(()) => Ok(Pending { slot }),
            Err(PushError::Full(_)) => {
                self.shared.metrics.record_rejected();
                trace::instant("rejected", trace_id);
                Err(ServeError::Backpressure {
                    capacity: self.shared.queue.capacity(),
                })
            }
            Err(PushError::Closed(_)) => Err(ServeError::Shutdown),
        }
    }

    /// Submits and blocks for the response — the closed-loop client call.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::submit`], plus any execution-time failure
    /// ([`ServeError::DeadlineExceeded`]).
    pub fn infer(
        &self,
        sample: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Response, ServeError> {
        self.submit(sample, deadline)?.wait()
    }

    /// Current admission-queue depth (diagnostic).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Requests admitted and not yet answered: queued, held in an open
    /// batch, or executing (diagnostic; 0 on a quiescent server).
    pub fn in_flight(&self) -> usize {
        self.shared.queue.outstanding()
    }
}

/// The serving engine: owns the admission queue, the worker pool and the
/// supervisor that keeps the pool alive.
pub struct Server {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server for registry model `model_name`.
    ///
    /// `replica` builds the structurally identical, *unweighted* model
    /// (the same closure shape as `hs-fl`'s `ModelFactory`). It runs once
    /// per served version: here for the latest published checkpoint, then
    /// on the supervisor thread for every later one. Each build is fused
    /// and loaded from the checkpoint, and every worker serves that one
    /// network. `input_dims`
    /// is the per-sample input shape (e.g. `[3, 32, 32]`); requests are
    /// validated against it at admission.
    ///
    /// # Errors
    ///
    /// [`StartError::UnknownModel`] when nothing is published under
    /// `model_name`; [`StartError::Checkpoint`] when the latest checkpoint
    /// does not load into the factory's network (wrong architecture,
    /// truncated blob, ...).
    pub fn start(
        registry: Arc<ModelRegistry>,
        model_name: &str,
        replica: impl Fn() -> Network + Send + Sync + 'static,
        input_dims: &[usize],
        config: ServerConfig,
    ) -> Result<Server, StartError> {
        let latest = registry
            .latest(model_name)
            .ok_or_else(|| StartError::UnknownModel {
                name: model_name.to_string(),
                available: registry.names(),
            })?;
        // built on the caller's thread, so a bad registry entry fails here
        let served = build(&replica, &latest)?;

        config.brownout.validate();
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: ServerMetrics::new(),
            input_dims: input_dims.to_vec(),
            policy: config.policy,
            brownout: config.brownout,
            brownout_active: AtomicBool::new(false),
            panic_fuse: AtomicBool::new(false),
            current: Mutex::new(Arc::new(served)),
        });
        let slots: Vec<WorkerSlot> = (0..config.workers)
            .map(|i| WorkerSlot::Running {
                handle: spawn_worker(&shared, i),
                restarts: 0,
            })
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            let supervisor = Supervisor {
                max_restarts: config.max_worker_restarts,
                backoff_base: config.restart_backoff,
                poll: config.supervisor_poll,
                registry,
                name: model_name.to_string(),
                make: Box::new(replica),
                rejected: 0,
            };
            std::thread::Builder::new()
                .name("hs-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, supervisor, slots))
                .expect("failed to spawn serving supervisor")
        };
        Ok(Server {
            shared,
            supervisor: Some(supervisor),
        })
    }

    /// A cloneable submission handle.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Aggregated metrics so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Clears the metrics (between load-sweep configurations).
    pub fn reset_metrics(&self) {
        self.shared.metrics.reset()
    }

    /// Requests admitted and not yet answered (see
    /// [`ServeClient::in_flight`]).
    pub fn in_flight(&self) -> usize {
        self.shared.queue.outstanding()
    }

    /// Whether the server is currently in brownout mode (diagnostic).
    pub fn brownout_active(&self) -> bool {
        self.shared.brownout_active.load(Ordering::Relaxed)
    }

    /// Fault-injection hook for chaos tests: the next worker to start
    /// executing a batch panics. Its in-flight requests fail with
    /// [`ServeError::WorkerPanicked`] and the supervisor respawns the
    /// worker — exactly the life cycle the chaos harness asserts on.
    pub fn inject_worker_panic(&self) {
        self.shared.panic_fuse.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: stops admitting, lets the workers drain every
    /// already-accepted request, and joins the supervisor (which joins the
    /// workers).
    pub fn shutdown(mut self) {
        self.shared.queue.close();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    /// Dropping without [`Server::shutdown`] still stops admission and lets
    /// the workers and supervisor drain and exit on their own (they hold
    /// their own `Arc`s).
    fn drop(&mut self) {
        self.shared.queue.close();
    }
}

/// One worker slot as the supervisor tracks it.
enum WorkerSlot {
    /// A live worker thread (or one that has exited and awaits reaping).
    Running {
        handle: JoinHandle<()>,
        restarts: u32,
    },
    /// A panicked worker waiting out its respawn backoff.
    Backoff { at: Instant, restarts: u32 },
    /// Restart budget exhausted; this slot serves no more.
    Dead,
}

/// What the supervisor owns: its knobs, captured at start, and where served
/// versions come from.
struct Supervisor {
    max_restarts: u32,
    backoff_base: Duration,
    poll: Duration,
    registry: Arc<ModelRegistry>,
    name: String,
    make: Box<Factory>,
    /// The last version whose build failed or panicked (0: none yet).
    rejected: u64,
}

impl Supervisor {
    /// Builds the registry's latest version if it is neither the one being
    /// served nor the last rejected one, and swaps it into `current`. The
    /// build runs outside the lock; a failed or panicking build (the factory
    /// is caller code) is recorded as rejected and never retried.
    fn refresh(&mut self, current: &Mutex<Arc<Served>>) {
        let Some(latest) = self.registry.latest(&self.name) else {
            return;
        };
        if latest.version == self.rejected || latest.version == lock(current).version {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| build(&*self.make, &latest))) {
            Ok(Ok(served)) => *lock(current) = Arc::new(served),
            Ok(Err(_)) | Err(_) => self.rejected = latest.version,
        }
    }
}

/// Spawns one worker thread on `slot_index`.
fn spawn_worker(shared: &Arc<Shared>, slot_index: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("hs-serve-{slot_index}"))
        .spawn(move || worker_loop(&shared))
        .expect("failed to spawn serving worker")
}

/// The supervisor: reaps panicked workers, respawns them with exponential
/// backoff under a bounded restart budget, picks up newly published
/// versions, runs the brownout watermark hysteresis, and — when the whole
/// pool is dead or the server shuts down — makes sure no queued request is
/// left hanging.
fn supervisor_loop(shared: &Arc<Shared>, mut sup: Supervisor, mut slots: Vec<WorkerSlot>) {
    let brownout = shared.brownout;
    let capacity = shared.queue.capacity() as f32;
    let high_mark = (brownout.high_watermark * capacity).ceil() as usize;
    let low_mark = (brownout.low_watermark * capacity).floor() as usize;
    let mut high_ticks = 0u32;
    let mut low_ticks = 0u32;

    loop {
        if shared.queue.is_closed() {
            // shutdown: the workers drain the queue and exit; join them,
            // then fail anything left (possible only if every worker died
            // before draining finished)
            for slot in slots {
                if let WorkerSlot::Running { handle, .. } = slot {
                    let _ = handle.join();
                }
            }
            fail_queued(shared);
            return;
        }

        // --- reap exited workers
        for slot in slots.iter_mut() {
            let finished =
                matches!(slot, WorkerSlot::Running { handle, .. } if handle.is_finished());
            if !finished {
                continue;
            }
            let WorkerSlot::Running { handle, restarts } =
                std::mem::replace(slot, WorkerSlot::Dead)
            else {
                unreachable!("checked above");
            };
            let panicked = handle.join().is_err();
            if !panicked {
                // normal exit with the queue open only happens in the
                // close() race right before shutdown; Dead is correct
                continue;
            }
            shared.metrics.record_worker_panic();
            trace::instant("worker_panic", restarts as u64);
            if restarts < sup.max_restarts {
                let backoff = sup.backoff_base * 2u32.pow(restarts.min(6));
                #[expect(clippy::disallowed_methods, reason = "restart backoff is real time")]
                let at = Instant::now() + backoff;
                *slot = WorkerSlot::Backoff {
                    at,
                    restarts: restarts + 1,
                };
            }
            // else: stays Dead — restart budget exhausted
        }

        // --- respawn workers whose backoff elapsed
        #[expect(clippy::disallowed_methods, reason = "restart backoff is real time")]
        let now = Instant::now();
        for (i, slot) in slots.iter_mut().enumerate() {
            if let WorkerSlot::Backoff { at, restarts } = *slot {
                if now >= at {
                    shared.metrics.record_worker_restart();
                    trace::instant("worker_restart", i as u64);
                    *slot = WorkerSlot::Running {
                        handle: spawn_worker(shared, i),
                        restarts,
                    };
                }
            }
        }

        // --- a fully dead pool must not strand clients: stop admission and
        // fail everything still queued
        if slots.iter().all(|s| matches!(s, WorkerSlot::Dead)) {
            shared.queue.close();
            fail_queued(shared);
            return;
        }

        // --- serve a newly published version
        sup.refresh(&shared.current);

        // --- brownout watermark hysteresis
        let depth = shared.queue.len();
        if depth >= high_mark {
            high_ticks += 1;
            low_ticks = 0;
        } else if depth <= low_mark {
            low_ticks += 1;
            high_ticks = 0;
        } else {
            high_ticks = 0;
            low_ticks = 0;
        }
        let active = shared.brownout_active.load(Ordering::Relaxed);
        if !active && high_ticks >= brownout.enter_ticks {
            shared.brownout_active.store(true, Ordering::Relaxed);
            shared.metrics.record_brownout_entry();
            trace::instant("brownout_enter", depth as u64);
        } else if active && low_ticks >= brownout.exit_ticks {
            shared.brownout_active.store(false, Ordering::Relaxed);
            trace::instant("brownout_exit", depth as u64);
        }

        std::thread::sleep(sup.poll);
    }
}

/// Drains the (closed) queue, completing every remaining request with
/// [`ServeError::Shutdown`] so no waiter hangs.
fn fail_queued(shared: &Shared) {
    while let Popped::Item(request) = shared.queue.pop_timeout(Duration::ZERO) {
        shared.queue.finish(1);
        request.slot.complete(Err(ServeError::Shutdown));
    }
}

/// One worker: collect, execute, route — until the queue closes (or a
/// panic unwinds the thread; the supervisor takes it from there, and the
/// in-flight batch's requests fail via the [`Request`] drop guard rather
/// than hanging). It owns only scratch: the network is the server's.
fn worker_loop(shared: &Shared) {
    let mut ws = Workspace::new();
    let mut batch_in = Tensor::zeros(&[0]);
    loop {
        // Brownout shrinks max_wait: under sustained overload, waiting for
        // batch companions is pointless (the queue is full of them) and the
        // drain rate is what protects p99.
        let mut policy = shared.policy;
        if shared.brownout_active.load(Ordering::Relaxed) {
            policy.max_wait /= shared.brownout.wait_divisor;
        }
        match collect_batch(&shared.queue, &policy) {
            Collected::Closed => break,
            Collected::Batch(requests, _) => run_batch(shared, &mut ws, &mut batch_in, requests),
        }
    }
}

/// Counts an executing batch out of the system when dropped: explicitly
/// just before its responses are routed, or by the unwind if the forward
/// panics.
struct Departure<'a> {
    queue: &'a BoundedQueue<Request>,
    batch: usize,
}

impl Drop for Departure<'_> {
    fn drop(&mut self) {
        self.queue.finish(self.batch);
    }
}

/// Executes one collected micro-batch and routes the responses.
fn run_batch(shared: &Shared, ws: &mut Workspace, batch_in: &mut Tensor, requests: Vec<Request>) {
    // deadline triage first: expired requests are dropped unexecuted so
    // they cost no forward time; in brownout, requests whose remaining
    // slack is below the configured minimum are shed as well — they would
    // expire before their response is useful, and the forward capacity is
    // better spent on requests that can still make it
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline triage compares against real time"
    )]
    let now = Instant::now();
    let browned_out = shared.brownout_active.load(Ordering::Relaxed);
    let min_slack = shared.brownout.min_slack;
    let mut live = Vec::with_capacity(requests.len());
    for request in requests {
        match request.deadline {
            Some(d) if now > d => {
                shared.metrics.record_expired();
                trace::instant("expired", request.trace_id);
                shared.queue.finish(1);
                request.slot.complete(Err(ServeError::DeadlineExceeded {
                    waited: now - request.enqueued,
                }));
            }
            Some(d) if browned_out && d - now < min_slack => {
                shared.metrics.record_shed();
                trace::instant("shed", request.trace_id);
                shared.queue.finish(1);
                request.slot.complete(Err(ServeError::Shed {
                    queue_depth: shared.queue.len(),
                }));
            }
            _ => {
                // `now` is batch-open: everything before it was queue wait,
                // everything after is service (the split MetricsSnapshot's
                // queue_p* fields report).
                shared
                    .metrics
                    .record_queue_wait(now.saturating_duration_since(request.enqueued));
                live.push(request);
            }
        }
    }
    if live.is_empty() {
        return;
    }
    // Declared after `live`, so an unwinding forward counts the batch out
    // before the request drop guards release its waiters.
    let batch = live.len();
    let departure = Departure {
        queue: &shared.queue,
        batch,
    };
    if shared.panic_fuse.swap(false, Ordering::SeqCst) {
        // chaos hook: die exactly like a real mid-batch panic (`live`
        // unwinds → drop guards fire)
        panic!("injected worker panic (Server::inject_worker_panic)");
    }

    let sample_len: usize = shared.input_dims.iter().product();
    let mut dims = Vec::with_capacity(1 + shared.input_dims.len());
    dims.push(batch);
    dims.extend_from_slice(&shared.input_dims);
    batch_in.resize_to(&dims);
    let stacked = batch_in.as_mut_slice();
    for (i, request) in live.iter().enumerate() {
        stacked[i * sample_len..(i + 1) * sample_len].copy_from_slice(request.sample.as_slice());
    }

    // the whole batch runs on the version current as it starts; a swap
    // meanwhile applies to the next batch
    let served = Arc::clone(&lock(&shared.current));
    let out = {
        let execute = trace::span("batch_execute");
        execute.set_payload(batch as u64);
        served.net.infer_with(batch_in, ws)
    };
    let row = out.len() / batch;
    let out_rows = out.as_slice();
    shared.metrics.record_batch(batch);
    drop(departure);
    let route = trace::span("batch_route");
    route.set_payload(batch as u64);
    let t_open = instant_ns(now);
    for (i, request) in live.into_iter().enumerate() {
        let latency = request.enqueued.elapsed();
        shared.metrics.record_completion(latency);
        // Per-request timeline, reconstructed from captured timestamps:
        // `request` [enqueued → done] with contiguous children
        // `queue_wait` [enqueued → batch-open] and `serve` [batch-open →
        // done], so the children tile the request's wall-clock exactly
        // (the ≥95 % coverage contract pinned by tests/obs_trace.rs).
        let t_enq = instant_ns(request.enqueued);
        let t_done = now_ns();
        let rid = trace::span_at("request", t_enq, t_done, 0, request.trace_id);
        if rid != 0 {
            trace::span_at("queue_wait", t_enq, t_open, rid, request.trace_id);
            trace::span_at("serve", t_open, t_done, rid, request.trace_id);
        }
        request.slot.complete(Ok(Response {
            logits: out_rows[i * row..(i + 1) * row].to_vec(),
            model_version: served.version,
            latency,
            batch_size: batch,
        }));
    }
    ws.give(out);
}
