//! A minimal scoped thread pool shared by the workspace's fan-out owners —
//! one per call path, each splitting whole units of work:
//!
//! * `hs-nn`'s `layer::infer_sharded` — an inference batch, by sample range;
//! * `hs-nn`'s `conv::run_bands` — a convolution's backward, by sample band;
//! * `hs-fl` — a round's clients (`simulation`), evaluation batches
//!   (`eval`), both through [`for_each_claimed`], and the update reduction
//!   (`aggregate`);
//! * `hs-data`'s `build_device_datasets` — a fleet's captures, by device,
//!   through [`parallel_chunks_mut`].
//!
//! The kernels below them (`hs-tensor`'s GEMM, the `hs-isp` stages) do not
//! depend on this crate and run on the calling thread.
//!
//! Design goals, in order:
//!
//! 1. **One pool.** All subsystems share a single process-wide pool sized to
//!    the machine (`HS_PARALLEL_THREADS` overrides). The FL simulator fans
//!    out client updates on the same pool inference shards use.
//! 2. **No oversubscription.** Work spawned *from inside* a pool worker runs
//!    inline on that worker instead of being re-queued, so a parallel FL
//!    round whose clients train banded convolutions degrades to per-client
//!    serial bands rather than `clients × bands` runnable threads.
//! 3. **Near-zero dependencies.** The build environment has no crates
//!    registry, so this replaces `rayon` with `std::thread` +
//!    `Mutex`/`Condvar`. The one workspace dependency is `hs-obs`, whose
//!    anchored monotonic clock feeds the [`pool_stats`] health read-out
//!    (tasks run, cumulative worker idle time, queue depth) — `hs-obs` in
//!    turn depends only on the vendored `serde`, keeping this crate a leaf
//!    of the runtime dependency graph.
//!
//! The API is deliberately small: [`scope`] with [`Scope::spawn`] (the
//! crossbeam/rayon-scope shape), plus the [`parallel_chunks_mut`] and
//! work-conserving [`for_each_claimed`] conveniences layered on top.
//!
//! # Safety model
//!
//! Spawned closures may borrow from the caller's stack (`'scope` lifetime).
//! Internally the closure is type-erased to `'static` (the one `unsafe` in
//! this crate) which is sound because [`scope`] does not return — by normal
//! exit *or* panic — until every spawned task has finished running, so no
//! borrow outlives its owner. Task panics are caught on the worker,
//! forwarded, and re-raised on the spawning thread after all sibling tasks
//! drain.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod sync;

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Queue-path tasks executed since process start (inline-degraded spawns
/// are not queued and not counted).
static TASKS_RUN: AtomicU64 = AtomicU64::new(0);

/// Cumulative nanoseconds pool workers have spent parked waiting for work
/// (on the `hs_obs` anchor timeline).
static IDLE_NS: AtomicU64 = AtomicU64::new(0);

type Job = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

thread_local! {
    /// True while this thread is executing pool tasks; nested spawns then run
    /// inline to keep the runnable-thread count at the pool size.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Tracks one `scope` invocation: outstanding task count plus the first
/// panic raised by any of its tasks.
struct TaskGroup {
    state: Mutex<GroupState>,
    done: Condvar,
}

struct GroupState {
    pending: usize,
    panic: Option<PanicPayload>,
}

impl TaskGroup {
    fn new() -> Arc<Self> {
        Arc::new(TaskGroup {
            state: Mutex::new(GroupState {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        })
    }

    fn task_finished(&self, panic: Option<PanicPayload>) {
        let mut state = sync::lock(&self.state);
        state.pending -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.pending == 0 {
            self.done.notify_all();
        }
    }
}

struct QueuedTask {
    job: Job,
    group: Arc<TaskGroup>,
}

impl QueuedTask {
    /// Runs the job with panic capture and completion accounting.
    fn run(self) {
        TASKS_RUN.fetch_add(1, Ordering::Relaxed);
        let was_in_pool = IN_POOL.with(|f| f.replace(true));
        let result = catch_unwind(AssertUnwindSafe(self.job));
        IN_POOL.with(|f| f.set(was_in_pool));
        self.group.task_finished(result.err());
    }
}

/// The process-wide pool: an injector queue plus `workers` waiting threads.
struct Pool {
    queue: Mutex<VecDeque<QueuedTask>>,
    work_ready: Condvar,
    workers: usize,
}

impl Pool {
    fn with_workers(workers: usize) -> Arc<Pool> {
        let pool = Arc::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            workers,
        });
        for i in 0..workers {
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name(format!("hs-parallel-{i}"))
                .spawn(move || pool.worker_loop())
                .expect("failed to spawn pool worker");
        }
        pool
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut queue = sync::lock(&self.queue);
                match queue.pop_front() {
                    Some(task) => task,
                    None => {
                        // Work was not immediately available: charge the
                        // park time to the pool-health idle counter.
                        let idle_from = hs_obs::now_ns();
                        let task = loop {
                            if let Some(task) = queue.pop_front() {
                                break task;
                            }
                            queue = sync::wait(&self.work_ready, queue);
                        };
                        IDLE_NS.fetch_add(
                            hs_obs::now_ns().saturating_sub(idle_from),
                            Ordering::Relaxed,
                        );
                        task
                    }
                }
            };
            task.run();
        }
    }

    fn push(&self, task: QueuedTask) {
        sync::lock(&self.queue).push_back(task);
        self.work_ready.notify_one();
    }

    fn try_pop(&self) -> Option<QueuedTask> {
        sync::lock(&self.queue).pop_front()
    }
}

fn global_pool() -> &'static Arc<Pool> {
    static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
    // the pool is sized once from the env/machine base value; a later
    // `set_num_threads` override changes how wide callers fan out, never the
    // worker count
    POOL.get_or_init(|| Pool::with_workers(base_threads().saturating_sub(1)))
}

/// Runtime override installed by [`set_num_threads`] (0 = none).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The most threads `HS_PARALLEL_THREADS` can ask for. A larger value is
/// clamped to it, so a typo cannot make the pool spawn thousands of OS
/// threads (and panic when a spawn fails).
const MAX_ENV_THREADS: usize = 256;

/// The env/machine-derived parallelism target: `HS_PARALLEL_THREADS` if set,
/// otherwise the machine's available parallelism. At least 1. Cached after
/// the first read.
fn base_threads() -> usize {
    static N: AtomicUsize = AtomicUsize::new(0);
    let cached = N.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = match env_threads(std::env::var("HS_PARALLEL_THREADS").ok().as_deref()) {
        0 => std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
        n => n,
    };
    N.store(n, Ordering::Relaxed);
    n
}

/// Reads an `HS_PARALLEL_THREADS` value: a positive integer (surrounding
/// whitespace ignored) clamped to [`MAX_ENV_THREADS`], a number too large
/// for `usize` included. 0 when unset, zero or not a plain integer
/// (`-1`, `1e3`), which means "use the machine's parallelism".
fn env_threads(v: Option<&str>) -> usize {
    match v.map(|v| v.trim().parse::<usize>()) {
        Some(Ok(n)) => n.min(MAX_ENV_THREADS),
        Some(Err(e)) if *e.kind() == std::num::IntErrorKind::PosOverflow => MAX_ENV_THREADS,
        _ => 0,
    }
}

/// The parallelism the pool targets: the [`set_num_threads`] override when
/// one is installed, else `HS_PARALLEL_THREADS`, else the machine's
/// available parallelism. At least 1.
pub fn num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => base_threads(),
        n => n,
    }
}

/// Overrides the parallelism target reported by [`num_threads`] for the
/// rest of the process (or until called again); `None` restores the
/// env/machine default. The worker pool keeps its original size, so this
/// only changes how wide fan-out sites shard their work — never the
/// runnable-thread count. Lowering the target is the knob the eval-scaling
/// bench sweeps to record a 1/2/4-thread curve in a single process; raising
/// it above the pool size just queues more, smaller tasks for the same
/// workers.
pub fn set_num_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

/// True when called from inside a pool task (work should stay serial).
pub fn inside_pool() -> bool {
    IN_POOL.with(|f| f.get())
}

/// A point-in-time health read-out of the shared pool, the `hs-obs`
/// instrumentation surface for this crate. Exported (e.g. into the
/// `hs_obs` global registry) by whoever polls it; this crate only counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool was built with (0 on single-core machines,
    /// where every spawn degrades to inline execution).
    pub workers: usize,
    /// Tasks currently queued and not yet claimed by any worker.
    pub queue_depth: usize,
    /// Queue-path tasks executed since process start (by workers *and* by
    /// scope callers helping drain; inline-degraded spawns are not queued
    /// and not counted).
    pub tasks_run: u64,
    /// Cumulative nanoseconds workers have spent parked waiting for work.
    /// Rises while the pool is starved; flat while it is saturated.
    pub idle_ns: u64,
}

/// Samples [`PoolStats`] from the shared pool. Cheap (one queue lock plus
/// two relaxed loads) and safe to call from any thread, including pool
/// workers.
pub fn pool_stats() -> PoolStats {
    let pool = global_pool();
    PoolStats {
        workers: pool.workers,
        queue_depth: sync::lock(&pool.queue).len(),
        tasks_run: TASKS_RUN.load(Ordering::Relaxed),
        idle_ns: IDLE_NS.load(Ordering::Relaxed),
    }
}

/// A handle for spawning tasks that may borrow from the enclosing stack
/// frame. Created by [`scope`].
pub struct Scope<'scope> {
    pool: &'static Arc<Pool>,
    group: Arc<TaskGroup>,
    inline: bool,
    _marker: std::marker::PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Runs `f` on the shared pool (or inline when the pool is single
    /// threaded or we are already on a pool worker). Returns immediately;
    /// completion is awaited when the enclosing [`scope`] call returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        if self.inline {
            f();
            return;
        }
        {
            let mut state = sync::lock(&self.group.state);
            state.pending += 1;
        }
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        #[allow(unsafe_code, reason = "erases the job's 'scope lifetime")]
        // SAFETY: `scope` (below) does not return until `group.pending` is
        // zero, i.e. until this job has run to completion, so every borrow
        // with lifetime 'scope strictly outlives the job's execution.
        let job: Job = unsafe { std::mem::transmute(job) };
        self.pool.push(QueuedTask {
            job,
            group: Arc::clone(&self.group),
        });
    }
}

/// Runs `f` with a [`Scope`] whose spawned tasks execute on the shared pool,
/// and waits for all of them before returning. The calling thread helps
/// execute queued tasks while it waits — including, as in rayon, tasks
/// spawned by *other* scopes. Consequently, callers must not hold a
/// `RefCell`/thread-local borrow across a call that may enter `scope`: a
/// task run while waiting may borrow the same cell. Take the value out of
/// the cell for the duration instead, or keep the borrow inside the task.
///
/// Nested use (a spawned task calling `scope` again) is allowed and runs its
/// tasks inline, which keeps one pool's worth of threads busy no matter how
/// deep subsystems stack their parallelism.
///
/// # Panics
///
/// Re-raises the first panic raised by any spawned task, after every other
/// task in the scope has finished.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let pool = global_pool();
    let inline = pool.workers == 0 || inside_pool();
    let s = Scope {
        pool,
        group: TaskGroup::new(),
        inline,
        _marker: std::marker::PhantomData,
    };
    // The closure may panic *after* spawning tasks that borrow its stack
    // frame; catching here guarantees we still wait for every in-flight task
    // before unwinding past the borrowed data (the soundness invariant the
    // spawn transmute relies on).
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    if !inline {
        // Help drain the queue, then wait for stragglers running on workers.
        while let Some(task) = pool.try_pop() {
            task.run();
        }
        let mut state = sync::lock(&s.group.state);
        while state.pending > 0 {
            state = sync::wait(&s.group.done, state);
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
    match result {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

/// Runs `f(chunk_index, chunk)` over `chunk_len`-sized mutable chunks of
/// `data` in parallel (the final chunk may be shorter). The chunks are
/// disjoint, so no synchronisation is needed inside `f`.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    if data.is_empty() {
        return;
    }
    if num_threads() == 1 || inside_pool() || data.len() <= chunk_len {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    scope(|s| {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            s.spawn(move || f(idx, chunk));
        }
    });
}

/// Work-conserving fan-out over `0..total` for items of **uneven** cost:
/// up to `workers` loops run on the pool, and each one claims the next
/// unclaimed index from a shared cursor until none is left, running
/// `body(&mut state, index)` on it — so no loop idles while another still
/// has a backlog, which a fixed split into `workers` chunks cannot promise.
/// Indices are claimed in increasing order: put the longest items first and
/// the schedule is longest-processing-time-first.
///
/// `state` is per loop, built by `init` when the loop claims its first index
/// (a loop that finds the cursor exhausted builds nothing) and reused for
/// every later one — the place for a scratch buffer or a model replica.
/// Which loop runs which index is a race; `body` must not let it reach its
/// results.
///
/// Runs as one loop on the calling thread when `workers <= 1`, when there
/// is a single item, or when already inside a pool task.
pub fn for_each_claimed<S, I, F>(total: usize, workers: usize, init: I, body: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    // Relaxed: the cursor only hands out indices; everything the loops read
    // was written before the scope started, and the scope's completion
    // handshake publishes what they wrote
    let cursor = AtomicUsize::new(0);
    let claim_loop = || {
        let mut state = None;
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= total {
                break;
            }
            body(state.get_or_insert_with(&init), index);
        }
    };
    let workers = workers.min(total);
    if workers <= 1 || inside_pool() {
        claim_loop();
        return;
    }
    scope(|s| {
        for _ in 0..workers {
            s.spawn(claim_loop);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hostile_thread_counts_fall_back_or_clamp() {
        // parsing only: nothing here builds a pool from these values
        let max = usize::MAX.to_string();
        for (v, want) in [
            (None, 0),
            (Some(""), 0),
            (Some("0"), 0),
            (Some("-1"), 0),
            (Some("1e3"), 0),
            (Some(" 4"), 4),
            (Some("4\n"), 4),
            (Some("300"), MAX_ENV_THREADS),
            (Some(max.as_str()), MAX_ENV_THREADS),
            (Some("18446744073709551616"), MAX_ENV_THREADS), // 2^64
        ] {
            assert_eq!(env_threads(v), want, "{v:?}");
        }
    }

    #[test]
    fn scope_runs_every_task() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scope_tasks_can_borrow_and_mutate_disjoint_slices() {
        let mut data = vec![0usize; 1000];
        scope(|s| {
            for (idx, chunk) in data.chunks_mut(100).enumerate() {
                s.spawn(move || {
                    for v in chunk.iter_mut() {
                        *v = idx;
                    }
                });
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 100);
        }
    }

    #[test]
    fn parallel_chunks_mut_sees_disjoint_chunks() {
        let mut data = vec![0u32; 777];
        parallel_chunks_mut(&mut data, 64, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx as u32 + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 64) as u32 + 1);
        }
    }

    #[test]
    fn nested_scopes_run_inline_without_deadlock() {
        let counter = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..8 {
                outer.spawn(|| {
                    scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn closure_panic_after_spawn_waits_for_in_flight_tasks() {
        use std::sync::Arc;
        let finished = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(|s| {
                for _ in 0..8 {
                    let finished = Arc::clone(&finished);
                    s.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("scope closure panics after spawning");
            });
        }));
        assert!(result.is_err());
        // every spawned task must have completed before the unwind escaped
        assert_eq!(finished.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn task_panic_propagates_to_scope_caller() {
        let result = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| {});
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn thread_override_is_reported_and_restorable() {
        let base = num_threads();
        set_num_threads(Some(3));
        assert_eq!(num_threads(), 3);
        set_num_threads(Some(0)); // clamped to at least 1
        assert_eq!(num_threads(), 1);
        set_num_threads(None);
        assert_eq!(num_threads(), base);
    }

    #[test]
    fn pool_stats_count_queued_tasks_and_drain() {
        // the pool and its counters are process-global and the other tests
        // of this binary use them concurrently, so only what this scope
        // itself guarantees is asserted — `queue_depth` may hold another
        // test's tasks at any instant
        let before = pool_stats();
        scope(|s| {
            for _ in 0..32 {
                s.spawn(|| std::hint::black_box(()));
            }
        });
        let after = pool_stats();
        assert_eq!(after.workers, before.workers);
        if after.workers > 0 {
            assert!(
                after.tasks_run >= before.tasks_run + 32,
                "queued tasks must be counted: {before:?} -> {after:?}"
            );
        }
        assert!(after.idle_ns >= before.idle_ns, "idle time is monotonic");
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let mut empty: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut empty, 4, |_, _| panic!("must not run"));
        let mut one = [0u8];
        parallel_chunks_mut(&mut one, 1024, |idx, chunk| {
            assert_eq!((idx, chunk.len()), (0, 1));
            chunk[0] = 1;
        });
        assert_eq!(one, [1]);
    }

    #[test]
    fn for_each_claimed_runs_every_index_once_with_per_loop_state() {
        for workers in [1usize, 2, 4, 9] {
            let hits: Vec<AtomicUsize> = (0..203).map(|_| AtomicUsize::new(0)).collect();
            let states_built = AtomicUsize::new(0);
            for_each_claimed(
                hits.len(),
                workers,
                || {
                    states_built.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |claimed_by_this_loop, i| {
                    *claimed_by_this_loop += 1;
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            let built = states_built.load(Ordering::Relaxed);
            assert!(
                (1..=workers).contains(&built),
                "{built} states for {workers} loops"
            );
        }
    }

    #[test]
    fn for_each_claimed_is_one_ordered_loop_when_serial() {
        // one loop claims 0, 1, 2, … in order: the longest-first contract
        let order = Mutex::new(Vec::new());
        for_each_claimed(17, 1, || (), |_, i| sync::lock(&order).push(i));
        assert_eq!(sync::into_inner(order), (0..17).collect::<Vec<_>>());
        // no items: no state is built, nothing runs
        for_each_claimed(
            0,
            4,
            || panic!("must not build"),
            |_: &mut (), _| panic!("must not run"),
        );
    }

    #[test]
    fn for_each_claimed_keeps_every_loop_busy_on_skewed_items() {
        // one long item first, many short ones after: the loop that did not
        // get the long item must take all the short ones (a fixed two-way
        // split would leave half of them queued behind the long item)
        if pool_stats().workers == 0 {
            return; // a single-core pool runs everything on one loop
        }
        let short_by_long_loop = AtomicUsize::new(0);
        let release = AtomicUsize::new(0);
        for_each_claimed(
            41,
            2,
            || false,
            |has_long, i| {
                if i == 0 {
                    *has_long = true;
                    // hold the long item until every short one is done
                    while release.load(Ordering::Acquire) < 40 {
                        std::thread::yield_now();
                    }
                } else {
                    if *has_long {
                        short_by_long_loop.fetch_add(1, Ordering::Relaxed);
                    }
                    release.fetch_add(1, Ordering::Release);
                }
            },
        );
        assert_eq!(short_by_long_loop.load(Ordering::Relaxed), 0);
    }
}
