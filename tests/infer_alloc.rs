//! Pins allocation-free inference: after warm-up, `Network::infer` (the
//! network's own workspace) and `Network::infer_with` (a caller's workspace
//! over a shared `&Network`) must perform **zero** heap allocations on the
//! calling thread for every model in the zoo on the serial path — including
//! inside the composite blocks (inverted residuals, squeeze-excite, fire
//! modules, shuffle units) and their nested Sequentials.
//!
//! The pin uses a counting global allocator with per-thread counters (events,
//! live and peak bytes), so concurrently running tests in this binary cannot
//! perturb the count.
//!
//! A batch of two or more through a convolutional plan is split across the
//! pool once, by sample range, when the thread target is two or more; each
//! range runs the whole plan over its own sub-workspace (kept in the
//! caller's), so the split costs the calling thread exactly what the pool
//! charges for one fan-out — the scope's task-group `Arc` and one boxed job
//! per range — whatever the model's depth. The batch-8 test pins that at a
//! 1- and a 2-thread target; the batch-1 tests stay on the calling thread
//! at any target. The batch-1 zoo pin includes a 32-px input at a 2-thread
//! target: no kernel below the shard step fans out, so a large single
//! sample allocates nothing either.
//!
//! `fleet_mlp`'s MLP, whose `Linear`s run `gemm_nt` with its thread-local
//! packing scratch, allocates nothing warm at batch 1, 8 or 32 either.
//!
//! A convolutional batch runs its plan in sample tiles (per range) of
//! 8 192 input pixels — 8 samples at `vision`'s 32×32 — so inference
//! scratch does not grow with the batch: a cold batch-120 pass peaks within
//! one tile's input rows and 112 more output rows of a cold batch-8 pass
//! (one tile, no copy), and a warm one allocates nothing either.

use heteroswitch_repro::nn::models::{build_vision_model, ModelKind, VisionConfig};
use heteroswitch_repro::nn::{Flatten, Linear, Network, Relu, Sequential, Workspace};
use heteroswitch_repro::parallel::{pool_stats, set_num_threads, sync};
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

/// `set_num_threads` is process-wide and the tests share a process.
static THREADS: Mutex<()> = Mutex::new(());

const ZOO: [ModelKind; 4] = [
    ModelKind::SimpleCnn,
    ModelKind::MobileNetV3Small,
    ModelKind::ShuffleNetV2,
    ModelKind::SqueezeNet,
];

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (a block freed on
    /// another thread than its own stays counted on its allocating one).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE_BYTES` since [`peak_bytes`] last reset it.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation event of `grown` more live bytes on this thread.
fn on_alloc(grown: i64) {
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
    on_resize(grown);
}

/// Moves this thread's live bytes by `delta` and raises its peak to match.
fn on_resize(delta: i64) {
    let live = LIVE_BYTES.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK_BYTES.with(|p| p.set(p.get().max(live)));
}

/// `bytes` as a signed byte delta.
fn signed(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

/// System allocator wrapper counting allocation events and live bytes per
/// thread.
struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the only added
// behaviour is updating thread-local counters, which cannot re-enter the
// allocator (`Cell` with const init performs no allocation).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller's layout contract is passed through to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(signed(layout.size()));
        // SAFETY: same layout the caller vouched for, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller's layout contract is passed through to `System` as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(signed(layout.size()));
        // SAFETY: same layout the caller vouched for, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller's ptr/layout contract is passed through to `System`
    // as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(signed(new_size) - signed(layout.size()));
        // SAFETY: same ptr/layout the caller vouched for, forwarded
        // unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller's ptr/layout contract is passed through to `System`
    // as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_resize(-signed(layout.size()));
        // SAFETY: same ptr/layout the caller vouched for, forwarded
        // unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events on this thread while running `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_COUNT.with(|c| c.get());
    let result = f();
    (ALLOC_COUNT.with(|c| c.get()) - before, result)
}

/// The most bytes `f` held live on this thread at once, beyond what the
/// thread held when it started.
fn peak_bytes(f: impl FnOnce()) -> i64 {
    let before = LIVE_BYTES.with(|l| l.get());
    PEAK_BYTES.with(|p| p.set(before));
    f();
    PEAK_BYTES.with(|p| p.get()) - before
}

#[test]
fn warm_infer_performs_zero_allocations_across_the_model_zoo() {
    let _serial = sync::lock(&THREADS);
    // 32 px at a 2-thread target puts SimpleCnn's 16→32 conv at 16×16
    // (≈ 2.4 MFLOP) where the GEMM once split its rows over the pool. The
    // budget is 0 with or without pool workers, so no leg skips it.
    for (px, threads) in [(16, None), (32, Some(2))] {
        set_num_threads(threads);
        let cfg = VisionConfig::new(3, 6, px);
        for kind in ZOO {
            let mut rng = StdRng::seed_from_u64(3);
            let mut net = build_vision_model(kind, cfg, &mut rng);
            net.fuse_inference();
            let x = Tensor::rand_uniform(&[1, 3, px, px], 0.0, 1.0, &mut rng);

            // warm-up: sizes the workspace and the thread-local packs
            let expect = net.infer(&x).clone();
            let _ = net.infer(&x);

            let (allocs, sum) = count_allocs(|| net.infer(&x).as_slice().iter().sum::<f32>());
            assert_eq!(
                allocs, 0,
                "{kind:?} at {px} px: warm Network::infer allocated {allocs} times"
            );
            assert!(
                (sum - expect.as_slice().iter().sum::<f32>()).abs() < 1e-5,
                "{kind:?} at {px} px: counted pass diverged from warm-up output"
            );
        }
    }
    set_num_threads(None);
}

#[test]
fn warm_infer_stays_allocation_free_when_batch_returns_to_a_seen_size() {
    // alternating between two previously-seen shapes must not re-trigger
    // workspace growth (Vec::resize never shrinks capacity). Both shapes stay
    // at batch 1, which never leaves the calling thread; the alternation is
    // spatial instead.
    let cfg = VisionConfig::new(3, 6, 16);
    let mut rng = StdRng::seed_from_u64(4);
    let mut net = build_vision_model(ModelKind::MobileNetV3Small, cfg, &mut rng);
    net.fuse_inference();
    let x1 = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);
    let x2 = Tensor::rand_uniform(&[1, 3, 12, 12], 0.0, 1.0, &mut rng);
    for _ in 0..2 {
        let _ = net.infer(&x1);
        let _ = net.infer(&x2);
    }
    let (allocs, _) = count_allocs(|| {
        let _ = net.infer(&x1);
        let _ = net.infer(&x2);
    });
    assert_eq!(allocs, 0, "shape alternation re-allocated {allocs} times");
}

#[test]
fn warm_infer_with_on_a_shared_network_performs_zero_allocations_across_the_model_zoo() {
    let cfg = VisionConfig::new(3, 6, 16);
    for kind in ZOO {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = build_vision_model(kind, cfg, &mut rng);
        net.fuse_inference();
        let net = &net; // shared from here on
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut rng);

        // one pass warms the workspace: every take/give pair nests, so the
        // pool hands each call site the same tensor on every later pass
        let mut ws = Workspace::new();
        let first = net.infer_with(&x, &mut ws);
        let expect = first.clone();
        ws.give(first);

        let (allocs, same) = count_allocs(|| {
            let y = net.infer_with(&x, &mut ws);
            let same = y == expect;
            ws.give(y);
            same
        });
        assert_eq!(
            allocs, 0,
            "{kind:?}: warm Network::infer_with allocated {allocs} times"
        );
        assert!(same, "{kind:?}: counted pass diverged from warm-up output");
    }
}

#[test]
fn warm_batch_8_allocates_nothing_serially_and_only_the_fan_out_when_sharded() {
    let cfg = VisionConfig::new(3, 6, 16);
    let _serial = sync::lock(&THREADS);
    for kind in ZOO {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = build_vision_model(kind, cfg, &mut rng);
        net.fuse_inference();
        let x = Tensor::rand_uniform(&[8, 3, 16, 16], 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        for threads in [1usize, 2] {
            set_num_threads(Some(threads));
            // two ranges: the scope's `Arc<TaskGroup>` plus one boxed job
            // each. Without pool workers the scope runs its jobs inline,
            // outside the pool, and the arm does not exist.
            let budget = match threads {
                1 => 0,
                _ if pool_stats().workers == 0 => continue,
                shards => shards as u64 + 1,
            };
            // warm-up: sizes every range's sub-workspace, and the
            // thread-local packs of whichever thread runs a range
            for _ in 0..3 {
                let _ = net.infer(&x);
                let y = net.infer_with(&x, &mut ws);
                ws.give(y);
            }
            let (allocs, _) = count_allocs(|| {
                let _ = net.infer(&x);
            });
            assert!(
                allocs <= budget,
                "{kind:?} at {threads} threads: warm Network::infer allocated {allocs} times"
            );
            let (allocs, _) = count_allocs(|| {
                let y = net.infer_with(&x, &mut ws);
                ws.give(y);
            });
            assert!(
                allocs <= budget,
                "{kind:?} at {threads} threads: warm Network::infer_with allocated {allocs} times"
            );
        }
    }
    set_num_threads(None);
}

/// The fleet-scale workload's model: a 3·8·8 → 16 → 4 MLP.
fn fleet_mlp(rng: &mut StdRng) -> Network {
    Network::new(Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Linear::new(3 * 8 * 8, 16, rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(16, 4, rng)),
    ]))
}

#[test]
fn warm_fleet_mlp_infer_with_performs_zero_allocations() {
    // every `Linear` runs `gemm_nt`, whose packing scratch (the `Bᵀ` strips
    // or the `Aᵀ` panel, by shape) is thread-local: once warm at a batch
    // size, a pass allocates nothing. An MLP never shards, at any target.
    let _serial = sync::lock(&THREADS);
    let mut rng = StdRng::seed_from_u64(10);
    let mut net = fleet_mlp(&mut rng);
    net.fuse_inference();
    let net = &net;
    for threads in [1usize, 2] {
        set_num_threads(Some(threads));
        for batch in [1usize, 8, 32] {
            let x = Tensor::rand_uniform(&[batch, 3, 8, 8], 0.0, 1.0, &mut rng);
            let mut ws = Workspace::new();
            for _ in 0..2 {
                let y = net.infer_with(&x, &mut ws);
                ws.give(y);
            }
            let (allocs, _) = count_allocs(|| {
                let y = net.infer_with(&x, &mut ws);
                ws.give(y);
            });
            assert_eq!(
                allocs, 0,
                "batch {batch} at {threads} threads: warm infer_with allocated {allocs} times"
            );
        }
    }
    set_num_threads(None);
}

#[test]
fn two_threads_with_two_workspaces_on_one_network_return_identical_logits() {
    let cfg = VisionConfig::new(3, 6, 16);
    let mut rng = StdRng::seed_from_u64(5);
    let mut net = build_vision_model(ModelKind::MobileNetV3Small, cfg, &mut rng);
    net.fuse_inference();
    let inputs: Vec<Tensor> = [1usize, 4, 2]
        .iter()
        .map(|&batch| Tensor::rand_uniform(&[batch, 3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let expect: Vec<Tensor> = inputs.iter().map(|x| net.infer(x).clone()).collect();

    let (net, inputs, expect) = (&net, &inputs, &expect);
    // both threads leave the barrier together, so their passes overlap
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for thread in 0..2 {
            let start = &start;
            s.spawn(move || {
                let mut ws = Workspace::new();
                start.wait();
                for round in 0..8 {
                    // opposite orders, so the two are rarely on the same input
                    let i = (round + thread) % inputs.len();
                    let y = net.infer_with(&inputs[i], &mut ws);
                    let same_bits = y
                        .as_slice()
                        .iter()
                        .zip(expect[i].as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        y.dims() == expect[i].dims() && same_bits,
                        "thread {thread} round {round}: logits diverged"
                    );
                    ws.give(y);
                }
            });
        }
    });
}

#[test]
fn inference_scratch_stays_one_tile_wide_whatever_the_batch() {
    let _serial = sync::lock(&THREADS);
    set_num_threads(Some(1));
    // `vision`'s model and input size
    let (classes, px) = (6, 32);
    let mut rng = StdRng::seed_from_u64(8);
    let mut net = build_vision_model(
        ModelKind::MobileNetV3Small,
        VisionConfig::new(3, classes, px),
        &mut rng,
    );
    net.fuse_inference();
    let net = &net;
    let batch = |n| Tensor::rand_uniform(&[n, 3, px, px], 0.0, 1.0, &mut StdRng::seed_from_u64(9));
    // each cold pass on a thread of its own, so the thread-local GEMM packs
    // start cold too
    let cold_peak = |x: &Tensor| {
        std::thread::scope(|s| {
            s.spawn(|| {
                peak_bytes(|| {
                    net.infer_with(x, &mut Workspace::new());
                })
            })
            .join()
            .expect("cold pass")
        })
    };
    let (x8, x120) = (batch(8), batch(120));
    let (peak8, peak120) = (cold_peak(&x8), cold_peak(&x120));
    // batch 120 adds the copy of one 8-sample tile's input and output rows,
    // the output rows of 112 more samples, and the tile buffers' shapes;
    // nothing that grows with the batch
    let (tile, f32s) = (8, std::mem::size_of::<f32>());
    let margin = signed(tile * (3 * px * px + classes) * f32s + 112 * classes * f32s + 1024);
    assert!(
        peak120 <= peak8 + margin,
        "cold batch-120 infer_with peaked at {peak120} B, batch 8 at {peak8} B \
         (margin {margin} B)"
    );

    let mut ws = Workspace::new();
    for _ in 0..2 {
        let y = net.infer_with(&x120, &mut ws);
        ws.give(y);
    }
    let (allocs, _) = count_allocs(|| {
        let y = net.infer_with(&x120, &mut ws);
        ws.give(y);
    });
    assert_eq!(
        allocs, 0,
        "warm batch-120 infer_with allocated {allocs} times"
    );
    set_num_threads(None);
}
