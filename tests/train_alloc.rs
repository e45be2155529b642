//! Pins what one warm training step allocates: for every model in the zoo
//! at the FL client's batch (10 samples, 32 px), a `forward_backward` plus
//! an `Sgd::step` after warm-up, counted in allocation events and in bytes.
//!
//! Every layer still returns a fresh output from its training forward and a
//! fresh input gradient from its backward; a `Sequential` passes its own
//! input and output gradient through without copying them. What a layer
//! keeps for its backward — the stored input, a conv's column, band and
//! partial-gradient scratch and its transposed weight — reuses the buffers
//! of the last step, and `Sgd::step` zeroes each parameter gradient in
//! place. The budgets below are the measured counts, pinned as
//! upper bounds so a change can lower them but never raise them. They are
//! the baseline for making training allocation-free.
//!
//! The parameter plumbing around the step walks the network's state
//! (`Layer::for_each_state`) without collecting it: `Sgd::step`,
//! `zero_grad` and `set_weights` allocate nothing, and `weights()` only the
//! vector it returns, reserved once.
//!
//! A conv backward splits its batch into sample bands on the pool when the
//! thread target is two or more, and a band that runs on a worker
//! allocates on that worker's thread, out of this per-thread counter's
//! sight. The step is therefore counted at a 1-thread target, where every
//! band runs on the calling thread.

use heteroswitch_repro::nn::models::{build_vision_model, ModelKind, VisionConfig};
use heteroswitch_repro::nn::{CrossEntropyLoss, Sgd, Target};
use heteroswitch_repro::parallel::set_num_threads;
use heteroswitch_repro::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

/// System allocator wrapper counting allocation events and requested bytes
/// per thread.
struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the only added
// behaviour is bumping two thread-local counters, which cannot re-enter the
// allocator (`Cell<u64>` with const init performs no allocation).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller's layout contract is passed through to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller vouched for, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller's layout contract is passed through to `System` as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller vouched for, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller's ptr/layout contract is passed through to `System`
    // as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: same ptr/layout the caller vouched for, forwarded
        // unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller's ptr/layout contract is passed through to `System`
    // as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same ptr/layout the caller vouched for, forwarded
        // unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events and bytes on this thread while running `f`.
fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    let read = || (ALLOC_COUNT.with(|c| c.get()), ALLOC_BYTES.with(|c| c.get()));
    let before = read();
    f();
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}

/// Upper bounds on one warm step (allocation events, bytes), measured.
const BUDGETS: [(ModelKind, u64, u64); 4] = [
    (ModelKind::SimpleCnn, 94, 8_198_584),
    (ModelKind::MobileNetV3Small, 366, 14_965_608),
    (ModelKind::ShuffleNetV2, 513, 8_176_432),
    (ModelKind::SqueezeNet, 175, 3_444_840),
];

#[test]
fn a_warm_training_step_allocates_no_more_than_its_budget() {
    set_num_threads(Some(1));
    let (batch, px, classes) = (10usize, 32usize, 6usize);
    for (kind, max_allocs, max_bytes) in BUDGETS {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = build_vision_model(kind, VisionConfig::new(3, classes, px), &mut rng);
        let x = Tensor::rand_uniform(&[batch, 3, px, px], 0.0, 1.0, &mut rng);
        let target = Target::Classes((0..batch).map(|i| i % classes).collect());
        let mut opt = Sgd::new(0.01);
        let mut step = || {
            net.forward_backward(&x, &target, &CrossEntropyLoss);
            opt.step(&mut net);
        };
        // warm-up: thread-local GEMM packs and the layers' kept buffers
        step();
        step();
        let (allocs, bytes) = count_allocs(&mut step);
        assert!(
            allocs <= max_allocs,
            "{kind:?}: a warm training step allocated {allocs} times (budget {max_allocs})"
        );
        assert!(
            bytes <= max_bytes,
            "{kind:?}: a warm training step allocated {bytes} bytes (budget {max_bytes})"
        );
    }
    set_num_threads(None);
}

#[test]
fn the_weight_walks_allocate_only_the_vector_they_return() {
    for (kind, _, _) in BUDGETS {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = build_vision_model(kind, VisionConfig::new(3, 6, 32), &mut rng);
        let flat = net.weights();
        let mut opt = Sgd::new(0.01);
        for (what, want, (got, _)) in [
            ("set_weights", 0, count_allocs(|| net.set_weights(&flat))),
            ("zero_grad", 0, count_allocs(|| net.zero_grad())),
            ("Sgd::step", 0, count_allocs(|| opt.step(&mut net))),
            ("weights", 1, count_allocs(|| drop(net.weights()))),
        ] {
            assert_eq!(got, want, "{kind:?}: {what} allocated {got} times");
        }
    }
}
