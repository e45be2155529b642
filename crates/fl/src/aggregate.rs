//! Server-side aggregation rules.
//!
//! Two implementations of the FedAvg weighted mean coexist:
//!
//! * [`weighted_average`] — the reference serial fold (one pass over the
//!   model per update, fresh output buffer);
//! * [`tree_reduce_weighted`] / [`weighted_average_sharded`] — the sharded
//!   tree-reduce: the cohort is split into contiguous shards (shard plan a
//!   pure function of the update *count*, never of the thread count, so
//!   results replay bit-identically across machines), each shard
//!   accumulates its sample-weighted sum with a 4-way blocked kernel (¼ the
//!   output-buffer traffic of the serial fold), shards run in parallel on
//!   the shared [`hs_parallel`] pool, and shard sums combine in a fixed
//!   pairwise order. The owning variant moves each `ClientUpdate`'s weight
//!   vector into the reducer — the first update of every shard *becomes*
//!   the shard accumulator, so aggregation allocates nothing per shard.
//!
//! Within a shard the addition chain is index-ordered exactly like the
//! serial fold, so a single-shard reduce (cohorts below
//! [`2 × the shard granule`](SHARD_GRANULE)) reproduces `weighted_average`
//! bit for bit; multi-shard runs differ only by the cross-shard summation
//! order (documented in `docs/SCALE.md`).

#![deny(clippy::disallowed_types)]

use crate::ClientUpdate;
use serde::{Deserialize, Serialize};

/// Minimum updates per shard: below `2 × SHARD_GRANULE` updates the reduce
/// collapses to a single shard and is bit-identical to the serial fold.
const SHARD_GRANULE: usize = 32;

/// Upper bound on shards (bounds cross-shard reduce work and scratch).
const MAX_SHARDS: usize = 16;

/// Number of shards used for `n` updates — a pure function of `n` so the
/// aggregation order (and thus the result bits) never depends on the
/// machine's thread count.
fn shard_count(n: usize) -> usize {
    (n / SHARD_GRANULE).clamp(1, MAX_SHARDS)
}

/// Accumulates `buf[j] += Σ weights[i] · updates[i].weights[j]` with a
/// 4-way blocked inner loop. The per-element addition chain is in update
/// order, identical to folding the updates one at a time — blocking only
/// cuts the number of read-modify-write passes over `buf` by 4×.
#[allow(
    clippy::assign_op_pattern,
    reason = "`+=` would re-group the RHS and break bit-identity"
)]
fn accumulate_into(buf: &mut [f32], updates: &[ClientUpdate], weights: &[f32]) {
    let len = buf.len();
    let mut i = 0;
    while i + 4 <= updates.len() {
        let (wa, wb, wc, wd) = (weights[i], weights[i + 1], weights[i + 2], weights[i + 3]);
        let a = &updates[i].weights[..len];
        let b = &updates[i + 1].weights[..len];
        let c = &updates[i + 2].weights[..len];
        let d = &updates[i + 3].weights[..len];
        for (j, o) in buf.iter_mut().enumerate() {
            // NOT `+=`: the addition chain must start at `*o` (left-assoc)
            // to keep bit-identity with the one-update-at-a-time fold.
            *o = *o + wa * a[j] + wb * b[j] + wc * c[j] + wd * d[j];
        }
        i += 4;
    }
    while i < updates.len() {
        let w = weights[i];
        for (o, &v) in buf.iter_mut().zip(updates[i].weights.iter()) {
            *o += w * v;
        }
        i += 1;
    }
}

/// Reduces one shard by *moving* its first update's weight vector into the
/// accumulator (scaled in place), then accumulating the rest — zero
/// allocations, and the consumed update buffers drop on return.
fn reduce_shard(mut updates: Vec<ClientUpdate>, weights: &[f32]) -> Vec<f32> {
    let rest = updates.split_off(1);
    let first = updates.pop().expect("shard is non-empty");
    let mut buf = first.weights;
    let w0 = weights[0];
    for v in buf.iter_mut() {
        *v *= w0;
    }
    accumulate_into(&mut buf, &rest, &weights[1..]);
    buf
}

/// Combines shard sums pairwise in a fixed stride-doubling order
/// (`b[i] += b[i + stride]`), in place. Deterministic regardless of how
/// the shards themselves were scheduled.
fn pairwise_reduce(mut bufs: Vec<Vec<f32>>) -> Vec<f32> {
    let mut stride = 1;
    while stride < bufs.len() {
        let mut i = 0;
        while i + stride < bufs.len() {
            let (head, tail) = bufs.split_at_mut(i + stride);
            for (o, &v) in head[i].iter_mut().zip(tail[0].iter()) {
                *o += v;
            }
            i += 2 * stride;
        }
        stride *= 2;
    }
    bufs.swap_remove(0)
}

/// Validates an update batch for aggregation and returns
/// `(model len, per-update aggregation weights)`.
fn aggregation_weights(updates: &[ClientUpdate]) -> (usize, Vec<f32>) {
    assert!(!updates.is_empty(), "cannot aggregate zero updates");
    let len = updates[0].weights.len();
    let total: f32 = updates.iter().map(|u| u.num_samples as f32).sum();
    assert!(total > 0.0, "total sample count must be positive");
    for u in updates {
        assert_eq!(u.weights.len(), len, "weight vectors must align");
    }
    let weights = updates
        .iter()
        .map(|u| u.num_samples as f32 / total)
        .collect();
    (len, weights)
}

/// How the server combines client updates into the next global model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregationMethod {
    /// Sample-count-weighted averaging of client weights (FedAvg).
    FedAvg,
    /// q-FedAvg (Li et al., 2019): clients with higher loss receive larger
    /// effective updates, trading average accuracy for fairness. `q = 0`
    /// recovers a FedAvg-style update.
    QFedAvg {
        /// Fairness exponent q.
        q: f32,
        /// The learning rate used to convert weight deltas back into
        /// gradient estimates (the paper reuses the local η).
        lr: f32,
    },
}

/// Sample-count-weighted average of client weight vectors.
///
/// # Panics
///
/// Panics if `updates` is empty or the weight vectors disagree in length.
pub fn weighted_average(updates: &[ClientUpdate]) -> Vec<f32> {
    assert!(!updates.is_empty(), "cannot aggregate zero updates");
    let len = updates[0].weights.len();
    let total: f32 = updates.iter().map(|u| u.num_samples as f32).sum();
    assert!(total > 0.0, "total sample count must be positive");
    let mut out = vec![0.0f32; len];
    for u in updates {
        assert_eq!(u.weights.len(), len, "weight vectors must align");
        let w = u.num_samples as f32 / total;
        for (o, &v) in out.iter_mut().zip(u.weights.iter()) {
            *o += w * v;
        }
    }
    out
}

/// Sharded, borrow-based variant of [`weighted_average`]: shards accumulate
/// in parallel on the [`hs_parallel`] pool, shard sums combine in a fixed
/// pairwise order. The shard plan depends only on `updates.len()`, so the
/// result is a pure function of the input regardless of thread count;
/// below two shard granules it is bit-identical to [`weighted_average`].
///
/// # Panics
///
/// Panics if `updates` is empty or the weight vectors disagree in length.
pub fn weighted_average_sharded(updates: &[ClientUpdate]) -> Vec<f32> {
    let (len, weights) = aggregation_weights(updates);
    let shards = shard_count(updates.len());
    if shards == 1 {
        let mut buf = vec![0.0f32; len];
        accumulate_into(&mut buf, updates, &weights);
        return buf;
    }
    let n = updates.len();
    let mut bufs: Vec<Vec<f32>> = (0..shards).map(|_| vec![0.0f32; len]).collect();
    hs_parallel::scope(|s| {
        for (sh, buf) in bufs.iter_mut().enumerate() {
            let (lo, hi) = (sh * n / shards, (sh + 1) * n / shards);
            let (ups, ws) = (&updates[lo..hi], &weights[lo..hi]);
            s.spawn(move || accumulate_into(buf, ups, ws));
        }
    });
    pairwise_reduce(bufs)
}

/// Owning tree-reduce FedAvg: consumes the round's updates and reuses the
/// first weight vector of every shard as that shard's accumulator, so the
/// aggregation itself allocates no model-sized buffers and each consumed
/// update's memory is released as its shard finishes. Numerics are
/// identical to [`weighted_average_sharded`] (the only nominal difference —
/// in-place scaling of the first update versus adding it into a zeroed
/// buffer — changes no bit except a `-0.0` sign).
///
/// # Panics
///
/// Panics if `updates` is empty or the weight vectors disagree in length.
pub fn tree_reduce_weighted(updates: Vec<ClientUpdate>) -> Vec<f32> {
    let (_, weights) = aggregation_weights(&updates);
    let shards = shard_count(updates.len());
    if shards == 1 {
        return reduce_shard(updates, &weights);
    }
    let n = updates.len();
    // Carve the owned updates into per-shard vecs at the same boundaries as
    // the borrow-based variant (split back-to-front so each split is O(shard)).
    let mut rest = updates;
    let mut tasks: Vec<(Vec<ClientUpdate>, Vec<f32>, Vec<f32>)> = Vec::with_capacity(shards);
    for sh in (0..shards).rev() {
        let lo = sh * n / shards;
        let part = rest.split_off(lo);
        let ws = weights[lo..lo + part.len()].to_vec();
        tasks.push((part, ws, Vec::new()));
    }
    tasks.reverse();
    hs_parallel::parallel_chunks_mut(&mut tasks, 1, |_, chunk| {
        let (ups, ws, out) = &mut chunk[0];
        *out = reduce_shard(std::mem::take(ups), ws);
    });
    pairwise_reduce(tasks.into_iter().map(|(_, _, out)| out).collect())
}

/// Sharded variant of [`screen_updates`]: the per-update finiteness check
/// and `‖w_u − global‖₂` norm — the O(cohort × model) part — run in
/// parallel, then the accept/reject decisions replay the exact serial
/// logic. Output is identical to [`screen_updates`] for every input.
pub fn screen_updates_sharded(
    global: &[f32],
    updates: Vec<ClientUpdate>,
    norm_bound_factor: f32,
) -> (Vec<ClientUpdate>, Vec<usize>) {
    let n = updates.len();
    if n == 0 {
        return (updates, Vec::new());
    }
    let mut stats: Vec<(bool, f32)> = vec![(false, 0.0); n];
    let grain = n.div_ceil(shard_count(n));
    {
        let updates = &updates;
        hs_parallel::parallel_chunks_mut(&mut stats, grain, |chunk_idx, chunk| {
            let base = chunk_idx * grain;
            for (j, slot) in chunk.iter_mut().enumerate() {
                let u = &updates[base + j];
                let finite = u.train_loss.is_finite()
                    && u.init_loss.is_finite()
                    && u.weights.iter().all(|w| w.is_finite());
                let norm = if finite {
                    u.weights
                        .iter()
                        .zip(global.iter())
                        .map(|(w, g)| (w - g) * (w - g))
                        .sum::<f32>()
                        .sqrt()
                } else {
                    0.0
                };
                *slot = (finite, norm);
            }
        });
    }

    let finite_count = stats.iter().filter(|s| s.0).count();
    let mut bound = f32::INFINITY;
    if finite_count >= 3 && norm_bound_factor > 0.0 {
        let mut sorted: Vec<f32> = stats.iter().filter(|s| s.0).map(|s| s.1).collect();
        // the norms were screened finite above; total_cmp keeps the sort
        // panic-free even if that invariant ever breaks
        sorted.sort_by(f32::total_cmp);
        let median = sorted[sorted.len() / 2];
        if median > 0.0 {
            bound = norm_bound_factor * median;
        }
    }

    let mut accepted = Vec::with_capacity(finite_count);
    let mut rejected = Vec::new();
    let mut rejected_norm = Vec::new();
    for (u, &(finite, norm)) in updates.into_iter().zip(stats.iter()) {
        if !finite {
            rejected.push(u.client_id);
        } else if norm > bound {
            rejected_norm.push(u.client_id);
        } else {
            accepted.push(u);
        }
    }
    rejected.extend(rejected_norm);
    rejected.sort_unstable();
    (accepted, rejected)
}

/// Screens client updates before aggregation so one faulty or malicious
/// client cannot poison the global model. Two screens run in order:
///
/// 1. **Non-finite screen** — any update whose weights or training loss
///    contain NaN/infinity is rejected outright (a single NaN survives
///    every weighted average).
/// 2. **Norm-bound screen** — with at least three finite updates, the
///    update norms `‖w_u − global‖₂` are compared against
///    `norm_bound_factor ×` their median; updates past the bound are
///    rejected. The median makes the bound robust: a garbage update
///    inflates the mean but barely moves the median. Skipped when fewer
///    than three updates survive (no robust median) or the median is zero.
///
/// Returns the accepted updates (input order preserved) and the sorted ids
/// of rejected clients. `norm_bound_factor <= 0` disables the norm screen.
pub fn screen_updates(
    global: &[f32],
    updates: Vec<ClientUpdate>,
    norm_bound_factor: f32,
) -> (Vec<ClientUpdate>, Vec<usize>) {
    let mut finite = Vec::with_capacity(updates.len());
    let mut rejected = Vec::new();
    for u in updates {
        let ok = u.train_loss.is_finite()
            && u.init_loss.is_finite()
            && u.weights.iter().all(|w| w.is_finite());
        if ok {
            finite.push(u);
        } else {
            rejected.push(u.client_id);
        }
    }

    if finite.len() >= 3 && norm_bound_factor > 0.0 {
        let norms: Vec<f32> = finite
            .iter()
            .map(|u| {
                u.weights
                    .iter()
                    .zip(global.iter())
                    .map(|(w, g)| (w - g) * (w - g))
                    .sum::<f32>()
                    .sqrt()
            })
            .collect();
        let mut sorted = norms.clone();
        // the norms were screened finite above; total_cmp keeps the sort
        // panic-free even if that invariant ever breaks
        sorted.sort_by(f32::total_cmp);
        let median = sorted[sorted.len() / 2];
        if median > 0.0 {
            let bound = norm_bound_factor * median;
            let mut kept = Vec::with_capacity(finite.len());
            for (u, norm) in finite.into_iter().zip(norms) {
                if norm <= bound {
                    kept.push(u);
                } else {
                    rejected.push(u.client_id);
                }
            }
            finite = kept;
        }
    }

    rejected.sort_unstable();
    (finite, rejected)
}

impl AggregationMethod {
    /// Produces the next global weight vector from the previous one and the
    /// round's client updates.
    ///
    /// # Panics
    ///
    /// Panics if `updates` is empty or weight lengths disagree.
    pub fn aggregate(&self, global: &[f32], updates: &[ClientUpdate]) -> Vec<f32> {
        match *self {
            AggregationMethod::FedAvg => weighted_average(updates),
            AggregationMethod::QFedAvg { q, lr } => q_fed_avg(global, updates, q, lr),
        }
    }

    /// Owning variant of [`aggregate`](Self::aggregate) used by the round
    /// loop: FedAvg routes to the sharded [`tree_reduce_weighted`] (which
    /// recycles update buffers instead of cloning them); q-FedAvg keeps its
    /// serial rule — its per-client state coupling does not shard.
    ///
    /// # Panics
    ///
    /// Panics if `updates` is empty or weight lengths disagree.
    pub fn aggregate_owned(&self, global: &[f32], updates: Vec<ClientUpdate>) -> Vec<f32> {
        match *self {
            AggregationMethod::FedAvg => tree_reduce_weighted(updates),
            AggregationMethod::QFedAvg { q, lr } => q_fed_avg(global, &updates, q, lr),
        }
    }

    /// Short name for result tables.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationMethod::FedAvg => "FedAvg",
            AggregationMethod::QFedAvg { .. } => "q-FedAvg",
        }
    }
}

/// The q-FFL update rule of q-FedAvg.
#[allow(
    clippy::assign_op_pattern,
    reason = "explicit grouping, see h_sum below"
)]
fn q_fed_avg(global: &[f32], updates: &[ClientUpdate], q: f32, lr: f32) -> Vec<f32> {
    assert!(!updates.is_empty(), "cannot aggregate zero updates");
    let len = global.len();
    let mut delta_sum = vec![0.0f32; len];
    let mut h_sum = 0.0f32;
    for u in updates {
        assert_eq!(u.weights.len(), len, "weight vectors must align");
        // gradient estimate from the weight delta
        let mut grad_norm_sq = 0.0f32;
        let loss = u.train_loss.max(1e-10);
        let loss_pow_q = loss.powf(q);
        for i in 0..len {
            let g = (global[i] - u.weights[i]) / lr;
            grad_norm_sq += g * g;
            delta_sum[i] += loss_pow_q * g;
        }
        // written with the RHS grouping explicit: `h_sum += a + b` would
        // group the RHS first anyway, but spelling it out keeps the
        // accumulation order visible (and the float-accum lint quiet)
        h_sum = h_sum + (q * loss.powf(q - 1.0) * grad_norm_sq + loss_pow_q / lr);
    }
    let h_sum = h_sum.max(1e-10);
    let mut out = global.to_vec();
    for i in 0..len {
        out[i] -= delta_sum[i] / h_sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(weights: Vec<f32>, samples: usize, loss: f32) -> ClientUpdate {
        ClientUpdate {
            client_id: 0,
            weights,
            train_loss: loss,
            init_loss: loss,
            num_samples: samples,
        }
    }

    #[test]
    fn weighted_average_respects_sample_counts() {
        let updates = vec![
            update(vec![0.0, 0.0], 1, 1.0),
            update(vec![3.0, 6.0], 2, 1.0),
        ];
        let avg = weighted_average(&updates);
        assert_eq!(avg, vec![2.0, 4.0]);
    }

    #[test]
    fn fedavg_of_identical_updates_is_identity() {
        let updates = vec![update(vec![1.5, -2.0], 5, 0.3); 3];
        let avg = AggregationMethod::FedAvg.aggregate(&[0.0, 0.0], &updates);
        assert_eq!(avg, vec![1.5, -2.0]);
    }

    #[test]
    fn qfedavg_with_small_q_moves_towards_clients() {
        let global = vec![1.0, 1.0];
        let updates = vec![
            update(vec![0.5, 1.0], 10, 0.8),
            update(vec![1.0, 0.5], 10, 0.8),
        ];
        let next = AggregationMethod::QFedAvg { q: 1e-6, lr: 0.1 }.aggregate(&global, &updates);
        // the update moves the global weights towards the client average
        assert!(next[0] < 1.0 && next[0] > 0.4);
        assert!(next[1] < 1.0 && next[1] > 0.4);
    }

    #[test]
    fn qfedavg_upweights_high_loss_clients() {
        let global = vec![1.0];
        // the low-loss client pulls the weight up (and more strongly), the
        // high-loss client pulls it down
        let updates = vec![update(vec![1.2], 10, 0.1), update(vec![0.9], 10, 2.0)];
        let plain = AggregationMethod::QFedAvg { q: 1e-6, lr: 0.1 }.aggregate(&global, &updates);
        let fair = AggregationMethod::QFedAvg { q: 2.0, lr: 0.1 }.aggregate(&global, &updates);
        // with q ≈ 0 the stronger (low-loss) pull wins; with a large q the
        // high-loss client dominates the update direction
        assert!(plain[0] > global[0], "plain {plain:?}");
        assert!(fair[0] < global[0], "fair {fair:?}");
    }

    #[test]
    #[should_panic(expected = "zero updates")]
    fn aggregation_rejects_empty_input() {
        let _ = weighted_average(&[]);
    }

    fn update_for(id: usize, weights: Vec<f32>) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            weights,
            train_loss: 0.5,
            init_loss: 0.7,
            num_samples: 4,
        }
    }

    #[test]
    fn screen_rejects_non_finite_updates() {
        let global = vec![0.0, 0.0];
        let updates = vec![
            update_for(0, vec![1.0, 1.0]),
            update_for(1, vec![f32::NAN, 1.0]),
            update_for(2, vec![1.0, f32::INFINITY]),
            update_for(3, vec![0.9, 1.1]),
        ];
        let (accepted, rejected) = screen_updates(&global, updates, 8.0);
        assert_eq!(
            accepted.iter().map(|u| u.client_id).collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(rejected, vec![1, 2]);
    }

    #[test]
    fn screen_rejects_non_finite_losses() {
        let mut bad = update_for(1, vec![1.0]);
        bad.train_loss = f32::NAN;
        let (accepted, rejected) = screen_updates(&[0.0], vec![update_for(0, vec![1.0]), bad], 8.0);
        assert_eq!(accepted.len(), 1);
        assert_eq!(rejected, vec![1]);
    }

    #[test]
    fn screen_norm_bound_catches_garbage_updates() {
        let global = vec![0.0, 0.0];
        let updates = vec![
            update_for(0, vec![1.0, 1.0]),
            update_for(1, vec![1.1, 0.9]),
            update_for(2, vec![0.9, 1.0]),
            update_for(3, vec![1.0e6, -1.0e6]),
        ];
        let (accepted, rejected) = screen_updates(&global, updates, 8.0);
        assert_eq!(accepted.len(), 3);
        assert_eq!(rejected, vec![3]);
    }

    #[test]
    fn screen_norm_bound_needs_three_updates() {
        // with only two updates there is no robust median, so the huge
        // update survives (the finiteness screen still applies)
        let global = vec![0.0];
        let updates = vec![update_for(0, vec![1.0]), update_for(1, vec![1.0e6])];
        let (accepted, rejected) = screen_updates(&global, updates, 8.0);
        assert_eq!(accepted.len(), 2);
        assert!(rejected.is_empty());
    }

    #[test]
    fn screen_accepts_identical_updates() {
        // zero median norm must not reject everything
        let global = vec![1.0, 2.0];
        let updates = vec![
            update_for(0, vec![1.0, 2.0]),
            update_for(1, vec![1.0, 2.0]),
            update_for(2, vec![1.0, 2.0]),
        ];
        let (accepted, rejected) = screen_updates(&global, updates, 8.0);
        assert_eq!(accepted.len(), 3);
        assert!(rejected.is_empty());
    }

    /// Deterministic pseudo-random update batch: `n` updates over `len`
    /// weights with varying magnitudes and sample counts.
    fn random_updates(n: usize, len: usize, seed: u64) -> Vec<ClientUpdate> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // roughly uniform in [-1, 1)
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        (0..n)
            .map(|id| ClientUpdate {
                client_id: id,
                weights: (0..len).map(|_| next() * 2.0).collect(),
                train_loss: next().abs() + 0.1,
                init_loss: next().abs() + 0.2,
                num_samples: 1 + (next().abs() * 50.0) as usize,
            })
            .collect()
    }

    #[test]
    fn shard_plan_depends_only_on_update_count() {
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(63), 1);
        assert_eq!(shard_count(64), 2);
        assert_eq!(shard_count(256), 8);
        assert_eq!(shard_count(100_000), 16);
    }

    #[test]
    fn tree_reduce_single_shard_matches_serial_exactly() {
        for n in [1usize, 2, 5, 31, 63] {
            let updates = random_updates(n, 37, n as u64);
            let serial = weighted_average(&updates);
            let borrow = weighted_average_sharded(&updates);
            let moved = tree_reduce_weighted(updates);
            assert_eq!(serial, borrow, "borrow path diverged at n={n}");
            assert_eq!(serial, moved, "move path diverged at n={n}");
        }
    }

    #[test]
    fn tree_reduce_multi_shard_matches_borrowing_variant_exactly() {
        for n in [64usize, 129, 256, 1000] {
            let updates = random_updates(n, 53, n as u64 ^ 0xABCD);
            let borrow = weighted_average_sharded(&updates);
            let moved = tree_reduce_weighted(updates);
            assert_eq!(borrow, moved, "paths diverged at n={n}");
        }
    }

    #[test]
    fn tree_reduce_multi_shard_approximates_serial_fold() {
        let updates = random_updates(512, 64, 7);
        let serial = weighted_average(&updates);
        let tree = tree_reduce_weighted(updates);
        for (i, (&a, &b)) in serial.iter().zip(tree.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * a.abs().max(1.0),
                "element {i}: serial {a} vs tree {b}"
            );
        }
    }

    #[test]
    fn sharded_screen_matches_serial_screen() {
        let global: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        for (n, factor) in [(2usize, 8.0f32), (5, 8.0), (64, 4.0), (200, 2.0), (64, 0.0)] {
            let mut updates = random_updates(n, 37, n as u64 ^ factor.to_bits() as u64);
            // poison a few updates: NaN weights, infinite loss, garbage norm
            if n >= 5 {
                updates[1].weights[3] = f32::NAN;
                updates[2].train_loss = f32::INFINITY;
                for w in updates[4].weights.iter_mut() {
                    *w = 1.0e9;
                }
            }
            let (serial_acc, serial_rej) = screen_updates(&global, updates.clone(), factor);
            let (shard_acc, shard_rej) = screen_updates_sharded(&global, updates, factor);
            assert_eq!(
                serial_rej, shard_rej,
                "rejects diverged at n={n} f={factor}"
            );
            let serial_ids: Vec<usize> = serial_acc.iter().map(|u| u.client_id).collect();
            let shard_ids: Vec<usize> = shard_acc.iter().map(|u| u.client_id).collect();
            assert_eq!(
                serial_ids, shard_ids,
                "accepts diverged at n={n} f={factor}"
            );
        }
    }

    #[test]
    fn sharded_screen_handles_empty_input() {
        let (accepted, rejected) = screen_updates_sharded(&[0.0], Vec::new(), 8.0);
        assert!(accepted.is_empty());
        assert!(rejected.is_empty());
    }

    #[test]
    fn aggregate_owned_matches_aggregate_for_both_methods() {
        let updates = random_updates(40, 16, 3);
        let global: Vec<f32> = (0..16).map(|i| i as f32 * 0.1).collect();
        for method in [
            AggregationMethod::FedAvg,
            AggregationMethod::QFedAvg { q: 1.0, lr: 0.1 },
        ] {
            let borrowed = method.aggregate(&global, &updates);
            let owned = method.aggregate_owned(&global, updates.clone());
            assert_eq!(borrowed, owned, "{} diverged", method.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AggregationMethod::FedAvg.name(), "FedAvg");
        assert_eq!(
            AggregationMethod::QFedAvg { q: 1.0, lr: 0.1 }.name(),
            "q-FedAvg"
        );
    }
}
