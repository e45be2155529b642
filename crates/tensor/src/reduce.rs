//! Lane-split reductions: a sum or a dot product kept as eight
//! independent partial sums instead of one serial chain of dependent adds.
//!
//! A single-accumulator `f32` sum waits on the add latency at every element
//! and cannot vectorise (reassociating it would change its bits). Element
//! `i` of a run goes to lane `i % 8` instead, so the eight chains run in
//! parallel and the inner loop is a plain vector add; the lanes are summed
//! in lane order once, at the end. The result is a fixed function of the
//! inputs — the same bits on every host, tier and thread count — just a
//! different (and better-conditioned) association than the serial chain.
//!
//! This is the one reduction the training passes outside the GEMM share:
//! the depthwise weight and bias gradients, `BatchNorm2d`'s statistics and
//! gradient sums, the convolution bias gradient and the squeeze-excite gate
//! gradient.

/// Independent partial sums a reduction is split over.
const LANES: usize = 8;

/// A sum in progress, as eight partial sums. Every run handed to
/// [`LaneSum::add`] / [`LaneSum::add_dot`] starts again at lane 0, so a
/// reduction over several disjoint runs (one per sample, one per row) is
/// kept in one `LaneSum` and totalled once.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneSum([f32; LANES]);

impl LaneSum {
    /// `lane[i % 8] += xs[i]`.
    #[inline]
    pub fn add(&mut self, xs: &[f32]) {
        let acc = &mut self.0;
        let mut chunks = xs.chunks_exact(LANES);
        for chunk in &mut chunks {
            for l in 0..LANES {
                acc[l] += chunk[l];
            }
        }
        for (lane, x) in acc.iter_mut().zip(chunks.remainder()) {
            *lane += x;
        }
    }

    /// `lane[i % 8] += a[i]·b[i]` for two equally long runs.
    #[inline]
    pub fn add_dot(&mut self, a: &[f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        let acc = &mut self.0;
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            for l in 0..LANES {
                acc[l] += xa[l] * xb[l];
            }
        }
        for ((lane, x), y) in acc.iter_mut().zip(ca.remainder()).zip(cb.remainder()) {
            *lane += x * y;
        }
    }

    /// The sum: the lanes added in lane order.
    #[inline]
    pub fn total(&self) -> f32 {
        self.0.iter().sum()
    }
}

/// `Σ xs[i]`, lane-split.
#[inline]
pub fn sum_lanes(xs: &[f32]) -> f32 {
    let mut s = LaneSum::default();
    s.add(xs);
    s.total()
}

/// `Σ a[i]·b[i]` over two equally long runs, lane-split.
#[inline]
pub fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let mut s = LaneSum::default();
    s.add_dot(a, b);
    s.total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_restart_per_run_and_total_in_lane_order() {
        // 11 elements: lanes 0..3 take two values each, the rest one
        let xs: Vec<f32> = (1..=11).map(|i| i as f32).collect();
        let mut expect = [0.0f32; LANES];
        for (i, x) in xs.iter().enumerate() {
            expect[i % LANES] += x;
        }
        let total: f32 = expect.iter().sum();
        assert_eq!(sum_lanes(&xs).to_bits(), total.to_bits());
        // two runs in one LaneSum: the second starts again at lane 0
        let mut s = LaneSum::default();
        s.add(&xs[..3]);
        s.add(&xs[3..]);
        let mut split = [0.0f32; LANES];
        for (i, x) in xs[..3].iter().enumerate() {
            split[i] += x;
        }
        for (i, x) in xs[3..].iter().enumerate() {
            split[i % LANES] += x;
        }
        assert_eq!(s.total().to_bits(), split.iter().sum::<f32>().to_bits());
    }

    #[test]
    fn dot_matches_the_sum_of_products_and_carries_nan() {
        for len in [0usize, 1, 7, 8, 9, 17, 64, 100] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos()).collect();
            let prods: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
            assert_eq!(dot_lanes(&a, &b).to_bits(), sum_lanes(&prods).to_bits());
            let serial: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
            assert!((dot_lanes(&a, &b) as f64 - serial).abs() <= 1e-5 * len.max(1) as f64);
        }
        assert!(sum_lanes(&[1.0, f32::NAN, 2.0]).is_nan());
        assert!(dot_lanes(&[1.0, 0.0], &[1.0, f32::INFINITY]).is_nan());
    }
}
