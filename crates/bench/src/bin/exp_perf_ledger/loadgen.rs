//! Single-caller load generators.
//!
//! * [`closed_loop`] — one generator thread keeps a fixed window of
//!   requests in flight (submit ring; wait for the oldest; resubmit). Fixed
//!   work: it ends after exactly `requests` requests, so a slow server gets
//!   the same load as a fast one, later.
//! * [`open_loop`] — the same thread submits on an absolute schedule
//!   whether or not earlier requests completed, times every request from
//!   when it was *due* and reports how late the generator itself ran.
//!
//! Both drive a [`Target`], so the unit tests substitute a fake server.

use crate::trace::Recorder;
use std::collections::VecDeque;
use std::time::Duration;

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served, and the output matched the reference. Carries the
    /// submit → completion latency the server measured.
    Ok { server_ns: u64 },
    /// Served, but the output (logits or model version) was wrong.
    Mismatch,
    /// Refused at admission (queue full).
    Rejected,
    /// Deadline passed before execution.
    Expired,
    /// Shed by brownout.
    Shed,
    /// Any other typed failure (shutdown, worker panic, shape).
    Failed,
}

/// What the generators drive: request `seq` is the `seq`-th request of the
/// run (the target picks its input from that).
pub trait Target {
    type Ticket;
    fn submit(&self, seq: usize, deadline: Option<Duration>) -> Result<Self::Ticket, Outcome>;
    /// Blocks until the request completes.
    fn wait(&self, ticket: Self::Ticket, seq: usize) -> Outcome;
    /// The outcome if the request has completed, else the ticket back.
    fn try_wait(&self, ticket: Self::Ticket, seq: usize) -> Result<Outcome, Self::Ticket>;
}

/// Typed outcome counts; `attempted` is always their sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub ok: u64,
    pub mismatch: u64,
    pub rejected: u64,
    pub expired: u64,
    pub shed: u64,
    pub failed: u64,
}

impl Counts {
    fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok { .. } => self.ok += 1,
            Outcome::Mismatch => self.mismatch += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Expired => self.expired += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.not_ok()
    }

    /// Every request that did not end in a verified response.
    pub fn not_ok(&self) -> u64 {
        self.mismatch + self.rejected + self.expired + self.shed + self.failed
    }
}

/// Result of one closed-loop repetition.
#[derive(Debug, Clone, Default)]
pub struct ClosedRun {
    /// Generator-observed submit → response, one per waited request, in
    /// completion order.
    pub latencies_ns: Vec<u64>,
    /// When each of those completed, from the start of the repetition.
    pub completed_ns: Vec<u64>,
    pub wall_ns: u64,
    pub counts: Counts,
    /// Most requests ever in flight at once (never above the window).
    pub max_in_flight: usize,
}

impl ClosedRun {
    pub fn throughput_rps(&self) -> f64 {
        self.counts.ok as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Runs exactly `requests` requests through `target`, at most `window` in
/// flight. With a recorder enabled every request gets a `request` span with
/// `submit` and `wait` children, all sharing the request's sequence number
/// as operation id.
pub fn closed_loop<T: Target>(
    target: &T,
    requests: usize,
    window: usize,
    rec: &Recorder,
    parent: u32,
) -> ClosedRun {
    assert!(window >= 1, "window must be at least 1");
    let mut run = ClosedRun {
        latencies_ns: Vec::with_capacity(requests),
        completed_ns: Vec::with_capacity(requests),
        ..ClosedRun::default()
    };
    let mut ring = VecDeque::with_capacity(window);
    let mut next = 0usize;
    let start = hs_obs::now_ns();
    while next < requests || !ring.is_empty() {
        while ring.len() < window && next < requests {
            let seq = next;
            next += 1;
            let request = rec.span("request", parent, seq as u64);
            let t_submit = hs_obs::now_ns();
            let submitted = {
                let _s = rec.span("submit", request.id(), seq as u64);
                target.submit(seq, None)
            };
            match submitted {
                Ok(ticket) => ring.push_back((ticket, seq, t_submit, request)),
                Err(outcome) => run.counts.add(outcome),
            }
            run.max_in_flight = run.max_in_flight.max(ring.len());
        }
        if let Some((ticket, seq, t_submit, request)) = ring.pop_front() {
            let outcome = {
                let _w = rec.span("wait", request.id(), seq as u64);
                target.wait(ticket, seq)
            };
            let done = hs_obs::now_ns();
            run.latencies_ns.push(done - t_submit);
            run.completed_ns.push(done - start);
            run.counts.add(outcome);
        }
    }
    run.wall_ns = hs_obs::now_ns() - start;
    run
}

/// When request `i` of a `rate_rps` schedule starting at `t0_ns` is due.
pub fn due_ns(t0_ns: u64, i: u64, rate_rps: f64) -> u64 {
    t0_ns + (i as f64 * 1e9 / rate_rps) as u64
}

/// Latency an open-loop request's *user* saw: from when it was due, so the
/// time it spent waiting for a stalled generator counts.
pub fn latency_from_due_ns(due_ns: u64, submit_ns: u64, server_ns: u64) -> u64 {
    submit_ns.saturating_sub(due_ns) + server_ns
}

/// Result of one open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct OpenRun {
    /// Due → completion, one per verified response.
    pub latencies_ns: Vec<u64>,
    /// How late after its due time each request was submitted.
    pub generator_late_ns: Vec<u64>,
    pub wall_ns: u64,
    pub counts: Counts,
    /// Verified responses that arrived after their own deadline.
    pub late: u64,
}

/// Offers `rate_rps` for `duration` from one sleep-paced thread (spinning
/// for the last stretch before each due time), then drains.
pub fn open_loop<T: Target>(
    target: &T,
    rate_rps: f64,
    duration: Duration,
    deadline: Option<Duration>,
) -> OpenRun {
    assert!(rate_rps > 0.0, "rate must be positive");
    let total = (rate_rps * duration.as_secs_f64()).round().max(1.0) as u64;
    let mut run = OpenRun::default();
    let mut pending: VecDeque<(T::Ticket, usize, u64, u64)> = VecDeque::new();
    let account = |run: &mut OpenRun, outcome: Outcome, due: u64, submit: u64| {
        if let Outcome::Ok { server_ns } = outcome {
            let latency = latency_from_due_ns(due, submit, server_ns);
            run.latencies_ns.push(latency);
            if deadline.is_some_and(|d| latency > d.as_nanos() as u64) {
                run.late += 1;
            }
        }
        run.counts.add(outcome);
    };
    let t0 = hs_obs::now_ns();
    let mut i = 0u64;
    loop {
        let now = hs_obs::now_ns();
        if i < total && now >= due_ns(t0, i, rate_rps) {
            let due = due_ns(t0, i, rate_rps);
            run.generator_late_ns.push(now - due);
            let seq = i as usize;
            i += 1;
            match target.submit(seq, deadline) {
                Ok(ticket) => pending.push_back((ticket, seq, due, now)),
                Err(outcome) => account(&mut run, outcome, due, now),
            }
            continue;
        }
        // completions arrive in submission order (one FIFO worker), so
        // polling the oldest is enough
        let mut progressed = false;
        while let Some((ticket, seq, due, submit)) = pending.pop_front() {
            match target.try_wait(ticket, seq) {
                Ok(outcome) => {
                    account(&mut run, outcome, due, submit);
                    progressed = true;
                }
                Err(ticket) => {
                    pending.push_front((ticket, seq, due, submit));
                    break;
                }
            }
        }
        if i >= total && pending.is_empty() {
            break;
        }
        if !progressed {
            let until_due = if i < total {
                due_ns(t0, i, rate_rps).saturating_sub(hs_obs::now_ns())
            } else {
                100_000
            };
            // sleep overshoots by tens of µs on this kernel: sleep only the
            // part of the gap that can absorb it, spin the rest
            if until_due > 200_000 {
                std::thread::sleep(Duration::from_nanos(until_due - 150_000));
            } else {
                std::thread::yield_now();
            }
        }
    }
    run.wall_ns = hs_obs::now_ns() - t0;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A server that completes everything instantly and tracks how many
    /// requests are in flight.
    #[derive(Default)]
    struct Fake {
        in_flight: Cell<usize>,
        peak: Cell<usize>,
        submitted: Cell<usize>,
        reject_every: usize,
    }

    impl Target for Fake {
        type Ticket = ();

        fn submit(&self, seq: usize, _deadline: Option<Duration>) -> Result<(), Outcome> {
            self.submitted.set(self.submitted.get() + 1);
            if self.reject_every > 0 && seq.is_multiple_of(self.reject_every) {
                return Err(Outcome::Rejected);
            }
            self.in_flight.set(self.in_flight.get() + 1);
            self.peak.set(self.peak.get().max(self.in_flight.get()));
            Ok(())
        }

        fn wait(&self, (): (), _seq: usize) -> Outcome {
            self.in_flight.set(self.in_flight.get() - 1);
            Outcome::Ok { server_ns: 1_000 }
        }

        fn try_wait(&self, (): (), seq: usize) -> Result<Outcome, ()> {
            Ok(self.wait((), seq))
        }
    }

    #[test]
    fn closed_loop_never_exceeds_its_window_and_does_fixed_work() {
        for window in [1usize, 3, 8] {
            let fake = Fake::default();
            let run = closed_loop(&fake, 100, window, &Recorder::new(false), 0);
            assert_eq!(fake.submitted.get(), 100);
            assert_eq!(run.counts.ok, 100);
            assert_eq!(run.counts.attempted(), 100);
            assert_eq!(run.latencies_ns.len(), 100);
            assert_eq!(fake.peak.get(), window, "fills the window");
            assert_eq!(run.max_in_flight, window, "and never exceeds it");
            assert_eq!(fake.in_flight.get(), 0, "drains before returning");
        }
    }

    #[test]
    fn closed_loop_counts_typed_failures_as_attempted() {
        let fake = Fake {
            reject_every: 4,
            ..Fake::default()
        };
        let run = closed_loop(&fake, 40, 2, &Recorder::new(false), 0);
        assert_eq!(run.counts.rejected, 10);
        assert_eq!(run.counts.ok, 30);
        assert_eq!(run.counts.attempted(), 40);
        assert_eq!(run.counts.not_ok(), 10);
        assert_eq!(
            run.latencies_ns.len(),
            30,
            "refused requests are never waited on"
        );
        assert!(run.completed_ns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn closed_loop_spans_share_the_request_id() {
        let rec = Recorder::new(true);
        closed_loop(&Fake::default(), 5, 2, &rec, 0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 15, "request + submit + wait per request");
        for seq in 0..5u64 {
            let of_op: Vec<_> = spans.iter().filter(|s| s.op == seq).collect();
            let request = of_op.iter().find(|s| s.name == "request").unwrap();
            assert!(of_op
                .iter()
                .filter(|s| s.name != "request")
                .all(|s| s.parent == request.id));
        }
    }

    #[test]
    fn open_loop_schedule_and_lateness_accounting() {
        // 1000 rps → 1 ms apart, exactly
        assert_eq!(due_ns(5, 0, 1000.0), 5);
        assert_eq!(due_ns(5, 3, 1000.0), 3_000_005);
        // on-time submit: latency is the server's
        assert_eq!(latency_from_due_ns(100, 100, 40), 40);
        // generator 25 late: the user waited for that too
        assert_eq!(latency_from_due_ns(100, 125, 40), 65);
        // a submit clock read before the due time never goes negative
        assert_eq!(latency_from_due_ns(100, 90, 40), 40);
    }

    #[test]
    fn open_loop_offers_the_whole_schedule_and_flags_late_responses() {
        let fake = Fake::default();
        // 2000 rps for 50 ms = 100 requests; server latency 1 µs, so a
        // 1 ns deadline marks every response late and a 1 s one none
        let run = open_loop(
            &fake,
            2000.0,
            Duration::from_millis(50),
            Some(Duration::from_nanos(1)),
        );
        assert_eq!(run.counts.attempted(), 100);
        assert_eq!(run.counts.ok, 100);
        assert_eq!(run.generator_late_ns.len(), 100);
        assert_eq!(run.late, 100);
        assert!(run.wall_ns >= 49_000_000, "paced, not burst");
        assert!(run.latencies_ns.iter().all(|&l| l >= 1_000));
        let run = open_loop(
            &fake,
            2000.0,
            Duration::from_millis(10),
            Some(Duration::from_secs(1)),
        );
        assert_eq!(run.late, 0);
    }
}
