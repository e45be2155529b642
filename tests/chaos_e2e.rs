//! The chaos acceptance test: the fixed-seed fault mix (30% stragglers,
//! 10% crashes, 5% transport drops, 5% corrupted updates, one injected
//! worker panic) against the full FL → registry → serving closed loop at
//! tiny scale.
//!
//! The acceptance bar, per `docs/ROBUSTNESS.md`:
//!
//! 1. the semi-sync FL run converges within 2 percentage points of the
//!    fault-free baseline's accuracy;
//! 2. no request is lost or hung — every submitted request resolves to a
//!    typed outcome and the load accounting balances;
//! 3. served availability is ≥ 99% excluding shed requests, injected
//!    worker panic included;
//! 4. the whole report's FL side reproduces bit-for-bit from the seeds.

use hs_bench::experiments::{chaos_study, ChaosConfig};

#[test]
fn chaos_mix_meets_the_acceptance_bar() {
    let cfg = ChaosConfig::tiny();
    let report = chaos_study(&cfg);

    // --- convergence: within 2pp of the fault-free baseline
    assert!(
        report.accuracy_gap_pp <= 2.0,
        "faults degraded accuracy beyond the acceptance bar: baseline {:.4}, faulty {:.4} ({:+.2} pp)",
        report.baseline_accuracy,
        report.faulty_accuracy,
        report.accuracy_gap_pp
    );

    // --- the fault mix actually fired: rounds dropped stragglers/crashes
    // and the cohort accounting partitions every round
    assert!(report.dropped_deadline > 0, "no straggler was ever dropped");
    assert!(report.dropped_crash > 0, "no crash was ever simulated");
    for r in &report.rounds {
        assert_eq!(
            r.completed
                + r.dropped_deadline
                + r.dropped_crash
                + r.dropped_transport
                + r.rejected_corrupt,
            r.participants.len(),
            "round {} counters do not partition its cohort",
            r.round
        );
        assert!(r.completed > 0, "round {} aggregated nothing", r.round);
    }

    // --- no request lost or hung: every submission resolved to a typed
    // outcome, and the books balance
    let load = &report.load;
    assert_eq!(
        load.attempted(),
        cfg.load_concurrency * cfg.load_per_client,
        "requests went missing: {load:?}"
    );
    assert_eq!(load.expired, 0, "no deadlines were set, nothing may expire");
    // conservation across the two sets of books: every submission the
    // clients made (first tries + retries) was either refused at the door
    // or admitted, and every admitted one left through exactly one counted
    // exit — a response, an expiry, a shed, or the aborted batch
    let serving = &report.serving;
    assert_eq!(
        (load.attempted() + load.retries) as u64 - serving.rejected,
        serving.completed + serving.expired + serving.shed + load.aborted as u64,
        "admitted requests and counted outcomes diverged: {load:?} vs {serving:?}"
    );
    assert_eq!(
        report.in_flight_after_load, 0,
        "the server leaked a request"
    );

    // --- availability >= 99% excluding shed, the injected panic included
    assert!(
        report.availability >= 0.99,
        "availability {:.4} under the 99% bar: {load:?}",
        report.availability
    );
    assert_eq!(
        report.serving.worker_panics, 1,
        "the injected worker panic must fire exactly once"
    );
    assert_eq!(
        report.serving.worker_restarts, 1,
        "the supervisor must respawn the panicked worker"
    );
}

#[test]
fn chaos_fl_side_reproduces_bit_for_bit_from_the_seed() {
    // two full runs of the same config: the FL side (round statistics and
    // final accuracies) must replay exactly — serving-side latency and
    // retry counts naturally vary with thread scheduling and are excluded
    let mut cfg = ChaosConfig::tiny();
    // the replay only needs the FL side; skip the panic so the second run's
    // serving path is not timing-coupled to the first's supervisor state
    cfg.inject_worker_panic = false;
    let a = chaos_study(&cfg);
    let b = chaos_study(&cfg);
    assert_eq!(a.rounds, b.rounds, "round histories diverged across runs");
    assert_eq!(a.baseline_accuracy.to_bits(), b.baseline_accuracy.to_bits());
    assert_eq!(a.faulty_accuracy.to_bits(), b.faulty_accuracy.to_bits());
    assert_eq!(
        (a.completed, a.dropped_deadline, a.dropped_crash),
        (b.completed, b.dropped_deadline, b.dropped_crash)
    );
}
