//! The run skeleton both workloads share.
//!
//! * [`measured`] — tracing off. The FL set-up (repeated, median
//!   reported), then identical train → evaluate → serve cycles: one
//!   discarded warm-up, then `Sizes::reps` timed ones. Every timing metric
//!   is read off the repetitions' *quiet composite*
//!   (`stats::quiet_composite`: slice by slice — a round, an evaluation
//!   sweep, a run of consecutive requests — the least-disturbed of its
//!   executions); the median and quartiles of the plain per-repetition
//!   values are kept beside it.
//! * [`traced`] — after a warm-up, plain and traced repetitions of each
//!   phase alternate (the ratio of their composites is the tracing
//!   overhead), then the open-loop diagnostics and the layer probes; every
//!   per-layer metric comes from here, and the spans are written as a
//!   Chrome trace.

use crate::fl_phase::{run_rep, run_traced_rep, weights_fingerprint, TraceHooks};
use crate::host::peak_rss_mb;
use crate::loadgen::{closed_loop, open_loop, ClosedRun, Counts};
use crate::metrics::MetricSet;
use crate::probes;
use crate::serve_phase::{bring_up, MAX_BATCH, OVERLOAD_DEADLINE, SAT_WINDOW, SOLO_WINDOW};
use crate::stats::{percentile, quiet_composite, samples_beyond, Sliced, Summary};
use crate::trace::{self, Recorder, Span, ROOT};
use crate::workload::{Sizes, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// How much of the fixed work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub sizes: Sizes,
    /// Whether one extra, discarded repetition runs first.
    pub warmup: bool,
    /// Times the traced pass repeats its layer-probe suite.
    pub probe_passes: usize,
}

impl Plan {
    /// The ledger's rule: `sizes.reps` timed repetitions after one
    /// discarded warm-up.
    pub fn full(sizes: Sizes) -> Self {
        Plan {
            sizes,
            warmup: true,
            probe_passes: 3,
        }
    }

    /// `--smoke`: every code path once, numbers meaningless.
    pub fn smoke(mut sizes: Sizes) -> Self {
        sizes.reps = 1;
        sizes.setup_reps = 1;
        sizes.sat_passes = 1;
        Plan {
            sizes,
            warmup: false,
            probe_passes: 1,
        }
    }

    fn total_reps(&self) -> usize {
        self.sizes.reps + usize::from(self.warmup)
    }

    fn is_timed(&self, rep: usize) -> bool {
        !self.warmup || rep > 0
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub metrics: MetricSet,
    /// Quartiles and sample count behind each repeated metric.
    pub summaries: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-text findings printed with the report (`note: …`).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Records a metric read off the quiet composite, and beside it the
    /// spread of the plain per-repetition values.
    fn composite(&mut self, name: &'static str, value: f64, per_rep: &[f64]) {
        self.metrics.set(name, value);
        self.summaries.insert(name, Summary::of(per_rep));
    }

    fn count(&mut self, counts: &Counts) {
        self.attempted += counts.attempted();
        self.failed += counts.not_ok();
    }
}

fn secs_since(t_ns: u64) -> f64 {
    (hs_obs::now_ns() - t_ns) as f64 / 1e9
}

fn sorted_us(latencies_ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = latencies_ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Slices that are their own sample (FL rounds, evaluation sweeps), in ms.
fn bare_ms(ns: &[u64]) -> Sliced {
    Sliced {
        times: ns.iter().map(|&n| n as f64 / 1e6).collect(),
        samples: Vec::new(),
    }
}

/// At most this many slices per closed-loop repetition …
const SERVE_SLICES: usize = 100;
/// … each at least this many full batches long. A slice boundary falls
/// anywhere inside a batch, so a slice's time is only known to within one
/// batch; picking the fastest of many such readings would favour the ones
/// the boundary happened to shorten, unless a batch is small against the
/// slice.
const SLICE_MIN_BATCHES: usize = 20;

/// Cuts a closed-loop repetition into runs of consecutive requests: slice
/// time in seconds, latencies in µs.
fn serve_slices(run: &ClosedRun) -> Sliced {
    let n = run.completed_ns.len();
    let per = n.div_ceil(SERVE_SLICES).max(SLICE_MIN_BATCHES * MAX_BATCH);
    let mut out = Sliced::default();
    let mut begun_ns = 0;
    for start in (0..n).step_by(per) {
        let end = (start + per).min(n);
        let ended_ns = run.completed_ns[end - 1];
        out.times.push((ended_ns - begun_ns) as f64 / 1e9);
        out.samples.push(
            run.latencies_ns[start..end]
                .iter()
                .map(|&l| l as f64 / 1e3)
                .collect(),
        );
        begun_ns = ended_ns;
    }
    out
}

/// One closed-loop phase over its repetitions: the quiet composite so far
/// (folded in repetition by repetition, so the harness holds one
/// repetition's latencies, not all of them, and `peak_rss_mb` stays the
/// product's), and the plain per-repetition throughput, p50 and p99.
#[derive(Default)]
struct ServePhase {
    quiet: Option<Sliced>,
    rps: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl ServePhase {
    fn add(&mut self, run: &ClosedRun) {
        let lat = sorted_us(&run.latencies_ns);
        self.rps.push(run.throughput_rps());
        self.p50.push(percentile(&lat, 0.5));
        self.p99.push(percentile(&lat, 0.99));
        let slices = serve_slices(run);
        self.quiet = Some(match self.quiet.take() {
            Some(quiet) => quiet_composite(&[quiet, slices]),
            None => slices,
        });
    }
}

/// Requests ÷ total time of a composite whose slices are in seconds.
fn composite_rps(quiet: &Sliced) -> f64 {
    quiet.samples.iter().map(Vec::len).sum::<usize>() as f64 / quiet.total()
}

/// The measured pass (`--trace 0`): every end-to-end metric.
pub fn measured<W: Workload>(seed: u64, plan: &Plan) -> Result<RunOutput, String> {
    let sizes = plan.sizes;
    let mut out = RunOutput::default();

    // --- FL set-up, repeated; the last build is the one used
    let mut fl_setup_s = Vec::new();
    let mut built = None;
    for _ in 0..sizes.setup_reps {
        let t = hs_obs::now_ns();
        let inputs = W::set_up(seed);
        fl_setup_s.push(secs_since(t));
        let fp = W::inputs_fingerprint(&inputs);
        out.attempted += 1;
        if built.as_ref().is_some_and(|&(_, first)| first != fp) {
            out.failed += 1;
            out.notes
                .push("set-up repetitions produced different datasets".into());
        }
        built = Some((inputs, fp));
    }
    let (inputs, _) = built.ok_or("setup_reps must be at least 1")?;
    let tests = W::device_tests(&inputs);

    // --- cycles: train (fresh simulation, same seed, fixed rounds) →
    // evaluate → publish + start + first response → `sat` → `solo` → shut
    // down. The phases alternate so each one's repetitions are spread over
    // the whole run and sample as many states of the host as it has.
    let model = W::serve_model();
    let pool = W::request_pool(&inputs);
    let off = Recorder::new(false);
    let (mut round_reps, mut eval_reps) = (Vec::new(), Vec::new());
    let (mut sat, mut solo) = (ServePhase::default(), ServePhase::default());
    let mut serve_setup_s = Vec::new();
    let mut replay_fp = None;
    for rep in 0..plan.total_reps() {
        let mut sim = W::simulation(&inputs, None);
        let r = run_rep(&mut sim, sizes.rounds, tests, sizes.eval_sweeps);
        out.attempted += r.attempted_ops;
        out.failed += r.failed_ops;
        if *replay_fp.get_or_insert(r.weights_fp) != r.weights_fp {
            // the replay contract broke: none of this repetition's rounds
            // can be trusted
            out.failed += sizes.rounds as u64;
            out.notes
                .push(format!("repetition {rep} did not replay bit-identically"));
        }

        let live = bring_up(&model, &mut sim.global_model(), pool.clone())?;
        out.attempted += 1;
        let serve_setup = live.setup_ns() as f64 / 1e9;
        for _ in 0..sizes.sat_passes {
            let sat_run = closed_loop(&live.target, sizes.sat_requests, SAT_WINDOW, &off, ROOT);
            out.count(&sat_run.counts);
            if plan.is_timed(rep) {
                sat.add(&sat_run);
            }
        }
        let solo_run = closed_loop(&live.target, sizes.solo_requests, SOLO_WINDOW, &off, ROOT);
        live.server.shutdown();
        out.count(&solo_run.counts);

        if plan.is_timed(rep) {
            round_reps.push(bare_ms(&r.round_ns));
            eval_reps.push(bare_ms(&r.eval_ns));
            serve_setup_s.push(serve_setup);
            solo.add(&solo_run);
        }
    }

    let per_rep_mean = |reps: &[Sliced]| reps.iter().map(|r| mean(&r.times)).collect::<Vec<_>>();
    let rounds = quiet_composite(&round_reps);
    out.composite("round_ms", mean(&rounds.times), &per_rep_mean(&round_reps));
    let evals = quiet_composite(&eval_reps);
    out.composite("eval_ms", mean(&evals.times), &per_rep_mean(&eval_reps));
    let mut quiet_rounds = rounds.times.clone();
    quiet_rounds.sort_by(f64::total_cmp);
    out.metrics
        .set("round_p95_ms", percentile(&quiet_rounds, 0.95));
    out.notes.push(format!(
        "round_p95_ms over the composite's {} rounds, {} beyond",
        quiet_rounds.len(),
        samples_beyond(quiet_rounds.len(), 0.95)
    ));

    let fl = Summary::of(&fl_setup_s);
    let serve = Summary::of(&serve_setup_s);
    out.metrics.set("setup_s", fl.median + serve.median);
    out.notes.push(format!(
        "setup_s = FL set-up {:.6} s [{:.6} .. {:.6}, n={}] + serve set-up {:.6} s [{:.6} .. {:.6}, n={}]",
        fl.median, fl.q1, fl.q3, fl.n, serve.median, serve.q1, serve.q3, serve.n
    ));

    let sat_quiet = sat.quiet.take().unwrap_or_default();
    let sat_lat = sat_quiet.sorted_samples();
    out.composite("throughput_rps", composite_rps(&sat_quiet), &sat.rps);
    out.composite("latency_p50_us", percentile(&sat_lat, 0.5), &sat.p50);
    let solo_lat = solo.quiet.take().unwrap_or_default().sorted_samples();
    out.composite("solo_latency_p50_us", percentile(&solo_lat, 0.5), &solo.p50);
    // the tail is host-bound on the reference host (README, Repeatability):
    // printed here, reported ungated by the traced pass
    let p99 = Summary::of(&sat.p99);
    out.notes.push(format!(
        "sat latency p99 {} us over the composite's {} requests, {} beyond [reps: q1 {} .. median {} .. q3 {}, n={}]; ungated, see serve.sat_latency_p99_us",
        percentile(&sat_lat, 0.99),
        sat_lat.len(),
        samples_beyond(sat_lat.len(), 0.99),
        p99.q1,
        p99.median,
        p99.q3,
        p99.n
    ));
    // in `sat` the window is always full, so Little's law ties the median
    // latency to the throughput; the two moving apart is a harness bug
    let littles = SAT_WINDOW as f64 * 1e6 / composite_rps(&sat_quiet);
    let observed = percentile(&sat_lat, 0.5);
    if (observed - littles).abs() > 0.5 * littles {
        out.notes.push(format!(
            "WARNING latency_p50_us {observed:.1} is far from window/throughput {littles:.1}"
        ));
    }

    out.metrics.set(
        "peak_rss_mb",
        peak_rss_mb().ok_or("VmHWM is not readable on this platform")?,
    );
    Ok(out)
}

/// Plain/traced repetition pairs of the traced pass.
const TRACE_PAIRS: usize = 3;

fn total_ns(spans: &[Span], name: &str, in_round_only: bool) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name && (!in_round_only || s.parent != ROOT))
        .fold((0, 0), |(n, t), s| (n + 1, t + s.dur_ns()))
}

fn per_call_us((count, total): (u64, u64)) -> f64 {
    total as f64 / count.max(1) as f64 / 1e3
}

/// The traced pass (`--trace 1`): every per-layer metric, and the trace.
pub fn traced<W: Workload>(seed: u64, plan: &Plan, trace_dir: &str) -> Result<RunOutput, String> {
    let sizes = plan.sizes;
    let mut out = RunOutput::default();
    let inputs = W::set_up(seed);
    let tests = W::device_tests(&inputs);
    let source = W::source(&inputs);
    let threads = hs_parallel::num_threads();

    // --- FL: warm-up, then plain and traced repetitions alternating, so
    // host drift hits both sides alike; pool counters bracket the first
    // plain one, attribution and the trace file use the last traced one
    let pairs = sizes.reps.min(TRACE_PAIRS);
    if plan.warmup {
        run_rep(&mut W::simulation(&inputs, None), sizes.rounds, tests, 0);
    }
    let round_probe = W::round_probe(&inputs);
    let (mut plain_reps, mut traced_reps) = (Vec::new(), Vec::new());
    let mut pool_delta = None;
    let mut last = None;
    let mut replayed = true;
    for _ in 0..pairs {
        let mut sim = W::simulation(&inputs, None);
        let pool_before = hs_parallel::pool_stats();
        let plain = run_rep(&mut sim, sizes.rounds, tests, 1);
        let pool_after = hs_parallel::pool_stats();
        out.attempted += plain.attempted_ops;
        out.failed += plain.failed_ops;
        pool_delta.get_or_insert((
            pool_after.workers,
            pool_after.tasks_run - pool_before.tasks_run,
            pool_after.idle_ns - pool_before.idle_ns,
            plain.round_ns.iter().sum::<u64>(),
        ));

        let hooks = TraceHooks::new();
        let mut sim = W::simulation(&inputs, Some(&hooks));
        let traced_ns = run_traced_rep(
            &mut sim,
            sizes.rounds,
            source.as_deref(),
            &hooks,
            &round_probe,
        );
        out.attempted += sizes.rounds as u64;
        replayed &= weights_fingerprint(sim.global_weights()) == plain.weights_fp;
        plain_reps.push(bare_ms(&plain.round_ns));
        traced_reps.push(bare_ms(&traced_ns));
        last = Some((hooks, sim, plain));
    }
    let (hooks, sim, plain) = last.ok_or("the traced pass needs at least one repetition")?;
    let rec = &hooks.rec;
    let plain_fl_ms = quiet_composite(&plain_reps).total();
    let traced_fl = quiet_composite(&traced_reps);
    let (workers, tasks_run, idle_ns, pooled_fl_ns) = pool_delta.unwrap_or_default();
    if !replayed {
        out.failed += sizes.rounds as u64;
        out.notes
            .push("a traced repetition did not replay bit-identically".into());
    }
    let m = &mut out.metrics;
    m.set("fl.replay_identical", f64::from(u8::from(replayed)));
    m.set("fl.round_traced_ms", mean(&traced_fl.times));
    m.set(
        "fl.resident_client_bytes",
        W::resident_client_bytes(&inputs) as f64,
    );
    let cohort: usize = plain.stats.iter().map(|s| s.participants.len()).sum();
    let sum = |f: fn(&hs_fl::RoundStats) -> usize| plain.stats.iter().map(f).sum::<usize>() as f64;
    m.set(
        "fl.completed_share",
        sum(|s| s.completed) / cohort.max(1) as f64,
    );
    m.set("fl.dropped_deadline", sum(|s| s.dropped_deadline));
    m.set("fl.dropped_crash", sum(|s| s.dropped_crash));
    m.set("fl.dropped_transport", sum(|s| s.dropped_transport));
    m.set("fl.rejected_corrupt", sum(|s| s.rejected_corrupt));
    m.set("parallel.workers", workers as f64);
    m.set("parallel.tasks_run", tasks_run as f64);
    m.set(
        "parallel.idle_share",
        idle_ns as f64 / (workers.max(1) as f64 * pooled_fl_ns.max(1) as f64),
    );
    let clients = hooks.clients.load(Ordering::Relaxed).max(1) as f64;
    let selective = sim.trainer_name() == "HeteroSwitch";
    for (name, counter) in [
        ("core.switch1_share", &hooks.switch1),
        ("core.switch2_share", &hooks.switch2),
    ] {
        // the switches exist only under HeteroSwitch's selective policy
        let taken = if selective {
            counter.load(Ordering::Relaxed) as f64
        } else {
            0.0
        };
        m.set(name, taken / clients);
    }

    // --- serve: warm-up, plain, traced `sat`; then open-loop diagnostics
    let mut trained = sim.global_model();
    let pool = W::request_pool(&inputs);
    let live = bring_up(&W::serve_model(), &mut trained, pool.clone())?;
    out.attempted += 1;
    out.metrics
        .set("serve.publish_us", live.publish_ns as f64 / 1e3);
    out.metrics
        .set("serve.start_ms", live.start_ns as f64 / 1e6);
    let requests = (sizes.sat_requests / 4).max(SAT_WINDOW);
    let off = Recorder::new(false);
    let mut sat = |rec: &Recorder| {
        let run = closed_loop(&live.target, requests, SAT_WINDOW, rec, ROOT);
        out.count(&run.counts);
        serve_slices(&run)
    };
    if plan.warmup {
        sat(&off);
    }
    let (mut plain_sat, mut traced_sat) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        plain_sat.push(sat(&off));
        // only the last traced repetition is kept in the trace and in the
        // server's own counters
        let keep = pair + 1 == pairs;
        if keep {
            live.server.reset_metrics();
        }
        let scratch = Recorder::new(true);
        traced_sat.push(sat(if keep { rec } else { &scratch }));
    }
    let plain_sat = quiet_composite(&plain_sat);
    let plain_sat_s = plain_sat.total();
    let traced_sat_s = quiet_composite(&traced_sat).total();
    let snapshot = live.server.metrics();
    let m = &mut out.metrics;
    m.set("serve.queue_wait_p50_us", snapshot.queue_p50_us as f64);
    m.set("serve.queue_wait_p99_us", snapshot.queue_p99_us as f64);
    m.set("serve.server_p50_us", snapshot.p50_us as f64);
    m.set("serve.mean_batch", snapshot.mean_batch);
    m.set(
        "serve.sat_latency_p99_us",
        percentile(&plain_sat.sorted_samples(), 0.99),
    );

    // open-loop diagnostics: refusing, expiring and shedding are what an
    // open loop *measures* (a host stall bursts the schedule into the
    // queue), so only wrong or untyped outcomes count as failed operations
    let mut generator_late = Vec::new();
    let open_for = Duration::from_secs_f64(sizes.open_secs);
    let mut open = |out: &mut RunOutput, phase: &str, rate: f64, deadline| {
        let run = open_loop(&live.target, rate, open_for, deadline);
        let c = run.counts;
        out.attempted += c.attempted();
        out.failed += c.mismatch + c.failed;
        out.notes.push(format!(
            "open-loop {phase} at {rate} req/s: {} offered, {} ok, {} rejected, {} expired, {} shed",
            c.attempted(),
            c.ok,
            c.rejected,
            c.expired,
            c.shed
        ));
        generator_late.extend(run.generator_late_ns.iter().copied());
        run
    };
    for (phase, rate) in [
        ("open_lo", sizes.open_rates[0]),
        ("open_mid", sizes.open_rates[1]),
    ] {
        let run = open(&mut out, phase, rate, None);
        let lat = sorted_us(&run.latencies_ns);
        out.metrics
            .set(&format!("serve.{phase}.p50_us"), percentile(&lat, 0.5));
        out.metrics
            .set(&format!("serve.{phase}.p95_us"), percentile(&lat, 0.95));
    }
    {
        let run = open(
            &mut out,
            "overload",
            sizes.open_rates[2],
            Some(OVERLOAD_DEADLINE),
        );
        let c = run.counts;
        let offered = c.attempted().max(1) as f64;
        let m = &mut out.metrics;
        m.set(
            "serve.overload.ok_rps",
            c.ok as f64 / (run.wall_ns.max(1) as f64 / 1e9),
        );
        m.set("serve.overload.rejected_share", c.rejected as f64 / offered);
        m.set("serve.overload.expired_share", c.expired as f64 / offered);
        m.set("serve.overload.shed_share", c.shed as f64 / offered);
        m.set(
            "serve.overload.late_share",
            run.late as f64 / c.ok.max(1) as f64,
        );
    }
    live.server.shutdown();
    out.metrics.set(
        "bench.generator_late_p99_us",
        percentile(&sorted_us(&generator_late), 0.99),
    );

    // --- layer probes
    probes::run::<W>(
        &mut out.metrics,
        seed,
        plan.probe_passes,
        &W::probe_client(&inputs),
        &pool,
    );

    // --- attribution from the spans
    let spans = rec.spans();
    let totals = trace::totals_by_name(&spans);
    let round = totals.get("round").copied().unwrap_or_default();
    let probe = |name: &str| total_ns(&spans, name, false);
    let server_side = ["cohort_draw", "fault_triage", "screen", "aggregate"]
        .map(|step| probe(&format!("probe.{step}")));
    let client = total_ns(&spans, "client_update", true).1;
    let materialize = total_ns(&spans, "materialize", true).1;
    let replica = total_ns(&spans, "replica_build", true).1;
    let m = &mut out.metrics;
    m.set("fl.cohort_draw_us", per_call_us(server_side[0]));
    m.set("device.fault_triage_us", per_call_us(server_side[1]));
    m.set("fl.screen_us", per_call_us(server_side[2]));
    m.set("fl.aggregate_us", per_call_us(server_side[3]));
    m.set(
        "fl.materialize_share",
        materialize as f64 / (client + materialize + replica).max(1) as f64,
    );
    m.set(
        "fl.client_train_share",
        client as f64 / (round.total_ns.max(1) as f64 * threads as f64),
    );
    // a round's wall time, minus the part its wrapper spans cover, minus
    // the replayed server-side steps: what the attribution cannot place
    let replayed_ns: u64 = server_side.iter().map(|&(_, t)| t).sum();
    m.set(
        "fl.round_residual_share",
        (round.self_ns as f64 - replayed_ns as f64) / round.total_ns.max(1) as f64,
    );
    m.set(
        "serve.submit_us",
        per_call_us(total_ns(&spans, "submit", false)),
    );
    let infer_b8 = m.get("nn.infer_us.b8").unwrap_or(0.0);
    m.set(
        "serve.overhead_us_per_req",
        1e6 * plain_sat_s / requests as f64 - infer_b8 / 8.0,
    );
    m.set(
        "bench.trace_overhead_share",
        (traced_fl.total() / 1e3 + traced_sat_s) / (plain_fl_ms / 1e3 + plain_sat_s) - 1.0,
    );
    m.set("bench.spans_recorded", spans.len() as f64);

    let path = PathBuf::from(trace_dir).join(format!("{}.trace.json", W::NAME));
    let events = trace::write_chrome_trace(&path, &spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "trace: {events} spans written to {}",
        path.display()
    ));
    out.notes.push(self_time_table(&totals));
    Ok(out)
}

/// The per-name table the README explains: calls, total time, self time.
fn self_time_table(totals: &BTreeMap<&'static str, trace::NameTotals>) -> String {
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let mut table = format!(
        "{:<22}{:>10}{:>14}{:>14}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, t) in rows {
        table.push_str(&format!(
            "\n      {:<22}{:>10}{:>14.3}{:>14.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    table
}
