//! The metric contract: every name the ledger can emit, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! at the repository root declares the same tables for the driver; a unit
//! test (`main.rs`) keeps the two in step, so a metric cannot be emitted
//! without being declared or declared without being emitted.

use std::collections::BTreeMap;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before a change is a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The two driver workloads (see the README for why each exists).
pub const WORKLOADS: [&str; 2] = ["vision", "fleet_mlp"];

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("round_ms", "ms", Lower, 0.25),
    e2e("round_p95_ms", "ms", Lower, 0.25),
    e2e("eval_ms", "ms", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("solo_latency_p50_us", "us", Lower, 0.2),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Single-layer numbers from the traced pass. Ungated.
pub const PER_LAYER: &[MetricDef] = &[
    // tensor: host ceilings, then each kernel shape class the two models use
    layer("tensor.peak_gflops", "GFLOP/s", Higher),
    layer("tensor.stream_gbps", "GB/s", Higher),
    layer("tensor.cache_gbps", "GB/s", Higher),
    layer("tensor.gemm_gflops.pw_infer", "GFLOP/s", Higher),
    layer("tensor.gemm_gflops.im2col_infer", "GFLOP/s", Higher),
    layer("tensor.gemm_gflops.linear_m1", "GFLOP/s", Higher),
    layer("tensor.gemm_gflops.linear_m8", "GFLOP/s", Higher),
    layer(
        "tensor.gemm_batch_cyclic_gflops.pw_small",
        "GFLOP/s",
        Higher,
    ),
    layer("tensor.depthwise_gflops.k3s1", "GFLOP/s", Higher),
    layer("tensor.depthwise_gflops.k3s2", "GFLOP/s", Higher),
    layer("tensor.gemm_nt_gflops.train", "GFLOP/s", Higher),
    layer("tensor.gemm_tn_gflops.train", "GFLOP/s", Higher),
    layer("tensor.roofline_share.pw_infer", "ratio", Higher),
    layer("tensor.roofline_share.im2col_infer", "ratio", Higher),
    layer("tensor.roofline_share.linear_m1", "ratio", Higher),
    layer("tensor.roofline_share.linear_m8", "ratio", Higher),
    layer("tensor.roofline_share.pw_small", "ratio", Higher),
    layer("tensor.roofline_share.k3s1", "ratio", Higher),
    layer("tensor.roofline_share.k3s2", "ratio", Higher),
    layer("tensor.roofline_share.nt_train", "ratio", Higher),
    layer("tensor.roofline_share.tn_train", "ratio", Higher),
    // nn: the workload's own model
    layer("nn.infer_us.b1", "us", Lower),
    layer("nn.infer_us.b8", "us", Lower),
    layer("nn.infer_allocs.b8", "count", Lower),
    layer("nn.forward_backward_ms", "ms", Lower),
    layer("nn.eval_loss_ms", "ms", Lower),
    layer("nn.sgd_step_us", "us", Lower),
    layer("nn.weights_us", "us", Lower),
    layer("nn.set_weights_us", "us", Lower),
    layer("nn.fuse_us", "us", Lower),
    layer("nn.replica_build_ms", "ms", Lower),
    layer("nn.checkpoint_encode_us", "us", Lower),
    layer("nn.checkpoint_load_us", "us", Lower),
    layer("nn.batched_crossover_classes", "count", Higher),
    layer("nn.batched_crossover_min", "count", Higher),
    layer("nn.batched_crossover_max", "count", Higher),
    // isp / device / data: fixed seeded inputs (48 px scene, paper devices)
    layer("isp.stage_us.demosaic", "us", Lower),
    layer("isp.stage_us.denoise", "us", Lower),
    layer("isp.stage_us.white_balance", "us", Lower),
    layer("isp.stage_us.gamut", "us", Lower),
    layer("isp.stage_us.tone", "us", Lower),
    layer("isp.stage_us.compress", "us", Lower),
    layer("isp.process_us", "us", Lower),
    layer("device.capture_us", "us", Lower),
    layer("device.render_us", "us", Lower),
    layer("device.fault_triage_us", "us", Lower),
    layer("device.fleet_client_us", "us", Lower),
    layer("data.scene_generate_us", "us", Lower),
    layer("data.capture_sample_us", "us", Lower),
    layer("data.lazy_synthesize_us", "us", Lower),
    // core: HeteroSwitch on one captured client of the workload
    layer("core.client_update_ms", "ms", Lower),
    layer("core.transform_dataset_us", "us", Lower),
    layer("core.swad_update_us", "us", Lower),
    layer("core.cost_vs_fedavg", "ratio", Lower),
    layer("core.switch1_share", "ratio", Higher),
    layer("core.switch2_share", "ratio", Higher),
    // fl: probes on the traced rounds' own inputs, then span attribution
    layer("fl.cohort_draw_us", "us", Lower),
    layer("fl.screen_us", "us", Lower),
    layer("fl.aggregate_us", "us", Lower),
    layer("fl.round_traced_ms", "ms", Lower),
    layer("fl.materialize_share", "ratio", Lower),
    layer("fl.client_train_share", "ratio", Higher),
    layer("fl.round_residual_share", "ratio", Lower),
    layer("fl.completed_share", "ratio", Higher),
    layer("fl.dropped_deadline", "count", Lower),
    layer("fl.dropped_crash", "count", Lower),
    layer("fl.dropped_transport", "count", Lower),
    layer("fl.rejected_corrupt", "count", Lower),
    layer("fl.resident_client_bytes", "bytes", Lower),
    layer("fl.replay_identical", "count", Higher),
    layer("parallel.workers", "count", Higher),
    layer("parallel.tasks_run", "count", Lower),
    layer("parallel.idle_share", "ratio", Lower),
    // serve: server-side snapshot and generator spans of the traced `sat`
    layer("serve.submit_us", "us", Lower),
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.queue_wait_p99_us", "us", Lower),
    layer("serve.server_p50_us", "us", Lower),
    layer("serve.mean_batch", "count", Higher),
    // generator-observed `sat` tail over the plain repetitions' composite:
    // too host-bound on a shared VM to carry a bound (README, Repeatability)
    layer("serve.sat_latency_p99_us", "us", Lower),
    layer("serve.overhead_us_per_req", "us", Lower),
    layer("serve.publish_us", "us", Lower),
    layer("serve.start_ms", "ms", Lower),
    // open-loop diagnostics (ungated on this host; see README)
    layer("serve.open_lo.p50_us", "us", Lower),
    layer("serve.open_lo.p95_us", "us", Lower),
    layer("serve.open_mid.p50_us", "us", Lower),
    layer("serve.open_mid.p95_us", "us", Lower),
    layer("serve.overload.ok_rps", "1/s", Higher),
    layer("serve.overload.rejected_share", "ratio", Lower),
    layer("serve.overload.expired_share", "ratio", Lower),
    layer("serve.overload.shed_share", "ratio", Lower),
    layer("serve.overload.late_share", "ratio", Lower),
    layer("bench.generator_late_p99_us", "us", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.spans_recorded", "count", Lower),
];

/// Looks a declared metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The values one run emits, keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value — both are bugs
    /// in the benchmark, not in the product.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(def.name, value);
    }

    /// Merges `other` in, keeping for every metric the better of the two
    /// readings in the metric's own direction.
    pub fn keep_best(&mut self, other: &MetricSet) {
        for (&name, &value) in &other.values {
            let better = find(name).map_or(Better::Lower, |d| d.better);
            self.values
                .entry(name)
                .and_modify(|v| {
                    *v = match better {
                        Better::Lower => v.min(value),
                        Better::Higher => v.max(value),
                    }
                })
                .or_insert(value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names of `table` this set has no value for.
    pub fn missing(&self, table: &[MetricDef]) -> Vec<&'static str> {
        table
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }

    /// `(definition, value)` for every entry of `table`, in table order.
    pub fn in_order<'a>(
        &'a self,
        table: &'static [MetricDef],
    ) -> impl Iterator<Item = (&'static MetricDef, f64)> + 'a {
        table
            .iter()
            .filter_map(move |d| self.values.get(d.name).map(|&v| (d, v)))
    }
}
