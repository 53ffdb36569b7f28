//! The metric catalog (names and units, mirrored by `BENCHMARK.json`) and
//! the run outcome printed as the benchmark's last line.

use std::collections::BTreeMap;

use vlite_metrics::LatencyRecorder;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("ttft_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("slo_attainment", "ratio"),
    ("success_rate", "ratio"),
    ("recall_at_10", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_req", "ms"),
];

/// Per-layer metrics, printed by every traced run. Metrics of a layer the
/// workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // ann.kernel
    ("ann.kernel.l2_ns_per_vec", "ns"),
    ("ann.kernel.dot_ns_per_vec", "ns"),
    ("ann.kernel.sq8_ns_per_vec", "ns"),
    ("ann.kernel.l2_gbps", "GB/s"),
    ("ann.kernel.dot_gbps", "GB/s"),
    ("ann.kernel.sq8_gbps", "GB/s"),
    // ann.ivf
    ("ann.ivf.probe_us", "us"),
    // store
    ("store.hot_scan_gbps", "GB/s"),
    ("store.cold_scan_gbps", "GB/s"),
    ("store.blocked_vs_per_query", "ratio"),
    ("store.hot_probes_per_req", "count"),
    ("store.cold_probes_per_req", "count"),
    ("store.bytes_scanned_per_req", "bytes"),
    ("store.blocked_pass_share", "ratio"),
    ("store.snapshot_waits", "count"),
    // serve.queue
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.batch_max", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.search_p50_ms", "ms"),
    ("serve.search_p99_ms", "ms"),
    // serve.dispatch / profile
    ("profile.batcher.cpu_us_per_req", "us"),
    ("profile.batcher.wall_us_per_req", "us"),
    ("profile.shard_scan.cpu_us_per_req", "us"),
    ("profile.shard_scan.wall_us_per_req", "us"),
    ("profile.cpu_scan.cpu_us_per_req", "us"),
    ("profile.cpu_scan.wall_us_per_req", "us"),
    ("profile.dispatch.cpu_us_per_req", "us"),
    ("profile.dispatch.wall_us_per_req", "us"),
    ("profile.generation.cpu_us_per_req", "us"),
    ("profile.generation.wall_us_per_req", "us"),
    ("profile.migrate.cpu_us_per_req", "us"),
    ("profile.migrate.wall_us_per_req", "us"),
    ("profile.control.cpu_us_per_req", "us"),
    ("profile.control.wall_us_per_req", "us"),
    ("serve.residual_p50_ms", "ms"),
    // serve.gen / llm
    ("gen.queue_p50_ms", "ms"),
    ("gen.prefill_p50_ms", "ms"),
    ("gen.decode_p50_ms", "ms"),
    ("gen.sheds", "count"),
    ("llm.engine_step_us", "us"),
    // core
    ("core.partition_ms", "ms"),
    ("core.hit_rate_to_coverage_us", "us"),
    ("core.decision_coverage", "ratio"),
    ("core.perfmodel.predicted_search_ms", "ms"),
    ("core.perfmodel.error_ratio", "ratio"),
    // serve.control / serve.migrate
    ("control.repartitions", "count"),
    ("control.repartition_ms_p50", "ms"),
    ("control.repartition_ms_max", "ms"),
    ("migrate.count", "count"),
    ("migrate.bytes_promoted", "bytes"),
    ("migrate.ms_max", "ms"),
    ("migrate.batches_during", "count"),
    // serve.report
    ("serve.report_ms", "ms"),
    ("serve.prometheus_ms", "ms"),
    // http
    ("http.parse_head_ns", "ns"),
    ("http.decode_request_us", "us"),
    ("http.encode_response_us", "us"),
    ("http.overhead_p50_ms", "ms"),
    // loadgen
    ("loadgen.lateness_p99_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.ttft_p99_ms", "ms"),
    ("loadgen.offered_rps", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Everything one run produced: request accounting, check failures and
/// metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted in the measured phases.
    pub attempted: u64,
    /// Measured requests refused, shed, dropped or answered with an error.
    pub failed: u64,
    /// Check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither catalog (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// Records a check failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every check passed and at least one request was attempted.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.attempted > 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with the end-to-end catalog, or the per-layer catalog when
    /// `traced`. A catalog metric the run did not set, or set to a
    /// non-finite value, makes the run incorrect.
    pub fn to_json(&self, traced: bool) -> String {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = self.correct();
        let mut fields = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    eprintln!("perfbench: metric {name} missing or not finite");
                    correct = false;
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives (`1` prints as `1.0` so it reads as a
/// float either way).
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

/// The `q`-quantile (`0..=1`) of `values`; 0 when empty.
pub fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    values
        .into_iter()
        .collect::<LatencyRecorder>()
        .percentile(q)
}

/// Median of `values`; 0 when empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}
