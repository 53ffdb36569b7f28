//! The always-on telemetry plane (`vlite-obs`): the single record of
//! every request the runtime serves, built from the lock-free instruments
//! in [`vlite_metrics::obs`]:
//!
//! - [`ObsPlane`] — sharded atomic counters and log-bucketed streaming
//!   histograms for every pipeline stage, kept for the whole server and
//!   per tenant ([`Outcomes`]), recorded by the dispatcher, generation
//!   worker and admission path without taking any global lock, and
//!   readable at any moment while the runtime keeps serving: the
//!   `GET /v1/metrics` Prometheus exposition and
//!   [`ServeReport`](crate::ServeReport) both read it.
//! - [`ObsEvent`] + a bounded journal — one ordered stream for the
//!   runtime's discrete events (repartitions, tier migrations, sheds, SLO
//!   breaches), served by `GET /v1/events`.
//! - [`BoundedRing`] — the fixed-capacity, eviction-counting ring behind
//!   the journal and the repartition/migration histories.
//!
//! Each completed request is counted exactly once, by one
//! [`ObsPlane::on_request`] call; its timeline is the span tree the
//! [`TracePlane`](crate::TracePlane) records. Counts, SLO attainment,
//! hit-rate means and deadline counters read back exactly; latency
//! percentiles carry the histograms'
//! [`relative_error_bound`](StreamingHistogram::relative_error_bound).
//! Memory is fixed at construction, whatever the uptime.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use vlite_metrics::obs::{Counter, StreamingHistogram};

use crate::http::json::Json;
use crate::request::{RequestTimings, TenantId};

/// Telemetry-plane knobs ([`ServeConfig::obs`](crate::ServeConfig)).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Capacity of the unified event journal.
    pub journal_capacity: usize,
    /// Capacity of the repartition-history ring (the previously unbounded
    /// `Vec<RepartitionEvent>`).
    pub repartition_capacity: usize,
    /// Capacity of the migration-history ring (the previously unbounded
    /// `Vec<MigrationEvent>`).
    pub migration_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            journal_capacity: 1024,
            repartition_capacity: 1024,
            migration_capacity: 1024,
        }
    }
}

/// A fixed-capacity ring that counts what it evicts.
///
/// This is *not* a hot-path instrument — pushes take a (short, dedicated)
/// mutex — it is the bounded replacement for the runtime's grow-forever
/// event vectors, and the store behind the journal.
#[derive(Debug)]
pub struct BoundedRing<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
    evicted: AtomicU64,
}

impl<T: Clone> BoundedRing<T> {
    /// An empty ring holding at most `capacity` items (capacity 0 keeps
    /// nothing and counts every push as an eviction).
    pub fn new(capacity: usize) -> Self {
        Self {
            items: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            evicted: AtomicU64::new(0),
        }
    }

    /// Appends `item`, evicting the oldest entry when full.
    pub fn push(&self, item: T) {
        let mut items = crate::sync::lock_recover(&self.items);
        if self.capacity == 0 {
            // relaxed: eviction stat counter; the ring's contents are
            // ordered by the mutex, the counter is a lone tally.
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if items.len() == self.capacity {
            items.pop_front();
            // relaxed: eviction stat counter, as above.
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        items.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        crate::sync::lock_recover(&self.items)
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        crate::sync::lock_recover(&self.items).len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items evicted (or dropped at capacity 0) over the ring's lifetime.
    pub fn evicted(&self) -> u64 {
        // relaxed: stat counter read for reporting only.
        self.evicted.load(Ordering::Relaxed)
    }
}

/// How serious a journal event is. Routine bookkeeping (repartitions,
/// migrations) is `Info`; degradations and sheds are `Warn`; conditions
/// that demand an operator (worker panics, critical SLO burn) are
/// `Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine bookkeeping.
    Info,
    /// Degraded service: sheds, SLO breaches, deadline drops.
    Warn,
    /// Operator-demanding: panics, critical burn rates.
    Critical,
}

impl Severity {
    /// Lowercase name as rendered in `/v1/events`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    /// Parses the lowercase name (the `?severity=` query value).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One discrete runtime event in the unified journal.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// When the event happened, nanoseconds on the server's clock.
    pub at_ns: u64,
    /// How serious the event is.
    pub severity: Severity,
    /// Event kind (`repartition`, `migration`, `shed`, `deadline-shed`,
    /// `degrade`, `panic`, `slo_breach`, `slo_burn`).
    pub kind: &'static str,
    /// Human-readable detail line.
    pub detail: String,
}

impl ObsEvent {
    /// The event as a JSON value (what `GET /v1/events` serves per entry).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("at_ns".into(), Json::Num(self.at_ns as f64)),
            ("severity".into(), Json::Str(self.severity.as_str().into())),
            ("kind".into(), Json::Str(self.kind.into())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
    }
}

/// The pipeline-stage histograms, in the exposition's fixed order.
const STAGES: [&str; 7] = [
    "queue",
    "search",
    "e2e",
    "ttft",
    "gen_queue",
    "prefill",
    "decode",
];

/// Index into the deadline-shed counters: shed at admission (rung 1 of
/// the degradation ladder — the estimated queue wait already exceeds the
/// whole budget).
pub const DEADLINE_STAGE_ADMISSION: usize = 0;
/// Index into the deadline-shed counters: shed at batch formation (rung 2
/// — the request expired while queued).
pub const DEADLINE_STAGE_QUEUE: usize = 1;
/// Index into the deadline-shed counters: shed by generation admission
/// (rung 5 — the estimated first token would land past the deadline).
pub const DEADLINE_STAGE_GENERATION: usize = 2;

/// Names of the deadline-shed stages, indexed by the
/// `DEADLINE_STAGE_*` constants.
pub const DEADLINE_STAGES: [&str; 3] = ["admission", "queue", "generation"];

/// Index into the budget-burn histograms: fraction of the budget burned
/// waiting in the admission queue.
pub const BURN_STAGE_QUEUE: usize = 0;
/// Index into the budget-burn histograms: fraction burned in retrieval.
pub const BURN_STAGE_SEARCH: usize = 1;
/// Index into the budget-burn histograms: fraction burned in generation.
pub const BURN_STAGE_GENERATION: usize = 2;

/// Names of the budget-burn stages, indexed by the `BURN_STAGE_*`
/// constants.
pub const BURN_STAGES: [&str; 3] = ["queue", "search", "generation"];

/// Scale of the fixed-point hit-rate sum: one unit is 1e-9 of a hit.
const HIT_RATE_SCALE: f64 = 1e9;

/// One request whose lifecycle ended, as [`ObsPlane::on_request`]
/// records it.
#[derive(Debug, Clone, Copy)]
pub struct Completion<'a> {
    /// Request id (assigned at admission).
    pub id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Admission instant, nanoseconds on the server's clock.
    pub admitted_ns: u64,
    /// The timings delivered with the response.
    pub timings: &'a RequestTimings,
    /// Fraction of the request's probes served by the fast tier.
    pub hit_rate: f64,
    /// Whether the search stage met the global `slo_search`.
    pub search_met: bool,
    /// Whether the search stage met the tenant's own `slo_search`.
    pub tenant_search_met: bool,
    /// Whether TTFT met `slo_ttft`: `None` on retrieval-only servers,
    /// `Some(false)` for sheds.
    pub ttft_met: Option<bool>,
    /// Whether generation admission shed the request (served
    /// retrieval-only).
    pub shed: bool,
    /// The request's budget in seconds and whether the response met its
    /// deadline; `None` for unbudgeted requests.
    pub deadline: Option<(f64, bool)>,
}

/// The completion instruments of one population of requests: the whole
/// server ([`ObsPlane::totals`]) or one tenant ([`ObsPlane::tenants`]).
/// [`ServeReport`](crate::ServeReport) and
/// [`TenantReport`](crate::TenantReport) are read from these.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// Requests whose lifecycle ended (delivered or shed).
    pub completed: Counter,
    /// Requests shed by generation admission (KV-aware or
    /// deadline-aware).
    pub gen_sheds: Counter,
    /// Requests whose search stage missed its SLO: the global
    /// `slo_search` in the totals, the tenant's own in a tenant's slice.
    pub search_slo_breaches: Counter,
    /// Requests whose TTFT missed `slo_ttft` (sheds included).
    pub ttft_slo_breaches: Counter,
    /// Sum of the requests' hit rates, in units of `1 / HIT_RATE_SCALE`.
    hit_rate_sum: Counter,
    /// Stage latency histograms, indexed like [`STAGES`].
    stages: [StreamingHistogram; 7],
}

impl Outcomes {
    fn record(&self, c: &Completion<'_>, search_met: bool) {
        let t = c.timings;
        self.completed.inc();
        // Indexed like STAGES.
        self.stages[0].record(t.queue);
        self.stages[1].record(t.search);
        self.stages[2].record(t.e2e);
        if let Some(gen) = &t.generation {
            self.stages[3].record(gen.ttft);
            self.stages[4].record(gen.gen_queue);
            self.stages[5].record(gen.prefill);
            self.stages[6].record(gen.decode);
        }
        if !search_met {
            self.search_slo_breaches.inc();
        }
        if c.ttft_met == Some(false) {
            self.ttft_slo_breaches.inc();
        }
        if c.shed {
            self.gen_sheds.inc();
        }
        self.hit_rate_sum
            .add((c.hit_rate * HIT_RATE_SCALE).round() as u64);
    }

    /// The stage histogram for `stage` (one of `queue`, `search`, `e2e`,
    /// `ttft`, `gen_queue`, `prefill`, `decode`).
    pub fn stage(&self, stage: &str) -> Option<&StreamingHistogram> {
        STAGES
            .iter()
            .position(|&s| s == stage)
            .map(|i| &self.stages[i])
    }

    /// [`Outcomes::stage`] for the fixed stage names used internally.
    pub(crate) fn hist(&self, stage: &str) -> &StreamingHistogram {
        self.stage(stage).expect("known stage name")
    }

    /// `total` per completed request (`0.0` when none completed).
    fn per_request(&self, total: impl FnOnce(u64) -> f64) -> f64 {
        match self.completed.get() {
            0 => 0.0,
            n => total(n) / n as f64,
        }
    }

    /// Fraction of completed requests whose search stage met its SLO.
    pub fn search_attainment(&self) -> f64 {
        self.per_request(|n| n.saturating_sub(self.search_slo_breaches.get()) as f64)
    }

    /// Fraction of completed requests whose TTFT met `slo_ttft` (sheds
    /// count as misses). Meaningful only on co-scheduled servers.
    pub fn ttft_attainment(&self) -> f64 {
        self.per_request(|n| n.saturating_sub(self.ttft_slo_breaches.get()) as f64)
    }

    /// Mean hit rate over completed requests, exact to 1e-9.
    pub fn mean_hit_rate(&self) -> f64 {
        self.per_request(|_| self.hit_rate_sum.get() as f64 / HIT_RATE_SCALE)
    }
}

/// The live telemetry plane: one instance per server, shared by every
/// runtime thread. All counter/histogram recording is lock-free
/// ([`vlite_metrics::obs`]); only journal capture takes a (short,
/// dedicated) ring mutex.
#[derive(Debug)]
pub struct ObsPlane {
    /// Requests admitted into a queue (mirrors `QueueStats::admitted`).
    pub admitted: Counter,
    /// Requests rejected by a full tenant queue (mirrors
    /// `QueueStats::rejected`).
    pub rejected: Counter,
    /// Every completed request, judged against the global SLOs.
    pub totals: Outcomes,
    /// Completed requests per tenant, indexed by [`TenantId`].
    tenants: Vec<Outcomes>,
    /// Batches launched.
    pub batches: Counter,
    /// Requests absorbed into batches.
    pub batched_requests: Counter,
    /// Largest batch absorbed in one launch.
    max_batch: AtomicU64,
    /// Requests shed on deadline grounds, indexed like
    /// [`DEADLINE_STAGES`].
    pub deadline_sheds: [Counter; 3],
    /// Budgeted requests that finished (or were shed by generation
    /// admission) on or before their deadline.
    pub deadline_met: Counter,
    /// Budgeted requests that finished (or were shed by generation
    /// admission) past their deadline.
    pub deadline_missed: Counter,
    /// Requests whose probe list was shrunk to fit the remaining budget
    /// (rung 3 of the degradation ladder).
    pub degraded_probes: Counter,
    /// Requests whose cold-tier (CPU) probes were skipped because only the
    /// fast tier fit the remaining budget (rung 4).
    pub cold_skips: Counter,
    /// Budget-burn ratio histograms (stage seconds over budget seconds),
    /// indexed like [`BURN_STAGES`].
    pub(crate) burn_hist: [StreamingHistogram; 3],
    journal: BoundedRing<ObsEvent>,
}

impl ObsPlane {
    /// Builds the plane from its config, with one [`Outcomes`] slice per
    /// tenant.
    pub fn new(config: &ObsConfig, tenants: usize) -> Self {
        Self {
            admitted: Counter::new(),
            rejected: Counter::new(),
            totals: Outcomes::default(),
            tenants: (0..tenants).map(|_| Outcomes::default()).collect(),
            batches: Counter::new(),
            batched_requests: Counter::new(),
            max_batch: AtomicU64::new(0),
            deadline_sheds: std::array::from_fn(|_| Counter::new()),
            deadline_met: Counter::new(),
            deadline_missed: Counter::new(),
            degraded_probes: Counter::new(),
            cold_skips: Counter::new(),
            burn_hist: std::array::from_fn(|_| StreamingHistogram::new()),
            journal: BoundedRing::new(config.journal_capacity),
        }
    }

    /// Per-tenant slices of the completion instruments, indexed by
    /// [`TenantId`], each judged against that tenant's own `slo_search`.
    pub fn tenants(&self) -> &[Outcomes] {
        &self.tenants
    }

    /// Largest batch absorbed in one launch.
    pub fn max_batch(&self) -> u64 {
        // relaxed: monotone running-max read for reporting only.
        self.max_batch.load(Ordering::Relaxed)
    }

    /// One request admitted.
    pub fn on_admit(&self) {
        self.admitted.inc();
    }

    /// One request rejected by its tenant's full queue.
    pub fn on_reject(&self) {
        self.rejected.inc();
    }

    /// One batch of `n` requests completed.
    pub fn on_batch(&self, n: usize) {
        self.batches.inc();
        self.batched_requests.add(n as u64);
        // relaxed: single-word running maximum; orders nothing else.
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// One request shed on deadline grounds at `stage` (a
    /// `DEADLINE_STAGE_*` index).
    pub fn on_deadline_shed(&self, stage: usize) {
        self.deadline_sheds[stage].inc();
    }

    /// One budgeted request burned `ratio` of its budget in `stage` (a
    /// `BURN_STAGE_*` index). Ratios above 1.0 mean the stage alone
    /// overran the whole budget.
    pub fn on_budget_burn(&self, stage: usize, ratio: f64) {
        self.burn_hist[stage].record(ratio);
    }

    /// One request's probe list was shrunk from `full` to `kept` lists to
    /// fit its remaining budget, at `at_ns` on the server's clock.
    pub fn on_degraded_probes(&self, at_ns: u64, id: u64, kept: usize, full: usize) {
        self.degraded_probes.inc();
        self.journal(
            at_ns,
            Severity::Warn,
            "degrade",
            format!("request {id} probes shrunk {full} -> {kept} to fit its budget"),
        );
    }

    /// One request's cold-tier probes were skipped because only the fast
    /// tier fit its remaining budget.
    pub fn on_cold_skip(&self) {
        self.cold_skips.inc();
    }

    /// The budget-burn histogram for `stage` (one of [`BURN_STAGES`]).
    pub fn burn(&self, stage: &str) -> Option<&StreamingHistogram> {
        BURN_STAGES
            .iter()
            .position(|&s| s == stage)
            .map(|i| &self.burn_hist[i])
    }

    /// One request's lifecycle ended: record it into the totals and its
    /// tenant's slice, the budget-burn histograms and deadline counters,
    /// and journal its SLO breaches.
    pub fn on_request(&self, c: &Completion<'_>) {
        self.totals.record(c, c.search_met);
        if let Some(tenant) = self.tenants.get(c.tenant.index()) {
            tenant.record(c, c.tenant_search_met);
        }
        let (id, tenant, timings) = (c.id, c.tenant, c.timings);
        if let Some((budget, met)) = c.deadline {
            self.on_budget_burn(BURN_STAGE_QUEUE, timings.queue / budget);
            self.on_budget_burn(BURN_STAGE_SEARCH, timings.search / budget);
            if let Some(gen) = &timings.generation {
                self.on_budget_burn(
                    BURN_STAGE_GENERATION,
                    (gen.gen_queue + gen.prefill + gen.decode) / budget,
                );
            }
            if met {
                self.deadline_met.inc();
            } else {
                self.deadline_missed.inc();
            }
        }
        // Breach timestamps are derived (admission + e2e): the hooks run
        // on hot paths and must not take an extra clock read per request.
        let finished_ns = c.admitted_ns.saturating_add((timings.e2e * 1e9) as u64);
        if !c.search_met {
            self.journal(
                finished_ns,
                Severity::Warn,
                "slo_breach",
                format!(
                    "request {id} ({tenant}) search stage took {:.4}s",
                    timings.search
                ),
            );
        }
        if c.ttft_met == Some(false) {
            if let Some(gen) = &timings.generation {
                self.journal(
                    finished_ns,
                    Severity::Warn,
                    "slo_breach",
                    format!("request {id} ({tenant}) TTFT was {:.4}s", gen.ttft),
                );
            }
        }
    }

    /// Appends one event to the unified journal.
    pub fn journal(&self, at_ns: u64, severity: Severity, kind: &'static str, detail: String) {
        self.journal.push(ObsEvent {
            at_ns,
            severity,
            kind,
            detail,
        });
    }

    /// The unified event journal, oldest first.
    pub fn journal_snapshot(&self) -> Vec<ObsEvent> {
        self.journal.snapshot()
    }

    /// The journal as the `/v1/events` JSON body.
    pub fn events_json(&self) -> Json {
        self.events_json_filtered(None)
    }

    /// [`ObsPlane::events_json`] restricted to one severity when
    /// `severity` is `Some` (the `?severity=` query parameter).
    pub fn events_json_filtered(&self, severity: Option<Severity>) -> Json {
        let events: Vec<Json> = self
            .journal
            .snapshot()
            .iter()
            .filter(|e| severity.is_none_or(|s| e.severity == s))
            .map(ObsEvent::to_json)
            .collect();
        Json::Obj(vec![
            ("events".into(), Json::Arr(events)),
            (
                "severity".into(),
                severity.map_or(Json::Null, |s| Json::Str(s.as_str().into())),
            ),
            ("evicted".into(), Json::Num(self.journal.evicted() as f64)),
        ])
    }

    /// Journal ring occupancy and evictions, for the exposition's
    /// bookkeeping gauges.
    pub fn ring_stats(&self) -> [(&'static str, usize, u64); 1] {
        [("journal", self.journal.len(), self.journal.evicted())]
    }

    /// Writes the plane's own metric families (counters + stage
    /// histograms) in Prometheus text exposition format. The caller
    /// appends scrape-time gauges (queue depth, placement generation,
    /// store residency, uptime) before serving.
    pub fn prometheus_into(&self, out: &mut String) {
        for (name, help, counter) in [
            (
                "vlite_admitted_total",
                "Requests admitted into a tenant queue",
                &self.admitted,
            ),
            (
                "vlite_rejected_total",
                "Requests rejected by a full tenant queue",
                &self.rejected,
            ),
            (
                "vlite_completed_total",
                "Requests whose lifecycle ended (delivered or shed)",
                &self.totals.completed,
            ),
            (
                "vlite_gen_sheds_total",
                "Requests shed by KV-aware generation admission",
                &self.totals.gen_sheds,
            ),
            (
                "vlite_batches_total",
                "Batches launched by the on-demand batcher",
                &self.batches,
            ),
            (
                "vlite_batched_requests_total",
                "Requests absorbed into batches",
                &self.batched_requests,
            ),
            (
                "vlite_search_slo_breaches_total",
                "Requests whose search stage missed its SLO",
                &self.totals.search_slo_breaches,
            ),
            (
                "vlite_ttft_slo_breaches_total",
                "Requests whose TTFT missed the slo_ttft target (sheds included)",
                &self.totals.ttft_slo_breaches,
            ),
        ] {
            prom_counter(out, name, help, counter.get());
        }
        out.push_str(
            "# HELP vlite_deadline_sheds_total Requests shed on deadline grounds, by pipeline stage\n\
             # TYPE vlite_deadline_sheds_total counter\n",
        );
        for (i, stage) in DEADLINE_STAGES.iter().enumerate() {
            out.push_str(&format!(
                "vlite_deadline_sheds_total{{stage=\"{stage}\"}} {}\n",
                self.deadline_sheds[i].get()
            ));
        }
        prom_counter(
            out,
            "vlite_degraded_probes_total",
            "Requests whose probe list was shrunk to fit the remaining budget",
            self.degraded_probes.get(),
        );
        prom_counter(
            out,
            "vlite_cold_skips_total",
            "Requests whose cold-tier probes were skipped to fit the remaining budget",
            self.cold_skips.get(),
        );
        out.push_str(
            "# HELP vlite_budget_burn Per-stage budget-burn ratio distributions (stage seconds / budget seconds)\n\
             # TYPE vlite_budget_burn histogram\n",
        );
        for (i, stage) in BURN_STAGES.iter().enumerate() {
            let hist = &self.burn_hist[i];
            for (bound, cumulative) in hist.cumulative_buckets() {
                out.push_str(&format!(
                    "vlite_budget_burn_bucket{{stage=\"{stage}\",le=\"{bound:e}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "vlite_budget_burn_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {}\n",
                hist.count()
            ));
            out.push_str(&format!(
                "vlite_budget_burn_sum{{stage=\"{stage}\"}} {}\n",
                hist.sum_seconds()
            ));
            out.push_str(&format!(
                "vlite_budget_burn_count{{stage=\"{stage}\"}} {}\n",
                hist.count()
            ));
        }
        out.push_str(
            "# HELP vlite_stage_seconds Per-stage latency distributions (log-bucketed)\n\
             # TYPE vlite_stage_seconds histogram\n",
        );
        for (stage, hist) in STAGES.iter().zip(&self.totals.stages) {
            // Only materialized buckets are emitted — with log-spaced
            // bounds every emitted `le` is still a valid cumulative row,
            // and ~320 mostly-empty rows per stage would drown the scrape.
            for (bound, cumulative) in hist.cumulative_buckets() {
                out.push_str(&format!(
                    "vlite_stage_seconds_bucket{{stage=\"{stage}\",le=\"{bound:e}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "vlite_stage_seconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {}\n",
                hist.count()
            ));
            out.push_str(&format!(
                "vlite_stage_seconds_sum{{stage=\"{stage}\"}} {}\n",
                hist.sum_seconds()
            ));
            out.push_str(&format!(
                "vlite_stage_seconds_count{{stage=\"{stage}\"}} {}\n",
                hist.count()
            ));
        }
    }
}

/// Writes one counter family in exposition format.
pub(crate) fn prom_counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

/// Writes one gauge family in exposition format.
pub(crate) fn prom_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

/// Escapes a label value per the Prometheus text-format spec: backslash,
/// double-quote and newline must be escaped inside `label="..."`.
pub(crate) fn prom_label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(e2e: f64) -> RequestTimings {
        RequestTimings {
            queue: 0.001,
            search: 0.002,
            e2e,
            generation: None,
        }
    }

    /// A retrieval-only completion of tenant 0.
    fn completion(id: u64, timings: &RequestTimings, search_met: bool) -> Completion<'_> {
        Completion {
            id,
            tenant: TenantId(0),
            admitted_ns: 0,
            timings,
            hit_rate: 0.5,
            search_met,
            tenant_search_met: search_met,
            ttft_met: None,
            shed: false,
            deadline: None,
        }
    }

    #[test]
    fn bounded_ring_evicts_oldest_and_counts() {
        let ring = BoundedRing::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![2, 3, 4]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 2);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let ring = BoundedRing::new(0);
        ring.push(1);
        assert!(ring.is_empty());
        assert_eq!(ring.evicted(), 1);
    }

    #[test]
    fn completions_count_sheds_and_breaches() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        let (fast, slow) = (timings(0.003), timings(0.5));
        plane.on_request(&completion(0, &fast, true));
        plane.on_request(&completion(1, &slow, false));
        plane.on_request(&Completion {
            ttft_met: Some(false),
            shed: true,
            ..completion(2, &timings(0.004), true)
        });
        assert_eq!(plane.totals.completed.get(), 3);
        assert_eq!(plane.totals.gen_sheds.get(), 1);
        assert_eq!(plane.totals.search_slo_breaches.get(), 1);
        assert_eq!(plane.totals.ttft_slo_breaches.get(), 1);
    }

    #[test]
    fn exposition_counts_agree_with_the_counters() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        plane.on_admit();
        plane.on_admit();
        plane.on_reject();
        plane.on_batch(2);
        plane.on_request(&completion(0, &timings(0.003), true));
        let mut text = String::new();
        plane.prometheus_into(&mut text);
        assert!(text.contains("vlite_admitted_total 2\n"));
        assert!(text.contains("vlite_rejected_total 1\n"));
        assert!(text.contains("vlite_completed_total 1\n"));
        assert!(text.contains("vlite_batches_total 1\n"));
        assert!(text.contains("vlite_stage_seconds_count{stage=\"search\"} 1\n"));
        assert!(text.contains("le=\"+Inf\"}"));
        // Retrieval-only: generation stages exist but are empty.
        assert!(text.contains("vlite_stage_seconds_count{stage=\"ttft\"} 0\n"));
    }

    #[test]
    fn deadline_hooks_count_and_expose() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        plane.on_deadline_shed(DEADLINE_STAGE_ADMISSION);
        plane.on_deadline_shed(DEADLINE_STAGE_QUEUE);
        plane.on_deadline_shed(DEADLINE_STAGE_QUEUE);
        plane.on_deadline_shed(DEADLINE_STAGE_GENERATION);
        plane.on_degraded_probes(42, 7, 4, 16);
        plane.on_cold_skip();
        plane.on_budget_burn(BURN_STAGE_QUEUE, 0.5);
        plane.on_budget_burn(BURN_STAGE_SEARCH, 0.25);
        let mut text = String::new();
        plane.prometheus_into(&mut text);
        assert!(text.contains("vlite_deadline_sheds_total{stage=\"admission\"} 1\n"));
        assert!(text.contains("vlite_deadline_sheds_total{stage=\"queue\"} 2\n"));
        assert!(text.contains("vlite_deadline_sheds_total{stage=\"generation\"} 1\n"));
        assert!(text.contains("vlite_degraded_probes_total 1\n"));
        assert!(text.contains("vlite_cold_skips_total 1\n"));
        assert!(text.contains("vlite_budget_burn_count{stage=\"queue\"} 1\n"));
        assert!(text.contains("vlite_budget_burn_count{stage=\"search\"} 1\n"));
        assert!(text.contains("vlite_budget_burn_count{stage=\"generation\"} 0\n"));
        let events = plane.journal_snapshot();
        assert!(events.iter().any(|e| e.kind == "degrade"));
        assert!(plane.burn("queue").is_some() && plane.burn("nope").is_none());
    }

    #[test]
    fn journal_severity_renders_and_filters() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        plane.journal(1, Severity::Info, "repartition", "routine".into());
        plane.journal(2, Severity::Warn, "shed", "degraded".into());
        plane.journal(3, Severity::Critical, "panic", "bad".into());
        let all = plane.events_json().render();
        assert!(all.contains("\"severity\":\"info\""));
        assert!(all.contains("\"severity\":\"critical\""));
        let warn_only = plane.events_json_filtered(Some(Severity::Warn)).render();
        assert!(warn_only.contains("degraded"));
        assert!(!warn_only.contains("routine") && !warn_only.contains("bad"));
        assert_eq!(Severity::parse("critical"), Some(Severity::Critical));
        assert_eq!(Severity::parse("nope"), None);
    }

    #[test]
    fn label_values_escape_per_spec() {
        assert_eq!(prom_label_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(prom_label_escape("plain-1.2.3"), "plain-1.2.3");
    }

    #[test]
    fn stage_lookup_knows_every_stage() {
        let plane = ObsPlane::new(&ObsConfig::default(), 1);
        for stage in STAGES {
            assert!(plane.totals.stage(stage).is_some());
        }
        assert!(plane.totals.stage("nope").is_none());
    }
}
