//! Causal request tracing, continuous per-stage CPU profiling, and the SLO
//! burn-rate watchdog.
//!
//! The telemetry plane ([`crate::obs`]) answers *how slow* requests are;
//! this module answers *why*. Three cooperating pieces:
//!
//! - **Span trees** ([`TracePlane::trace_spans`], `GET /v1/trace/{id}`,
//!   `GET /v1/traces`): every request carries a 128-bit trace id —
//!   accepted and emitted as a W3C `traceparent` header — and its
//!   lifecycle is recorded once, as a parent/child span tree (`request` →
//!   `queue`/`search`/generation phases). This tree is the request's only
//!   timeline. Cross-request causality is explicit: all co-batched
//!   requests share one *batch* span (in its own trace, linking every
//!   member's trace id), per-shard scans are children of that batch span,
//!   and migrations/repartitions record spans linked to the batch they
//!   stall. Retention is tail-sampled: every trace enters a recent ring of
//!   [`TraceConfig::trace_capacity`] traces, and a request that was shed or
//!   missed a target is also kept in a set of
//!   [`TraceConfig::slow_traces`] that the recent ring's churn cannot
//!   evict.
//! - **Per-stage profiling** ([`TracePlane::profile`], `GET /v1/profile`):
//!   pipeline workers time their work sections against both the runtime
//!   [`Clock`](crate::Clock) (wall) and `CLOCK_THREAD_CPUTIME_ID` (CPU),
//!   so wall−CPU exposes stall time per stage; a sampling thread
//!   additionally reads every registered worker's CPU clock on a period,
//!   feeding collapsed-stack output. On a [`VirtualClock`](crate::VirtualClock)
//!   the sampler never spawns (its sleeps would fast-forward scripted
//!   time); tests pump [`TracePlane::sample_now`] explicitly.
//! - **Burn-rate watchdog** ([`TracePlane::alerts`], `GET /v1/alerts`):
//!   search / TTFT / deadline attainment feed multi-window burn rates
//!   (fast window catches sharp regressions, slow window confirms
//!   sustained burn, alert level from the *minimum* of the two), and every
//!   level transition is surfaced so the caller can journal it with a
//!   matching severity.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use vlite_metrics::cputime;
use vlite_metrics::spans::{format_trace_id, SpanRecord, SpanStore};
use vlite_sim::{SimDuration, SimTime};

use crate::config::TraceConfig;
use crate::http::json::Json;
use crate::sync::lock_recover;

/// A 128-bit trace id (W3C Trace Context `trace-id`). Never zero for a
/// live trace — the all-zero id is invalid on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u128);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", format_trace_id(self.0))
    }
}

/// splitmix64 finalizer: cheap, well-distributed id derivation without an
/// RNG dependency (and deterministic for a given seed + request id).
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn derive_id(seed: u64, salt: u64, n: u64) -> u128 {
    let hi = mix64(seed ^ salt ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let lo = mix64(n ^ seed.rotate_left(32) ^ salt.rotate_left(17));
    let id = (u128::from(hi) << 64) | u128::from(lo);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Parses a W3C `traceparent` header value, returning the trace id when
/// the header is well-formed (`{version}-{trace-id}-{parent-id}-{flags}`
/// with hex fields of the right widths and non-zero ids). Malformed or
/// forbidden (`version == ff`) values return `None` — per the spec the
/// server then starts a fresh trace rather than failing the request.
pub fn parse_traceparent(value: &str) -> Option<TraceId> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    if version.len() != 2 || !is_hex(version) || version.eq_ignore_ascii_case("ff") {
        return None;
    }
    let trace = parts.next()?;
    let id = vlite_metrics::spans::parse_trace_id(trace)?;
    if id == 0 {
        return None;
    }
    let parent = parts.next()?;
    if parent.len() != 16 || !is_hex(parent) || parent.bytes().all(|b| b == b'0') {
        return None;
    }
    let flags = parts.next()?;
    if flags.len() != 2 || !is_hex(flags) {
        return None;
    }
    // Version 00 defines exactly four fields; later versions may append.
    if version == "00" && parts.next().is_some() {
        return None;
    }
    Some(TraceId(id))
}

/// Renders a `traceparent` header value for `trace` with `parent_span` as
/// the server-side parent id (sampled flag always set).
pub fn format_traceparent(trace: TraceId, parent_span: u64) -> String {
    format!("00-{:032x}-{:016x}-01", trace.0, parent_span.max(1))
}

fn is_hex(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Profiled pipeline stages, indexed by the `STAGE_*` constants.
pub const PROFILE_STAGES: [&str; 8] = [
    "acceptor",
    "batcher",
    "shard_scan",
    "cpu_scan",
    "dispatch",
    "generation",
    "migrate",
    "control",
];

/// Stage index: the HTTP frontend's connection acceptor.
pub const STAGE_ACCEPTOR: usize = 0;
/// Stage index: batch formation (queue drain + routing).
pub const STAGE_BATCHER: usize = 1;
/// Stage index: hot-tier shard scan workers.
pub const STAGE_SHARD_SCAN: usize = 2;
/// Stage index: the cold-tier CPU scan worker.
pub const STAGE_CPU_SCAN: usize = 3;
/// Stage index: the dispatcher merging partials.
pub const STAGE_DISPATCH: usize = 4;
/// Stage index: the generation (LLM) worker.
pub const STAGE_GENERATION: usize = 5;
/// Stage index: the background tier migrator.
pub const STAGE_MIGRATE: usize = 6;
/// Stage index: the online-repartitioning control loop.
pub const STAGE_CONTROL: usize = 7;

/// SLO signals the burn-rate watchdog tracks, indexed by the `SIG_*`
/// constants.
pub const SLO_SIGNALS: [&str; 3] = ["search", "ttft", "deadline"];

/// Signal index: search-stage latency vs the tenant's `slo_search`.
pub const SIG_SEARCH: usize = 0;
/// Signal index: end-to-end TTFT vs `slo_ttft`.
pub const SIG_TTFT: usize = 1;
/// Signal index: deadline attainment (budgeted requests only).
pub const SIG_DEADLINE: usize = 2;

#[derive(Default)]
struct StageCell {
    /// Wall nanoseconds spent inside instrumented work sections.
    wall_nanos: AtomicU64,
    /// Thread CPU nanoseconds consumed inside those same sections.
    cpu_nanos: AtomicU64,
    /// Completed work sections.
    sections: AtomicU64,
    /// Thread CPU nanoseconds attributed by the sampling profiler (total
    /// per-thread CPU growth between samples, sections or not).
    sampled_cpu_nanos: AtomicU64,
    /// Samples taken of this stage's workers.
    samples: AtomicU64,
}

/// One stage's row of the `/v1/profile` breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage name from [`PROFILE_STAGES`].
    pub stage: &'static str,
    /// Wall seconds inside instrumented work sections.
    pub wall_s: f64,
    /// CPU seconds consumed inside those sections.
    pub cpu_s: f64,
    /// Stalled seconds: `max(wall_s - cpu_s, 0)` — time the stage held
    /// work without burning CPU (lock waits, I/O, scheduling).
    pub stall_s: f64,
    /// Completed work sections.
    pub sections: u64,
    /// CPU seconds attributed by the sampling profiler.
    pub sampled_cpu_s: f64,
    /// Samples taken of this stage's workers.
    pub samples: u64,
}

/// An in-flight stage work section returned by [`TracePlane::stage_start`].
#[must_use = "a StageTimer records nothing until passed to stage_end"]
#[derive(Debug)]
pub struct StageTimer {
    stage: usize,
    wall_start_nanos: u64,
    cpu_start_nanos: u64,
}

/// Cross-request batch context: the shared batch span every co-batched
/// request links to. Travels with the batch through scan and dispatch.
#[derive(Debug, Clone)]
pub struct BatchCtx {
    /// The batch's own trace id (distinct from any member's).
    pub trace_id: u128,
    /// The batch span's id (parent of the per-shard scan spans).
    pub span_id: u64,
    /// Trace ids of every request riding this batch.
    pub members: Vec<u128>,
}

/// Per-request span boundaries handed to [`TracePlane::record_request`],
/// all in seconds since the serving epoch.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpanTimes {
    /// Admission time (root span + queue span start).
    pub enqueued_s: f64,
    /// Batch launch (queue span end, search span start).
    pub search_start_s: f64,
    /// Merge completion (search span end).
    pub search_end_s: f64,
    /// Request completion (root span end).
    pub end_s: f64,
}

/// Generation-phase durations (seconds) appended as children of the
/// request's root span, starting at `search_end_s`.
#[derive(Debug, Clone, Copy)]
pub struct GenSpans {
    /// Seconds queued before the engine admitted the request.
    pub queue_s: f64,
    /// Prefill seconds (ends at first token).
    pub prefill_s: f64,
    /// Decode seconds.
    pub decode_s: f64,
}

/// A burn-rate alert level for one SLO signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertLevel {
    /// Burn within budget.
    Ok,
    /// Both windows burning above the warn threshold.
    Warn,
    /// Both windows burning above the critical threshold.
    Critical,
}

impl AlertLevel {
    /// Lowercase name as rendered in `/v1/alerts` and journal events.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertLevel::Ok => "ok",
            AlertLevel::Warn => "warn",
            AlertLevel::Critical => "critical",
        }
    }
}

/// A watchdog level change, returned by [`TracePlane::observe_slo`] so the
/// caller can journal it with matching severity.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Signal name from [`SLO_SIGNALS`].
    pub signal: &'static str,
    /// Level before this observation.
    pub from: AlertLevel,
    /// Level after this observation.
    pub to: AlertLevel,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

/// One signal's current alert state, as rendered by `/v1/alerts`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertState {
    /// Signal name from [`SLO_SIGNALS`].
    pub signal: &'static str,
    /// Current level.
    pub level: AlertLevel,
    /// Fast-window burn rate now.
    pub fast_burn: f64,
    /// Slow-window burn rate now.
    pub slow_burn: f64,
    /// Attainment target the budget derives from.
    pub target: f64,
    /// Good/bad observations in the slow window.
    pub observed: u64,
}

/// One time bucket of attainment observations.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    index: u64,
    good: u64,
    bad: u64,
}

/// Time-bucketed attainment ring for one signal. Buckets are
/// `bucket_s`-wide; the ring holds enough to cover the slow window.
struct BurnRing {
    buckets: std::collections::VecDeque<Bucket>,
    cap: usize,
}

impl BurnRing {
    fn new(cap: usize) -> Self {
        Self {
            buckets: std::collections::VecDeque::new(),
            cap,
        }
    }

    fn record(&mut self, index: u64, ok: bool) {
        match self.buckets.back_mut() {
            Some(last) if last.index == index => {
                if ok {
                    last.good += 1;
                } else {
                    last.bad += 1;
                }
            }
            _ => {
                if self.buckets.len() >= self.cap {
                    self.buckets.pop_front();
                }
                self.buckets.push_back(Bucket {
                    index,
                    good: u64::from(ok),
                    bad: u64::from(!ok),
                });
            }
        }
    }

    /// (bad, total) over the `window_buckets` most recent bucket indices
    /// ending at `now_index`.
    fn window(&self, now_index: u64, window_buckets: u64) -> (u64, u64) {
        let first = now_index.saturating_sub(window_buckets.saturating_sub(1));
        let mut bad = 0;
        let mut total = 0;
        for bucket in &self.buckets {
            if bucket.index >= first && bucket.index <= now_index {
                bad += bucket.bad;
                total += bucket.good + bucket.bad;
            }
        }
        (bad, total)
    }
}

struct Watchdog {
    rings: Vec<BurnRing>,
    levels: Vec<AlertLevel>,
}

/// The causal-tracing + profiling + alerting plane. One per
/// [`RagServer`](crate::RagServer), always on.
pub struct TracePlane {
    store: SpanStore,
    seed: u64,
    next_span: AtomicU64,
    next_batch: AtomicU64,
    next_migration: AtomicU64,
    stages: [StageCell; PROFILE_STAGES.len()],
    /// (stage, tid, last observed CPU nanos) per registered worker.
    registry: Mutex<Vec<(usize, u32, u64)>>,
    current_batch: Mutex<Option<BatchCtx>>,
    watchdog: Mutex<Watchdog>,
    sampler_stop: AtomicBool,
    slo_target: f64,
    fast_window_s: f64,
    slow_window_s: f64,
    warn_burn: f64,
    critical_burn: f64,
    bucket_s: f64,
    sample_interval_s: f64,
}

impl std::fmt::Debug for TracePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracePlane")
            .field("store", &self.store)
            .finish()
    }
}

impl TracePlane {
    /// Builds a plane from `config`; `seed` makes derived trace ids
    /// deterministic per server.
    ///
    /// # Panics
    ///
    /// Panics when the config is unservable (see [`TraceConfig`] field
    /// docs for the constraints).
    pub fn new(config: &TraceConfig, seed: u64) -> Self {
        config.validate();
        // Bucket the slow window into ~120 slots so the fast window (>= a
        // tenth of it in every sane config) still spans several buckets.
        let bucket_s = (config.slow_window_s / 120.0).max(1e-6);
        let cap = 130; // slow window (120 buckets) plus slack for skew
        Self {
            store: SpanStore::new(config.trace_capacity, config.slow_traces),
            seed,
            next_span: AtomicU64::new(1),
            next_batch: AtomicU64::new(1),
            next_migration: AtomicU64::new(1),
            stages: Default::default(),
            registry: Mutex::new(Vec::new()),
            current_batch: Mutex::new(None),
            watchdog: Mutex::new(Watchdog {
                rings: (0..SLO_SIGNALS.len()).map(|_| BurnRing::new(cap)).collect(),
                levels: vec![AlertLevel::Ok; SLO_SIGNALS.len()],
            }),
            sampler_stop: AtomicBool::new(false),
            slo_target: config.slo_target,
            fast_window_s: config.fast_window_s,
            slow_window_s: config.slow_window_s,
            warn_burn: config.warn_burn,
            critical_burn: config.critical_burn,
            bucket_s,
            sample_interval_s: config.sample_interval_s,
        }
    }

    /// Sampling period for the profiler thread.
    pub fn sample_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.sample_interval_s)
    }

    /// Tells the profiler thread to exit at its next wake.
    pub fn stop_sampler(&self) {
        // relaxed: a one-way stop flag polled each sampler wake; no data
        // is published through it.
        self.sampler_stop.store(true, Ordering::Relaxed);
    }

    /// Whether [`TracePlane::stop_sampler`] has been called.
    pub fn sampler_stopped(&self) -> bool {
        // relaxed: same one-way stop flag as above.
        self.sampler_stop.load(Ordering::Relaxed)
    }

    /// A fresh trace id for request `request_id` (used when the client
    /// sent no — or a malformed — `traceparent`).
    pub fn derive_trace_id(&self, request_id: u64) -> TraceId {
        TraceId(derive_id(self.seed, 0x7261_6365, request_id))
    }

    fn next_span_id(&self) -> u64 {
        // relaxed: a unique-id counter; only atomicity matters.
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    // ---- span recording -------------------------------------------------

    /// Opens the shared batch span for a batch whose member requests carry
    /// `members`. The returned context travels with the batch; close it
    /// with [`TracePlane::end_batch`].
    pub fn begin_batch(&self, members: &[TraceId]) -> BatchCtx {
        // relaxed: a unique-id counter; only atomicity matters.
        let n = self.next_batch.fetch_add(1, Ordering::Relaxed);
        let ctx = BatchCtx {
            trace_id: derive_id(self.seed, 0x6261_7463, n),
            span_id: self.next_span_id(),
            members: members.iter().map(|t| t.0).collect(),
        };
        *lock_recover(&self.current_batch) = Some(ctx.clone());
        ctx
    }

    /// Records the batch span (linking every member's trace id) and
    /// retires the batch from "currently in flight".
    pub fn end_batch(&self, ctx: &BatchCtx, start: SimTime, end: SimTime) {
        self.store.record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: None,
            name: "batch".into(),
            start_s: secs(start),
            end_s: secs(end).max(secs(start)),
            links: ctx.members.clone(),
        });
        let mut current = lock_recover(&self.current_batch);
        if current.as_ref().is_some_and(|c| c.trace_id == ctx.trace_id) {
            *current = None;
        }
    }

    /// Records one scan-work child span (`scan:shard{n}` / `scan:cpu`)
    /// under the batch span.
    pub fn record_scan(&self, ctx: &BatchCtx, name: String, start: SimTime, end: SimTime) {
        self.store.record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: self.next_span_id(),
            parent_id: Some(ctx.span_id),
            name,
            start_s: secs(start),
            end_s: secs(end).max(secs(start)),
            links: Vec::new(),
        });
    }

    /// Records one request's span tree under one store lock: a `request`
    /// root spanning admission → completion, `queue` and `search` children
    /// (the search span links the batch trace the request rode), optional
    /// generation phase children, and a zero-width `shed:{reason}` marker
    /// when the request was shed. With `keep` — the request was shed or
    /// missed its search, TTFT or deadline target — the tree also enters
    /// the kept set, where later traces cannot evict it.
    pub fn record_request(
        &self,
        trace: TraceId,
        batch: Option<u128>,
        times: RequestSpanTimes,
        gen: Option<GenSpans>,
        shed: Option<&str>,
        keep: bool,
    ) {
        // Clamp boundaries into a monotone chain so the recorded tree is
        // well-formed even if a real-clock stamp landed out of order.
        let t0 = times.enqueued_s;
        let t1 = times.search_start_s.max(t0);
        let t2 = times.search_end_s.max(t1);
        let t3 = times.end_s.max(t2);
        let n = 3 + if gen.is_some() { 3 } else { 0 } + u64::from(shed.is_some());
        // relaxed: a unique-id counter; only atomicity matters. One
        // fetch_add reserves the ids of the whole tree.
        let root = self.next_span.fetch_add(n, Ordering::Relaxed);
        let mut next = root;
        let mut span = |parent_id, name: String, start_s, end_s, links| {
            let span_id = next;
            next += 1;
            SpanRecord {
                trace_id: trace.0,
                span_id,
                parent_id,
                name,
                start_s,
                end_s,
                links,
            }
        };
        let mut spans = Vec::with_capacity(n as usize);
        spans.push(span(None, "request".into(), t0, t3, Vec::new()));
        spans.push(span(Some(root), "queue".into(), t0, t1, Vec::new()));
        spans.push(span(
            Some(root),
            "search".into(),
            t1,
            t2,
            batch.into_iter().collect(),
        ));
        if let Some(gen) = gen {
            let gq = (t2 + gen.queue_s.max(0.0)).min(t3);
            let gp = (gq + gen.prefill_s.max(0.0)).min(t3);
            let gd = (gp + gen.decode_s.max(0.0)).min(t3);
            spans.push(span(Some(root), "gen_queue".into(), t2, gq, Vec::new()));
            spans.push(span(Some(root), "gen_prefill".into(), gq, gp, Vec::new()));
            spans.push(span(Some(root), "gen_decode".into(), gp, gd, Vec::new()));
        }
        if let Some(reason) = shed {
            spans.push(span(
                Some(root),
                format!("shed:{reason}"),
                t3,
                t3,
                Vec::new(),
            ));
        }
        self.store.record_trace(trace.0, spans, keep);
    }

    /// Records a migration/repartition span in its own trace, linked to
    /// the batch currently in flight (the requests the work stalls); the
    /// stalled batch's trace also gets a zero-width `stall:{name}` marker
    /// pointing back, so both directions are discoverable.
    ///
    /// Returns the span's own trace id.
    pub fn record_migration(&self, name: &str, start: SimTime, end: SimTime) -> TraceId {
        // relaxed: a unique-id counter; only atomicity matters.
        let n = self.next_migration.fetch_add(1, Ordering::Relaxed);
        let trace_id = derive_id(self.seed, 0x6d69_6772, n);
        let stalled = lock_recover(&self.current_batch).clone();
        let mut links = Vec::new();
        if let Some(ctx) = &stalled {
            links.push(ctx.trace_id);
            links.extend(ctx.members.iter().copied());
        }
        self.store.record(SpanRecord {
            trace_id,
            span_id: self.next_span_id(),
            parent_id: None,
            name: name.to_string(),
            start_s: secs(start),
            end_s: secs(end).max(secs(start)),
            links,
        });
        if let Some(ctx) = &stalled {
            self.store.record(SpanRecord {
                trace_id: ctx.trace_id,
                span_id: self.next_span_id(),
                parent_id: Some(ctx.span_id),
                name: format!("stall:{name}"),
                start_s: secs(start),
                end_s: secs(start),
                links: vec![trace_id],
            });
        }
        TraceId(trace_id)
    }

    /// All spans recorded for `trace_id`, if the trace is still held.
    pub fn trace_spans(&self, trace_id: u128) -> Option<Vec<SpanRecord>> {
        self.store.get(trace_id)
    }

    /// Distinct traces currently held.
    pub fn traces_held(&self) -> usize {
        self.store.len()
    }

    /// Whole traces evicted so far.
    pub fn traces_evicted(&self) -> u64 {
        self.store.evicted()
    }

    /// The trace as JSON: its spans plus (one level of) the traces its
    /// spans link to. `None` when the trace is unknown or evicted.
    pub fn trace_json(&self, trace_id: u128) -> Option<Json> {
        let spans = self.store.get(trace_id)?;
        let mut linked_ids: Vec<u128> = Vec::new();
        for span in &spans {
            for link in &span.links {
                if *link != trace_id && !linked_ids.contains(link) {
                    linked_ids.push(*link);
                }
            }
        }
        let linked: Vec<Json> = linked_ids
            .iter()
            .filter_map(|id| self.store.get(*id).map(|spans| tree_json(*id, &spans)))
            .collect();
        Some(Json::Obj(vec![
            ("trace_id".into(), Json::Str(format_trace_id(trace_id))),
            (
                "spans".into(),
                Json::Arr(spans.iter().map(span_json).collect()),
            ),
            ("linked".into(), Json::Arr(linked)),
        ]))
    }

    /// The `/v1/traces` document: the request trees in the recent ring and
    /// in the kept set (`slow`: requests that were shed or missed a
    /// target), oldest first, read under one store lock, plus the ids each
    /// queue has evicted (the recent ring's count includes batch and
    /// migration traces). Every listed id resolves at `/v1/trace/{id}`
    /// until it is evicted.
    pub fn traces_json(&self) -> Json {
        let retained = self
            .store
            .retained(|spans| spans.first().is_some_and(|s| s.name == "request"));
        let trees = |traces: &[(u128, Vec<SpanRecord>)]| {
            Json::Arr(
                traces
                    .iter()
                    .map(|(id, spans)| tree_json(*id, spans))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("recent".into(), trees(&retained.recent)),
            ("slow".into(), trees(&retained.kept)),
            (
                "recent_evicted".into(),
                Json::Num(retained.recent_evicted as f64),
            ),
            (
                "slow_evicted".into(),
                Json::Num(retained.kept_evicted as f64),
            ),
        ])
    }

    /// The trace (plus linked traces) as a Chrome `trace_event` JSON
    /// document loadable in `about://tracing` / Perfetto.
    pub fn chrome_json(&self, trace_id: u128) -> Option<Json> {
        let spans = self.store.get(trace_id)?;
        let mut events = Vec::new();
        let mut emit = |spans: &[SpanRecord], tid: u64| {
            for span in spans {
                events.push(Json::Obj(vec![
                    ("name".into(), Json::Str(span.name.clone())),
                    ("cat".into(), Json::Str("vlite".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(span.start_s * 1e6)),
                    (
                        "dur".into(),
                        Json::Num((span.end_s - span.start_s).max(0.0) * 1e6),
                    ),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(tid as f64)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("trace_id".into(), Json::Str(format_trace_id(span.trace_id))),
                            (
                                "links".into(),
                                Json::Arr(
                                    span.links
                                        .iter()
                                        .map(|l| Json::Str(format_trace_id(*l)))
                                        .collect(),
                                ),
                            ),
                        ]),
                    ),
                ]));
            }
        };
        emit(&spans, 1);
        let mut linked_ids: Vec<u128> = Vec::new();
        for span in &spans {
            for link in &span.links {
                if *link != trace_id && !linked_ids.contains(link) {
                    linked_ids.push(*link);
                }
            }
        }
        for (i, id) in linked_ids.iter().enumerate() {
            if let Some(linked) = self.store.get(*id) {
                emit(&linked, 2 + i as u64);
            }
        }
        Some(Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]))
    }

    // ---- per-stage profiling --------------------------------------------

    /// Opens a work section for `stage` at wall time `now`.
    pub fn stage_start(&self, stage: usize, now: SimTime) -> StageTimer {
        StageTimer {
            stage,
            wall_start_nanos: now.as_nanos(),
            cpu_start_nanos: cputime::self_cpu_nanos(),
        }
    }

    /// Closes a work section at wall time `now`, attributing wall + CPU
    /// time to the section's stage.
    pub fn stage_end(&self, timer: StageTimer, now: SimTime) {
        let cell = &self.stages[timer.stage.min(PROFILE_STAGES.len() - 1)];
        let wall = now.as_nanos().saturating_sub(timer.wall_start_nanos);
        let cpu = cputime::self_cpu_nanos().saturating_sub(timer.cpu_start_nanos);
        // relaxed: per-stage accumulators read only by the profile
        // snapshot; no ordering with other memory is required.
        cell.wall_nanos.fetch_add(wall, Ordering::Relaxed);
        cell.cpu_nanos.fetch_add(cpu, Ordering::Relaxed);
        cell.sections.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers the calling thread as a `stage` worker for the sampling
    /// profiler. Call once from each worker thread after spawn.
    pub fn register_worker(&self, stage: usize) {
        let Some(tid) = cputime::current_tid() else {
            return;
        };
        let initial = cputime::thread_cpu_nanos(tid).unwrap_or(0);
        lock_recover(&self.registry).push((stage.min(PROFILE_STAGES.len() - 1), tid, initial));
    }

    /// Takes one profiler sample: reads every registered worker's CPU
    /// clock and attributes the growth since the previous sample to its
    /// stage. The background sampler calls this on a period (real clocks
    /// only); virtual-clock tests call it explicitly.
    pub fn sample_now(&self) {
        let mut registry = lock_recover(&self.registry);
        for (stage, tid, last) in registry.iter_mut() {
            let Some(cpu) = cputime::thread_cpu_nanos(*tid) else {
                continue; // thread exited; its clockid no longer resolves
            };
            let delta = cpu.saturating_sub(*last);
            *last = cpu;
            let cell = &self.stages[*stage];
            // relaxed: same snapshot-only accumulators as stage_end.
            cell.sampled_cpu_nanos.fetch_add(delta, Ordering::Relaxed);
            cell.samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-stage wall/CPU/stall breakdown, one row per
    /// [`PROFILE_STAGES`] entry.
    pub fn profile(&self) -> Vec<StageProfile> {
        PROFILE_STAGES
            .iter()
            .zip(self.stages.iter())
            .map(|(name, cell)| {
                // relaxed: reading snapshot-only accumulators.
                let wall = cell.wall_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                let cpu = cell.cpu_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                // relaxed: same snapshot-only accumulators as above.
                let sections = cell.sections.load(Ordering::Relaxed);
                let sampled = cell.sampled_cpu_nanos.load(Ordering::Relaxed) as f64 / 1e9;
                let samples = cell.samples.load(Ordering::Relaxed);
                StageProfile {
                    stage: name,
                    wall_s: wall,
                    cpu_s: cpu,
                    stall_s: (wall - cpu).max(0.0),
                    sections,
                    sampled_cpu_s: sampled,
                    samples,
                }
            })
            .collect()
    }

    /// Collapsed-stack ("folded") output for flamegraph tooling: one
    /// `vlite;{stage} {weight}` line per stage with observed CPU time,
    /// weighted in microseconds (sampled CPU when the sampler ran,
    /// section CPU otherwise).
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for row in self.profile() {
            let weight_us = (row.sampled_cpu_s.max(row.cpu_s) * 1e6) as u64;
            if weight_us > 0 {
                out.push_str(&format!("vlite;{} {}\n", row.stage, weight_us));
            }
        }
        out
    }

    /// The `/v1/profile` document: per-stage rows plus collapsed stacks.
    pub fn profile_json(&self) -> Json {
        let rows = self
            .profile()
            .into_iter()
            .map(|row| {
                Json::Obj(vec![
                    ("stage".into(), Json::Str(row.stage.into())),
                    ("wall_s".into(), Json::Num(row.wall_s)),
                    ("cpu_s".into(), Json::Num(row.cpu_s)),
                    ("stall_s".into(), Json::Num(row.stall_s)),
                    ("sections".into(), Json::Num(row.sections as f64)),
                    ("sampled_cpu_s".into(), Json::Num(row.sampled_cpu_s)),
                    ("samples".into(), Json::Num(row.samples as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "cpu_clock_supported".into(),
                Json::Bool(cputime::supported()),
            ),
            ("stages".into(), Json::Arr(rows)),
            ("collapsed".into(), Json::Str(self.collapsed_stacks())),
        ])
    }

    // ---- SLO burn-rate watchdog ------------------------------------------

    /// Feeds one attainment observation (`ok` = the signal met its target)
    /// for `signal` at wall time `now`, returning the level transition if
    /// this observation caused one.
    pub fn observe_slo(&self, signal: usize, ok: bool, now: SimTime) -> Option<AlertTransition> {
        if signal >= SLO_SIGNALS.len() {
            return None;
        }
        let now_s = secs(now);
        let index = (now_s / self.bucket_s) as u64;
        let mut watchdog = lock_recover(&self.watchdog);
        watchdog.rings[signal].record(index, ok);
        let (fast, slow) = self.burns(&watchdog.rings[signal], index);
        let level = if fast.min(slow) >= self.critical_burn {
            AlertLevel::Critical
        } else if fast.min(slow) >= self.warn_burn {
            AlertLevel::Warn
        } else {
            AlertLevel::Ok
        };
        let previous = watchdog.levels[signal];
        if level == previous {
            return None;
        }
        watchdog.levels[signal] = level;
        Some(AlertTransition {
            signal: SLO_SIGNALS[signal],
            from: previous,
            to: level,
            fast_burn: fast,
            slow_burn: slow,
        })
    }

    /// (fast, slow) burn rates for one signal's ring at bucket `index`.
    /// Burn = observed bad fraction over the window divided by the error
    /// budget (`1 - target`); 1.0 means burning exactly the budget.
    fn burns(&self, ring: &BurnRing, index: u64) -> (f64, f64) {
        let budget = (1.0 - self.slo_target).max(1e-9);
        let burn = |window_s: f64| {
            let window_buckets = (window_s / self.bucket_s).ceil().max(1.0) as u64;
            let (bad, total) = ring.window(index, window_buckets);
            if total == 0 {
                0.0
            } else {
                (bad as f64 / total as f64) / budget
            }
        };
        (burn(self.fast_window_s), burn(self.slow_window_s))
    }

    /// Current alert state of every signal at wall time `now`.
    pub fn alerts(&self, now: SimTime) -> Vec<AlertState> {
        let index = (secs(now) / self.bucket_s) as u64;
        let watchdog = lock_recover(&self.watchdog);
        SLO_SIGNALS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let (fast, slow) = self.burns(&watchdog.rings[i], index);
                let slow_buckets = (self.slow_window_s / self.bucket_s).ceil().max(1.0) as u64;
                let (_, observed) = watchdog.rings[i].window(index, slow_buckets);
                AlertState {
                    signal: name,
                    level: watchdog.levels[i],
                    fast_burn: fast,
                    slow_burn: slow,
                    target: self.slo_target,
                    observed,
                }
            })
            .collect()
    }

    /// The `/v1/alerts` document.
    pub fn alerts_json(&self, now: SimTime) -> Json {
        let alerts = self
            .alerts(now)
            .into_iter()
            .map(|a| {
                Json::Obj(vec![
                    ("signal".into(), Json::Str(a.signal.into())),
                    ("level".into(), Json::Str(a.level.as_str().into())),
                    ("fast_burn".into(), Json::Num(a.fast_burn)),
                    ("slow_burn".into(), Json::Num(a.slow_burn)),
                    ("target".into(), Json::Num(a.target)),
                    ("observed".into(), Json::Num(a.observed as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("fast_window_s".into(), Json::Num(self.fast_window_s)),
            ("slow_window_s".into(), Json::Num(self.slow_window_s)),
            ("warn_burn".into(), Json::Num(self.warn_burn)),
            ("critical_burn".into(), Json::Num(self.critical_burn)),
            ("alerts".into(), Json::Arr(alerts)),
        ])
    }
}

fn secs(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e9
}

/// One trace as `{trace_id, spans}`.
fn tree_json(trace_id: u128, spans: &[SpanRecord]) -> Json {
    Json::Obj(vec![
        ("trace_id".into(), Json::Str(format_trace_id(trace_id))),
        (
            "spans".into(),
            Json::Arr(spans.iter().map(span_json).collect()),
        ),
    ])
}

fn span_json(span: &SpanRecord) -> Json {
    Json::Obj(vec![
        ("span_id".into(), Json::Num(span.span_id as f64)),
        (
            "parent_id".into(),
            span.parent_id.map_or(Json::Null, |p| Json::Num(p as f64)),
        ),
        ("name".into(), Json::Str(span.name.clone())),
        ("start_s".into(), Json::Num(span.start_s)),
        ("end_s".into(), Json::Num(span.end_s)),
        (
            "links".into(),
            Json::Arr(
                span.links
                    .iter()
                    .map(|l| Json::Str(format_trace_id(*l)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlite_metrics::spans::tree_violations;

    fn plane() -> TracePlane {
        TracePlane::new(&TraceConfig::default(), 42)
    }

    #[test]
    fn traceparent_round_trips_and_rejects_malformed() {
        let trace = TraceId(0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c);
        let header = format_traceparent(trace, 0x00f0_67aa_0ba9_02b7);
        assert_eq!(
            header,
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"
        );
        assert_eq!(parse_traceparent(&header), Some(trace));

        // Spec-canonical example.
        assert_eq!(
            parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"),
            Some(TraceId(0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c))
        );
        for bad in [
            "",
            "00",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7", // missing flags
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero parent
            "ff-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01", // forbidden version
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01-extra", // v00 + extra
            "00-0af7651916cd43dd8448eb211c8031-00f067aa0ba902b7-01", // short trace
            "0x-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01", // non-hex version
        ] {
            assert_eq!(parse_traceparent(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn batch_and_request_spans_form_linked_well_formed_trees() {
        let plane = plane();
        let a = plane.derive_trace_id(1);
        let b = plane.derive_trace_id(2);
        assert_ne!(a, b);

        let ctx = plane.begin_batch(&[a, b]);
        let t0 = SimTime::from_nanos(5_000_000);
        let t1 = SimTime::from_nanos(9_000_000);
        plane.record_scan(&ctx, "scan:shard0".into(), t0, t1);
        plane.end_batch(&ctx, t0, t1);
        for trace in [a, b] {
            plane.record_request(
                trace,
                Some(ctx.trace_id),
                RequestSpanTimes {
                    enqueued_s: 0.004,
                    search_start_s: 0.005,
                    search_end_s: 0.009,
                    end_s: 0.009,
                },
                None,
                None,
                false,
            );
        }

        let batch = plane.trace_spans(ctx.trace_id).expect("batch trace held");
        assert!(tree_violations(&batch).is_empty(), "{batch:?}");
        let batch_span = batch
            .iter()
            .find(|s| s.name == "batch")
            .expect("batch span");
        assert!(batch_span.links.contains(&a.0) && batch_span.links.contains(&b.0));
        assert!(batch
            .iter()
            .any(|s| s.name == "scan:shard0" && s.parent_id == Some(batch_span.span_id)));

        for trace in [a, b] {
            let spans = plane.trace_spans(trace.0).expect("request trace held");
            assert!(tree_violations(&spans).is_empty(), "{spans:?}");
            let search = spans.iter().find(|s| s.name == "search").expect("search");
            assert_eq!(search.links, vec![ctx.trace_id]);
            assert_eq!(search.start_s, 0.005);
            assert_eq!(search.end_s, 0.009);
        }

        let json = plane.trace_json(a.0).expect("json").render();
        assert!(json.contains("\"linked\""));
        let chrome = plane.chrome_json(a.0).expect("chrome").render();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn migration_spans_link_the_stalled_batch_both_ways() {
        let plane = plane();
        let a = plane.derive_trace_id(7);
        let ctx = plane.begin_batch(&[a]);
        let mig = plane.record_migration(
            "migration",
            SimTime::from_nanos(1_000),
            SimTime::from_nanos(2_000),
        );
        let mig_spans = plane.trace_spans(mig.0).expect("migration trace");
        assert!(mig_spans[0].links.contains(&ctx.trace_id));
        assert!(mig_spans[0].links.contains(&a.0));
        let batch_spans = plane.trace_spans(ctx.trace_id).expect("batch trace");
        assert!(batch_spans
            .iter()
            .any(|s| s.name == "stall:migration" && s.links == vec![mig.0]));
        plane.end_batch(&ctx, SimTime::ZERO, SimTime::from_nanos(3_000));

        // With no batch in flight, a migration span records with no links.
        let lone = plane.record_migration(
            "migration",
            SimTime::from_nanos(4_000),
            SimTime::from_nanos(5_000),
        );
        assert!(plane.trace_spans(lone.0).expect("held")[0].links.is_empty());
    }

    #[test]
    fn stage_timers_accumulate_wall_and_sections() {
        let plane = plane();
        let timer = plane.stage_start(STAGE_SHARD_SCAN, SimTime::from_nanos(1_000_000));
        plane.stage_end(timer, SimTime::from_nanos(4_000_000));
        let profile = plane.profile();
        let scan = &profile[STAGE_SHARD_SCAN];
        assert_eq!(scan.stage, "shard_scan");
        assert_eq!(scan.sections, 1);
        assert!((scan.wall_s - 0.003).abs() < 1e-12);
        assert!(scan.stall_s <= scan.wall_s);
    }

    #[test]
    fn sampler_attributes_cpu_growth_to_the_registered_stage() {
        if !cputime::supported() {
            return;
        }
        let plane = plane();
        plane.register_worker(STAGE_DISPATCH);
        // Burn CPU on this thread, then sample: the delta lands on dispatch.
        let mut acc = 1u64;
        for i in 0..3_000_000u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        assert!(acc != 0);
        plane.sample_now();
        let profile = plane.profile();
        assert!(profile[STAGE_DISPATCH].samples >= 1);
        assert!(profile[STAGE_DISPATCH].sampled_cpu_s > 0.0);
        let collapsed = plane.collapsed_stacks();
        assert!(collapsed.contains("vlite;dispatch "), "{collapsed:?}");
    }

    #[test]
    fn watchdog_escalates_and_recovers_on_burn() {
        let config = TraceConfig {
            slo_target: 0.9, // 10% budget
            warn_burn: 2.0,
            critical_burn: 5.0,
            ..TraceConfig::default()
        };
        let plane = TracePlane::new(&config, 7);
        let t = SimTime::from_nanos(1_000_000_000);

        // All good: stays Ok, no transitions.
        for _ in 0..50 {
            assert_eq!(plane.observe_slo(SIG_SEARCH, true, t), None);
        }
        // 50 bad pushes the bad fraction to 50% = burn 5.0 ≥ critical.
        let mut transitions = Vec::new();
        for _ in 0..50 {
            if let Some(tr) = plane.observe_slo(SIG_SEARCH, false, t) {
                transitions.push(tr);
            }
        }
        assert!(!transitions.is_empty());
        assert_eq!(
            transitions.last().expect("transition").to,
            AlertLevel::Critical
        );
        let alerts = plane.alerts(t);
        assert_eq!(alerts[SIG_SEARCH].level, AlertLevel::Critical);
        assert!(alerts[SIG_SEARCH].fast_burn >= 5.0);
        // Other signals untouched.
        assert_eq!(alerts[SIG_TTFT].level, AlertLevel::Ok);

        // A flood of good observations dilutes the burn back under warn.
        let mut recovered = None;
        for _ in 0..2000 {
            if let Some(tr) = plane.observe_slo(SIG_SEARCH, true, t) {
                recovered = Some(tr);
            }
        }
        let recovered = recovered.expect("recovery transition");
        assert_eq!(recovered.to, AlertLevel::Ok);
        assert!(plane.alerts_json(t).render().contains("\"level\":\"ok\""));
    }

    #[test]
    fn watchdog_fast_window_forgets_old_burn() {
        let config = TraceConfig {
            slo_target: 0.9,
            fast_window_s: 60.0,
            slow_window_s: 600.0,
            ..TraceConfig::default()
        };
        let plane = TracePlane::new(&config, 7);
        let early = SimTime::from_nanos(1_000_000_000);
        for _ in 0..100 {
            plane.observe_slo(SIG_TTFT, false, early);
        }
        // 100% bad: both windows burn at 10x the budget.
        let alerts = plane.alerts(early);
        assert_eq!(alerts[SIG_TTFT].level, AlertLevel::Critical);

        // 2 minutes later the fast window has rolled past the bad burst;
        // min(fast, slow) falls and one good observation recovers.
        let late = early + SimDuration::from_secs_f64(120.0);
        let transition = plane
            .observe_slo(SIG_TTFT, true, late)
            .expect("recovery transition");
        assert_eq!(transition.to, AlertLevel::Ok);
        assert!(transition.fast_burn < config.warn_burn);
    }
}
