//! Integration: the always-on telemetry plane, the single record that
//! `ServeReport` is read from. These tests pin the contract from the
//! outside:
//!
//! 1. After a run, every Prometheus-scraped counter equals the report's
//!    total, and the stage histograms saw exactly one sample per
//!    completed request (retrieval-only and co-scheduled).
//! 2. Each co-scheduled request's one timeline, its span tree, chains its
//!    stages end to start and reproduces the delivered timings: the
//!    prefill span ends exactly one TTFT after admission.
//! 3. An oracle recomputed from every delivered response's timings and hit
//!    rate reproduces the report: counts, attainment (per tenant against
//!    the tenant's own SLO), hit-rate means and deadline counters exactly,
//!    latency percentiles within the histograms' relative error bound.
//! 4. Hot-path recording is lock-free: writers hammering one plane from
//!    many threads lose no samples even while a scraper renders the
//!    exposition concurrently (no global lock to convoy on).

use std::sync::Arc;
use std::time::Duration;

use vectorlite_rag::core::RealConfig;
use vectorlite_rag::metrics::obs::StreamingHistogram;
use vectorlite_rag::metrics::spans::tree_violations;
use vectorlite_rag::metrics::{LatencyRecorder, Summary};
use vectorlite_rag::serve::http::json::Json;
use vectorlite_rag::serve::obs::Completion;
use vectorlite_rag::serve::{
    DeadlinePolicy, GenerationConfig, ObsConfig, ObsPlane, RagServer, SearchResponse, ServeConfig,
    TenantId, TenantSpec,
};
use vectorlite_rag::workload::{CorpusConfig, SyntheticCorpus};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        n_vectors: 4_000,
        dim: 12,
        n_centers: 16,
        zipf_exponent: 1.1,
        noise: 0.25,
        seed: 23,
    })
}

fn config() -> ServeConfig {
    let mut config = ServeConfig::small();
    config.real = RealConfig {
        ivf: vectorlite_rag::ann::IvfConfig::new(32),
        nprobe: 8,
        top_k: 8,
        n_profile_queries: 256,
        slo_search: 0.050,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0xab5,
        coverage_override: Some(0.3),
    };
    config
}

/// Extracts one sample value from a Prometheus text exposition. `name`
/// includes labels when the family has them, e.g.
/// `vlite_stage_seconds_count{stage="search"}`.
fn prom_value(text: &str, name: &str) -> f64 {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if key == name {
                return value
                    .parse()
                    .unwrap_or_else(|_| panic!("metric {name} has non-numeric value {value:?}"));
            }
        }
    }
    panic!("metric {name} not found in exposition");
}

#[test]
fn scraped_counters_match_the_exact_report() {
    let corpus = corpus();
    let server = RagServer::start(&corpus, config()).expect("server starts");
    let queries = corpus.queries(48, 17);
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.to_vec()).expect("admitted"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("server alive");
    }

    // Counters that settle before the ticket reply is sent (the obs hook
    // runs first in `complete_query`) are exact the moment every wait
    // returns — scrape and compare against the live report.
    let text = server.prometheus_text();
    let report = server.report();
    assert_eq!(
        prom_value(&text, "vlite_admitted_total") as u64,
        report.admitted
    );
    assert_eq!(
        prom_value(&text, "vlite_rejected_total") as u64,
        report.rejected
    );
    assert_eq!(
        prom_value(&text, "vlite_completed_total") as u64,
        report.completed
    );
    assert_eq!(report.completed, 48);
    assert_eq!(
        prom_value(&text, "vlite_stage_seconds_count{stage=\"search\"}") as u64,
        report.completed,
        "one search sample per completed request"
    );
    assert_eq!(
        prom_value(&text, "vlite_stage_seconds_count{stage=\"queue\"}") as u64,
        report.completed
    );
    assert_eq!(
        prom_value(&text, "vlite_stage_seconds_count{stage=\"e2e\"}") as u64,
        report.completed
    );
    // Retrieval-only server: no generation stages recorded.
    assert_eq!(
        prom_value(&text, "vlite_stage_seconds_count{stage=\"ttft\"}"),
        0.0
    );
    assert_eq!(prom_value(&text, "vlite_gen_sheds_total"), 0.0);

    // The admission counters mirror the queue's own statistics, which
    // the report reads; compare them post-shutdown via the handle that
    // outlives the server.
    let obs = server.obs_handle();
    let report = server.shutdown();
    assert_eq!(obs.admitted.get(), report.admitted);
    assert_eq!(obs.rejected.get(), report.rejected);
}

#[test]
fn co_scheduled_run_records_generation_stages_and_traces() {
    let corpus = corpus();
    let mut config = config();
    config.generation = Some(GenerationConfig::tiny());
    let n = 32;
    let server = RagServer::start(&corpus, config).expect("server starts");
    let queries = corpus.queries(n, 29);
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.to_vec()).expect("admitted"))
        .collect();
    let responses: Vec<SearchResponse> = tickets
        .into_iter()
        .map(|ticket| ticket.wait().expect("server alive"))
        .collect();
    for response in &responses {
        assert!(response.timings.generation.is_some(), "co-scheduled reply");
    }

    let obs = server.obs_handle();
    let trace = server.trace_handle();
    let report = server.shutdown();
    assert_eq!(report.completed, n as u64);

    // Generation stages record once per delivered (non-shed) request.
    let delivered = report.completed - report.gen_sheds;
    for stage in ["ttft", "gen_queue", "prefill", "decode"] {
        assert_eq!(
            obs.totals.stage(stage).expect("known stage").count(),
            delivered,
            "stage {stage}"
        );
    }

    // Every request's tree is in the recent ring, listed by /v1/traces.
    let listed = trace.traces_json();
    let recent = listed
        .get("recent")
        .and_then(Json::as_array)
        .expect("recent ring");
    assert_eq!(recent.len(), n);

    // Each tree is well-formed, its stages chain end to start, and its
    // boundaries reproduce the delivered timings: the prefill span ends at
    // the first token, so gen_prefill.end - request.start == TTFT.
    for response in &responses {
        let spans = trace
            .trace_spans(response.trace.0)
            .unwrap_or_else(|| panic!("request {} has no span tree", response.id));
        let violations = tree_violations(&spans);
        assert!(violations.is_empty(), "{violations:?}");
        let span = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("request {} missing span {name}", response.id))
        };
        let request = span("request");
        assert!((request.end_s - request.start_s - response.timings.e2e).abs() < 1e-9);
        let gen = response.timings.generation.expect("co-scheduled reply");
        assert_eq!(span("queue").start_s, request.start_s);
        assert_eq!(span("queue").end_s, span("search").start_s);
        assert_eq!(span("search").end_s, span("gen_queue").start_s);
        assert_eq!(span("gen_queue").end_s, span("gen_prefill").start_s);
        assert_eq!(span("gen_prefill").end_s, span("gen_decode").start_s);
        assert!(
            (span("gen_prefill").end_s - request.start_s - gen.ttft).abs() < 1e-9,
            "request {}: prefill must end one TTFT ({}) after admission",
            response.id,
            gen.ttft
        );
        assert!(
            span("gen_decode").end_s <= request.end_s + 1e-9,
            "decode must end by e2e"
        );
    }
}

/// Asserts that `got` digests `samples`: count, min and max exactly, the
/// mean to float round-off (the runtime sums in completion order), and
/// every percentile at or above the exact nearest-rank sample and within
/// the histogram's relative error bound of it.
fn assert_digests(what: &str, got: &Summary, samples: impl Iterator<Item = f64>) {
    let truth = samples.collect::<LatencyRecorder>().summary();
    assert_eq!(
        (got.count, got.min, got.max),
        (truth.count, truth.min, truth.max),
        "{what}"
    );
    assert!(
        (got.mean - truth.mean).abs() <= 1e-12 * truth.mean.max(1.0),
        "{what}"
    );
    let err = StreamingHistogram::relative_error_bound();
    for (answer, exact) in [
        (got.p50, truth.p50),
        (got.p90, truth.p90),
        (got.p95, truth.p95),
        (got.p99, truth.p99),
    ] {
        assert!(
            answer >= exact * (1.0 - 1e-12) && answer <= exact * (1.0 + err) * (1.0 + 1e-12),
            "{what}: {answer} outside [{exact}, {exact} x (1 + {err:.4})]"
        );
    }
}

/// Asserts that a `ServeReport` or `TenantReport` row says what the
/// delivered `responses` say, judged against `slo_search` and (on
/// co-scheduled servers) `slo_ttft`.
macro_rules! assert_row {
    ($row:expr, $responses:expr, $slo_search:expr, $slo_ttft:expr) => {{
        let (row, rs): (_, &[&SearchResponse]) = (&$row, &$responses);
        let slo_ttft: Option<f64> = $slo_ttft;
        let share = |met: &dyn Fn(&SearchResponse) -> bool| {
            rs.iter().filter(|r| met(r)).count() as f64 / rs.len() as f64
        };
        let generated = || rs.iter().filter_map(|r| r.timings.generation);
        assert_eq!(row.completed, rs.len() as u64);
        let sheds = rs.len() - generated().count();
        assert_eq!(row.gen_sheds, slo_ttft.map_or(0, |_| sheds as u64));
        assert_eq!(
            row.slo_attainment,
            share(&|r| r.timings.search <= $slo_search)
        );
        let ttft_met = |slo| share(&|r| r.timings.generation.is_some_and(|g| g.ttft <= slo));
        assert_eq!(row.ttft_attainment, slo_ttft.map_or(0.0, ttft_met));
        let hit: f64 = rs.iter().map(|r| r.hit_rate).sum();
        assert!((row.mean_hit_rate - hit / rs.len() as f64).abs() < 1e-9);
        assert_digests("queue", &row.queue, rs.iter().map(|r| r.timings.queue));
        assert_digests("search", &row.search, rs.iter().map(|r| r.timings.search));
        assert_digests("e2e", &row.e2e, rs.iter().map(|r| r.timings.e2e));
        assert_digests("ttft", &row.ttft, generated().map(|g| g.ttft));
    }};
}

#[test]
fn report_matches_an_oracle_recomputed_from_every_response() {
    let corpus = corpus();

    // Two tenants with different search SLOs: tenant 0's is unmeetably
    // tight, tenant 1's generous, and the global one (50 ms) in between —
    // a tenant judged against the wrong target shows up at once.
    let mut two_tenants = config();
    let slos = [1e-6, 10.0];
    two_tenants.tenants = slos
        .iter()
        .map(|&slo_search| TenantSpec {
            weight: 1,
            queue_capacity: 256,
            slo_search,
        })
        .collect();
    let slo_search = two_tenants.real.slo_search;
    let server = RagServer::start(&corpus, two_tenants).expect("server starts");
    let tickets: Vec<_> = corpus
        .queries(96, 41)
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let tenant = TenantId((i % 2) as u16);
            server.submit_for(tenant, q.to_vec()).expect("admitted")
        })
        .collect();
    let responses: Vec<SearchResponse> = tickets
        .into_iter()
        .map(|t| t.wait().expect("served"))
        .collect();
    let report = server.shutdown();
    let all: Vec<&SearchResponse> = responses.iter().collect();
    assert_row!(report, all, slo_search, None);
    for (t, row) in report.tenants.iter().enumerate() {
        let mine: Vec<&SearchResponse> = all
            .iter()
            .copied()
            .filter(|r| r.tenant.index() == t)
            .collect();
        assert_row!(row, mine, slos[t], None);
    }
    assert_eq!(report.tenants[0].slo_attainment, 0.0);
    assert_eq!(report.tenants[1].slo_attainment, 1.0);

    // Co-scheduled, every request carrying its own budget under an
    // enforcing policy: tight budgets shed at admission, in the queue or
    // at generation admission; generous ones finish. Only delivered
    // responses count, and generation sheds carry no generation timings.
    let mut cosched = config();
    let generation = GenerationConfig::tiny();
    let slo_ttft = generation.slo_ttft;
    cosched.generation = Some(generation);
    cosched.deadline = DeadlinePolicy {
        enforce: true,
        ..DeadlinePolicy::default()
    };
    let server = RagServer::start(&corpus, cosched).expect("server starts");
    let budgets_ms = [1, 4, 20, 10_000];
    let tickets: Vec<_> = corpus
        .queries(64, 43)
        .iter()
        .zip(budgets_ms.iter().cycle())
        .filter_map(|(q, &ms)| {
            let budget = Duration::from_millis(ms);
            let ticket = server.submit_with_deadline(TenantId(0), q.to_vec(), Some(budget));
            ticket.ok().map(|ticket| (budget.as_secs_f64(), ticket))
        })
        .collect();
    let served: Vec<(f64, SearchResponse)> = tickets
        .into_iter()
        .filter_map(|(budget, ticket)| ticket.wait().map(|r| (budget, r)))
        .collect();
    let report = server.shutdown();
    let all: Vec<&SearchResponse> = served.iter().map(|(_, r)| r).collect();
    assert!(report.ttft.count > 0, "generous budgets finish generation");
    assert_row!(report, all, slo_search, Some(slo_ttft));
    assert_row!(report.tenants[0], all, slo_search, Some(slo_ttft));
    let met = served
        .iter()
        .filter(|(budget, r)| r.timings.e2e <= *budget)
        .count();
    assert_eq!(report.deadline_met, met as u64);
    assert_eq!(report.deadline_missed, (all.len() - met) as u64);
}

// The lock-freedom pin: concurrent writers plus a concurrent scraper, no
// global lock to convoy on, and the final totals are exact. A mutex-guarded
// plane would still pass the counting half, but the scraper here renders
// the full exposition in a tight loop the whole time — with the writers'
// hot path taking any shared lock this test becomes a convoy (and the
// sharded `Counter` in `vlite_metrics::obs` has its own loss-freedom
// proptest); together they pin "recording never serializes on a lock".
#[test]
fn concurrent_recording_with_live_scrapes_loses_nothing() {
    let plane = Arc::new(ObsPlane::new(&ObsConfig::default(), 1));
    let writers = 8;
    let per_writer: u64 = 20_000;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let scraper = {
        let plane = Arc::clone(&plane);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut out = String::new();
                plane.prometheus_into(&mut out);
                assert!(out.contains("vlite_admitted_total"));
                scrapes += 1;
            }
            scrapes
        })
    };

    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let plane = Arc::clone(&plane);
            std::thread::spawn(move || {
                for i in 0..per_writer {
                    plane.on_admit();
                    let timings = vectorlite_rag::serve::RequestTimings {
                        queue: 1e-4,
                        search: 1e-3 * (1.0 + (i % 7) as f64),
                        e2e: 1e-4 + 1e-3 * (1.0 + (i % 7) as f64),
                        generation: None,
                    };
                    plane.on_request(&Completion {
                        id: w * per_writer + i,
                        tenant: TenantId(0),
                        admitted_ns: i,
                        timings: &timings,
                        hit_rate: 1.0,
                        search_met: true,
                        tenant_search_met: true,
                        ttft_met: None,
                        shed: false,
                        deadline: None,
                    });
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("writer");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper");

    let total = writers * per_writer;
    assert_eq!(plane.admitted.get(), total);
    assert_eq!(plane.totals.completed.get(), total);
    assert_eq!(plane.totals.stage("search").expect("stage").count(), total);
    assert_eq!(plane.totals.stage("e2e").expect("stage").count(), total);
    assert!(scrapes > 0, "scraper ran concurrently with the writers");
}
