//! The four workloads and the run that measures one of them.
//!
//! Every workload serves a fixed synthetic corpus (the deployment) on a
//! fixed arrival schedule, and draws its queries from `--seed` (the
//! input). The placement is pinned at the paper's coverage (0.25), so hot
//! arenas and the cold SQ8 tier both serve. A run starts the deployment
//! [`ROUNDS`] times; each start is timed, warmed up untimed and measured
//! for its share of `--seconds`, and the run reports the median over the
//! rounds. The last round also checks recall on a fixed sample and, when
//! traced, repeats its load with span recording and times each layer
//! directly.

use std::path::{Path, PathBuf};

use vlite_core::{RealConfig, UpdateConfig};
use vlite_serve::http::json::Json;
use vlite_serve::http::{wire, HttpClient};
use vlite_serve::loadgen::RotatingQuerySource;
use vlite_serve::{
    ControlConfig, GenerationConfig, HttpConfig, HttpFrontend, RagServer, SearchResponse,
    ServeConfig, ServeReport, StoreReport, TenantId, Ticket,
};
use vlite_workload::{CorpusConfig, SyntheticCorpus};

use crate::check::{self, RecallSample, TOP_K};
use crate::layers;
use crate::loadgen::{self, Expect, Phase};
use crate::metrics::{median, quantile, Outcome};
use crate::procfs;
use crate::spans::{now, SpanLog};
use crate::Args;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process retrieval, open-loop Poisson arrivals.
    RetrievalOpen,
    /// In-process retrieval → generation co-scheduling, open loop below
    /// the engine's prefill capacity (TTFT).
    RagCosched,
    /// Retrieval-open's corpus and rate with the hot set rotated every
    /// quarter of the measured load: online repartitions and tier
    /// migrations.
    DriftMigrate,
    /// Loopback HTTP, closed loop on keep-alive connections.
    HttpClosed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "retrieval_open" => Self::RetrievalOpen,
            "rag_cosched" => Self::RagCosched,
            "drift_migrate" => Self::DriftMigrate,
            "http_closed" => Self::HttpClosed,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::RetrievalOpen => "retrieval_open",
            Self::RagCosched => "rag_cosched",
            Self::DriftMigrate => "drift_migrate",
            Self::HttpClosed => "http_closed",
        }
    }

    /// The 60k × 64 tier corpus, where scans dominate request cost, or
    /// the 20k × 32 corpus, where per-request overheads do.
    fn corpus(self) -> CorpusConfig {
        let (n_vectors, dim) = match self {
            Self::RetrievalOpen | Self::DriftMigrate => (60_000, 64),
            Self::RagCosched | Self::HttpClosed => (20_000, 32),
        };
        CorpusConfig {
            n_vectors,
            dim,
            n_centers: 64,
            zipf_exponent: 1.1,
            noise: 0.3,
            seed: 3,
        }
    }

    /// Open-loop arrival rate in requests per second; `None` for the
    /// closed-loop workload.
    fn open_rate(self) -> Option<f64> {
        match self {
            Self::RetrievalOpen | Self::DriftMigrate => Some(600.0),
            Self::RagCosched => Some(120.0),
            Self::HttpClosed => None,
        }
    }

    /// The latency limit attainment is judged against, in seconds: the
    /// search SLO for retrieval, the TTFT SLO for co-scheduling.
    fn latency_limit(self) -> f64 {
        match self {
            Self::RagCosched => GenerationConfig::tiny().slo_ttft,
            _ => SLO_SEARCH,
        }
    }

    fn config(self, segment_dir: PathBuf) -> ServeConfig {
        let mut config = ServeConfig::small();
        config.real = real_config();
        config.queue_capacity = 1024;
        config.store.dir = Some(segment_dir);
        match self {
            Self::RagCosched => config.generation = Some(GenerationConfig::tiny()),
            Self::DriftMigrate => {
                config.control = ControlConfig {
                    update: UpdateConfig {
                        slo_attainment_threshold: 0.9,
                        hit_rate_divergence: 0.08,
                        window_requests: 500,
                    },
                    profile_window: 1_000,
                    cooldown_requests: 1_000,
                    require_slo_breach: false,
                    ..ControlConfig::default()
                }
            }
            Self::RetrievalOpen | Self::HttpClosed => {}
        }
        config
    }
}

/// The offline stage every workload deploys: IVF with 128 lists, 16
/// probes, top-10, two shard workers, coverage pinned at the paper's.
fn real_config() -> RealConfig {
    RealConfig {
        ivf: vlite_ann::IvfConfig::new(128),
        nprobe: 16,
        top_k: TOP_K,
        n_profile_queries: 512,
        slo_search: SLO_SEARCH,
        mu_llm0: 50.0,
        kv_bytes_full: 8 << 30,
        n_shards: 2,
        seed: 0x7ea1,
        coverage_override: Some(PAPER_COVERAGE),
    }
}

/// Search-stage SLO of every deployment, in seconds.
const SLO_SEARCH: f64 = 0.010;
/// The paper's cache coverage, pinned: on a CPU-only box unpinned
/// Algorithm 1 picks coverage 0.0 from an underpredicting `PerfModel`,
/// leaving no hot tier (its decision is reported as
/// `core.decision_coverage`).
const PAPER_COVERAGE: f64 = 0.25;
/// Deployments per run. Each one is started (timed), warmed up and
/// measured on its own, and the run reports the median over them: which
/// core the OS gives each of a deployment's threads shifts its latency
/// for as long as it lives, so one deployment decides nothing.
const ROUNDS: usize = 6;
/// Untimed warm-up load after each start, in seconds: a fresh deployment
/// serves its first second or so about twice as slowly as it does later.
const WARMUP_S: f64 = 1.0;
/// Mean length of the blocks of completions a closed loop's rate is taken
/// over; its `throughput_rps` is the median block's. On the 2-vCPU box
/// the host stops a vCPU for up to about 17 ms at times, and a mean over
/// the round let a few such stalls move one HTTP round's rate by a fifth;
/// a stall costs one block here.
const RATE_WINDOW_S: f64 = 0.1;
/// Requests in flight per wave when the recall sample is served in
/// process.
const SAMPLE_WAVE: usize = 8;
/// HTTP keep-alive connections. One: on a 2-core box a second client
/// thread competes with the server's own threads for the cores, which
/// made the closed-loop rate swing by a fifth from run to run.
const HTTP_CONNECTIONS: usize = 1;
/// Topics the drift workload rotates its hot set by, each quarter.
const DRIFT_STEP: usize = 16;
/// Seed of the open-loop arrival schedules. The schedule is part of the
/// workload, not of the input: every `--seed` meets the same bursts, so
/// tail percentiles compare like with like, while the queries (and so
/// the probed clusters) vary with `--seed`.
const SCHEDULE_SEED: u64 = 0x5c4e_d01e;
/// Pre-rendered request bodies per HTTP connection.
const HTTP_BODIES: usize = 2048;

/// The running deployment.
enum Deployed {
    InProcess(RagServer),
    Http(HttpFrontend),
}

impl Deployed {
    fn server(&self) -> &RagServer {
        match self {
            Self::InProcess(s) => s,
            Self::Http(f) => f.server(),
        }
    }

    fn shutdown(self) -> ServeReport {
        match self {
            Self::InProcess(s) => s.shutdown(),
            Self::Http(f) => f.shutdown(),
        }
    }
}

/// Starts the deployment with its segment under `segment_dir`; returns
/// it with its start-up time. Start-up covers `RagServer::start` — IVF
/// training, access and latency profiling, Algorithm 1, the split, the
/// tiered-segment build and thread start — plus `HttpFrontend::bind` for
/// HTTP.
fn deploy(workload: Workload, corpus: &SyntheticCorpus, segment_dir: &Path) -> (Deployed, f64) {
    let config = workload.config(segment_dir.to_path_buf());
    let start = now();
    let server = RagServer::start(corpus, config).expect("server starts");
    let deployed = match workload {
        Workload::HttpClosed => Deployed::Http(
            HttpFrontend::bind(server, &HttpConfig::default()).expect("frontend binds"),
        ),
        _ => Deployed::InProcess(server),
    };
    let setup_s = start.elapsed().as_secs_f64();
    sync_segments(segment_dir);
    (deployed, setup_s)
}

/// Flushes the segment files under `dir` to disk, untimed. The runtime
/// leaves them to background writeback, which would otherwise land in
/// the middle of the measured load.
fn sync_segments(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(file) = std::fs::File::open(entry.path()) {
            let _ = file.sync_all();
        }
    }
}

/// One load phase against a deployment.
struct Load {
    phase: Phase,
    /// Whether it was a closed loop.
    closed: bool,
    /// Whether responses carry generated tokens (co-scheduled server).
    cosched: bool,
}

impl Load {
    /// Client-observed full-response latencies, in seconds.
    fn latencies(&self) -> Vec<f64> {
        self.phase.latencies()
    }

    /// Client times to first token, in seconds. A retrieval-only response
    /// is the first and only output, so there it is the full response.
    fn ttfts(&self) -> Vec<f64> {
        if self.cosched {
            self.phase.records.iter().filter_map(|r| r.ttft).collect()
        } else {
            self.phase.latencies()
        }
    }

    /// Completions per second: a closed loop's capacity, the median over
    /// blocks of about [`RATE_WINDOW_S`]; an open loop's served rate over
    /// the phase, which its schedule sets while the server keeps up.
    fn throughput(&self) -> f64 {
        if self.closed {
            self.phase.throughput(RATE_WINDOW_S)
        } else {
            self.phase.completed() as f64 / self.phase.elapsed.max(f64::MIN_POSITIVE)
        }
    }

    /// Share of attempted requests within `limit` seconds: on TTFT when
    /// co-scheduled, on the full response otherwise.
    fn attainment(&self, limit: f64) -> f64 {
        if self.cosched {
            self.phase.attainment(limit, |r| r.ttft)
        } else {
            self.phase.attainment(limit, |r| r.latency)
        }
    }
}

/// Plays `seconds` of the workload's load against the deployment: open
/// loop in process, closed loop over HTTP. With `drift`, the drift
/// workload rotates its hot set by [`DRIFT_STEP`] topics each quarter.
fn load(
    workload: Workload,
    deployed: &Deployed,
    corpus: &SyntheticCorpus,
    seconds: f64,
    drift: bool,
    seed: u64,
    spans: Option<&mut SpanLog>,
) -> Load {
    let expect = Expect {
        n_vectors: corpus.vectors.len(),
        generation: workload == Workload::RagCosched,
    };
    let mut source = RotatingQuerySource::from_corpus(corpus, seed);
    let phase = match (deployed, workload.open_rate()) {
        (Deployed::InProcess(server), Some(rate)) => {
            let dues = loadgen::schedule(rate, seconds, SCHEDULE_SEED);
            let n = dues.len();
            let drift = drift && workload == Workload::DriftMigrate;
            loadgen::open_loop(
                server,
                &dues,
                |i| {
                    if drift {
                        source.set_rotation(DRIFT_STEP * (4 * i / n));
                    }
                    source.next_query()
                },
                expect,
                spans,
            )
        }
        (Deployed::Http(frontend), None) => {
            let bodies: Vec<Vec<String>> = (0..HTTP_CONNECTIONS)
                .map(|_| {
                    (0..HTTP_BODIES)
                        .map(|_| wire::search_request_to_json(&source.next_query()).render())
                        .collect()
                })
                .collect();
            loadgen::http_closed_loop(frontend.addr(), &bodies, seconds, expect, spans)
        }
        _ => unreachable!("in-process workloads are open loop, HTTP is closed loop"),
    };
    Load {
        phase,
        closed: workload.open_rate().is_none(),
        cosched: expect.generation,
    }
}

/// Serves the recall sample through the workload's own path — in waves
/// of `SAMPLE_WAVE` in process, one exchange at a time over HTTP —
/// checking every response.
fn serve_sample(
    deployed: &Deployed,
    sample: &RecallSample,
    n_vectors: usize,
    out: &mut Outcome,
) -> Vec<Vec<u64>> {
    let responses: Vec<Option<SearchResponse>> = match deployed {
        Deployed::InProcess(server) => {
            let queries: Vec<&[f32]> = sample.queries.iter().collect();
            queries
                .chunks(SAMPLE_WAVE)
                .flat_map(|wave| {
                    let tickets: Vec<_> = wave
                        .iter()
                        .map(|q| server.submit(q.to_vec()).ok())
                        .collect();
                    tickets.into_iter().map(|t| t.and_then(Ticket::wait))
                })
                .collect()
        }
        Deployed::Http(frontend) => {
            let mut client = HttpClient::connect(frontend.addr()).expect("sample client connects");
            sample
                .queries
                .iter()
                .map(|q| {
                    client
                        .post_json("/v1/search", &[], &wire::search_request_to_json(q).render())
                        .ok()
                        .filter(|r| r.status == 200)
                        .and_then(|r| r.json().ok())
                        .and_then(|j: Json| wire::search_response_from_json(&j).ok())
                })
                .collect()
        }
    };
    responses
        .into_iter()
        .map(|response| match response {
            Some(r) => {
                if let Err(problem) = check::response(&r, None, TenantId(0), n_vectors) {
                    out.require(false, || format!("recall sample: {problem}"));
                }
                r.neighbors.iter().map(|n| n.id).collect()
            }
            None => {
                out.require(false, || "recall sample query not served".into());
                Vec::new()
            }
        })
        .collect()
}

/// What one round — one deployment's measured load — gave (times in
/// seconds).
/// The load's per-request records are summarised here and dropped with
/// the round, so the benchmark's own memory does not grow with the number
/// of requests a faster server completes, which `peak_rss_mb` would
/// count against it.
struct Round {
    setup_s: f64,
    attempted: u64,
    failed: u64,
    completed: usize,
    latency_p50: f64,
    latency_p99: f64,
    ttft_p50: f64,
    ttft_p99: f64,
    throughput: f64,
    attainment: f64,
    /// CPU the deployment spent on the measured load: the process's
    /// (`cpu_s`), less the load generator's own threads'.
    server_cpu_s: f64,
}

impl Round {
    fn new(setup_s: f64, load: &Load, limit: f64, cpu_s: f64) -> Self {
        let phase = &load.phase;
        Self {
            setup_s,
            attempted: phase.records.len() as u64,
            failed: phase.failed,
            completed: phase.completed(),
            latency_p50: quantile(load.latencies(), 0.5),
            latency_p99: quantile(load.latencies(), 0.99),
            ttft_p50: quantile(load.ttfts(), 0.5),
            ttft_p99: quantile(load.ttfts(), 0.99),
            throughput: load.throughput(),
            attainment: load.attainment(limit),
            server_cpu_s: cpu_s - phase.client_cpu_s,
        }
    }
}

/// Runs one workload as `args` ask and gathers its metrics and checks.
pub fn run(args: &Args) -> Outcome {
    let workload = args.workload;
    let mut out = Outcome::default();
    let corpus = SyntheticCorpus::generate(&workload.corpus());
    let sample = RecallSample::new(&corpus);
    let run_dir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let seconds = args.seconds / ROUNDS as f64;

    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut recall = 0.0;
    let mut traced = None;
    let mut last_report = None;
    let mut peak_rss = Err("no round ran".to_string());
    for round in 0..ROUNDS {
        let (deployed, setup_s) =
            deploy(workload, &corpus, &run_dir.join(format!("segment-{round}")));
        // Every round draws its own queries, all of them from `--seed`.
        let seed = args.seed ^ ((round as u64 + 1) << 40);
        let warm = load(workload, &deployed, &corpus, WARMUP_S, false, !seed, None);
        absorb_problems(&mut out, &warm, "warm-up");

        let before = deployed.server().report();
        let cpu_before = procfs::cpu_seconds();
        let measured = load(workload, &deployed, &corpus, seconds, true, seed, None);
        let cpu_after = procfs::cpu_seconds();
        let after = deployed.server().report();
        absorb_problems(&mut out, &measured, "measured load");

        // The first deployment's peak: a later round starts on the heap
        // earlier deployments left behind (about 2 MB more per round on the
        // HTTP workload), so a peak over all rounds would count the
        // benchmark's repetition.
        if round == 0 {
            peak_rss = procfs::peak_rss_mb();
        }
        let last = round + 1 == ROUNDS;
        if last {
            let served = serve_sample(&deployed, &sample, corpus.vectors.len(), &mut out);
            recall = sample.recall(&served);
            if args.trace {
                let untraced_p50 = quantile(measured.latencies(), 0.5);
                traced = Some(traced_layers(
                    workload,
                    &deployed,
                    &corpus,
                    untraced_p50,
                    seconds,
                    &run_dir,
                    args,
                    &mut out,
                ));
            }
        }
        let report = deployed.shutdown();
        exercised(workload, &before, &after, &report, &measured, &mut out);
        let cpu_s = match (cpu_before, cpu_after) {
            (Ok(a), Ok(b)) => b - a,
            (Err(e), _) | (_, Err(e)) => {
                out.require(false, || e);
                0.0
            }
        };
        rounds.push(Round::new(
            setup_s,
            &measured,
            workload.latency_limit(),
            cpu_s,
        ));
        last_report = Some(report);
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    out.attempted = rounds.iter().map(|r| r.attempted).sum();
    out.failed = rounds.iter().map(|r| r.failed).sum();
    if let (Some(traced), Some(report)) = (traced, last_report) {
        report_layers(&report, &rounds, &traced, &mut out);
    }
    let over_rounds = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f));
    out.set("setup_s", over_rounds(&|r| r.setup_s));
    out.set("latency_p50_ms", over_rounds(&|r| r.latency_p50) * 1e3);
    out.set("ttft_p50_ms", over_rounds(&|r| r.ttft_p50) * 1e3);
    out.set("throughput_rps", over_rounds(&|r| r.throughput));
    out.set("slo_attainment", over_rounds(&|r| r.attainment));
    out.set(
        "success_rate",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("recall_at_10", recall);
    match peak_rss {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.require(false, || e),
    }
    // Pooled rather than a median: `/proc` counts CPU in 10 ms ticks, a
    // coarse grain for one round of the co-scheduled workload.
    let completed: usize = rounds.iter().map(|r| r.completed).sum();
    out.set(
        "cpu_ms_per_req",
        rounds.iter().map(|r| r.server_cpu_s).sum::<f64>() * 1e3 / completed.max(1) as f64,
    );
    out
}

fn absorb_problems(out: &mut Outcome, load: &Load, what: &str) {
    for p in &load.phase.problems {
        out.require(false, || format!("{what}: {p}"));
    }
}

/// The checks that prove a round exercised the layers its workload is
/// for, from the reports taken just `before` and just `after` the
/// measured load and the final `report`.
fn exercised(
    workload: Workload,
    before: &ServeReport,
    after: &ServeReport,
    report: &ServeReport,
    measured: &Load,
    out: &mut Outcome,
) {
    out.require(report.worker_panics == 0, || {
        format!("{} worker scans panicked", report.worker_panics)
    });
    out.require(measured.phase.completed() > 0, || {
        "no request completed".into()
    });
    let failed = measured.phase.failed;
    match workload {
        Workload::RetrievalOpen => {
            let during = |f: fn(&StoreReport) -> u64| {
                let at = |r: &ServeReport| r.store.as_ref().map_or(0, f);
                at(after).saturating_sub(at(before))
            };
            out.require(during(|s| s.hot_probes) > 0, || {
                "no measured probe hit the hot tier".into()
            });
            out.require(during(|s| s.cold_probes) > 0, || {
                "no measured probe hit the cold tier".into()
            });
            out.require(failed == 0, || format!("{failed} requests failed"));
        }
        Workload::DriftMigrate => {
            // A repartition counts when the request that tripped it was
            // one of the measured load's, and a migration when it realised
            // such a repartition's placement.
            let generations: Vec<u64> = report
                .repartitions
                .iter()
                .filter(|e| (before.completed + 1..=after.completed).contains(&e.at_request))
                .map(|e| e.generation)
                .collect();
            out.require(!generations.is_empty(), || {
                "the measured drift did not trigger a repartition".into()
            });
            let migrated = report.store.as_ref().is_some_and(|s| {
                s.migrations
                    .iter()
                    .any(|m| generations.contains(&m.placement_generation))
            });
            out.require(migrated, || {
                "no tier migration realised a measured repartition".into()
            });
        }
        Workload::RagCosched => {}
        Workload::HttpClosed => {
            out.require(failed == 0, || {
                format!("{failed} HTTP requests were not answered 200")
            });
        }
    }
}

/// Per-layer numbers of a traced run that need the final report.
struct Traced {
    /// The traced pass's load.
    load: Load,
    /// `trace.overhead_ratio`: traced ÷ untraced latency p50 on the same
    /// deployment.
    overhead: f64,
    /// `PerfModel` prediction of the search stage at the run's mean batch
    /// and hit rate, in seconds.
    perf: vlite_core::PerfModel,
    /// Timings of `report()` and `prometheus_text()`, in seconds.
    report_s: f64,
    prometheus_s: f64,
    /// Algorithm 1's own (unpinned) coverage decision.
    decision_coverage: f64,
    http: bool,
}

/// The traced run's extra work on the last round's deployment: its load
/// again with span recording, then direct timings of each layer. Spans
/// are written to `.perfbench/spans-<workload>-<seed>.jsonl`.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    workload: Workload,
    deployed: &Deployed,
    corpus: &SyntheticCorpus,
    untraced_p50: f64,
    seconds: f64,
    run_dir: &Path,
    args: &Args,
    out: &mut Outcome,
) -> Traced {
    let mut log = SpanLog::new();
    let load = load(
        workload,
        deployed,
        corpus,
        seconds,
        true,
        args.seed,
        Some(&mut log),
    );
    absorb_problems(out, &load, "traced load");
    let overhead = quantile(load.latencies(), 0.5) / untraced_p50;
    let server = deployed.server();
    let sample_response = server
        .submit(corpus.queries(1, 1).get(0).to_vec())
        .ok()
        .and_then(|t| t.wait())
        .expect("a single query is served");
    layers::kernels(out, &mut log);
    layers::http_codec(&sample_response, out, &mut log);
    layers::llm_step(&GenerationConfig::tiny(), out, &mut log);
    let queries = corpus.queries(64, args.seed ^ 0x1a7e);
    let perf = layers::deployment(
        corpus,
        &real_config(),
        &queries,
        &run_dir.join("layers"),
        out,
        &mut log,
    );

    let time = |f: &dyn Fn()| {
        let t: Vec<f64> = (0..3)
            .map(|_| {
                let start = now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(t)
    };
    let report_s = time(&|| {
        std::hint::black_box(server.report());
    });
    let prometheus_s = time(&|| {
        std::hint::black_box(server.prometheus_text());
    });

    let path =
        PathBuf::from(".perfbench").join(format!("spans-{}-{}.jsonl", workload.name(), args.seed));
    if let Err(e) = log.write_jsonl(&path) {
        out.require(false, || format!("write {}: {e}", path.display()));
    }
    Traced {
        load,
        overhead,
        perf,
        report_s,
        prometheus_s,
        decision_coverage: server.initial_decision().coverage,
        http: matches!(deployed, Deployed::Http(_)),
    }
}

/// Per-layer metrics read from the traced deployment's final `report`,
/// the traced pass, and the untraced rounds.
fn report_layers(report: &ServeReport, rounds: &[Round], traced: &Traced, out: &mut Outcome) {
    let done = report.completed.max(1) as f64;
    let ms = |s: f64| s * 1e3;

    // store
    let store = report.store.as_ref();
    let stat = |f: fn(&vlite_serve::StoreReport) -> u64| store.map_or(0, f) as f64;
    let probes = stat(|s| s.hot_probes + s.cold_probes);
    out.set("store.hot_probes_per_req", stat(|s| s.hot_probes) / done);
    out.set("store.cold_probes_per_req", stat(|s| s.cold_probes) / done);
    out.set(
        "store.bytes_scanned_per_req",
        stat(|s| s.hot_bytes_scanned + s.cold_bytes_scanned) / done,
    );
    out.set(
        "store.blocked_pass_share",
        stat(|s| s.blocked_scans) / probes.max(1.0),
    );
    out.set("store.snapshot_waits", stat(|s| s.snapshot_waits));

    // serve.queue
    out.set("serve.queue_wait_p50_ms", ms(report.queue.p50));
    out.set("serve.queue_wait_p99_ms", ms(report.queue.p99));
    out.set("serve.batch_mean", report.mean_batch);
    out.set("serve.batch_max", report.max_batch as f64);
    out.set("serve.peak_queue_depth", report.peak_queue_depth as f64);
    out.set("serve.search_p50_ms", ms(report.search.p50));
    out.set("serve.search_p99_ms", ms(report.search.p99));

    // serve.dispatch / profile
    for (stage, cpu, wall) in [
        (
            "batcher",
            "profile.batcher.cpu_us_per_req",
            "profile.batcher.wall_us_per_req",
        ),
        (
            "shard_scan",
            "profile.shard_scan.cpu_us_per_req",
            "profile.shard_scan.wall_us_per_req",
        ),
        (
            "cpu_scan",
            "profile.cpu_scan.cpu_us_per_req",
            "profile.cpu_scan.wall_us_per_req",
        ),
        (
            "dispatch",
            "profile.dispatch.cpu_us_per_req",
            "profile.dispatch.wall_us_per_req",
        ),
        (
            "generation",
            "profile.generation.cpu_us_per_req",
            "profile.generation.wall_us_per_req",
        ),
        (
            "migrate",
            "profile.migrate.cpu_us_per_req",
            "profile.migrate.wall_us_per_req",
        ),
        (
            "control",
            "profile.control.cpu_us_per_req",
            "profile.control.wall_us_per_req",
        ),
    ] {
        let row = report.profile.iter().find(|p| p.stage == stage);
        out.set(cpu, row.map_or(0.0, |p| p.cpu_s) * 1e6 / done);
        out.set(wall, row.map_or(0.0, |p| p.wall_s) * 1e6 / done);
    }
    let lat = &traced.load.phase;
    let residual: Vec<f64> = lat
        .records
        .iter()
        .filter_map(|r| r.latency.map(|l| l - r.server_e2e))
        .collect();
    let residual_p50 = quantile(residual, 0.5);
    out.set("serve.residual_p50_ms", ms(residual_p50));
    out.set(
        "http.overhead_p50_ms",
        if traced.http { ms(residual_p50) } else { 0.0 },
    );

    // serve.gen
    out.set("gen.queue_p50_ms", ms(report.gen_queue.p50));
    out.set("gen.prefill_p50_ms", ms(report.prefill.p50));
    out.set("gen.decode_p50_ms", ms(report.decode.p50));
    out.set("gen.sheds", report.gen_sheds as f64);

    // core
    let predicted = traced
        .perf
        .hybrid_latency(report.mean_batch.max(1.0), report.mean_hit_rate);
    out.set("core.decision_coverage", traced.decision_coverage);
    out.set("core.perfmodel.predicted_search_ms", ms(predicted));
    out.set(
        "core.perfmodel.error_ratio",
        if report.search.p50 > 0.0 {
            predicted / report.search.p50
        } else {
            0.0
        },
    );

    // serve.control / serve.migrate
    let repart: Vec<f64> = report
        .repartitions
        .iter()
        .map(|r| r.duration.as_secs_f64())
        .collect();
    out.set("control.repartitions", repart.len() as f64);
    out.set(
        "control.repartition_ms_p50",
        ms(quantile(repart.iter().copied(), 0.5)),
    );
    out.set(
        "control.repartition_ms_max",
        ms(repart.iter().copied().fold(0.0, f64::max)),
    );
    let migrations = store.map_or(&[][..], |s| &s.migrations[..]);
    out.set("migrate.count", migrations.len() as f64);
    out.set("migrate.bytes_promoted", stat(|s| s.bytes_promoted));
    out.set(
        "migrate.ms_max",
        ms(migrations
            .iter()
            .map(|m| m.duration.as_secs_f64())
            .fold(0.0, f64::max)),
    );
    out.set(
        "migrate.batches_during",
        migrations
            .iter()
            .map(|m| m.batches_after - m.batches_before)
            .sum::<u64>() as f64,
    );

    // serve.report
    out.set("serve.report_ms", ms(traced.report_s));
    out.set("serve.prometheus_ms", ms(traced.prometheus_s));

    // loadgen
    let lateness: Vec<f64> = lat.records.iter().map(|r| r.lateness).collect();
    out.set("loadgen.lateness_p99_ms", ms(quantile(lateness, 0.99)));
    out.set(
        "loadgen.latency_p99_ms",
        ms(median(rounds.iter().map(|r| r.latency_p99))),
    );
    out.set(
        "loadgen.ttft_p99_ms",
        ms(median(rounds.iter().map(|r| r.ttft_p99))),
    );
    out.set(
        "loadgen.offered_rps",
        lat.records.len() as f64 / lat.sent_for.max(f64::MIN_POSITIVE),
    );
    out.set("trace.overhead_ratio", traced.overhead);
}
