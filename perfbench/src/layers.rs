//! Per-layer timings of the traced run: direct calls into each layer's
//! public functions, timed from the benchmark's own code. Bytes moved are
//! computed from the slice sizes the calls read (or, for the store, from
//! the store's own scanned-bytes counters), not measured on hardware.

use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlite_ann::{kernel, BatchQuery, VecSet};
use vlite_core::{partition, PartitionInput, PerfModel, RealConfig, RealDeployment};
use vlite_llm::{LlmEngine, LlmRequest};
use vlite_serve::http::json::Json;
use vlite_serve::http::{parser, wire};
use vlite_serve::{GenerationConfig, SearchResponse};
use vlite_sim::SimTime;
use vlite_workload::SyntheticCorpus;

use crate::check::TOP_K;
use crate::metrics::{median, Outcome};
use crate::spans::{now, Span, SpanLog};

/// Wall time each repetition of a timed call loop runs for.
const BUDGET: Duration = Duration::from_millis(80);
/// Repetitions per timed call; the median is reported.
const REPS: usize = 5;

/// Calls `f` back to back for [`BUDGET`], [`REPS`] times, recording one
/// span per repetition; returns the median seconds per call.
fn time_call(log: &mut SpanLog, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = now();
        let mut calls = 0u32;
        while calls == 0 || start.elapsed() < BUDGET {
            f();
            calls += 1;
        }
        let end = now();
        log.record(Span {
            name,
            parent: None,
            trace: 0,
            start,
            end,
        });
        per_call.push((end - start).as_secs_f64() / f64::from(calls));
    }
    median(per_call)
}

/// `ann.kernel`: the dispatched distance kernels over a 4096 × 64 arena
/// (the tier corpus's dimension), through the same function table the
/// tiered scans resolve.
pub fn kernels(out: &mut Outcome, log: &mut SpanLog) {
    const DIM: usize = 64;
    const N: usize = 4096;
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    let arena: Vec<f32> = (0..N * DIM).map(|_| rng.random::<f32>() - 0.5).collect();
    let query: Vec<f32> = (0..DIM).map(|_| rng.random::<f32>() - 0.5).collect();
    let table: Vec<f32> = (0..DIM * 256).map(|_| rng.random::<f32>()).collect();
    let codes: Vec<u8> = (0..N * DIM).map(|_| rng.random::<u8>()).collect();
    let k = kernel::kernels();
    eprintln!("perfbench: distance kernel {}", k.kind.name());

    let f32_bytes = (2 * DIM * std::mem::size_of::<f32>()) as f64;
    for (name, ns_name, gbps_name, f) in [
        (
            "ann.kernel.l2",
            "ann.kernel.l2_ns_per_vec",
            "ann.kernel.l2_gbps",
            k.l2_sq,
        ),
        (
            "ann.kernel.dot",
            "ann.kernel.dot_ns_per_vec",
            "ann.kernel.dot_gbps",
            k.dot,
        ),
    ] {
        let secs = time_call(log, name, || {
            let mut acc = 0.0f32;
            for v in arena.chunks_exact(DIM) {
                acc += f(black_box(&query), v);
            }
            black_box(acc);
        });
        out.set(ns_name, secs * 1e9 / N as f64);
        out.set(gbps_name, f32_bytes * N as f64 / secs / 1e9);
    }
    // One SQ8 score reads the vector's DIM code bytes and DIM table floats.
    let sq8_bytes = (DIM + DIM * std::mem::size_of::<f32>()) as f64;
    let secs = time_call(log, "ann.kernel.sq8", || {
        let mut acc = 0.0f32;
        for c in codes.chunks_exact(DIM) {
            acc += (k.sq8_lut_sum)(black_box(&table), c);
        }
        black_box(acc);
    });
    out.set("ann.kernel.sq8_ns_per_vec", secs * 1e9 / N as f64);
    out.set("ann.kernel.sq8_gbps", sq8_bytes * N as f64 / secs / 1e9);
}

/// `ann.ivf`, `store` and `core`: builds a deployment of the workload's
/// own corpus and configuration (segment under `segment_dir`), then
/// times the coarse quantizer, tier scans, blocked batches, Algorithm 1
/// and the hit-rate inversion. Returns the deployment's fitted
/// performance model.
pub fn deployment(
    corpus: &SyntheticCorpus,
    real: &RealConfig,
    queries: &VecSet,
    segment_dir: &Path,
    out: &mut Outcome,
    log: &mut SpanLog,
) -> PerfModel {
    let mut dep = RealDeployment::build(corpus, real.clone()).expect("deployment builds");
    let probe_lists: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            dep.index
                .probe(q, real.nprobe)
                .iter()
                .map(|p| p.list)
                .collect()
        })
        .collect();

    let mut qi = 0usize;
    let secs = time_call(log, "ann.ivf.probe", || {
        black_box(
            dep.index
                .probe(queries.get(qi % queries.len()), real.nprobe),
        );
        qi += 1;
    });
    out.set("ann.ivf.probe_us", secs * 1e6);

    // core: Algorithm 1 and HitRate2Coverage on the deployment's profile.
    let input = PartitionInput::new(real.slo_search, real.mu_llm0, real.kv_bytes_full);
    let secs = time_call(log, "core.partition", || {
        black_box(partition(&input, &dep.perf, &dep.estimator, &dep.profile));
    });
    out.set("core.partition_ms", secs * 1e3);
    let batch = dep.decision.expected_batch.max(1);
    // The batch-minimum hit rate the pinned placement guarantees, so the
    // inversion has a non-trivial target to search for.
    let target = dep.estimator.eta_min(
        real.coverage_override.unwrap_or(dep.decision.coverage),
        batch,
    );
    let secs = time_call(log, "core.hit_rate_to_coverage", || {
        black_box(dep.estimator.hit_rate_to_coverage(target, batch));
    });
    out.set("core.hit_rate_to_coverage_us", secs * 1e6);

    // store: per-tier scan bandwidth and blocked vs per-query batches.
    std::fs::create_dir_all(segment_dir).expect("segment directory");
    let segment = segment_dir.join("layers.seg");
    let store = dep
        .build_tiered_store(&segment)
        .expect("tiered store builds");
    // Flush now rather than let writeback land inside later timings.
    let _ = std::fs::File::open(&segment).and_then(|f| f.sync_all());
    let snap = store.snapshot();
    let split = |hot: bool| -> Vec<Vec<u32>> {
        probe_lists
            .iter()
            .map(|ls| {
                ls.iter()
                    .copied()
                    .filter(|&c| snap.is_hot(c) == hot)
                    .collect()
            })
            .collect()
    };
    let (hot_lists, cold_lists) = (split(true), split(false));
    let scan_all = |lists: &[Vec<u32>]| {
        for (q, ls) in queries.iter().zip(lists) {
            black_box(dep.index.scan_lists_with(&snap, q, ls, TOP_K));
        }
    };
    for (name, metric, lists, hot) in [
        ("store.hot_scan", "store.hot_scan_gbps", &hot_lists, true),
        (
            "store.cold_scan",
            "store.cold_scan_gbps",
            &cold_lists,
            false,
        ),
    ] {
        let scanned = || {
            let s = store.stats();
            if hot {
                s.hot_bytes_scanned
            } else {
                s.cold_bytes_scanned
            }
        };
        let before = scanned();
        scan_all(lists);
        let per_call = (scanned() - before) as f64;
        let secs = time_call(log, name, || scan_all(lists));
        out.set(metric, per_call / secs / 1e9);
    }

    const BATCH: usize = 8;
    let batches: Vec<Vec<BatchQuery<'_>>> = queries
        .iter()
        .zip(&probe_lists)
        .map(|(query, lists)| BatchQuery { query, lists })
        .collect::<Vec<_>>()
        .chunks(BATCH)
        .map(<[BatchQuery<'_>]>::to_vec)
        .collect();
    let blocked: Vec<Vec<Vec<u64>>> = batches
        .iter()
        .map(|b| {
            dep.index
                .scan_lists_batch_with(&snap, b, TOP_K)
                .iter()
                .map(|ns| ns.iter().map(|n| n.id).collect())
                .collect()
        })
        .collect();
    let per_query: Vec<Vec<u64>> = queries
        .iter()
        .zip(&probe_lists)
        .map(|(q, ls)| {
            dep.index
                .scan_lists_with(&snap, q, ls, TOP_K)
                .iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();
    out.require(blocked.concat() == per_query, || {
        "blocked batch scans disagree with per-query scans".into()
    });
    let t_blocked = time_call(log, "store.blocked_batches", || {
        for b in &batches {
            black_box(dep.index.scan_lists_batch_with(&snap, b, TOP_K));
        }
    });
    let t_per_query = time_call(log, "store.per_query", || {
        scan_all(&probe_lists);
    });
    out.set("store.blocked_vs_per_query", t_blocked / t_per_query);
    dep.perf.clone()
}

/// `http`: head parsing, request decoding and response encoding on the
/// shapes the frontend serves (a 64-d query body, a served response).
pub fn http_codec(response: &SearchResponse, out: &mut Outcome, log: &mut SpanLog) {
    let mut rng = StdRng::seed_from_u64(0x6874_7470);
    let query: Vec<f32> = (0..64).map(|_| rng.random::<f32>() - 0.5).collect();
    let body = wire::search_request_to_json(&query).render();
    let request = format!(
        "POST /v1/search HTTP/1.1\r\nHost: vlite-serve\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let parsed = parser::parse_head(request.as_bytes());
    out.require(
        matches!(&parsed, Ok(Some((head, _))) if head.content_length() == Ok(body.len())),
        || "parse_head rejected a well-formed request head".into(),
    );
    const HEADS: u32 = 64;
    let secs = time_call(log, "http.parse_head", || {
        for _ in 0..HEADS {
            black_box(parser::parse_head(black_box(request.as_bytes())).is_ok());
        }
    });
    out.set("http.parse_head_ns", secs * 1e9 / f64::from(HEADS));

    let decode = |text: &str| {
        Json::parse(text)
            .ok()
            .and_then(|json| wire::search_request_from_json(&json).ok())
    };
    out.require(
        decode(&body).is_some_and(|q| q.len() == query.len()),
        || "search request body did not round-trip".into(),
    );
    let secs = time_call(log, "http.decode_request", || {
        black_box(decode(black_box(&body)));
    });
    out.set("http.decode_request_us", secs * 1e6);

    let secs = time_call(log, "http.encode_response", || {
        black_box(wire::search_response_to_json(black_box(response)).render());
    });
    out.set("http.encode_response_us", secs * 1e6);
}

/// `llm`: `LlmEngine::advance` driving batches of eight requests shaped
/// like the co-scheduled workload's (a `TOP_K`-document prompt) from
/// submission to completion; reports host microseconds per step.
pub fn llm_step(config: &GenerationConfig, out: &mut Outcome, log: &mut SpanLog) {
    const BATCH: u64 = 8;
    let mut engine = LlmEngine::new(config.cost.clone(), config.kv_bytes);
    engine.set_max_batch(config.max_batch);
    engine.set_max_prefill_tokens(config.max_prefill_tokens);
    let prompt = config.prompt_tokens(TOP_K);
    let (mut now, mut next_id, mut steps) = (SimTime::ZERO, 0u64, 0u64);
    let mut calls = 0u64;
    let secs = time_call(log, "llm.engine_batch", || {
        for _ in 0..BATCH {
            engine.submit(LlmRequest::new(next_id, prompt, config.output_tokens), now);
            next_id += 1;
        }
        while let Some(step) = engine.advance(now) {
            now = step.busy_until;
            steps += 1;
        }
        calls += 1;
    });
    let steps_per_call = steps as f64 / calls as f64;
    out.set("llm.engine_step_us", secs * 1e6 / steps_per_call);
}
