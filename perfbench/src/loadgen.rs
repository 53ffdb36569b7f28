//! The benchmark's own load generators — the `loadgen` layer.
//!
//! Open-loop requests are timed from their *scheduled* send instant, so a
//! generator stall shows as latency on every request it delays, and the
//! generator's own lateness is kept per request, and each response is
//! stamped as it arrives, not in send order. Closed-loop (HTTP) requests
//! are due the moment the previous one on their connection completed. A
//! refused, dropped or non-200 request is a failure and misses every
//! latency limit. Every response passes [`check::response`] or the run is
//! incorrect. The generators use at most two threads (the box's core
//! count).

use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlite_serve::http::json::Json;
use vlite_serve::http::{wire, HttpClient};
use vlite_serve::{RagServer, SearchResponse, TenantId, Ticket};

use crate::check;
use crate::metrics::median;
use crate::spans::{now, Span, SpanLog};

/// What the checks need to know about the deployment under load.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Corpus size: every neighbour id must be below it.
    pub n_vectors: usize,
    /// Whether every response must carry generation timings (TTFT).
    pub generation: bool,
}

/// One attempted request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Due instant → submission, in seconds (0 in closed loops).
    pub lateness: f64,
    /// Due instant → response seen by the client, in seconds; `None` for
    /// a failed request.
    pub latency: Option<f64>,
    /// When the response was seen, in seconds from the start of the phase
    /// (0 for a failed request).
    pub seen_at: f64,
    /// The server's own admission → delivery time, in seconds.
    pub server_e2e: f64,
    /// Client time to first token: lateness plus the server's
    /// admission → first-token time (co-scheduled servers only).
    pub ttft: Option<f64>,
}

impl Record {
    fn failed(lateness: f64) -> Self {
        Self {
            lateness,
            latency: None,
            seen_at: 0.0,
            server_e2e: 0.0,
            ttft: None,
        }
    }
}

/// The outcome of one load phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// One record per attempted request, in completion order.
    pub records: Vec<Record>,
    /// Requests refused, dropped, answered with an error or failing the
    /// response check.
    pub failed: u64,
    /// Check failures (the first few, with a count of the rest).
    pub problems: Vec<String>,
    /// Seconds from the first due instant to the last response seen.
    pub elapsed: f64,
    /// Seconds from the first due instant to the last send.
    pub sent_for: f64,
    /// CPU seconds the generator's own threads spent on the phase.
    pub client_cpu_s: f64,
}

const MAX_PROBLEMS: usize = 8;

impl Phase {
    fn fail(&mut self, problem: Option<String>) {
        self.failed += 1;
        if let Some(p) = problem {
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(p);
            }
        }
    }

    /// Records a served response after checking it.
    fn served(
        &mut self,
        response: &SearchResponse,
        expected_id: Option<u64>,
        expect: Expect,
        lateness: f64,
        latency: f64,
        seen_at: f64,
    ) {
        let mut verdict = check::response(response, expected_id, TenantId(0), expect.n_vectors);
        let ttft = response.timings.generation.map(|g| lateness + g.ttft);
        if verdict.is_ok() && expect.generation && ttft.is_none() {
            verdict = Err(format!("request {} carries no TTFT", response.id));
        }
        match verdict {
            Ok(()) => self.records.push(Record {
                lateness,
                latency: Some(latency),
                seen_at,
                server_e2e: response.timings.e2e,
                ttft,
            }),
            Err(problem) => {
                self.records.push(Record::failed(lateness));
                self.fail(Some(problem));
            }
        }
    }

    fn missed(&mut self, lateness: f64, problem: Option<String>) {
        self.records.push(Record::failed(lateness));
        self.fail(problem);
    }

    /// Requests served and checked.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.latency.is_some()).count()
    }

    /// Latencies of completed requests, in seconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.latency).collect()
    }

    /// Completions per second: the median, over blocks of consecutive
    /// completions that each last about `window` on average, of a block's
    /// completions over the time from the completion before it to its
    /// last. A host stall slows one block rather than the whole phase.
    /// Meant for closed loops: where completions come in bursts, a block's
    /// edges fall between bursts and the median reads high.
    pub fn throughput(&self, window: f64) -> f64 {
        let mut seen: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.latency.is_some())
            .map(|r| r.seen_at)
            .collect();
        seen.sort_by(f64::total_cmp);
        let mean = seen.len() as f64 / self.elapsed.max(f64::MIN_POSITIVE);
        let block = ((mean * window).round() as usize).max(1);
        let rates: Vec<f64> = seen
            .iter()
            .step_by(block)
            .zip(seen.iter().skip(block).step_by(block))
            .filter(|(from, to)| to > from)
            .map(|(from, to)| block as f64 / (to - from))
            .collect();
        if rates.is_empty() {
            mean
        } else {
            median(rates)
        }
    }

    /// Share of attempted requests completed within `limit` seconds by
    /// `pick` (failures miss).
    pub fn attainment(&self, limit: f64, pick: impl Fn(&Record) -> Option<f64>) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let met = self
            .records
            .iter()
            .filter(|r| pick(r).is_some_and(|t| t <= limit))
            .count();
        met as f64 / self.records.len() as f64
    }
}

/// A Poisson arrival schedule over `[0, seconds)` at `rate` per second,
/// conditioned on exactly `round(rate · seconds)` arrivals (sorted
/// uniform points).
pub fn schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dues: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    dues
}

fn sleep_until(at: Instant) {
    let t = now();
    if at > t {
        // vlite-allow(clock-discipline): open-loop pacing runs on the wall clock it measures
        std::thread::sleep(at - t);
    }
}

/// CPU seconds of the calling thread so far (0 where the platform
/// cannot say).
fn thread_cpu() -> f64 {
    vlite_metrics::cputime::self_cpu_nanos() as f64 * 1e-9
}

/// Lead time before the first due instant, so it is not late by
/// construction.
const LEAD: Duration = Duration::from_millis(5);

/// How long a wait blocks on the oldest ticket before sweeping the rest
/// again: a response that completes out of send order is stamped at most
/// this late.
const POLL: Duration = Duration::from_micros(100);

/// Requests in flight, each tagged by the caller and stamped when its own
/// response is seen rather than in send order.
struct InFlight<T> {
    pending: VecDeque<(T, Ticket)>,
}

impl<T> InFlight<T> {
    fn new() -> Self {
        Self {
            pending: VecDeque::new(),
        }
    }

    fn push(&mut self, tag: T, ticket: Ticket) {
        self.pending.push_back((tag, ticket));
    }

    fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Collects every response that has arrived; when none has, waits up
    /// to [`POLL`] on the oldest. Calls `done(tag, id, response, seen)`
    /// for each completion, `response` being `None` for a request the
    /// server dropped.
    fn collect(&mut self, mut done: impl FnMut(T, u64, Option<SearchResponse>, Instant)) {
        let mut any = false;
        for _ in 0..self.pending.len() {
            let (tag, ticket) = self.pending.pop_front().expect("counted");
            let id = ticket.id();
            match ticket.wait_timeout(Duration::ZERO) {
                Ok(response) => {
                    done(tag, id, response, now());
                    any = true;
                }
                Err(ticket) => self.pending.push_back((tag, ticket)),
            }
        }
        if !any {
            if let Some((tag, ticket)) = self.pending.pop_front() {
                let id = ticket.id();
                match ticket.wait_timeout(POLL) {
                    Ok(response) => done(tag, id, response, now()),
                    Err(ticket) => self.pending.push_front((tag, ticket)),
                }
            }
        }
    }
}

struct Pending {
    due: Instant,
    sent: Instant,
    ticket: Ticket,
}

/// Open loop: submits query `i` at `dues[i]` seconds from the start
/// (query drawn before its due instant) while a collector thread stamps
/// each response as it arrives.
pub fn open_loop(
    server: &RagServer,
    dues: &[f64],
    mut next_query: impl FnMut(usize) -> Vec<f32>,
    expect: Expect,
    mut spans: Option<&mut SpanLog>,
) -> Phase {
    let start = now() + LEAD;
    let tracing = spans.is_some();
    let (tx, rx) = mpsc::channel::<Result<Pending, (Instant, Instant)>>();
    let (mut phase, collector_spans, last_sent) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let cpu_start = thread_cpu();
            let mut phase = Phase::default();
            let mut log = tracing.then(SpanLog::new);
            let mut last_seen = start;
            let mut inflight = InFlight::new();
            loop {
                let blocking = if inflight.is_empty() {
                    match rx.recv() {
                        Ok(item) => Some(item),
                        Err(_) => break,
                    }
                } else {
                    None
                };
                for item in blocking.into_iter().chain(rx.try_iter()) {
                    match item {
                        Ok(p) => inflight.push((p.due, p.sent), p.ticket),
                        Err((due, sent)) => phase.missed((sent - due).as_secs_f64(), None),
                    }
                }
                inflight.collect(|(due, sent), id, response, seen| {
                    last_seen = last_seen.max(seen);
                    let lateness = (sent - due).as_secs_f64();
                    match response {
                        Some(r) => {
                            let latency = (seen - due).as_secs_f64();
                            let seen_at = (seen - start).as_secs_f64();
                            phase.served(&r, Some(id), expect, lateness, latency, seen_at);
                        }
                        None => phase.missed(lateness, Some(format!("request {id} dropped"))),
                    }
                    if let Some(log) = log.as_mut() {
                        log.record(Span {
                            name: "serve.request",
                            parent: None,
                            trace: id + 1,
                            start: sent,
                            end: seen,
                        });
                    }
                });
            }
            phase.elapsed = (last_seen - start).as_secs_f64();
            phase.client_cpu_s = thread_cpu() - cpu_start;
            (phase, log)
        });

        let cpu_start = thread_cpu();
        let mut last_sent = start;
        for (i, &offset) in dues.iter().enumerate() {
            let query = next_query(i);
            let due = start + Duration::from_secs_f64(offset);
            sleep_until(due);
            let sent = now();
            let submitted = server.submit(query);
            let admitted = now();
            last_sent = sent;
            if let Some(log) = spans.as_deref_mut() {
                let trace = submitted.as_ref().map_or(0, |t| t.id() + 1);
                log.record(Span {
                    name: "loadgen.lateness",
                    parent: None,
                    trace,
                    start: due,
                    end: sent,
                });
                log.record(Span {
                    name: "serve.submit",
                    parent: Some("serve.request"),
                    trace,
                    start: sent,
                    end: admitted,
                });
            }
            let item = match submitted {
                Ok(ticket) => Ok(Pending { due, sent, ticket }),
                Err(_) => Err((due, sent)),
            };
            tx.send(item).expect("collector thread is alive");
        }
        drop(tx);
        let generator_cpu = thread_cpu() - cpu_start;
        let (mut phase, log) = collector.join().expect("collector thread panicked");
        phase.client_cpu_s += generator_cpu;
        (phase, log, last_sent)
    });
    phase.sent_for = (last_sent - start).as_secs_f64();
    if let (Some(log), Some(collected)) = (spans, collector_spans) {
        log.extend(collected);
    }
    phase
}

/// Closed loop over HTTP: one keep-alive connection per entry of
/// `bodies`, each sending its pre-rendered `POST /v1/search` bodies in
/// turn until `seconds` have passed. Only `200` counts as served. Each
/// response is decoded and checked after its receipt is stamped, so the
/// client's own parsing is in the loop but not in the latency.
pub fn http_closed_loop(
    addr: SocketAddr,
    bodies: &[Vec<String>],
    seconds: f64,
    expect: Expect,
    spans: Option<&mut SpanLog>,
) -> Phase {
    let start = now();
    let stop = start + Duration::from_secs_f64(seconds);
    let tracing = spans.is_some();
    let results: Vec<(Phase, Option<SpanLog>, Vec<u64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = bodies
            .iter()
            .map(|pool| {
                scope.spawn(move || {
                    let cpu_start = thread_cpu();
                    let mut phase = Phase::default();
                    let mut log = tracing.then(SpanLog::new);
                    let mut ids = Vec::new();
                    let (mut last_sent, mut last_seen) = (start, start);
                    let mut client = match HttpClient::connect(addr) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            phase.missed(0.0, Some(format!("connect: {e}")));
                            None
                        }
                    };
                    let mut i = 0;
                    while let Some(c) = client.as_mut() {
                        let sent = now();
                        if sent >= stop {
                            break;
                        }
                        let exchange = c.post_json("/v1/search", &[], &pool[i % pool.len()]);
                        let seen = now();
                        i += 1;
                        (last_sent, last_seen) = (sent, seen);
                        if let Some(log) = log.as_mut() {
                            log.record(Span {
                                name: "http.exchange",
                                parent: None,
                                trace: 0,
                                start: sent,
                                end: seen,
                            });
                        }
                        let decoded = match exchange {
                            Err(e) => {
                                client = None;
                                Err(format!("exchange: {e}"))
                            }
                            Ok(r) if r.status != 200 => {
                                Err(format!("status {} from /v1/search", r.status))
                            }
                            Ok(r) => r
                                .json()
                                .map_err(|e| format!("response JSON: {e:?}"))
                                .and_then(|j: Json| {
                                    wire::search_response_from_json(&j)
                                        .map_err(|e| format!("response decode: {e:?}"))
                                }),
                        };
                        match decoded {
                            Ok(r) => {
                                ids.push(r.id);
                                let latency = (seen - sent).as_secs_f64();
                                let seen_at = (seen - start).as_secs_f64();
                                phase.served(&r, None, expect, 0.0, latency, seen_at);
                            }
                            Err(problem) => phase.missed(0.0, Some(problem)),
                        }
                    }
                    phase.elapsed = (last_seen - start).as_secs_f64();
                    phase.sent_for = (last_sent - start).as_secs_f64();
                    phase.client_cpu_s = thread_cpu() - cpu_start;
                    (phase, log, ids)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("http client thread panicked"))
            .collect()
    });

    // Request ids are assigned once per admission, so a repeat means a
    // response was delivered twice or to the wrong connection.
    let mut phase = Phase::default();
    let mut ids = HashSet::new();
    let mut spans = spans;
    for (part, log, part_ids) in results {
        for id in part_ids {
            if !ids.insert(id) {
                phase.fail(Some(format!("response id {id} repeated")));
            }
        }
        phase.records.extend(part.records);
        phase.failed += part.failed;
        phase.problems.extend(part.problems);
        phase.problems.truncate(MAX_PROBLEMS);
        phase.elapsed = phase.elapsed.max(part.elapsed);
        phase.sent_for = phase.sent_for.max(part.sent_for);
        phase.client_cpu_s += part.client_cpu_s;
        if let (Some(all), Some(log)) = (spans.as_deref_mut(), log) {
            all.extend(log);
        }
    }
    phase
}
