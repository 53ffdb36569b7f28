//! Span-tree primitives for causal request tracing.
//!
//! A *trace* is identified by a 128-bit id and holds a list of spans; each
//! span names a stage of work with `[start_s, end_s]` boundaries, an
//! optional parent span (forming a tree), and zero or more *links* to other
//! trace ids that causally interacted with it — the batch a request rode
//! in, the requests a migration stalled. The store is bounded and keeps
//! whole traces (a trace is only useful complete — evicting individual
//! spans would leave dangling parents) under a tail-sampling policy: every
//! new trace enters a *recent* ring of `capacity` traces, and a trace
//! recorded with `keep` (a shed or SLO-missing request) also enters a
//! *kept* set of `kept_capacity` traces, which a flood of ordinary traces
//! cannot push out. A trace leaves the store once it is in neither.
//!
//! The recording side lives in `vlite-serve`; this module owns the data
//! model, the bounded store, and the well-formedness checker that the
//! property tests drive.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

/// One recorded span of work inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The 128-bit trace this span belongs to.
    pub trace_id: u128,
    /// Id unique within the process (not just the trace).
    pub span_id: u64,
    /// Parent span id within the same trace; `None` for a root span.
    pub parent_id: Option<u64>,
    /// Stage name, e.g. `request`, `queue`, `batch`, `scan:shard0`.
    pub name: String,
    /// Start boundary in seconds since the serving epoch.
    pub start_s: f64,
    /// End boundary in seconds since the serving epoch (`>= start_s`).
    pub end_s: f64,
    /// Trace ids causally linked to this span (co-batched requests, the
    /// batch a migration stalled, ...).
    pub links: Vec<u128>,
}

/// One held trace and the retention queues that hold its id.
struct Held {
    spans: Vec<SpanRecord>,
    recent: bool,
    kept: bool,
}

#[derive(Default)]
struct Inner {
    traces: HashMap<u128, Held>,
    /// Trace ids in first-recorded order; the recent ring's eviction queue.
    recent: VecDeque<u128>,
    /// Kept trace ids in the order they were kept.
    kept: VecDeque<u128>,
    recent_evicted: u64,
    kept_evicted: u64,
    evicted: u64,
}

impl Inner {
    /// Drops the oldest id of the recent ring (`from_recent`) or the kept
    /// set, and the trace itself once no queue holds it.
    fn evict_oldest(&mut self, from_recent: bool) {
        let (queue, count) = if from_recent {
            (&mut self.recent, &mut self.recent_evicted)
        } else {
            (&mut self.kept, &mut self.kept_evicted)
        };
        let Some(id) = queue.pop_front() else { return };
        *count += 1;
        if let Some(held) = self.traces.get_mut(&id) {
            if from_recent {
                held.recent = false;
            } else {
                held.kept = false;
            }
            if !held.recent && !held.kept {
                self.traces.remove(&id);
                self.evicted += 1;
            }
        }
    }
}

/// The traces a [`SpanStore`] retains, read under one lock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Retained {
    /// The recent ring's traces, oldest first.
    pub recent: Vec<(u128, Vec<SpanRecord>)>,
    /// The kept set's traces, oldest first.
    pub kept: Vec<(u128, Vec<SpanRecord>)>,
    /// Trace ids pushed out of the recent ring so far.
    pub recent_evicted: u64,
    /// Trace ids pushed out of the kept set so far.
    pub kept_evicted: u64,
}

/// Bounded, thread-safe store of span trees keyed by trace id.
pub struct SpanStore {
    inner: Mutex<Inner>,
    capacity: usize,
    kept_capacity: usize,
}

/// Local poisoned-lock recovery: span recording must keep working after an
/// unrelated panic, and the data is append-mostly so a poisoned snapshot is
/// still internally consistent.
fn lock_recover(mutex: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl SpanStore {
    /// A store whose recent ring holds at most `capacity` traces and whose
    /// kept set holds at most `kept_capacity` more. A trace with room in
    /// neither is dropped (and counted as evicted).
    pub fn new(capacity: usize, kept_capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            capacity,
            kept_capacity,
        }
    }

    /// Records one span: appended to its trace when held, otherwise the
    /// start of a new trace in the recent ring.
    pub fn record(&self, span: SpanRecord) {
        self.record_trace(span.trace_id, vec![span], false);
    }

    /// Records `spans` of trace `trace_id` under one lock: appended to the
    /// trace when held, otherwise filed as a new trace in the recent ring.
    /// With `keep` the trace also enters the kept set, so later traces in
    /// the recent ring cannot evict it. Full queues evict their oldest id.
    pub fn record_trace(&self, trace_id: u128, spans: Vec<SpanRecord>, keep: bool) {
        let mut inner = lock_recover(&self.inner);
        let (held, kept) = inner
            .traces
            .get(&trace_id)
            .map_or((false, false), |h| (true, h.kept));
        let to_recent = !held && self.capacity > 0;
        let to_kept = keep && !kept && self.kept_capacity > 0;
        if !held && !to_recent && !to_kept {
            inner.evicted += 1;
            return;
        }
        if to_recent {
            while inner.recent.len() >= self.capacity {
                inner.evict_oldest(true);
            }
            inner.recent.push_back(trace_id);
        }
        if to_kept {
            while inner.kept.len() >= self.kept_capacity {
                inner.evict_oldest(false);
            }
            inner.kept.push_back(trace_id);
        }
        match inner.traces.entry(trace_id) {
            Entry::Occupied(held) => {
                let held = held.into_mut();
                held.kept |= to_kept;
                held.spans.extend(spans);
            }
            Entry::Vacant(slot) => {
                slot.insert(Held {
                    spans,
                    recent: to_recent,
                    kept: to_kept,
                });
            }
        }
    }

    /// All spans recorded for `trace_id`, in recording order.
    pub fn get(&self, trace_id: u128) -> Option<Vec<SpanRecord>> {
        lock_recover(&self.inner)
            .traces
            .get(&trace_id)
            .map(|h| h.spans.clone())
    }

    /// The recent ring and the kept set with the spans of each trace that
    /// `select` accepts, read under one lock so every listed id is held at
    /// that instant. Only selected traces are copied while the lock is
    /// held.
    pub fn retained(&self, select: impl Fn(&[SpanRecord]) -> bool) -> Retained {
        let inner = lock_recover(&self.inner);
        let list = |ids: &VecDeque<u128>| {
            ids.iter()
                .filter_map(|id| {
                    let held = inner.traces.get(id)?;
                    select(&held.spans).then(|| (*id, held.spans.clone()))
                })
                .collect()
        };
        Retained {
            recent: list(&inner.recent),
            kept: list(&inner.kept),
            recent_evicted: inner.recent_evicted,
            kept_evicted: inner.kept_evicted,
        }
    }

    /// Number of distinct traces currently held (at most `capacity +
    /// kept_capacity`).
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).traces.len()
    }

    /// Whether no traces are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whole traces that left the store (or were dropped for want of
    /// room) so far.
    pub fn evicted(&self) -> u64 {
        lock_recover(&self.inner).evicted
    }
}

impl std::fmt::Debug for SpanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanStore")
            .field("capacity", &self.capacity)
            .field("kept_capacity", &self.kept_capacity)
            .field("len", &self.len())
            .field("evicted", &self.evicted())
            .finish()
    }
}

/// Renders a trace id as the 32-digit lowercase hex W3C form.
pub fn format_trace_id(id: u128) -> String {
    format!("{id:032x}")
}

/// Parses a 32-digit hex trace id (the W3C `trace-id` field).
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Tolerance when comparing span boundaries: recorded times are f64
/// seconds derived from integer nanoseconds, so equal instants compare
/// equal, but allow for one ulp of drift from unit conversion.
const NEST_EPS: f64 = 1e-9;

/// Checks that `spans` form a well-formed tree for one trace and returns a
/// human-readable description of every violation found (empty = valid).
///
/// Checked invariants:
/// - every span's `end_s >= start_s`;
/// - span ids are unique within the trace;
/// - every `parent_id` refers to a span in the list;
/// - every child's interval nests within its parent's interval;
/// - parent links are acyclic (a root is reachable from every span).
pub fn tree_violations(spans: &[SpanRecord]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::new();
    for span in spans {
        if span.end_s < span.start_s {
            violations.push(format!(
                "span {} `{}` ends before it starts ({} < {})",
                span.span_id, span.name, span.end_s, span.start_s
            ));
        }
        if by_id.insert(span.span_id, span).is_some() {
            violations.push(format!("duplicate span id {}", span.span_id));
        }
    }
    for span in spans {
        let Some(parent_id) = span.parent_id else {
            continue;
        };
        let Some(parent) = by_id.get(&parent_id) else {
            violations.push(format!(
                "span {} `{}` references missing parent {}",
                span.span_id, span.name, parent_id
            ));
            continue;
        };
        if span.start_s + NEST_EPS < parent.start_s || span.end_s > parent.end_s + NEST_EPS {
            violations.push(format!(
                "span {} `{}` [{}, {}] escapes parent {} `{}` [{}, {}]",
                span.span_id,
                span.name,
                span.start_s,
                span.end_s,
                parent.span_id,
                parent.name,
                parent.start_s,
                parent.end_s
            ));
        }
    }
    // Cycle check: walk each span's parent chain; a well-formed chain
    // terminates at a root within len(spans) hops.
    for span in spans {
        let mut hops = 0usize;
        let mut cursor = span;
        while let Some(parent_id) = cursor.parent_id {
            let Some(parent) = by_id.get(&parent_id) else {
                break; // already reported as a missing parent
            };
            cursor = parent;
            hops += 1;
            if hops > spans.len() {
                violations.push(format!(
                    "span {} `{}` sits on a parent cycle",
                    span.span_id, span.name
                ));
                break;
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u128, id: u64, parent: Option<u64>, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name: format!("s{id}"),
            start_s: start,
            end_s: end,
            links: Vec::new(),
        }
    }

    #[test]
    fn store_keeps_whole_traces_and_evicts_oldest() {
        let store = SpanStore::new(2, 0);
        store.record(span(1, 10, None, 0.0, 1.0));
        store.record(span(1, 11, Some(10), 0.2, 0.8));
        store.record(span(2, 20, None, 0.0, 1.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted(), 0);

        store.record(span(3, 30, None, 0.0, 1.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.evicted(), 1);
        assert!(store.get(1).is_none(), "oldest trace evicted whole");
        assert_eq!(store.get(2).expect("trace 2 kept").len(), 1);
        assert_eq!(store.get(3).expect("trace 3 kept").len(), 1);

        // Appending to a *held* trace never evicts.
        store.record(span(2, 21, Some(20), 0.1, 0.9));
        assert_eq!(store.evicted(), 1);
        assert_eq!(store.get(2).expect("trace 2 kept").len(), 2);
    }

    #[test]
    fn kept_traces_outlive_a_flood_of_recent_ones() {
        let ids =
            |list: &[(u128, Vec<SpanRecord>)]| list.iter().map(|(id, _)| *id).collect::<Vec<_>>();
        let store = SpanStore::new(2, 1);
        store.record_trace(1, vec![span(1, 10, None, 0.0, 1.0)], true);
        for trace in 2..10 {
            store.record(span(
                trace,
                u64::try_from(trace).unwrap() * 10,
                None,
                0.0,
                1.0,
            ));
        }
        assert!(store.get(1).is_some(), "the kept trace survives the flood");
        assert_eq!(store.len(), 3, "two recent + one kept");
        let retained = store.retained(|_| true);
        assert_eq!(ids(&retained.recent), vec![8, 9]);
        assert_eq!(ids(&retained.kept), vec![1]);
        assert_eq!(retained.recent_evicted, 7, "ids 1..=7 left the recent ring");
        assert_eq!(
            store.evicted(),
            6,
            "trace 1 left the ring but is still held"
        );

        // A newer kept trace displaces the older one, which is then gone;
        // it also enters the recent ring, pushing trace 8 out.
        store.record_trace(20, vec![span(20, 200, None, 0.0, 1.0)], true);
        assert!(store.get(1).is_none() && store.get(8).is_none());
        assert_eq!(store.retained(|_| true).kept_evicted, 1);
        assert_eq!(store.len(), 2);

        // Keeping a trace already in the recent ring appends its spans;
        // trace 20 leaves the kept set but stays in the recent ring.
        store.record_trace(9, vec![span(9, 91, Some(90), 0.1, 0.9)], true);
        assert_eq!(store.get(9).expect("held").len(), 2);
        let retained = store.retained(|_| true);
        assert_eq!(ids(&retained.kept), vec![9]);
        assert_eq!(ids(&retained.recent), vec![9, 20]);
        // Only the traces the predicate selects are listed.
        let retained = store.retained(|spans| spans.len() == 2);
        assert_eq!(ids(&retained.kept), vec![9]);
        assert_eq!(ids(&retained.recent), vec![9]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let store = SpanStore::new(0, 0);
        store.record(span(1, 1, None, 0.0, 1.0));
        store.record_trace(2, vec![span(2, 2, None, 0.0, 1.0)], true);
        assert!(store.is_empty());
        assert_eq!(store.evicted(), 2);
        assert!(store.get(1).is_none());
    }

    #[test]
    fn trace_id_hex_round_trips() {
        let id = 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10u128;
        let hex = format_trace_id(id);
        assert_eq!(hex, "0102030405060708090a0b0c0d0e0f10");
        assert_eq!(parse_trace_id(&hex), Some(id));
        assert_eq!(parse_trace_id("0102"), None, "short ids rejected");
        assert_eq!(
            parse_trace_id("zz02030405060708090a0b0c0d0e0f10"),
            None,
            "non-hex rejected"
        );
    }

    #[test]
    fn well_formed_tree_has_no_violations() {
        let spans = vec![
            span(1, 1, None, 0.0, 10.0),
            span(1, 2, Some(1), 0.0, 4.0),
            span(1, 3, Some(1), 4.0, 10.0),
            span(1, 4, Some(3), 4.0, 6.0),
        ];
        assert!(tree_violations(&spans).is_empty());
    }

    #[test]
    fn violations_are_detected() {
        let inverted = vec![span(1, 1, None, 5.0, 1.0)];
        assert_eq!(tree_violations(&inverted).len(), 1);

        let dangling = vec![span(1, 1, Some(99), 0.0, 1.0)];
        assert!(tree_violations(&dangling)
            .iter()
            .any(|v| v.contains("missing parent")));

        let escaping = vec![span(1, 1, None, 2.0, 3.0), span(1, 2, Some(1), 0.0, 5.0)];
        assert!(tree_violations(&escaping)
            .iter()
            .any(|v| v.contains("escapes parent")));

        let mut duplicate = vec![span(1, 7, None, 0.0, 1.0)];
        duplicate.push(span(1, 7, None, 0.0, 1.0));
        assert!(tree_violations(&duplicate)
            .iter()
            .any(|v| v.contains("duplicate span id")));

        let cyclic = vec![span(1, 1, Some(2), 0.0, 1.0), span(1, 2, Some(1), 0.0, 1.0)];
        assert!(tree_violations(&cyclic)
            .iter()
            .any(|v| v.contains("parent cycle")));
    }
}
