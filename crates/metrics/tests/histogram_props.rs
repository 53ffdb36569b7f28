//! Property tests pinning the fidelity contract of the streaming
//! histogram against the exact-sample [`LatencyRecorder`]:
//!
//! - every percentile answer errs **high** and by at most the documented
//!   relative bound `2^(1/B) − 1` (both sides use nearest-rank, so they
//!   pick the same underlying sample);
//! - a [`StreamingHistogram::summary`] has the exact count, mean, min and
//!   max, and percentiles within that bound;
//! - sharded histograms merge associatively, so per-thread shards can be
//!   folded in any grouping;
//! - concurrent recording from many threads loses no samples (the
//!   lock-free claim, pinned at the instrument level).

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use vlite_metrics::obs::{Counter, StreamingHistogram};
use vlite_metrics::LatencyRecorder;

/// Absolute slack for float round-off on top of the documented relative
/// bound (bucket boundaries are computed with `powf`).
const SLACK: f64 = 1e-12;

fn build(samples: &[f64]) -> (StreamingHistogram, LatencyRecorder) {
    let hist = StreamingHistogram::new();
    let mut exact = LatencyRecorder::new();
    for &s in samples {
        hist.record(s);
        exact.record(s);
    }
    (hist, exact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_track_the_exact_recorder_within_the_bucket_bound(
        samples in prop::collection::vec(0.000_001f64..10.0, 1..200),
    ) {
        let (hist, mut exact) = build(&samples);
        // Summarized before any percentile query sorts the samples, so the
        // exact mean sums in recording order, as the histogram does.
        let truth_summary = exact.summary();
        let err = StreamingHistogram::relative_error_bound();
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let truth = exact.percentile(q);
            let answer = hist.percentile(q);
            prop_assert!(
                answer >= truth * (1.0 - SLACK),
                "p{q}: streaming {answer} below exact {truth}"
            );
            prop_assert!(
                answer <= truth * (1.0 + err) * (1.0 + SLACK),
                "p{q}: streaming {answer} exceeds exact {truth} by more \
                 than the {err:.4} bucket bound"
            );
        }
        // The summary's count, mean, min and max are exact; its
        // percentiles are the bounded answers checked above.
        let (got, truth) = (hist.summary(), truth_summary);
        prop_assert_eq!(
            (got.count, got.mean, got.min, got.max),
            (truth.count, truth.mean, truth.min, truth.max)
        );
        prop_assert_eq!(
            [got.p50, got.p90, got.p95, got.p99],
            [0.5, 0.9, 0.95, 0.99].map(|q| hist.percentile(q))
        );
    }

    #[test]
    fn count_and_sum_match_the_exact_recorder(
        samples in prop::collection::vec(0.000_001f64..10.0, 1..200),
    ) {
        let (hist, exact) = build(&samples);
        prop_assert_eq!(hist.count(), exact.len() as u64);
        let truth: f64 = samples.iter().sum();
        prop_assert!((hist.sum_seconds() - truth).abs() <= samples.len() as f64 * 1e-9);
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0.000_001f64..10.0, 1..60),
        b in prop::collection::vec(0.000_001f64..10.0, 1..60),
        c in prop::collection::vec(0.000_001f64..10.0, 1..60),
    ) {
        let fold = |groups: &[&[f64]]| {
            let acc = StreamingHistogram::new();
            for group in groups {
                let shard = StreamingHistogram::new();
                for &s in *group {
                    shard.record(s);
                }
                acc.merge_from(&shard);
            }
            acc
        };
        // (a ⊕ b) ⊕ c
        let left = fold(&[&a, &b]);
        let c_shard = fold(&[&c]);
        left.merge_from(&c_shard);
        // a ⊕ (b ⊕ c)
        let right_tail = fold(&[&b, &c]);
        let right = fold(&[&a]);
        right.merge_from(&right_tail);

        prop_assert_eq!(left.count(), right.count());
        prop_assert!((left.sum_seconds() - right.sum_seconds()).abs() < 1e-9);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let (l, r) = (left.percentile(q), right.percentile(q));
            prop_assert!(
                (l - r).abs() <= SLACK * l.abs().max(1.0),
                "p{q} differs across merge orders: {l} vs {r}"
            );
        }
    }
}

#[test]
fn concurrent_recording_loses_no_samples() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let hist = Arc::new(StreamingHistogram::new());
    let counter = Arc::new(Counter::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (hist, counter) = (Arc::clone(&hist), Arc::clone(&counter));
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    hist.record((t as f64 + 1.0) * 1e-4 + i as f64 * 1e-9);
                    counter.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(hist.count(), expected);
    assert_eq!(counter.get(), expected);
    let rows = hist.cumulative_buckets();
    assert_eq!(rows.last().unwrap().1, expected);
}
