//! Fixture: the `bounded-recorders` rule must fire on an exact-sample
//! recorder in the serve path and never on quoted/commented copies.
//!
//! Scanned by `tests/analyzer.rs` under a pretend `crates/serve/src/`
//! relpath; the workspace scanner skips this directory entirely.

pub fn quoted_recorders_do_not_fire() -> usize {
    let a = "vlite_metrics::LatencyRecorder::new() in a plain string";
    // comment copy: SloTracker::new(0.05) must not fire
    /* nor in a block comment: LatencyRecorder::with_capacity(8) */
    a.len()
}

pub fn per_request_samples_grow_with_uptime(samples: &[f64]) -> f64 {
    let mut recorder = vlite_metrics::LatencyRecorder::new();
    for &s in samples {
        recorder.record(s);
    }
    recorder.percentile(0.99)
}
