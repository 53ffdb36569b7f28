//! Digest of a latency sample set.

use serde::{Deserialize, Serialize};

use crate::fmt_seconds;

/// Compact digest of a sample distribution, all values in seconds.
///
/// Produced by [`LatencyRecorder::summary`](crate::LatencyRecorder::summary)
/// (exact) and [`StreamingHistogram::summary`](crate::obs::StreamingHistogram::summary)
/// (exact count/mean/min/max, bounded percentiles).
///
/// # Examples
///
/// ```
/// let mut rec: vlite_metrics::LatencyRecorder = vec![0.1, 0.2].into_iter().collect();
/// let summary = rec.summary();
/// assert_eq!(summary.count, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p90={} p95={} p99={} max={}",
            self.count,
            fmt_seconds(self.mean),
            fmt_seconds(self.p50),
            fmt_seconds(self.p90),
            fmt_seconds(self.p95),
            fmt_seconds(self.p99),
            fmt_seconds(self.max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_contains_count() {
        let s = Summary {
            count: 3,
            ..Default::default()
        };
        let rendered = format!("{s}");
        assert!(rendered.contains("n=3"));
    }
}
