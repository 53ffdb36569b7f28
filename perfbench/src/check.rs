//! Output checks: the structural check every response must pass, and
//! recall@10 against exact search on a fixed query sample.

use std::collections::HashSet;

use vlite_ann::{FlatIndex, Metric, VecSet};
use vlite_serve::{SearchResponse, TenantId};
use vlite_workload::SyntheticCorpus;

/// Results per query the benchmark's deployments serve.
pub const TOP_K: usize = 10;

/// Checks one response: exactly `TOP_K` neighbours with ids inside the
/// corpus, no duplicate id, distances finite and sorted ascending, and —
/// where the caller knows them — the request id and tenant it was sent as.
pub fn response(
    r: &SearchResponse,
    expected_id: Option<u64>,
    tenant: TenantId,
    n_vectors: usize,
) -> Result<(), String> {
    if let Some(id) = expected_id {
        if r.id != id {
            return Err(format!("response id {} answers request {id}", r.id));
        }
    }
    if r.tenant != tenant {
        return Err(format!("request {} came back as {}", r.id, r.tenant));
    }
    if r.neighbors.len() != TOP_K {
        return Err(format!(
            "request {} got {} neighbours, expected {TOP_K}",
            r.id,
            r.neighbors.len()
        ));
    }
    let mut seen = HashSet::with_capacity(TOP_K);
    for n in &r.neighbors {
        if !n.distance.is_finite() || n.id >= n_vectors as u64 || !seen.insert(n.id) {
            return Err(format!(
                "request {} has a bad neighbour {} at {}",
                r.id, n.id, n.distance
            ));
        }
    }
    if r.neighbors
        .windows(2)
        .any(|p| p[0].distance > p[1].distance)
    {
        return Err(format!("request {} has unsorted distances", r.id));
    }
    Ok(())
}

/// A fixed query sample with its exact top-`TOP_K` ids.
pub struct RecallSample {
    pub queries: VecSet,
    truth: Vec<HashSet<u64>>,
}

/// Queries in the recall sample.
const RECALL_QUERIES: usize = 200;
/// Seed of the recall sample: fixed, so every run scores the same queries.
const RECALL_SEED: u64 = 0x005e_ca11;

impl RecallSample {
    /// Draws the sample from `corpus` and computes its exact neighbours
    /// with a brute-force `FlatIndex` under L2 (the deployments' metric).
    pub fn new(corpus: &SyntheticCorpus) -> Self {
        let queries = corpus.queries(RECALL_QUERIES, RECALL_SEED);
        let flat = FlatIndex::new(corpus.vectors.clone(), Metric::L2);
        let truth = flat
            .search_batch(&queries, TOP_K, 2)
            .into_iter()
            .map(|ns| ns.into_iter().map(|n| n.id).collect())
            .collect();
        Self { queries, truth }
    }

    /// Mean recall@`TOP_K` of `served`, given in sample order.
    pub fn recall(&self, served: &[Vec<u64>]) -> f64 {
        assert_eq!(served.len(), self.truth.len(), "one result per query");
        let hits: usize = served
            .iter()
            .zip(&self.truth)
            .map(|(ids, truth)| ids.iter().filter(|id| truth.contains(id)).count())
            .sum();
        hits as f64 / (TOP_K * self.truth.len()) as f64
    }
}
