//! Competitive-model price estimation (§4.2).
//!
//! "GridBank's transaction history can assist in deciding how much a
//! computational service is worth. Such transaction history is
//! confidential and cannot be disclosed as is. Therefore GridBank would
//! receive a description of the resource, process the information in its
//! database regarding prices paid for resources of similar type, and then
//! produce an estimate. The simplest approach to compare resources is to
//! consider hardware parameters such as processor speed, number of
//! processors, amount of main memory and secondary storage, network
//! bandwidth."
//!
//! [`PriceEstimator`] keeps (description, realized unit price)
//! observations — fed by the bank as cheques/chains are redeemed — and
//! answers queries with a similarity-weighted average. Only the estimate
//! leaves the bank; raw history stays confidential.

use std::sync::Arc;

use crate::sync::RwLock;

use gridbank_rur::Credits;

use crate::error::BankError;

/// Hardware description of a resource — §4.2's comparison attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceDescription {
    /// Per-core speed rating.
    pub cpu_speed: u32,
    /// Core count.
    pub cpu_count: u32,
    /// Main memory, MB.
    pub memory_mb: u64,
    /// Secondary storage, MB.
    pub storage_mb: u64,
    /// Network bandwidth, Mbit/s.
    pub bandwidth_mbps: u32,
}

/// One realized price point.
#[derive(Clone, Copy, Debug)]
struct Observation {
    desc: ResourceDescription,
    /// Realized price per CPU-hour.
    unit_price: Credits,
}

/// Similarity in fixed-point parts-per-1024: 1024 = identical.
///
/// The per-attribute min/max ratios are *multiplied* (not averaged) so a
/// resource must be close on every attribute to score high — a machine
/// that matches on storage and bandwidth but is 50× faster contributes
/// almost nothing to an estimate.
fn similarity(a: &ResourceDescription, b: &ResourceDescription) -> u64 {
    fn ratio(x: u64, y: u64) -> u64 {
        if x == 0 && y == 0 {
            return 1024;
        }
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        if hi == 0 {
            return 1024;
        }
        lo.saturating_mul(1024).checked_div(hi).unwrap_or(1024)
    }
    let parts = [
        ratio(a.cpu_speed as u64, b.cpu_speed as u64),
        ratio(a.cpu_count as u64, b.cpu_count as u64),
        ratio(a.memory_mb, b.memory_mb),
        ratio(a.storage_mb, b.storage_mb),
        ratio(a.bandwidth_mbps as u64, b.bandwidth_mbps as u64),
    ];
    parts.iter().fold(1024u64, |acc, r| acc.saturating_mul(*r) / 1024)
}

/// The estimator.
#[derive(Clone, Default)]
pub struct PriceEstimator {
    observations: Arc<RwLock<Vec<Observation>>>,
}

impl PriceEstimator {
    /// An empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a realized price for a resource of the given description.
    pub fn observe(&self, desc: ResourceDescription, unit_price: Credits) {
        self.observations.write().push(Observation { desc, unit_price });
    }

    /// Number of price points held.
    pub fn observation_count(&self) -> usize {
        self.observations.read().len()
    }

    /// Produces a similarity-weighted market estimate (G$ per CPU-hour)
    /// for a resource, considering only observations with similarity above
    /// `min_similarity_ppk` (parts per 1024; 0 accepts everything).
    pub fn estimate(
        &self,
        desc: &ResourceDescription,
        min_similarity_ppk: u64,
    ) -> Result<Credits, BankError> {
        let obs = self.observations.read();
        let comparable = obs.iter().filter_map(|o| {
            let w = similarity(desc, &o.desc);
            (w >= min_similarity_ppk).then_some((o.unit_price, w))
        });
        Credits::weighted_mean(comparable)
            .ok_or_else(|| BankError::Protocol("no comparable transaction history".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(speed: u32, cores: u32, mem: u64) -> ResourceDescription {
        ResourceDescription {
            cpu_speed: speed,
            cpu_count: cores,
            memory_mb: mem,
            storage_mb: 100_000,
            bandwidth_mbps: 1000,
        }
    }

    #[test]
    fn similarity_properties() {
        let a = desc(1000, 8, 16_384);
        let b = desc(2000, 8, 16_384);
        assert_eq!(similarity(&a, &a), 1024);
        assert_eq!(similarity(&a, &b), similarity(&b, &a));
        // Doubling one of five attributes halves the product similarity.
        assert_eq!(similarity(&a, &b), 512);
        // A very different machine scores near zero despite matching
        // storage and bandwidth exactly.
        let c = desc(10, 1, 128);
        assert!(similarity(&a, &c) < 10);
    }

    #[test]
    fn estimate_weights_similar_resources_higher() {
        let e = PriceEstimator::new();
        // Cluster of machines like `target` trading at ~2 G$/h.
        let target = desc(1000, 8, 16_384);
        e.observe(desc(1000, 8, 16_384), Credits::from_gd(2));
        e.observe(desc(1100, 8, 16_384), Credits::from_micro(2_100_000));
        // A supercomputer trading at 50 G$/h — dissimilar, low weight.
        e.observe(desc(50_000, 1024, 4_000_000), Credits::from_gd(50));

        let est = e.estimate(&target, 0).unwrap();
        // Weighted estimate stays near 2, far from the naive mean (~18).
        assert!(est < Credits::from_gd(6), "estimate {est}");
        assert!(est > Credits::from_gd(1), "estimate {est}");

        // With a similarity threshold, the outlier is excluded entirely.
        let strict = e.estimate(&target, 800).unwrap();
        assert!(strict < Credits::from_micro(2_200_000), "strict {strict}");
        assert!(strict >= Credits::from_gd(2), "strict {strict}");
    }

    #[test]
    fn estimate_without_history_errs() {
        let e = PriceEstimator::new();
        assert!(e.estimate(&desc(1, 1, 1), 0).is_err());
        e.observe(desc(1000, 8, 16_384), Credits::from_gd(2));
        // Threshold excludes everything.
        assert!(e.estimate(&desc(1, 1, 1), 1000).is_err());
    }

    #[test]
    fn identical_history_estimates_exactly() {
        let e = PriceEstimator::new();
        for _ in 0..5 {
            e.observe(desc(500, 4, 8_192), Credits::from_gd(3));
        }
        assert_eq!(e.observation_count(), 5);
        assert_eq!(e.estimate(&desc(500, 4, 8_192), 0).unwrap(), Credits::from_gd(3));
    }
}
