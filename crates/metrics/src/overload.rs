//! Overload accounting: goodput, shed counts, and latency percentiles for
//! the admission-control experiments.
//!
//! The simulator and node stats already count *mechanisms* (capacity drops,
//! `Busy` nacks, deduplicated retries); this ledger accounts for *outcomes*
//! — of the queries a workload offered, how many came back answered, how
//! fast, and how much backpressure each one absorbed. One ledger per measurement
//! window (e.g. calm vs storm) makes goodput-vs-offered-load tables a fold.

use crate::stats::{ratio, Summary};

/// Per-window outcome accounting for offered queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverloadLedger {
    /// Queries offered (every recorded query).
    pub offered: u64,
    /// Queries that completed with at least one response.
    pub answered: u64,
    /// Queries that absorbed at least one `Busy` nack.
    pub busy_nacked: u64,
    /// Queries that re-sent at least once (backoff, busy retry, failover).
    pub retried: u64,
    /// Total `Busy` nacks across all recorded queries.
    pub busy_nacks_total: u64,
    /// First-response latencies (ms) of the answered queries.
    latencies: Vec<u64>,
}

impl OverloadLedger {
    /// Records one completed query: whether it was answered, its
    /// first-response latency when it was, and the backpressure it saw.
    pub fn record(
        &mut self,
        answered: bool,
        first_response_latency: Option<u64>,
        busy_nacks: u32,
        retries: u8,
    ) {
        self.offered += 1;
        if answered {
            self.answered += 1;
            if let Some(lat) = first_response_latency {
                self.latencies.push(lat);
            }
        }
        if busy_nacks > 0 {
            self.busy_nacked += 1;
        }
        self.busy_nacks_total += u64::from(busy_nacks);
        if retries > 0 {
            self.retried += 1;
        }
    }

    /// Answered / offered (0.0 when nothing was offered). Under a storm this
    /// is the number the overload layer exists to defend.
    pub fn goodput(&self) -> f64 {
        ratio(self.answered, self.offered)
    }

    /// Float summary of first-response latencies.
    pub fn latency(&self) -> Summary {
        Summary::of_counts(self.latencies.iter().copied())
    }

    /// Nearest-rank percentile of first-response latency in whole ms
    /// (integer arithmetic — safe to embed in a determinism fingerprint).
    pub fn latency_percentile(&self, pct: u32) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let rank = (n - 1) * u64::from(pct.min(100)) / 100;
        sorted[rank as usize]
    }

    /// Folds another window's ledger into this one.
    pub fn merge(&mut self, other: &OverloadLedger) {
        self.offered += other.offered;
        self.answered += other.answered;
        self.busy_nacked += other.busy_nacked;
        self.retried += other.retried;
        self.busy_nacks_total += other.busy_nacks_total;
        self.latencies.extend_from_slice(&other.latencies);
    }

    /// A deterministic one-line digest of the ledger: integers only, so two
    /// runs of the same seed must produce byte-identical lines.
    pub fn fingerprint_line(&self) -> String {
        format!(
            "offered={} answered={} busy_queries={} busy_nacks={} retried={} p50={} p95={} p99={}",
            self.offered,
            self.answered,
            self.busy_nacked,
            self.busy_nacks_total,
            self.retried,
            self.latency_percentile(50),
            self.latency_percentile(95),
            self.latency_percentile(99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OverloadLedger {
        let mut l = OverloadLedger::default();
        l.record(true, Some(10), 0, 0);
        l.record(true, Some(30), 2, 1);
        l.record(false, None, 1, 3);
        l.record(true, Some(20), 0, 0);
        l
    }

    #[test]
    fn counts_and_goodput() {
        let l = sample();
        assert_eq!(l.offered, 4);
        assert_eq!(l.answered, 3);
        assert_eq!(l.busy_nacked, 2);
        assert_eq!(l.busy_nacks_total, 3);
        assert_eq!(l.retried, 2);
        assert_eq!(l.goodput(), 0.75);
    }

    #[test]
    fn latency_percentiles_are_nearest_rank_integers() {
        let l = sample();
        assert_eq!(l.latency_percentile(0), 10);
        assert_eq!(l.latency_percentile(50), 20);
        assert_eq!(l.latency_percentile(100), 30);
        assert_eq!(OverloadLedger::default().latency_percentile(95), 0);
    }

    #[test]
    fn merge_folds_windows() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.offered, 8);
        assert_eq!(a.answered, 6);
        assert_eq!(a.latency().n, 6);
    }

    #[test]
    fn fingerprint_is_stable_per_content() {
        assert_eq!(sample().fingerprint_line(), sample().fingerprint_line());
        let mut other = sample();
        other.record(false, None, 0, 0);
        assert_ne!(sample().fingerprint_line(), other.fingerprint_line());
    }
}
