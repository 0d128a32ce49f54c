//! Per-worker counters and histograms that merge associatively.
//!
//! The engine's worker pool is share-nothing: each worker owns a
//! [`WorkerMetrics`], bumps it locally with no synchronization, and
//! hands it back through its join handle. The collector folds them with
//! [`WorkerMetrics::merge`] — addition is associative and commutative,
//! so the aggregate is independent of worker count and join order, the
//! same property the result cache relies on.
//!
//! Counter and histogram names are `&'static str` by design: the set of
//! metrics is closed and compiled in, which keeps `inc` on the hot path
//! free of allocation.

use std::collections::BTreeMap;

use sim_core::LogHistogram;

/// Metrics owned by one worker thread (or the collector).
#[derive(Debug, Clone, Default)]
pub struct WorkerMetrics {
    counters: BTreeMap<&'static str, u64>,
    log_hists: BTreeMap<&'static str, LogHistogram>,
}

impl WorkerMetrics {
    /// An empty registry.
    pub fn new() -> Self {
        WorkerMetrics::default()
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `delta` to counter `name`, creating it at zero first.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `value` in log-bucketed histogram `name` — the shape for
    /// unbounded wall-clock quantities (latencies, service times) whose
    /// range isn't known up front.
    pub fn observe_log(&mut self, name: &'static str, value: f64) {
        self.log_hists.entry(name).or_default().record(value);
    }

    /// Log-bucketed histogram `name`, if anything was ever observed
    /// under it.
    pub fn log_histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.log_hists.get(name)
    }

    /// Folds another worker's metrics into this one.
    pub fn merge_from(&mut self, other: &WorkerMetrics) {
        for (&name, &v) in &other.counters {
            self.add(name, v);
        }
        for (&name, h) in &other.log_hists {
            self.log_hists.entry(name).or_default().merge(h);
        }
    }

    /// Merges a collection of per-worker registries into one aggregate.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a WorkerMetrics>) -> WorkerMetrics {
        let mut total = WorkerMetrics::new();
        for part in parts {
            total.merge_from(part);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = WorkerMetrics::new();
        m.inc("jobs_executed");
        m.add("jobs_executed", 4);
        assert_eq!(m.counter("jobs_executed"), 5);
        assert_eq!(m.counter("never_touched"), 0);
    }

    #[test]
    fn counter_merge_across_workers_is_sum() {
        let mut a = WorkerMetrics::new();
        a.add("jobs_executed", 3);
        a.add("retries", 1);
        let mut b = WorkerMetrics::new();
        b.add("jobs_executed", 7);
        let total = WorkerMetrics::merge([&a, &b]);
        assert_eq!(total.counter("jobs_executed"), 10);
        assert_eq!(total.counter("retries"), 1);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let mut a = WorkerMetrics::new();
        a.add("x", 2);
        a.observe_log("u", 10.0);
        let mut b = WorkerMetrics::new();
        b.add("x", 5);
        b.observe_log("u", 90.0);
        let ab = WorkerMetrics::merge([&a, &b]);
        let ba = WorkerMetrics::merge([&b, &a]);
        assert_eq!(ab.counter("x"), ba.counter("x"));
        assert_eq!(ab.log_histogram("u"), ba.log_histogram("u"));
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let total = WorkerMetrics::merge(std::iter::empty());
        assert_eq!(total.counter("anything"), 0);
        assert!(total.log_histogram("anything").is_none());
    }

    #[test]
    fn log_histograms_record_and_merge() {
        let mut a = WorkerMetrics::new();
        a.observe_log("job_latency_us", 100.0);
        a.observe_log("job_latency_us", 200.0);
        let mut b = WorkerMetrics::new();
        b.observe_log("job_latency_us", 1e6);
        let total = WorkerMetrics::merge([&a, &b]);
        let h = total.log_histogram("job_latency_us").expect("merged");
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), Some(1e6));
        assert_eq!(h.min(), Some(100.0));
    }
}
