//! Mergeable population summaries: a keyed bundle of [`LogHistogram`]
//! sketches.
//!
//! A fleet run streams millions of per-device simulation results
//! through a pool of workers; no worker (and no aggregator) may hold
//! per-device state. Each worker instead folds every result into a
//! local [`FleetSummary`] — one log-histogram sketch per metric, plus
//! device/failure tallies — and the shards are merged when the workers
//! join. Because [`LogHistogram::merge`] is associative and commutative
//! bit-for-bit, the merged summary is byte-identical
//! ([`encode`](FleetSummary::encode)) to single-threaded aggregation
//! regardless of worker count or join order, which is what lets a run
//! at `--jobs 8` be diffed byte-for-byte against `--jobs 1`.
//!
//! Memory is O(metrics × occupied buckets), independent of population
//! size: a million devices and a thousand devices cost the same few
//! kilobytes.

use std::collections::BTreeMap;

use crate::LogHistogram;

/// A bundle of per-metric sketches over a device population.
///
/// Metric names are free-form keys (kept in a `BTreeMap` so iteration
/// and encoding order are canonical). Use [`record`](Self::record) per
/// sample, [`bump_devices`](Self::bump_devices)/
/// [`bump_failed`](Self::bump_failed) per device, and
/// [`merge`](Self::merge) to fold worker shards.
///
/// # Examples
///
/// ```
/// use sim_core::FleetSummary;
///
/// let mut shard_a = FleetSummary::new();
/// shard_a.record("energy_j", 12.5);
/// shard_a.bump_devices();
/// let mut shard_b = FleetSummary::new();
/// shard_b.record("energy_j", 14.0);
/// shard_b.bump_devices();
///
/// let mut merged = FleetSummary::new();
/// merged.merge(&shard_a);
/// merged.merge(&shard_b);
/// assert_eq!(merged.devices(), 2);
/// assert_eq!(merged.metric("energy_j").unwrap().count(), 2);
/// let round = FleetSummary::decode(&merged.encode()).unwrap();
/// assert_eq!(round, merged);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSummary {
    metrics: BTreeMap<String, LogHistogram>,
    devices: u64,
    failed: u64,
}

impl FleetSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        FleetSummary::default()
    }

    /// Records one sample under `metric`, creating the sketch on first
    /// use.
    pub fn record(&mut self, metric: &str, value: f64) {
        if let Some(h) = self.metrics.get_mut(metric) {
            h.record(value);
        } else {
            let mut h = LogHistogram::new();
            h.record(value);
            self.metrics.insert(metric.to_string(), h);
        }
    }

    /// Counts one simulated device.
    pub fn bump_devices(&mut self) {
        self.devices += 1;
    }

    /// Counts one device whose simulation failed.
    pub fn bump_failed(&mut self) {
        self.failed += 1;
    }

    /// Devices aggregated into this summary.
    pub fn devices(&self) -> u64 {
        self.devices
    }

    /// Devices that failed to simulate.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The sketch for `metric`, if any sample was recorded under it.
    pub fn metric(&self, metric: &str) -> Option<&LogHistogram> {
        self.metrics.get(metric)
    }

    /// Metric names in canonical (sorted) order.
    pub fn metric_names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(|s| s.as_str())
    }

    /// Folds another summary into this one. Inherits the bit-for-bit
    /// associativity/commutativity of [`LogHistogram::merge`], so shard
    /// merge order never changes the encoded bytes.
    pub fn merge(&mut self, other: &FleetSummary) {
        for (name, hist) in &other.metrics {
            if let Some(mine) = self.metrics.get_mut(name) {
                mine.merge(hist);
            } else {
                self.metrics.insert(name.clone(), hist.clone());
            }
        }
        self.devices += other.devices;
        self.failed += other.failed;
    }

    /// Encodes the summary as stable text: a header line with the
    /// tallies, then one `name<TAB>sketch` line per metric in sorted
    /// order. Two summaries are equal iff their encodings are
    /// byte-identical.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "fleet-summary v1 devices={} failed={}\n",
            self.devices, self.failed
        );
        for (name, hist) in &self.metrics {
            out.push_str(name);
            out.push('\t');
            out.push_str(&hist.encode());
            out.push('\n');
        }
        out
    }

    /// Decodes [`encode`](Self::encode) output; `None` on malformed
    /// input. Metric names containing tabs or newlines are unencodable
    /// and therefore unreachable here.
    pub fn decode(s: &str) -> Option<Self> {
        let mut lines = s.lines();
        let header = lines.next()?;
        let rest = header.strip_prefix("fleet-summary v1 devices=")?;
        let (devices, failed) = rest.split_once(" failed=")?;
        let mut out = FleetSummary {
            metrics: BTreeMap::new(),
            devices: devices.parse().ok()?,
            failed: failed.parse().ok()?,
        };
        for line in lines {
            let (name, body) = line.split_once('\t')?;
            let prev = out
                .metrics
                .insert(name.to_string(), LogHistogram::decode(body)?);
            if prev.is_some() {
                return None;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetSummary {
        let mut s = FleetSummary::new();
        for (i, v) in [3.0, 0.0, 250.0, 1e-6].iter().enumerate() {
            s.record("energy_j", *v);
            s.record("misses", i as f64);
        }
        s.bump_devices();
        s.bump_devices();
        s.bump_failed();
        s
    }

    #[test]
    fn records_and_queries_per_metric() {
        let s = sample();
        assert_eq!(s.devices(), 2);
        assert_eq!(s.failed(), 1);
        assert_eq!(s.metric("energy_j").unwrap().count(), 4);
        assert_eq!(s.metric("misses").unwrap().max(), Some(3.0));
        assert!(s.metric("absent").is_none());
        let names: Vec<&str> = s.metric_names().collect();
        assert_eq!(names, vec!["energy_j", "misses"]);
    }

    #[test]
    fn merge_is_order_independent_bytes() {
        let a = sample();
        let mut b = FleetSummary::new();
        b.record("energy_j", 42.0);
        b.record("tail_us", 7.0);
        b.bump_devices();

        let mut ab = FleetSummary::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = FleetSummary::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.encode(), ba.encode());
        assert_eq!(ab.devices(), 3);
        // Disjoint metrics survive the merge.
        assert_eq!(ab.metric("tail_us").unwrap().count(), 1);
    }

    #[test]
    fn sharded_fold_matches_single_pass() {
        let values: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37) % 50.0).collect();
        let mut whole = FleetSummary::new();
        let mut shards = vec![FleetSummary::new(); 4];
        for (i, &v) in values.iter().enumerate() {
            whole.record("m", v);
            whole.bump_devices();
            shards[i % 4].record("m", v);
            shards[i % 4].bump_devices();
        }
        let mut merged = FleetSummary::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.encode(), whole.encode());
    }

    #[test]
    fn codec_round_trips_and_rejects_garbage() {
        let s = sample();
        assert_eq!(FleetSummary::decode(&s.encode()), Some(s));
        let empty = FleetSummary::new();
        assert_eq!(FleetSummary::decode(&empty.encode()), Some(empty));
        assert_eq!(FleetSummary::decode(""), None);
        assert_eq!(
            FleetSummary::decode("fleet-summary v2 devices=0 failed=0\n"),
            None
        );
        assert_eq!(
            FleetSummary::decode("fleet-summary v1 devices=1 failed=0\nbroken line\n"),
            None
        );
    }
}
