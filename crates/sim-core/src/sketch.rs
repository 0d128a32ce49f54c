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
//! Memory is O(metrics × occupied bucket span), independent of population
//! size: a million devices and a thousand devices cost the same few
//! kilobytes.
//!
//! # Slots
//!
//! Each metric lives in a *slot*: a name and its sketch, at a fixed
//! index. A hot fold calls [`lay_out`](FleetSummary::lay_out) with a
//! `static` name list once per summary and then records by index with
//! [`record_at`](FleetSummary::record_at) — no string compare and no
//! map probe per sample. The rule that keeps the bytes independent of
//! how slots were made: a slot that never received a sample is not a
//! metric. It is absent from [`encode`](FleetSummary::encode),
//! [`metric_names`](FleetSummary::metric_names),
//! [`metric`](FleetSummary::metric) and `==`, just as a name that was
//! never recorded is; and all four see the metrics in sorted name
//! order, whatever the slot order. A summary that was decoded or
//! merged can be laid out too: `lay_out` moves its existing sketches
//! into the named slots, so every sample is still filed under its
//! name.

use std::borrow::Cow;

use crate::LogHistogram;

/// One metric's sketch.
#[derive(Debug, Clone)]
struct Slot {
    name: Cow<'static, str>,
    hist: LogHistogram,
    /// Set by the first sample; a slot that was only laid out is not a
    /// metric (see the module docs).
    live: bool,
}

impl Slot {
    fn new(name: Cow<'static, str>) -> Self {
        Slot {
            name,
            hist: LogHistogram::new(),
            live: false,
        }
    }
}

/// A bundle of per-metric sketches over a device population.
///
/// Metric names are free-form keys; iteration and encoding order is
/// always sorted by name. Use [`record`](Self::record) per sample (or
/// [`lay_out`](Self::lay_out) then [`record_at`](Self::record_at) on a
/// hot path), [`bump_devices`](Self::bump_devices)/
/// [`bump_failed`](Self::bump_failed) per device, and
/// [`merge`](Self::merge) to fold worker shards.
///
/// # Examples
///
/// ```
/// use sim_core::FleetSummary;
///
/// static METRICS: [&str; 2] = ["energy_j", "battery_pct"];
///
/// let mut shard_a = FleetSummary::new();
/// shard_a.lay_out(&METRICS);
/// shard_a.record_at(0, 12.5);
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
/// // The battery slot never saw a sample, so it is not a metric.
/// assert!(merged.metric("battery_pct").is_none());
/// let round = FleetSummary::decode(&merged.encode()).unwrap();
/// assert_eq!(round, merged);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FleetSummary {
    /// Slots in index order: the last [`lay_out`](Self::lay_out) list
    /// first, then any other names in order of arrival.
    slots: Vec<Slot>,
    /// The list slots `0..len` are laid out as, if any.
    layout: Option<&'static [&'static str]>,
    devices: u64,
    failed: u64,
}

impl FleetSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        FleetSummary::default()
    }

    /// Lays the summary out so that slot `i` holds metric `names[i]`,
    /// for [`record_at`](Self::record_at). Existing sketches move into
    /// their named slots; any other names keep their sketches after
    /// them. Free when `names` is the list of the previous call, which
    /// is why it takes a `static`: the check compares addresses.
    /// `names` must not repeat a name.
    pub fn lay_out(&mut self, names: &'static [&'static str]) {
        if self.layout.is_some_and(|l| std::ptr::eq(l, names)) {
            return;
        }
        let mut rest = std::mem::take(&mut self.slots);
        let mut slots = Vec::with_capacity(names.len() + rest.len());
        for &name in names {
            slots.push(match rest.iter().position(|s| s.name == name) {
                Some(i) => rest.remove(i),
                None => Slot::new(Cow::Borrowed(name)),
            });
        }
        slots.append(&mut rest);
        self.slots = slots;
        self.layout = Some(names);
    }

    /// Records one sample into slot `slot` of the last
    /// [`lay_out`](Self::lay_out).
    ///
    /// # Panics
    ///
    /// Panics if the summary has fewer slots.
    #[inline]
    pub fn record_at(&mut self, slot: usize, value: f64) {
        let slot = &mut self.slots[slot];
        slot.hist.record(value);
        slot.live = true;
    }

    /// Records one sample under `metric`, creating the sketch on first
    /// use.
    pub fn record(&mut self, metric: &str, value: f64) {
        let slot = self.find(metric).unwrap_or_else(|| {
            self.slots.push(Slot::new(Cow::Owned(metric.to_string())));
            self.slots.len() - 1
        });
        self.record_at(slot, value);
    }

    fn find(&self, metric: &str) -> Option<usize> {
        self.slots.iter().position(|s| s.name == metric)
    }

    /// The metrics — slots that received a sample — sorted by name.
    fn metrics(&self) -> Vec<&Slot> {
        let mut live: Vec<&Slot> = self.slots.iter().filter(|s| s.live).collect();
        live.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        live
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
        self.find(metric)
            .map(|i| &self.slots[i])
            .filter(|s| s.live)
            .map(|s| &s.hist)
    }

    /// Metric names in canonical (sorted) order.
    pub fn metric_names(&self) -> impl Iterator<Item = &str> {
        self.metrics().into_iter().map(|s| &*s.name)
    }

    /// Folds another summary into this one. Inherits the bit-for-bit
    /// associativity/commutativity of [`LogHistogram::merge`], so shard
    /// merge order never changes the encoded bytes. Matches slots by
    /// name, so the two sides' layouts need not agree.
    pub fn merge(&mut self, other: &FleetSummary) {
        for from in other.slots.iter().filter(|s| s.live) {
            match self.find(&from.name) {
                Some(i) => {
                    let into = &mut self.slots[i];
                    into.hist.merge(&from.hist);
                    into.live = true;
                }
                None => self.slots.push(from.clone()),
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
        for slot in self.metrics() {
            out.push_str(&slot.name);
            out.push('\t');
            out.push_str(&slot.hist.encode());
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
            devices: devices.parse().ok()?,
            failed: failed.parse().ok()?,
            ..FleetSummary::new()
        };
        for line in lines {
            let (name, body) = line.split_once('\t')?;
            if out.find(name).is_some() {
                return None;
            }
            out.slots.push(Slot {
                name: Cow::Owned(name.to_string()),
                hist: LogHistogram::decode(body)?,
                live: true,
            });
        }
        Some(out)
    }
}

/// Equal iff the encodings are: same tallies and the same metrics,
/// whatever the slot layout.
impl PartialEq for FleetSummary {
    fn eq(&self, other: &Self) -> bool {
        let (mine, theirs) = (self.metrics(), other.metrics());
        self.devices == other.devices
            && self.failed == other.failed
            && mine.len() == theirs.len()
            && mine
                .iter()
                .zip(&theirs)
                .all(|(a, b)| a.name == b.name && a.hist == b.hist)
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

    static LAYOUT: [&str; 3] = ["misses", "energy_j", "battery_pct"];

    #[test]
    fn a_slot_without_samples_is_not_a_metric() {
        let mut slotted = FleetSummary::new();
        slotted.lay_out(&LAYOUT);
        let mut named = FleetSummary::new();
        for v in [3.0, 0.5] {
            slotted.record_at(1, v);
            slotted.record_at(0, v * 2.0);
            named.record("energy_j", v);
            named.record("misses", v * 2.0);
        }
        assert!(slotted.metric("battery_pct").is_none());
        let names: Vec<&str> = slotted.metric_names().collect();
        assert_eq!(names, ["energy_j", "misses"], "sorted, live slots only");
        assert_eq!(slotted.encode(), named.encode());
        assert_eq!(slotted, named);
        // A non-finite sample still makes the slot a metric, with no
        // samples counted — as recording it by name does.
        slotted.record_at(2, f64::NAN);
        named.record("battery_pct", f64::NAN);
        assert_eq!(slotted.metric("battery_pct").unwrap().count(), 0);
        assert_eq!(slotted.encode(), named.encode());
    }

    #[test]
    fn lay_out_files_samples_under_their_names() {
        // A decoded summary has its own slot order and an extra metric;
        // a merged one has another shard's layout. Laying either out
        // and recording by slot must equal recording by name.
        let mut other = FleetSummary::new();
        other.record("tail_us", 9.0);
        other.record("energy_j", 1.5);
        let decoded = FleetSummary::decode(&other.encode()).unwrap();
        let mut merged = FleetSummary::new();
        merged.lay_out(&LAYOUT);
        merged.record_at(2, 40.0);
        merged.merge(&other);
        for base in [decoded, merged] {
            let mut slotted = base.clone();
            let mut named = base.clone();
            slotted.lay_out(&LAYOUT);
            for (slot, name) in LAYOUT.iter().enumerate() {
                slotted.record_at(slot, slot as f64 + 0.25);
                named.record(name, slot as f64 + 0.25);
            }
            // Laying out again is free and changes nothing.
            slotted.lay_out(&LAYOUT);
            slotted.record_at(1, 7.0);
            named.record("energy_j", 7.0);
            assert_eq!(slotted.encode(), named.encode());
            assert_eq!(slotted.metric("tail_us").unwrap().count(), 1);
        }
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
        let line = "m\tn=0;z=0;s=0;min=7ff0000000000000;max=fff0000000000000;b=\n";
        let twice = format!("fleet-summary v1 devices=0 failed=0\n{line}{line}");
        assert_eq!(FleetSummary::decode(&twice), None, "duplicate metric");
    }
}
