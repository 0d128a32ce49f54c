//! Property-based tests for [`sim_core::LogHistogram`]: percentile
//! queries against a naive sorted-vec oracle, monotonicity of the
//! quantile chain p50 ≤ p90 ≤ p99 ≤ max, and the mergeable-sketch
//! algebra fleet aggregation depends on — merge is associative and
//! commutative bit-for-bit, and sharding a stream across workers then
//! merging equals single-pass recording byte-for-byte. A sparse
//! reference model pins the dense bucket storage to the storage it
//! replaced, and the codec's guards against hostile input are checked
//! case by case.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sim_core::LogHistogram;

/// Nearest-rank percentile over the raw samples — the oracle the
/// histogram's bucketed estimate must track.
fn oracle_percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// One bucket spans the ratio 2^(1/16), so a bucket's geometric
/// midpoint is within 2^(1/32) ≈ 1.022 of every sample in it.
const BUCKET_TOL: f64 = 0.03;

proptest! {
    /// Every percentile estimate lands within one bucket's relative
    /// error of the nearest-rank oracle on the raw samples.
    #[test]
    fn percentiles_track_sorted_vec_oracle(
        samples in proptest::collection::vec(1e-6f64..1e12, 1..400),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for &q in &qs {
            let got = h.percentile(q).expect("non-empty");
            let want = oracle_percentile(&sorted, q);
            let rel = (got / want - 1.0).abs();
            prop_assert!(
                rel <= BUCKET_TOL,
                "q={q}: histogram {got} vs oracle {want} (rel err {rel:.4})"
            );
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), Some(sorted[0]));
        prop_assert_eq!(h.max(), Some(*sorted.last().unwrap()));
    }

    /// p50 ≤ p90 ≤ p99 ≤ max for arbitrary sample sets, including
    /// zeros and negatives (which share the zero bucket).
    #[test]
    fn quantile_chain_is_monotone(
        samples in proptest::collection::vec(-10.0f64..1e9, 1..400),
    ) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let p50 = h.percentile(0.50).expect("non-empty");
        let p90 = h.percentile(0.90).expect("non-empty");
        let p99 = h.percentile(0.99).expect("non-empty");
        let max = h.max().expect("non-empty");
        prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        prop_assert!(p99 <= max, "p99 {p99} > max {max}");
    }

    /// Splitting a sample set across workers and merging gives the
    /// same histogram as recording everything in one, wherever the
    /// split falls.
    #[test]
    fn merge_is_split_invariant(
        samples in proptest::collection::vec(1e-3f64..1e9, 2..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((samples.len() as f64 * split_frac) as usize).min(samples.len());
        let mut a = LogHistogram::new();
        for &s in &samples[..split] {
            a.record(s);
        }
        let mut b = LogHistogram::new();
        for &s in &samples[split..] {
            b.record(s);
        }
        a.merge(&b);
        let mut whole = LogHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        // The sum is fixed-point, so even it is exact: the merged
        // histogram is byte-identical to single-pass recording.
        prop_assert_eq!(&a, &whole);
        prop_assert_eq!(a.encode(), whole.encode());
    }

    /// Merge is associative and commutative *bit-for-bit*: any
    /// parenthesization and any operand order of three histograms
    /// encodes to the same bytes. This is what makes per-worker shard
    /// folding deterministic at any `--jobs`.
    #[test]
    fn merge_is_associative_and_commutative(
        xs in proptest::collection::vec(-1.0f64..1e9, 0..60),
        ys in proptest::collection::vec(1e-9f64..1e12, 0..60),
        zs in proptest::collection::vec(0.0f64..1e3, 0..60),
    ) {
        let hist = |vals: &[f64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (hist(&xs), hist(&ys), hist(&zs));

        // ((a ⊕ b) ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // (a ⊕ (b ⊕ c))
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left.encode(), right.encode(), "associativity");

        // (c ⊕ b) ⊕ a — a fully reversed order.
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        prop_assert_eq!(left.encode(), rev.encode(), "commutativity");
    }

    /// Round-robin sharding across k workers, each folding locally,
    /// then merging the shards equals single-pass aggregation
    /// byte-for-byte — the fleet invariant behind identical population
    /// summaries across `--jobs 1/4/8`.
    #[test]
    fn sharded_merge_equals_single_pass(
        samples in proptest::collection::vec(-10.0f64..1e10, 0..300),
        shards in 1usize..9,
    ) {
        let mut parts = vec![LogHistogram::new(); shards];
        let mut whole = LogHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            parts[i % shards].record(s);
            whole.record(s);
        }
        let mut merged = LogHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.encode(), whole.encode());
    }

    /// encode → decode is the identity on reachable states.
    #[test]
    fn codec_round_trips(
        samples in proptest::collection::vec(-100.0f64..1e12, 0..200),
    ) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let decoded = LogHistogram::decode(&h.encode());
        prop_assert_eq!(decoded, Some(h));
    }
}

/// The sparse storage `LogHistogram` had before its buckets went
/// dense: a `BTreeMap` from bucket index to count, with the same
/// bucket function, fixed-point sum, total-order extremes, percentile
/// walk and codec. The dense histogram must be indistinguishable from
/// it through every public view.
#[derive(Debug, Clone, PartialEq)]
struct SparseModel {
    buckets: BTreeMap<i32, u64>,
    zeros: u64,
    count: u64,
    sum_fixed: i128,
    min: f64,
    max: f64,
}

impl SparseModel {
    fn new() -> Self {
        SparseModel {
            buckets: BTreeMap::new(),
            zeros: 0,
            count: 0,
            sum_fixed: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v <= 0.0 {
            self.zeros += 1;
        } else {
            let i = (v.log2() * 16.0).floor() as i32;
            *self.buckets.entry(i).or_insert(0) += 1;
        }
        self.count += 1;
        let fixed = (v * (1u64 << 20) as f64).round() as i128;
        self.sum_fixed = self.sum_fixed.saturating_add(fixed);
        if v.total_cmp(&self.min).is_lt() {
            self.min = v;
        }
        if v.total_cmp(&self.max).is_gt() {
            self.max = v;
        }
    }

    fn merge(&mut self, other: &SparseModel) {
        for (&i, &c) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += c;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum_fixed = self.sum_fixed.saturating_add(other.sum_fixed);
        if other.min.total_cmp(&self.min).is_lt() {
            self.min = other.min;
        }
        if other.max.total_cmp(&self.max).is_gt() {
            self.max = other.max;
        }
    }

    fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.zeros;
        if rank <= seen {
            return Some(0.0_f64.max(self.min).min(self.max));
        }
        for (&i, &c) in &self.buckets {
            seen += c;
            if rank <= seen {
                let mid = ((i as f64 + 0.5) / 16.0).exp2();
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    fn encode(&self) -> String {
        let body: Vec<String> = self
            .buckets
            .iter()
            .map(|(i, c)| format!("{i}:{c}"))
            .collect();
        format!(
            "n={};z={};s={};min={:016x};max={:016x};b={}",
            self.count,
            self.zeros,
            self.sum_fixed,
            self.min.to_bits(),
            self.max.to_bits(),
            body.join(","),
        )
    }
}

/// Records `samples` into both the dense histogram and the model.
fn both(samples: &[f64]) -> (LogHistogram, SparseModel) {
    let mut h = LogHistogram::new();
    let mut m = SparseModel::new();
    for &v in samples {
        h.record(v);
        m.record(v);
    }
    (h, m)
}

/// Every view the model defines agrees: the encoding, and the
/// percentile bits at a spread of `q` including both ends.
fn agree(h: &LogHistogram, m: &SparseModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.encode(), m.encode());
    for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        prop_assert_eq!(
            h.percentile(q).map(f64::to_bits),
            m.percentile(q).map(f64::to_bits),
            "q={}",
            q
        );
    }
    Ok(())
}

/// Samples drawn from raw bit patterns: every exponent, subnormals,
/// both signs, NaN and ±∞ (which both sides drop).
fn from_bits(bits: &[u64]) -> Vec<f64> {
    bits.iter().map(|&b| f64::from_bits(b)).collect()
}

proptest! {
    /// Dense storage agrees with the sparse model on arbitrary bit
    /// patterns, and `==` agrees with the model's `==`.
    #[test]
    fn dense_buckets_match_the_sparse_model(
        bits in proptest::collection::vec(any::<u64>(), 0..120),
        extremes in proptest::collection::vec(0usize..6, 0..8),
    ) {
        let mut samples = from_bits(&bits);
        // Values that pin the ends of the bucket range.
        let pinned = [5e-324, 1e-300, 1e300, f64::MAX, f64::MIN_POSITIVE, 1.0];
        samples.extend(extremes.iter().map(|&i| pinned[i]));
        let (h, m) = both(&samples);
        agree(&h, &m)?;

        // The same samples in reverse: equal on both sides.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        let (h2, m2) = both(&reversed);
        prop_assert_eq!(h == h2, m == m2);
        // One sample fewer: equal exactly when the model says so.
        if let Some((_, rest)) = samples.split_first() {
            let (h3, m3) = both(rest);
            prop_assert_eq!(h == h3, m == m3);
        }
    }

    /// Merging histograms whose bucket ranges are disjoint grows the
    /// dense vector below its base and above its top; the result still
    /// matches the model, in every merge order.
    #[test]
    fn disjoint_range_merges_match_the_sparse_model(
        low in proptest::collection::vec(1e-300f64..1e-200, 1..30),
        mid in proptest::collection::vec(1e-3f64..1e3, 1..30),
        high in proptest::collection::vec(1e200f64..1e300, 1..30),
        zeros in proptest::collection::vec(-5.0f64..=0.0, 0..5),
    ) {
        let (h_low, m_low) = both(&low);
        let (h_mid, m_mid) = both(&mid);
        let (h_high, m_high) = both(&high);
        let (h_zero, m_zero) = both(&zeros);

        let mut h = h_mid.clone();
        let mut m = m_mid.clone();
        for (hx, mx) in [(&h_low, &m_low), (&h_high, &m_high), (&h_zero, &m_zero)] {
            h.merge(hx);
            m.merge(mx);
            agree(&h, &m)?;
        }

        // The positive parts in reverse order from an empty start, and
        // recorded straight through, give the same bytes. (The
        // negative samples stay out: `high` saturates the fixed-point
        // sum, and a saturated sum is order-independent only while
        // every term has one sign — in the model as much as here.)
        let mut h_pos = h_mid.clone();
        h_pos.merge(&h_low);
        h_pos.merge(&h_high);
        let mut h_rev = LogHistogram::new();
        for hx in [&h_high, &h_low, &h_mid] {
            h_rev.merge(hx);
        }
        prop_assert_eq!(h_rev.encode(), h_pos.encode());
        prop_assert!(h_rev == h_pos);
        let all: Vec<f64> = high.iter().chain(&low).chain(&mid).copied().collect();
        let (h_all, m_all) = both(&all);
        prop_assert!(h_all == h_pos);
        agree(&h_all, &m_all)?;
    }
}

#[test]
fn decode_rejects_what_encode_never_writes() {
    let encoded =
        |n: u64, b: &str| format!("n={n};z=0;s=0;min=3ff0000000000000;max=3ff0000000000000;b={b}");
    for (n, bad) in [
        // Indices no finite f64 reaches: dense storage would allocate
        // gigabytes for them.
        (1, "2147483647:1"),
        (1, "-2147483648:1"),
        (1, "16385:1"),
        (1, "-17185:1"),
        // Zero counts.
        (0, "3:0"),
        (1, "3:1,4:0"),
        // Duplicate and descending indices.
        (2, "3:1,3:1"),
        (2, "4:1,3:1"),
    ] {
        let s = encoded(n, bad);
        assert_eq!(LogHistogram::decode(&s), None, "accepted {s}");
    }
    // The ends of the reachable range decode.
    for ok in ["16384:1", "-17184:1"] {
        let s = encoded(1, ok);
        assert!(LogHistogram::decode(&s).is_some(), "rejected {s}");
    }
}

#[test]
fn extreme_finite_values_round_trip() {
    let mut h = LogHistogram::new();
    h.record(f64::MAX);
    h.record(5e-324);
    let s = h.encode();
    assert!(s.ends_with("b=-17184:1,16384:1"), "{s}");
    assert_eq!(LogHistogram::decode(&s), Some(h));
}
