//! Log-bucketed histograms for unbounded positive quantities.
//!
//! [`Histogram`](crate::Histogram) needs its range up front, which fits
//! bounded quantities like utilization but not wall-clock latencies: a
//! cache hit services in microseconds while a cold 300-second
//! simulation takes seconds, five orders of magnitude apart, and
//! neither bound is known before the run. [`LogHistogram`] buckets by
//! logarithm instead — 16 sub-buckets per octave, so every bucket spans
//! a fixed *ratio* (`2^(1/16) ≈ 1.044`) and percentile estimates carry
//! at most ~2.2 % relative error at any scale, with O(log range)
//! memory.
//!
//! # Mergeable-sketch guarantees
//!
//! `LogHistogram` is the unit sketch behind fleet-scale population
//! aggregation, so its entire state is exact and order-independent:
//! bucket counts are integers, the running sum is fixed-point (an
//! `i128` of 2⁻²⁰ units), and min/max update under IEEE total order.
//! Consequently [`merge`](LogHistogram::merge) is associative and
//! commutative *bit-for-bit* — sharding a sample stream across any
//! number of workers and merging the shards in any order yields a
//! histogram byte-identical ([`encode`](LogHistogram::encode)) to
//! single-threaded recording. A proptest in `tests/log_histogram.rs`
//! pins this.
//!
//! The price is that [`sum`](LogHistogram::sum) (and therefore
//! [`mean`](LogHistogram::mean)) quantizes each sample to the
//! fixed-point grid (absolute error ≤ 2⁻²¹ per sample), which is far
//! below the bucket resolution everything downstream consumes.
//!
//! # Storage
//!
//! Buckets live in one dense `Vec<u64>` running from the lowest to the
//! highest occupied index, so recording a sample is an index, not a
//! tree probe. The representation is canonical — empty, or its first
//! and last counts non-zero — and [`encode`](LogHistogram::encode),
//! `==`, [`merge`](LogHistogram::merge) and
//! [`percentile`](LogHistogram::percentile) all see only the non-zero
//! buckets, exactly as a sparse map would.
//! Memory is bounded by the occupied bucket *span*: a finite positive
//! `f64` lands in buckets −17,184 (`5e-324`) to 16,384 (`f64::MAX`,
//! whose `log2` rounds to exactly 1024), so a histogram holds at most
//! 33,569 buckets; physical quantities span a few hundred.

use crate::round::{floor_i32, round_i128};

/// Sub-buckets per octave (power of two). 16 gives ≤ 2.2 % relative
/// quantile error from bucket midpointing.
const SUBBUCKETS: f64 = 16.0;

/// Fixed-point scale of the running sum: 2²⁰ units per 1.0. A binary
/// scale keeps the f64→fixed conversion exact for dyadic rationals and
/// the quantization error below 2⁻²¹ per sample.
const SUM_SCALE: f64 = (1u64 << 20) as f64;

/// Lowest bucket index a finite positive `f64` reaches:
/// `floor(16 · log2(5e-324))`.
const MIN_BUCKET: i32 = -17_184;

/// Highest bucket index a finite `f64` reaches: `f64::MAX.log2()`
/// rounds to exactly 1024.
const MAX_BUCKET: i32 = 16_384;

/// Converts one sample to fixed-point sum units. Saturates at the
/// `i128` range (unreachable for physical quantities).
fn to_fixed(v: f64) -> i128 {
    round_i128(v * SUM_SCALE)
}

/// A histogram over `(0, ∞)` with logarithmic buckets.
///
/// Values ≤ 0 are counted in a dedicated zero bucket; non-finite
/// samples are dropped. Exact `min`/`max`/`sum` are tracked alongside
/// the buckets, so extreme quantiles stay sharp.
///
/// # Examples
///
/// ```
/// use sim_core::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [1.0, 2.0, 4.0, 8.0, 1000.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), Some(1000.0));
/// let p50 = h.percentile(0.5).unwrap();
/// assert!((p50 / 4.0 - 1.0).abs() < 0.05, "p50 = {p50}");
/// // The state round-trips bit-exactly through the compact codec.
/// let back = LogHistogram::decode(&h.encode()).unwrap();
/// assert_eq!(back, h);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Count of bucket `base + k` at position `k`; bucket `i` covers
    /// `[2^(i/16), 2^((i+1)/16))`. Canonical: empty (with `base` 0),
    /// or the first and last counts are non-zero.
    buckets: Vec<u64>,
    /// Bucket index of `buckets[0]`.
    base: i32,
    /// Samples with value ≤ 0.
    zeros: u64,
    count: u64,
    /// Running sum in fixed-point [`SUM_SCALE`] units. Integer, so
    /// addition — unlike f64 addition — is associative: merge order and
    /// shard partitioning cannot change the bits.
    sum_fixed: i128,
    /// Smallest sample; updated under `total_cmp` so `-0.0`/`0.0` ties
    /// resolve identically whatever the arrival order.
    min: f64,
    /// Largest sample; updated under `total_cmp`.
    max: f64,
}

/// `Default` must match [`LogHistogram::new`]: the derived impl would
/// zero `min`/`max`, and a histogram born through `or_default()` would
/// then corrupt every merge with a phantom 0.0 minimum.
impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            base: 0,
            zeros: 0,
            count: 0,
            sum_fixed: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> i32 {
        floor_i32(v.log2() * SUBBUCKETS)
    }

    /// Widens the dense range to cover buckets `lo..=hi`, keeping every
    /// count at its index. Callers pass indices in
    /// `MIN_BUCKET..=MAX_BUCKET`, which bounds the allocation.
    fn cover(&mut self, lo: i32, hi: i32) {
        if self.buckets.is_empty() {
            self.base = lo;
            self.buckets.resize((hi - lo) as usize + 1, 0);
            return;
        }
        if lo < self.base {
            let grow = (self.base - lo) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = lo;
        }
        let top = (hi - self.base) as usize;
        if top >= self.buckets.len() {
            self.buckets.resize(top + 1, 0);
        }
    }

    /// `(index, count)` of every non-zero bucket, in index order.
    fn occupied(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        (self.base..)
            .zip(self.buckets.iter().copied())
            .filter(|&(_, c)| c > 0)
    }

    /// Geometric midpoint of a bucket — the representative value
    /// percentile queries report.
    fn bucket_mid(i: i32) -> f64 {
        ((i as f64 + 0.5) / SUBBUCKETS).exp2()
    }

    /// Records one sample. Non-finite values are dropped; values ≤ 0
    /// land in the zero bucket.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v <= 0.0 {
            self.zeros += 1;
        } else {
            let i = Self::bucket_of(v);
            if i.wrapping_sub(self.base) as usize >= self.buckets.len() {
                self.cover(i, i);
            }
            self.buckets[(i - self.base) as usize] += 1;
        }
        self.count += 1;
        self.sum_fixed = self.sum_fixed.saturating_add(to_fixed(v));
        if v.total_cmp(&self.min).is_lt() {
            self.min = v;
        }
        if v.total_cmp(&self.max).is_gt() {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (fixed-point, exact to 2⁻²¹ per sample).
    pub fn sum(&self) -> f64 {
        self.sum_fixed as f64 / SUM_SCALE
    }

    /// Smallest recorded sample; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples; `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum() / self.count as f64)
    }

    /// Percentile estimate for `q ∈ [0, 1]` (nearest-rank over
    /// buckets, reporting the bucket's geometric midpoint clamped to
    /// the observed `[min, max]`). `None` if empty.
    ///
    /// Clamping plus the ordered bucket walk makes estimates monotone
    /// in `q` and never above [`max`](Self::max) — the properties the
    /// oracle proptest pins.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        // Nearest-rank: the ceil(q*n)-th smallest sample (1-based).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.zeros;
        if rank <= seen {
            return Some(0.0_f64.max(self.min).min(self.max));
        }
        for (i, c) in self.occupied() {
            seen += c;
            if rank <= seen {
                return Some(Self::bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one. Associative and
    /// commutative **bit-for-bit** (integer counts and sums, total-order
    /// min/max), so per-worker histograms combine in any join order and
    /// any shard partitioning, and the merged state encodes to the same
    /// bytes a single-pass recording would.
    pub fn merge(&mut self, other: &LogHistogram) {
        if !other.buckets.is_empty() {
            let top = other.base + other.buckets.len() as i32 - 1;
            self.cover(other.base, top);
            let from = (other.base - self.base) as usize;
            for (mine, &c) in self.buckets[from..].iter_mut().zip(&other.buckets) {
                *mine += c;
            }
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

    /// Encodes the full state as one compact line of stable
    /// `key=value` fields (floats as `to_bits` hex, buckets as
    /// `index:count` pairs). Two histograms are equal iff their
    /// encodings are byte-identical, which is what lets fleet runs
    /// byte-diff population summaries across worker counts.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "n={};z={};s={};min={:016x};max={:016x};b=",
            self.count,
            self.zeros,
            self.sum_fixed,
            self.min.to_bits(),
            self.max.to_bits(),
        );
        for (n, (bucket, c)) in self.occupied().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!("{bucket}:{c}"));
        }
        out
    }

    /// Decodes [`encode`](Self::encode) output; `None` on any
    /// malformed, missing or inconsistent field.
    ///
    /// The text may come from outside the program, so every bucket
    /// index is checked against the range a finite `f64` reaches
    /// before the dense storage grows to it, and zero counts and
    /// duplicate or descending indices (which `encode` never writes)
    /// are rejected.
    pub fn decode(s: &str) -> Option<Self> {
        const KEYS: [&str; 6] = ["n", "z", "s", "min", "max", "b"];
        let mut fields = [None; KEYS.len()];
        for pair in s.trim().split(';') {
            let (k, v) = pair.split_once('=')?;
            if let Some(j) = KEYS.iter().position(|&key| key == k.trim()) {
                fields[j] = Some(v.trim());
            }
        }
        let [n, z, sum, min, max, body] = fields;
        let count: u64 = n?.parse().ok()?;
        let zeros: u64 = z?.parse().ok()?;
        let sum_fixed: i128 = sum?.parse().ok()?;
        let min = f64::from_bits(u64::from_str_radix(min?, 16).ok()?);
        let max = f64::from_bits(u64::from_str_radix(max?, 16).ok()?);
        let mut h = LogHistogram::new();
        let mut bucketed = 0u64;
        let body = body?;
        if !body.is_empty() {
            for pair in body.split(',') {
                let (i, c) = pair.split_once(':')?;
                let (i, c) = (i.parse::<i32>().ok()?, c.parse::<u64>().ok()?);
                let ascending = h.buckets.is_empty() || i >= h.base + h.buckets.len() as i32;
                if !(MIN_BUCKET..=MAX_BUCKET).contains(&i) || !ascending || c == 0 {
                    return None;
                }
                h.cover(i, i);
                h.buckets[(i - h.base) as usize] = c;
                bucketed = bucketed.checked_add(c)?;
            }
        }
        // Every recorded sample is in exactly one bucket (or zeros).
        if zeros.checked_add(bucketed)? != count {
            return None;
        }
        Some(LogHistogram {
            zeros,
            count,
            sum_fixed,
            min,
            max,
            ..h
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_graceful() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn default_equals_new() {
        // The derived Default would zero min/max and corrupt merges
        // (an `or_default()` map of histograms once hit exactly that);
        // pin the manual impl.
        assert_eq!(LogHistogram::default(), LogHistogram::new());
        let mut via_default = LogHistogram::default();
        via_default.record(100.0);
        assert_eq!(via_default.min(), Some(100.0));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(123.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let p = h.percentile(q).unwrap();
            assert_eq!(p, 123.0, "q={q}: clamped to the only sample");
        }
    }

    #[test]
    fn wide_range_percentiles_are_close() {
        let mut h = LogHistogram::new();
        // 1..=1000, so true p50 = 500, p90 = 900.
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p90 = h.percentile(0.9).unwrap();
        assert!((p50 / 500.0 - 1.0).abs() < 0.05, "p50 = {p50}");
        assert!((p90 / 900.0 - 1.0).abs() < 0.05, "p90 = {p90}");
        assert_eq!(h.percentile(1.0), Some(1000.0));
        assert_eq!(h.min(), Some(1.0));
    }

    #[test]
    fn sum_and_mean_are_fixed_point_exact_for_integers() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 4.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.sum(), 1007.0);
        assert_eq!(h.mean(), Some(1007.0 / 4.0));
    }

    #[test]
    fn zeros_and_negatives_count_in_zero_bucket() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(10.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(-3.0));
        // p0.33 is the 1st of 3 samples: the zero bucket, reported as
        // max(0, min) clamped to max.
        let p_low = h.percentile(0.3).unwrap();
        assert_eq!(p_low, 0.0);
        assert_eq!(h.percentile(1.0), Some(10.0));
    }

    #[test]
    fn non_finite_dropped() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_matches_recording_in_one() {
        let xs = [0.5, 1.0, 2.0, 1e6];
        let ys = [3.0, 0.0, 1e-9];
        let mut a = LogHistogram::new();
        for &x in &xs {
            a.record(x);
        }
        let mut b = LogHistogram::new();
        for &y in &ys {
            b.record(y);
        }
        a.merge(&b);
        let mut whole = LogHistogram::new();
        for &v in xs.iter().chain(&ys) {
            whole.record(v);
        }
        assert_eq!(a, whole);
        assert_eq!(a.encode(), whole.encode(), "merge is byte-transparent");
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = LogHistogram::new();
        a.record(1.0);
        a.record(64.0);
        let mut b = LogHistogram::new();
        b.record(7.5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.encode(), ba.encode());
    }

    #[test]
    fn signed_zero_min_is_order_independent() {
        // f64::min(0.0, -0.0) may return either zero; total_cmp makes
        // -0.0 strictly smaller so arrival order cannot change bits.
        let mut a = LogHistogram::new();
        a.record(0.0);
        a.record(-0.0);
        let mut b = LogHistogram::new();
        b.record(-0.0);
        b.record(0.0);
        assert_eq!(a.min().unwrap().to_bits(), b.min().unwrap().to_bits());
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn codec_round_trips_and_rejects_garbage() {
        let mut h = LogHistogram::new();
        for v in [0.0, -2.5, 1e-9, 7.0, 1e12] {
            h.record(v);
        }
        let s = h.encode();
        assert_eq!(LogHistogram::decode(&s), Some(h.clone()));
        assert_eq!(LogHistogram::decode(""), None);
        assert_eq!(LogHistogram::decode("n=zz"), None);
        // Inconsistent count vs bucket mass is rejected, not trusted.
        let tampered = s.replace("n=5", "n=6");
        assert_eq!(LogHistogram::decode(&tampered), None);
        // Empty histogram round-trips too.
        let empty = LogHistogram::new();
        assert_eq!(LogHistogram::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn relative_error_is_bounded_per_bucket() {
        // Any single positive value is reported within one bucket's
        // ratio of itself when other mass surrounds it.
        let mut h = LogHistogram::new();
        for i in 0..100 {
            h.record(1.5f64.powi(i % 20));
        }
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let p = h.percentile(q).unwrap();
            assert!(p >= h.min().unwrap() && p <= h.max().unwrap(), "q={q}: {p}");
        }
    }
}
