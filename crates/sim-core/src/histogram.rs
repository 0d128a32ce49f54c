//! Fixed-range histograms and percentile estimates.
//!
//! The evaluation leans on distributional claims — "the system is
//! usually either completely idle or completely busy during a given
//! quantum" — that need more than a mean to check. [`Histogram`] bins
//! a bounded quantity (utilization, power) and answers mass-in-range
//! and percentile queries.

/// A histogram over a fixed `[lo, hi]` range with equal-width bins.
///
/// # Examples
///
/// ```
/// use sim_core::Histogram;
///
/// let mut h = Histogram::unit();
/// h.record_all(&[0.0, 0.005, 0.995, 1.0]);
/// assert!(h.edge_mass() > 0.9, "bimodal: all mass at the edges");
/// assert_eq!(h.count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
    /// Values outside `[lo, hi]` are clamped into the edge bins but
    /// counted here for diagnostics.
    clamped: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the range is empty/invalid.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            count: 0,
            clamped: 0,
        }
    }

    /// A `[0, 1]` histogram with 100 bins — the shape used for
    /// utilization distributions.
    pub fn unit() -> Self {
        Histogram::new(0.0, 1.0, 100)
    }

    fn bin_of(&self, v: f64) -> usize {
        let frac = (v - self.lo) / (self.hi - self.lo);
        let idx = (frac * self.bins.len() as f64).floor() as isize;
        idx.clamp(0, self.bins.len() as isize - 1) as usize
    }

    /// Records a sample (values outside the range land in edge bins).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v < self.lo || v > self.hi {
            self.clamped += 1;
        }
        let idx = self.bin_of(v);
        self.bins[idx] += 1;
        self.count += 1;
    }

    /// Records every value in a slice.
    pub fn record_all(&mut self, vs: &[f64]) {
        for &v in vs {
            self.record(v);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples that fell outside the configured range.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Fraction of mass with values in `[a, b]` (by bin midpoint).
    pub fn mass_in(&self, a: f64, b: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut mass = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            let mid = self.lo + (i as f64 + 0.5) * width;
            if mid >= a && mid <= b {
                mass += c;
            }
        }
        mass as f64 / self.count as f64
    }

    /// Percentile estimate (`q ∈ [0, 1]`) by bin interpolation; `None`
    /// if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "percentile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = q * self.count as f64;
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if (seen + c) as f64 >= target {
                let into = if c == 0 {
                    0.5
                } else {
                    (target - seen as f64) / c as f64
                };
                return Some(self.lo + (i as f64 + into.clamp(0.0, 1.0)) * width);
            }
            seen += c;
        }
        Some(self.hi)
    }

    /// Folds another histogram's mass into this one.
    ///
    /// Merging is associative and commutative, which lets parallel
    /// workers each fill a private histogram and combine them in any
    /// join order without changing the aggregate.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms differ in range or bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "histogram shapes differ: [{}, {}]x{} vs [{}, {}]x{}",
            self.lo,
            self.hi,
            self.bins.len(),
            other.lo,
            other.hi,
            other.bins.len()
        );
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.count += other.count;
        self.clamped += other.clamped;
    }

    /// The fraction of mass in the two outermost bins — the
    /// "completely idle or completely busy" bimodality measure.
    pub fn edge_mass(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let first = self.bins[0];
        let last = *self.bins.last().expect("at least one bin");
        (first + last) as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::unit();
        h.record_all(&[0.0, 0.5, 1.0, 0.5]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.clamped(), 0);
        assert!((h.mass_in(0.4, 0.6) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_clamps_to_edges() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.record(-5.0);
        h.record(7.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.clamped(), 2);
        assert_eq!(h.edge_mass(), 1.0);
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let mut h = Histogram::new(0.0, 1.0, 100);
        for i in 0..1000 {
            h.record(i as f64 / 999.0);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p90 = h.percentile(0.9).unwrap();
        assert!((p50 - 0.5).abs() < 0.02, "p50 = {p50}");
        assert!((p90 - 0.9).abs() < 0.02, "p90 = {p90}");
        assert!(h.percentile(0.0).unwrap() >= 0.0);
        assert!(h.percentile(1.0).unwrap() <= 1.0 + 1e-12);
    }

    #[test]
    fn bimodal_distribution_has_high_edge_mass() {
        let mut h = Histogram::unit();
        for _ in 0..45 {
            h.record(0.001);
        }
        for _ in 0..45 {
            h.record(0.999);
        }
        for _ in 0..10 {
            h.record(0.5);
        }
        assert!((h.edge_mass() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_graceful() {
        let h = Histogram::unit();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mass_in(0.0, 1.0), 0.0);
        assert_eq!(h.edge_mass(), 0.0);
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut h = Histogram::unit();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0, "non-finite samples are dropped");
        h.record(0.5);
        assert_eq!(h.count(), 1);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn inverted_range_rejected() {
        let _ = Histogram::new(1.0, 0.0, 10);
    }

    #[test]
    fn merge_pools_bins_count_and_clamped() {
        let mut a = Histogram::unit();
        a.record_all(&[0.1, 0.1, 0.9]);
        a.record(-1.0);
        let mut b = Histogram::unit();
        b.record_all(&[0.9, 0.5]);
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.clamped(), 1);
        assert!((a.mass_in(0.85, 0.95) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let xs = [0.0, 0.25, 0.5, 0.75, 1.0];
        let ys = [0.1, 0.2, 0.3];
        let mut split_a = Histogram::unit();
        split_a.record_all(&xs);
        let mut split_b = Histogram::unit();
        split_b.record_all(&ys);
        split_a.merge(&split_b);
        let mut whole = Histogram::unit();
        whole.record_all(&xs);
        whole.record_all(&ys);
        assert_eq!(split_a, whole);
    }

    #[test]
    #[should_panic(expected = "histogram shapes differ")]
    fn merge_rejects_mismatched_shapes() {
        let mut a = Histogram::unit();
        let b = Histogram::new(0.0, 2.0, 100);
        a.merge(&b);
    }
}
