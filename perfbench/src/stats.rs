//! Order statistics for run-to-run and call-to-call samples, and the
//! paired comparison that decides whether a change moved a metric.

/// Median of `values` (mean of the middle two for an even count);
/// `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones an outside script computes from the same numbers.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Per-call durations of one layer, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    ns: Vec<u64>,
}

impl Timings {
    /// Records one call that started at `started`.
    pub fn record_since(&mut self, started: std::time::Instant) {
        self.ns.push(started.elapsed().as_nanos() as u64);
    }

    /// Appends another sample's calls.
    pub fn extend(&mut self, other: Timings) {
        self.ns.extend(other.ns);
    }

    /// Summed duration of every call, µs.
    pub fn total_us(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e3
    }

    /// Mean call duration, µs.
    pub fn mean_us(&self) -> f64 {
        self.total_us() / self.ns.len().max(1) as f64
    }

    /// Nearest-rank percentile `q` (0..=1) of the call durations, µs.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut v = self.ns.clone();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1] as f64 / 1e3
    }
}

/// Whether a change made a metric worse, from the relative differences
/// `(change − base) / base` of index-paired measurements: the change
/// loses at least nine tenths of the pairs (ties count for neither
/// side), and the median difference exceeds the differences'
/// interquartile range.
///
/// The pairs are measured close together in time, so they share the
/// host's slow drift, which on a shared host is wider than a small
/// slowdown. The noise a change must beat is then the spread of the
/// paired differences, not the spread of the base values across the
/// whole comparison.
pub fn regressed(diffs: &[f64], higher_is_better: bool) -> bool {
    let worse = diffs
        .iter()
        .filter(|&&d| if higher_is_better { d < 0.0 } else { d > 0.0 })
        .count();
    let (q1, q3) = quartiles(diffs);
    worse * 10 >= diffs.len() * 9 && median(diffs).abs() > q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let t = Timings {
            ns: (1..=100).map(|x| x * 1000).collect(),
        };
        assert_eq!(t.percentile_us(0.5), 50.0);
        assert_eq!(t.percentile_us(0.99), 99.0);
        assert_eq!(t.mean_us(), 50.5);
    }

    #[test]
    fn regression_needs_nine_of_ten_and_a_gap_beyond_the_paired_spread() {
        let steady = [
            -0.02, -0.021, -0.019, -0.02, -0.018, -0.022, -0.02, -0.02, -0.021, -0.019,
        ];
        assert!(regressed(&steady, true));
        assert!(!regressed(&[0.0; 10], true), "ties are not losses");
        let mut mixed = steady;
        mixed[0] = 0.01;
        mixed[1] = 0.01;
        assert!(!regressed(&mixed, true), "8 of 10 is not enough");
        // Nine losses, but scattered far wider than their median.
        let noisy = [
            0.01, -0.01, -0.02, -0.03, -0.04, -0.05, -0.06, -0.07, -0.08, -0.09,
        ];
        assert!(!regressed(&noisy, true));
        let slower: Vec<f64> = steady.iter().map(|d| -d).collect();
        assert!(regressed(&slower, false), "lower-is-better flips");
    }
}
