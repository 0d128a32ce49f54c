//! The wider predictor family of Govil, Chan & Wasserman (MobiCom '95),
//! which the paper's §3 builds on: "Govil et al. considered a large
//! number of algorithms". All are [`Predictor`]s, so each slots into
//! [`crate::IntervalScheduler`] unchanged.
//!
//! The implementations follow the published descriptions; where the
//! original leaves a constant unspecified we document the choice:
//!
//! - [`Flat`] — predict a constant utilization ("try to smooth speed to
//!   a global average").
//! - [`LongShort`] — mix a short-term (3-interval) and a long-term
//!   (12-interval) average, short-term weighted 3:1.
//! - [`AgedAverage`] — geometric aging with an arbitrary ratio `k`:
//!   `W_t ∝ Σ k^j U_{t−j}` (AVG_N is the special case
//!   `k = N/(N+1)`).
//! - [`Cycle`] — test the recent history for a periodic pattern; if one
//!   period fits well, predict the value one period back.
//! - [`Pattern`] — find the most recent earlier occurrence of the
//!   current quantized utilization suffix and predict what followed it.
//! - [`Peak`] — narrow-spike heuristic: rising utilization is expected
//!   to fall back, falling utilization to keep falling.

use std::collections::VecDeque;

use crate::predictor::Predictor;

/// Predicts a fixed utilization regardless of history.
#[derive(Debug, Clone)]
pub struct Flat {
    level: f64,
}

impl Flat {
    /// Creates a flat predictor.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, 1]`.
    pub fn new(level: f64) -> Self {
        assert!((0.0..=1.0).contains(&level), "level must be a utilization");
        Flat { level }
    }
}

impl Predictor for Flat {
    fn observe(&mut self, _utilization: f64) -> f64 {
        self.level
    }

    fn current(&self) -> f64 {
        self.level
    }

    fn name(&self) -> String {
        format!("FLAT_{:.0}", self.level * 100.0)
    }
}

/// Short-term/long-term average mix.
#[derive(Debug, Clone)]
pub struct LongShort {
    history: VecDeque<f64>,
    short_n: usize,
    long_n: usize,
    short_weight: f64,
}

impl LongShort {
    /// Govil's configuration: 3-interval short, 12-interval long,
    /// short-term weighted 3×.
    pub fn new() -> Self {
        LongShort::with_windows(3, 12, 3.0)
    }

    /// Custom windows.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < short_n <= long_n` and `short_weight > 0`.
    pub fn with_windows(short_n: usize, long_n: usize, short_weight: f64) -> Self {
        assert!(short_n > 0 && short_n <= long_n, "window sizes inverted");
        assert!(short_weight > 0.0, "weight must be positive");
        LongShort {
            history: VecDeque::with_capacity(long_n),
            short_n,
            long_n,
            short_weight,
        }
    }

    fn tail_mean(&self, n: usize) -> f64 {
        let take = n.min(self.history.len());
        if take == 0 {
            return 0.0;
        }
        self.history.iter().rev().take(take).sum::<f64>() / take as f64
    }
}

impl Default for LongShort {
    fn default() -> Self {
        LongShort::new()
    }
}

impl Predictor for LongShort {
    fn observe(&mut self, utilization: f64) -> f64 {
        if self.history.len() == self.long_n {
            self.history.pop_front();
        }
        self.history.push_back(utilization.clamp(0.0, 1.0));
        self.current()
    }

    fn current(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let short = self.tail_mean(self.short_n);
        let long = self.tail_mean(self.long_n);
        (self.short_weight * short + long) / (self.short_weight + 1.0)
    }

    fn name(&self) -> String {
        format!("LONG_SHORT_{}_{}", self.short_n, self.long_n)
    }
}

/// Geometrically-aged average with arbitrary ratio.
#[derive(Debug, Clone)]
pub struct AgedAverage {
    ratio: f64,
    weighted: f64,
    norm: f64,
}

impl AgedAverage {
    /// Creates an aged average with aging ratio `k ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not strictly inside `(0, 1)`.
    pub fn new(k: f64) -> Self {
        assert!(k > 0.0 && k < 1.0, "aging ratio must be in (0,1)");
        AgedAverage {
            ratio: k,
            weighted: 0.0,
            norm: 0.0,
        }
    }

    /// The AVG_N-equivalent decay for this ratio (`N = k/(1−k)`),
    /// for cross-checking against [`crate::AvgN`].
    pub fn equivalent_n(&self) -> f64 {
        self.ratio / (1.0 - self.ratio)
    }
}

impl Predictor for AgedAverage {
    fn observe(&mut self, utilization: f64) -> f64 {
        // Normalised so the prediction is a true weighted mean even
        // during warm-up (AVG_N instead assumes an idle-forever prefix).
        self.weighted = self.ratio * self.weighted + utilization.clamp(0.0, 1.0);
        self.norm = self.ratio * self.norm + 1.0;
        self.current()
    }

    fn current(&self) -> f64 {
        if self.norm == 0.0 {
            0.0
        } else {
            self.weighted / self.norm
        }
    }

    fn name(&self) -> String {
        format!("AGED_{:.2}", self.ratio)
    }
}

/// Periodicity detector: if the recent history repeats with some period
/// `p`, predict the sample one period back.
#[derive(Debug, Clone)]
pub struct Cycle {
    history: VecDeque<f64>,
    capacity: usize,
    max_period: usize,
    /// Mean-square tolerance for accepting a period.
    tolerance: f64,
}

impl Cycle {
    /// Govil-style configuration: 32 intervals of history, periods up
    /// to 16.
    pub fn new() -> Self {
        Cycle {
            history: VecDeque::with_capacity(32),
            capacity: 32,
            max_period: 16,
            tolerance: 1e-3,
        }
    }

    /// The detected period, if the history currently supports one.
    ///
    /// A candidate period `p` must hold across up to three full periods
    /// of history (not just the last `p` samples) so that, e.g., a run
    /// of busy quanta inside a longer wave does not read as period 2.
    pub fn detected_period(&self) -> Option<usize> {
        let h: Vec<f64> = self.history.iter().copied().collect();
        let n = h.len();
        for p in 2..=self.max_period.min(n / 2) {
            // Validate over at least a dozen samples so short runs of
            // equal values inside a longer wave don't read as a tiny
            // period.
            let span = (n - p).min((3 * p).max(12));
            let mse: f64 = (0..span)
                .map(|i| {
                    let a = h[n - 1 - i];
                    let b = h[n - 1 - i - p];
                    (a - b) * (a - b)
                })
                .sum::<f64>()
                / span as f64;
            if mse <= self.tolerance {
                return Some(p);
            }
        }
        None
    }

    fn fallback(&self) -> f64 {
        let take = 4.min(self.history.len());
        if take == 0 {
            return 0.0;
        }
        self.history.iter().rev().take(take).sum::<f64>() / take as f64
    }
}

impl Default for Cycle {
    fn default() -> Self {
        Cycle::new()
    }
}

impl Predictor for Cycle {
    fn observe(&mut self, utilization: f64) -> f64 {
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        self.history.push_back(utilization.clamp(0.0, 1.0));
        self.current()
    }

    fn current(&self) -> f64 {
        match self.detected_period() {
            // Predict the sample one period back from the *next* slot:
            // that is history[len - p].
            Some(p) => self.history[self.history.len() - p],
            None => self.fallback(),
        }
    }

    fn name(&self) -> String {
        "CYCLE".to_string()
    }
}

/// Pattern matcher: quantize history to deciles, find the most recent
/// earlier occurrence of the current suffix, predict what followed it.
#[derive(Debug, Clone)]
pub struct Pattern {
    history: VecDeque<f64>,
    capacity: usize,
    window: usize,
}

impl Pattern {
    /// Govil-style configuration: match the last 4 intervals against
    /// 64 intervals of history.
    pub fn new() -> Self {
        Pattern {
            history: VecDeque::with_capacity(64),
            capacity: 64,
            window: 4,
        }
    }

    fn bucket(u: f64) -> u8 {
        (u.clamp(0.0, 1.0) * 10.0).min(9.0) as u8
    }

    fn fallback(&self) -> f64 {
        let take = self.window.min(self.history.len());
        if take == 0 {
            return 0.0;
        }
        self.history.iter().rev().take(take).sum::<f64>() / take as f64
    }
}

impl Default for Pattern {
    fn default() -> Self {
        Pattern::new()
    }
}

impl Predictor for Pattern {
    fn observe(&mut self, utilization: f64) -> f64 {
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        self.history.push_back(utilization.clamp(0.0, 1.0));
        self.current()
    }

    fn current(&self) -> f64 {
        let h: Vec<u8> = self.history.iter().map(|&u| Self::bucket(u)).collect();
        let n = h.len();
        if n < self.window + 1 {
            return self.fallback();
        }
        let suffix = &h[n - self.window..];
        // Scan backwards for the most recent earlier match; the value
        // following it is the prediction.
        for start in (0..n - self.window).rev() {
            if &h[start..start + self.window] == suffix {
                return self.history[start + self.window];
            }
        }
        self.fallback()
    }

    fn name(&self) -> String {
        "PATTERN".to_string()
    }
}

/// Narrow-spike heuristic.
#[derive(Debug, Clone, Default)]
pub struct Peak {
    prev: f64,
    last: f64,
    seen: u8,
}

impl Peak {
    /// Creates the predictor.
    pub fn new() -> Self {
        Peak::default()
    }
}

impl Predictor for Peak {
    fn observe(&mut self, utilization: f64) -> f64 {
        self.prev = self.last;
        self.last = utilization.clamp(0.0, 1.0);
        self.seen = self.seen.saturating_add(1);
        self.current()
    }

    fn current(&self) -> f64 {
        if self.seen < 2 {
            return self.last;
        }
        if self.last > self.prev {
            // Rising: expect the spike to be narrow and fall back.
            self.prev
        } else {
            // Falling or flat: follow it down.
            self.last
        }
    }

    fn name(&self) -> String {
        "PEAK".to_string()
    }
}

/// Every predictor in this module plus PAST/AVG_N, boxed, for sweep
/// harnesses.
pub fn all_predictors() -> Vec<Box<dyn Predictor + Send>> {
    vec![
        Box::new(crate::Past::new()),
        Box::new(crate::AvgN::new(3)),
        Box::new(crate::AvgN::new(9)),
        Box::new(Flat::new(0.7)),
        Box::new(LongShort::new()),
        Box::new(AgedAverage::new(0.9)),
        Box::new(Cycle::new()),
        Box::new(Pattern::new()),
        Box::new(Peak::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(busy: usize, idle: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i % (busy + idle)) < busy) as u8 as f64)
            .collect()
    }

    #[test]
    fn flat_ignores_input() {
        let mut p = Flat::new(0.7);
        assert_eq!(p.observe(0.0), 0.7);
        assert_eq!(p.observe(1.0), 0.7);
        assert_eq!(p.name(), "FLAT_70");
    }

    #[test]
    fn long_short_tracks_bursts_faster_than_long_mean() {
        let mut p = LongShort::new();
        for _ in 0..12 {
            p.observe(0.0);
        }
        // Three busy intervals: short mean is 1.0, long mean is 3/12.
        for _ in 0..3 {
            p.observe(1.0);
        }
        let expect = (3.0 * 1.0 + 0.25) / 4.0;
        assert!((p.current() - expect).abs() < 1e-9, "{}", p.current());
        // A plain 12-interval mean would sit at 0.25 — LONG_SHORT reacts
        // much faster.
        assert!(p.current() > 0.7);
    }

    #[test]
    fn aged_average_matches_avg_n_at_equivalent_ratio() {
        // k = 0.9 corresponds to AVG_9; after warm-up the two agree.
        use crate::predictor::AvgN;
        let mut aged = AgedAverage::new(0.9);
        let mut avg = AvgN::new(9);
        assert!((aged.equivalent_n() - 9.0).abs() < 1e-9);
        let inputs = square(9, 1, 400);
        let mut last = (0.0, 0.0);
        for &u in &inputs {
            last = (aged.observe(u), avg.observe(u));
        }
        assert!((last.0 - last.1).abs() < 1e-6, "{last:?}");
    }

    #[test]
    fn aged_average_has_no_idle_prefix_bias() {
        // Unlike AVG_N (which starts from an assumed-idle state), the
        // normalised aged average equals the input immediately.
        let mut p = AgedAverage::new(0.9);
        assert!((p.observe(0.8) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cycle_locks_onto_a_square_wave() {
        let mut p = Cycle::new();
        let wave = square(9, 1, 60);
        let mut predictions = Vec::new();
        for &u in &wave {
            predictions.push(p.observe(u));
        }
        assert_eq!(p.detected_period(), Some(10));
        // Once locked, the prediction equals the true next value.
        let mut hits = 0;
        let mut total = 0;
        for (i, &pred) in predictions.iter().enumerate().skip(30) {
            if i + 1 < wave.len() {
                total += 1;
                if (pred - wave[i + 1]).abs() < 1e-9 {
                    hits += 1;
                }
            }
        }
        assert!(
            hits as f64 / total as f64 > 0.95,
            "cycle hit rate {hits}/{total}"
        );
    }

    #[test]
    fn cycle_falls_back_without_periodicity() {
        let mut p = Cycle::new();
        // Aperiodic ramp.
        for i in 0..20 {
            p.observe((i as f64 / 40.0).min(1.0));
        }
        assert_eq!(p.detected_period(), None);
        // Fallback is the 4-interval mean — bounded and sane.
        assert!((0.0..=1.0).contains(&p.current()));
    }

    #[test]
    fn pattern_predicts_a_repeating_sequence() {
        let mut p = Pattern::new();
        let seq = [0.1, 0.9, 0.5, 0.2];
        let mut correct = 0;
        let mut total = 0;
        for rep in 0..12 {
            for (j, &u) in seq.iter().enumerate() {
                let pred = p.observe(u);
                if rep >= 3 {
                    let next = seq[(j + 1) % seq.len()];
                    total += 1;
                    if (pred - next).abs() < 0.1001 {
                        correct += 1;
                    }
                }
            }
        }
        assert!(
            correct as f64 / total as f64 > 0.9,
            "pattern hit rate {correct}/{total}"
        );
    }

    #[test]
    fn peak_expects_spikes_to_fall() {
        let mut p = Peak::new();
        p.observe(0.2);
        let pred = p.observe(0.9); // rising
        assert!((pred - 0.2).abs() < 1e-12, "rising should predict a fall");
        let pred = p.observe(0.4); // falling
        assert!((pred - 0.4).abs() < 1e-12, "falling should follow down");
    }

    #[test]
    fn all_predictors_are_bounded_on_noisy_input() {
        let noisy: Vec<f64> = (0..500)
            .map(|i| (((i * 2654435761u64) % 1000) as f64) / 999.0)
            .collect();
        for mut p in all_predictors() {
            for &u in &noisy {
                let w = p.observe(u);
                assert!((0.0..=1.0).contains(&w), "{} produced {w}", p.name());
            }
            assert!((0.0..=1.0).contains(&p.current()));
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = all_predictors().iter().map(|p| p.name()).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }

    #[test]
    #[should_panic(expected = "aging ratio")]
    fn aged_rejects_ratio_one() {
        let _ = AgedAverage::new(1.0);
    }

    #[test]
    #[should_panic(expected = "window sizes inverted")]
    fn long_short_rejects_inverted_windows() {
        let _ = LongShort::with_windows(12, 3, 1.0);
    }
}
