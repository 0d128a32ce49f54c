//! Utilization predictors: PAST, AVG_N and a sliding-window average.
//!
//! All predictors consume the utilization `U_{t-1}` of the interval that
//! just finished and produce a "weighted utilization" `W_t` used as the
//! prediction for the coming interval.
//!
//! - **PAST** (Weiser et al.): the coming interval will be exactly as
//!   busy as the last one — `W_t = U_{t-1}`. Equivalent to `AVG_0`.
//! - **AVG_N** (Govil et al., Pering et al.): an exponential moving
//!   average with decay `N`:
//!   `W_t = (N · W_{t-1} + U_{t-1}) / (N + 1)`.
//! - **Sliding-window**: the plain mean of the last `n` utilizations —
//!   the paper simulated this too and found it "no better than the
//!   weighted averaging policy".

/// A per-interval utilization predictor.
pub trait Predictor {
    /// Consumes the utilization of the interval that just ended
    /// (`0.0..=1.0`) and returns the prediction for the next interval.
    fn observe(&mut self, utilization: f64) -> f64;

    /// The current prediction without new input.
    fn current(&self) -> f64;

    /// Resets internal history to the just-booted state.
    fn reset(&mut self);

    /// True when [`Predictor::observe`] is idempotent: feeding the same
    /// utilization twice leaves the predictor in the same state and
    /// returns the same prediction as feeding it once. PAST is the
    /// canonical example (`W_t = U_{t-1}` — no history survives one
    /// observation). The kernel's Summary span path uses this to elide
    /// repeated identical policy calls inside a uniform span; predictors
    /// that accumulate history (AVG_N, windows) must leave this `false`.
    fn is_memoryless(&self) -> bool {
        false
    }

    /// Human-readable name for reports (e.g. `AVG_9`).
    fn name(&self) -> String;
}

/// The PAST predictor: next interval == previous interval.
#[derive(Debug, Clone, Default)]
pub struct Past {
    last: f64,
}

impl Past {
    /// Creates a PAST predictor (initial prediction 0: system assumed
    /// idle at boot).
    pub fn new() -> Self {
        Past::default()
    }
}

impl Predictor for Past {
    fn observe(&mut self, utilization: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&utilization));
        self.last = utilization;
        self.last
    }

    fn current(&self) -> f64 {
        self.last
    }

    fn reset(&mut self) {
        self.last = 0.0;
    }

    fn is_memoryless(&self) -> bool {
        true
    }

    fn name(&self) -> String {
        "PAST".to_string()
    }
}

/// The AVG_N exponentially-weighted predictor.
///
/// `N` controls the decay: larger `N` smooths more but lags more — the
/// paper's Table 1 shows AVG_9 taking 12 quanta (120 ms) to cross a 70 %
/// threshold from idle.
#[derive(Debug, Clone)]
pub struct AvgN {
    n: u32,
    weighted: f64,
}

impl AvgN {
    /// Creates an AVG_N predictor with decay `n`. `AvgN::new(0)` is
    /// exactly PAST.
    pub fn new(n: u32) -> Self {
        AvgN { n, weighted: 0.0 }
    }

    /// The decay parameter.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The impulse-response weight of the sample `k` intervals ago:
    /// `w_k = (1/(N+1)) · (N/(N+1))^k`. Used by the §5.3 signal
    /// analysis; the weights form the decaying exponential whose Fourier
    /// transform the paper studies.
    pub fn kernel_weight(&self, k: u32) -> f64 {
        let n = self.n as f64;
        (1.0 / (n + 1.0)) * (n / (n + 1.0)).powi(k as i32)
    }
}

impl Predictor for AvgN {
    fn observe(&mut self, utilization: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&utilization));
        let n = self.n as f64;
        self.weighted = (n * self.weighted + utilization) / (n + 1.0);
        self.weighted
    }

    fn current(&self) -> f64 {
        self.weighted
    }

    fn reset(&mut self) {
        self.weighted = 0.0;
    }

    fn name(&self) -> String {
        format!("AVG_{}", self.n)
    }
}

/// Plain mean of the last `n` interval utilizations.
#[derive(Debug, Clone)]
pub struct SlidingWindowAvg {
    window: std::collections::VecDeque<f64>,
    n: usize,
}

impl SlidingWindowAvg {
    /// Creates a window of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "window must hold at least one interval");
        SlidingWindowAvg {
            window: std::collections::VecDeque::with_capacity(n),
            n,
        }
    }
}

impl Predictor for SlidingWindowAvg {
    fn observe(&mut self, utilization: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&utilization));
        if self.window.len() == self.n {
            self.window.pop_front();
        }
        self.window.push_back(utilization);
        self.current()
    }

    fn current(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().sum::<f64>() / self.window.len() as f64
        }
    }

    fn reset(&mut self) {
        self.window.clear();
    }

    fn name(&self) -> String {
        format!("WIN_{}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn past_echoes_last_interval() {
        let mut p = Past::new();
        assert_eq!(p.current(), 0.0);
        assert_eq!(p.observe(0.8), 0.8);
        assert_eq!(p.observe(0.1), 0.1);
        p.reset();
        assert_eq!(p.current(), 0.0);
    }

    #[test]
    fn avg0_is_past() {
        let mut avg0 = AvgN::new(0);
        let mut past = Past::new();
        for &u in &[0.3, 0.9, 0.0, 1.0, 0.5] {
            assert!((avg0.observe(u) - past.observe(u)).abs() < 1e-12);
        }
    }

    #[test]
    fn avg9_reproduces_table1_prefix() {
        // Paper Table 1 (x 10^4, floor), active quanta. The table's
        // 80 ms entry "5965" is a transcription typo for 5695 (it is not
        // reachable from 5217 nor does it lead to 6125; 5695 does both).
        let mut p = AvgN::new(9);
        let expected = [
            1000, 1900, 2710, 3439, 4095, 4685, 5217, 5695, 6125, 6513, 6861, 7175, 7458, 7712,
            7941,
        ];
        for &e in &expected {
            let w = p.observe(1.0);
            assert_eq!((w * 10_000.0).floor() as u64, e);
        }
        // Then idle quanta decay exactly as the table's tail.
        let tail = [7146, 6432, 5789, 5210, 4689];
        for &e in &tail {
            let w = p.observe(0.0);
            assert_eq!((w * 10_000.0).floor() as u64, e);
        }
    }

    #[test]
    fn avg9_crosses_70_percent_only_after_12_quanta() {
        // "Starting from an idle state, the clock will not scale to
        // 206MHz for 120 ms (12 quanta)" with a 70% upper bound.
        let mut p = AvgN::new(9);
        let mut crossings = 0;
        for i in 1..=15 {
            let w = p.observe(1.0);
            if w > 0.70 && crossings == 0 {
                crossings = i;
            }
        }
        assert_eq!(crossings, 12);
    }

    #[test]
    fn avg_settles_toward_steady_input() {
        let mut p = AvgN::new(5);
        for _ in 0..200 {
            p.observe(0.6);
        }
        assert!((p.current() - 0.6).abs() < 1e-6);
    }

    #[test]
    fn table1_downward_bias_asymmetry() {
        // "If the weighted average is 70%, a fully active quantum will
        // only increase the average to 73% while a fully idle quantum
        // will reduce it to 63%".
        let mut up = AvgN::new(9);
        up.weighted_set_for_test(0.70);
        let w_up = up.observe(1.0);
        assert!((w_up - 0.73).abs() < 1e-9);
        let mut down = AvgN::new(9);
        down.weighted_set_for_test(0.70);
        let w_down = down.observe(0.0);
        assert!((w_down - 0.63).abs() < 1e-9);
    }

    #[test]
    fn kernel_weights_sum_to_one() {
        let p = AvgN::new(9);
        let total: f64 = (0..2_000).map(|k| p.kernel_weight(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // And decay monotonically.
        assert!(p.kernel_weight(0) > p.kernel_weight(1));
    }

    #[test]
    fn kernel_weight_matches_recurrence() {
        // Feeding a unit impulse through the recurrence must reproduce
        // the closed-form kernel.
        let mut p = AvgN::new(4);
        let w0 = p.observe(1.0);
        assert!((w0 - p.kernel_weight(0)).abs() < 1e-12);
        let w1 = p.observe(0.0);
        assert!((w1 - p.kernel_weight(1)).abs() < 1e-12);
        let w2 = p.observe(0.0);
        assert!((w2 - p.kernel_weight(2)).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_mean() {
        let mut p = SlidingWindowAvg::new(4);
        assert_eq!(p.observe(1.0), 1.0);
        assert_eq!(p.observe(0.0), 0.5);
        p.observe(1.0);
        p.observe(1.0);
        // Window now [1,0,1,1] -> 0.75.
        assert!((p.current() - 0.75).abs() < 1e-12);
        // Pushing another sample evicts the oldest.
        p.observe(0.0); // [0,1,1,0] -> 0.5
        assert!((p.current() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn names() {
        assert_eq!(Past::new().name(), "PAST");
        assert_eq!(AvgN::new(9).name(), "AVG_9");
        assert_eq!(SlidingWindowAvg::new(4).name(), "WIN_4");
    }

    #[test]
    #[should_panic(expected = "at least one interval")]
    fn zero_window_rejected() {
        let _ = SlidingWindowAvg::new(0);
    }

    impl AvgN {
        fn weighted_set_for_test(&mut self, w: f64) {
            self.weighted = w;
        }
    }
}
