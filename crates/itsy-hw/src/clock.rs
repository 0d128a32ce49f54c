//! The SA-1100 clock-step table and supply voltages.
//!
//! The SA-1100 core clock is an integer multiple of a 14.7456 MHz crystal
//! (steps 4× through 14×), giving the eleven frequencies the paper lists
//! in Table 3: 59.0, 73.7, 88.5, 103.2, 118.0, 132.7, 147.5, 162.2,
//! 176.9, 191.7 and 206.4 MHz. We store the same rounded kHz values the
//! paper reports.

use core::fmt;

use sim_core::{Frequency, Voltage};

/// Stock core supply of the Itsy v1.5.
pub const V_HIGH: Voltage = Voltage::from_mv(1_500);

/// The below-spec supply the authors' modified units could select.
/// Safe only at moderate clock speeds; reduces core power by ~15 %.
pub const V_LOW: Voltage = Voltage::from_mv(1_230);

/// Index into a [`ClockTable`]. Step 0 is the slowest clock.
pub type StepIndex = usize;

/// An ordered table of discrete clock steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockTable {
    steps_khz: Vec<u32>,
}

impl ClockTable {
    /// The SA-1100 table used throughout the paper (11 steps,
    /// 59.0–206.4 MHz).
    ///
    /// # Examples
    ///
    /// ```
    /// use itsy_hw::ClockTable;
    ///
    /// let table = ClockTable::sa1100();
    /// assert_eq!(table.len(), 11);
    /// assert_eq!(table.freq(table.fastest()).as_khz(), 206_400);
    /// ```
    pub fn sa1100() -> Self {
        ClockTable {
            steps_khz: vec![
                59_000, 73_700, 88_500, 103_200, 118_000, 132_700, 147_500, 162_200, 176_900,
                191_700, 206_400,
            ],
        }
    }

    /// Builds a table from arbitrary step frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, contains zero, or is not strictly
    /// increasing.
    pub fn from_khz(steps: &[u32]) -> Self {
        assert!(!steps.is_empty(), "clock table must have at least one step");
        assert!(steps[0] > 0, "clock step of 0 kHz");
        assert!(
            steps.windows(2).all(|w| w[0] < w[1]),
            "clock steps must be strictly increasing"
        );
        ClockTable {
            steps_khz: steps.to_vec(),
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps_khz.len()
    }

    /// Always false; a table has at least one step.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The frequency of step `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn freq(&self, idx: StepIndex) -> Frequency {
        Frequency::from_khz(self.steps_khz[idx])
    }

    /// Index of the slowest step (always 0).
    pub fn slowest(&self) -> StepIndex {
        0
    }

    /// Index of the fastest step.
    pub fn fastest(&self) -> StepIndex {
        self.steps_khz.len() - 1
    }

    /// Clamps an index into the valid range.
    pub fn clamp(&self, idx: isize) -> StepIndex {
        idx.clamp(0, self.fastest() as isize) as StepIndex
    }

    /// The smallest step whose frequency is at least `f`, or the fastest
    /// step if no step is fast enough.
    ///
    /// This is the quantisation rule of the Figure 5 "simple averaging"
    /// policy: predict required MHz, then round up to a real step.
    pub fn step_at_least(&self, f: Frequency) -> StepIndex {
        self.steps_khz
            .iter()
            .position(|&khz| khz >= f.as_khz())
            .unwrap_or(self.fastest())
    }

    /// Iterates over `(index, frequency)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StepIndex, Frequency)> + '_ {
        self.steps_khz
            .iter()
            .enumerate()
            .map(|(i, &khz)| (i, Frequency::from_khz(khz)))
    }
}

impl fmt::Display for ClockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mhz: Vec<String> = self
            .steps_khz
            .iter()
            .map(|&k| format!("{:.1}", k as f64 / 1000.0))
            .collect();
        write!(f, "[{}] MHz", mhz.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sa1100_table_matches_paper() {
        let t = ClockTable::sa1100();
        assert_eq!(t.len(), 11);
        assert_eq!(t.freq(0), Frequency::from_khz(59_000));
        assert_eq!(t.freq(5), Frequency::from_khz(132_700));
        assert_eq!(t.freq(10), Frequency::from_khz(206_400));
        assert_eq!(t.slowest(), 0);
        assert_eq!(t.fastest(), 10);
    }

    #[test]
    fn sa1100_steps_are_crystal_multiples() {
        // Each step is ~14.7456 MHz apart (the table stores the rounded
        // values the paper reports, so allow 100 kHz of rounding).
        let t = ClockTable::sa1100();
        for w in (0..t.len()).collect::<Vec<_>>().windows(2) {
            let delta = t.freq(w[1]).as_khz() as i64 - t.freq(w[0]).as_khz() as i64;
            assert!((delta - 14_746).abs() < 100, "delta = {delta}");
        }
    }

    #[test]
    fn step_at_least_rounds_up() {
        let t = ClockTable::sa1100();
        // 154.5 MHz (the Figure 5 example) rounds up to 162.2 MHz.
        assert_eq!(t.step_at_least(Frequency::from_khz(154_500)), 7);
        assert_eq!(t.freq(7), Frequency::from_khz(162_200));
        // 103.0 MHz rounds up to 103.2 MHz.
        assert_eq!(t.step_at_least(Frequency::from_khz(103_000)), 3);
        // Below the slowest step: step 0.
        assert_eq!(t.step_at_least(Frequency::from_khz(1)), 0);
        // Above the fastest step: pegged at the fastest.
        assert_eq!(t.step_at_least(Frequency::from_khz(999_999)), 10);
    }

    #[test]
    fn clamp_bounds() {
        let t = ClockTable::sa1100();
        assert_eq!(t.clamp(-3), 0);
        assert_eq!(t.clamp(4), 4);
        assert_eq!(t.clamp(25), 10);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_table_rejected() {
        let _ = ClockTable::from_khz(&[100, 50]);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_table_rejected() {
        let _ = ClockTable::from_khz(&[]);
    }

    #[test]
    fn display_lists_mhz() {
        let t = ClockTable::from_khz(&[59_000, 206_400]);
        assert_eq!(format!("{t}"), "[59.0, 206.4] MHz");
    }
}
