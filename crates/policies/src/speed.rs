//! Speed-setting rules: how far to move the clock once the hysteresis
//! band is breached.
//!
//! §4.3 of the paper: "We use three algorithms for scaling: *one*,
//! *double*, and *peg*. The *one* policy increments (or decrements) the
//! clock value by one step. The *peg* policy sets the clock to the
//! highest (or lowest) value. The *double* policy tries to double (or
//! halve) the clock step. Since the lowest clock step on the Itsy is
//! zero, we increment the clock index value before doubling it.
//! Separate policies may be used for scaling upwards and downwards."

use itsy_hw::{ClockTable, StepIndex};

/// A speed-setting rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedChange {
    /// Move one step.
    One,
    /// Double / halve the (1-based) step index.
    Double,
    /// Jump to the extreme step.
    Peg,
}

impl SpeedChange {
    /// The step to use after an *upward* decision from `current`.
    pub fn up(self, current: StepIndex, table: &ClockTable) -> StepIndex {
        match self {
            SpeedChange::One => table.clamp(current as isize + 1),
            SpeedChange::Double => {
                // 1-based index doubled, per the paper's note about the
                // lowest step being zero.
                let j = current + 1;
                table.clamp((j * 2) as isize - 1)
            }
            SpeedChange::Peg => table.fastest(),
        }
    }

    /// The step to use after a *downward* decision from `current`.
    pub fn down(self, current: StepIndex, table: &ClockTable) -> StepIndex {
        match self {
            SpeedChange::One => table.clamp(current as isize - 1),
            SpeedChange::Double => {
                let j = current + 1;
                table.clamp((j / 2) as isize - 1)
            }
            SpeedChange::Peg => table.slowest(),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SpeedChange::One => "one",
            SpeedChange::Double => "double",
            SpeedChange::Peg => "peg",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ClockTable {
        ClockTable::sa1100()
    }

    #[test]
    fn one_moves_single_steps_and_clamps() {
        let t = table();
        assert_eq!(SpeedChange::One.up(4, &t), 5);
        assert_eq!(SpeedChange::One.up(10, &t), 10);
        assert_eq!(SpeedChange::One.down(4, &t), 3);
        assert_eq!(SpeedChange::One.down(0, &t), 0);
    }

    #[test]
    fn peg_jumps_to_extremes() {
        let t = table();
        assert_eq!(SpeedChange::Peg.up(0, &t), 10);
        assert_eq!(SpeedChange::Peg.up(10, &t), 10);
        assert_eq!(SpeedChange::Peg.down(10, &t), 0);
        assert_eq!(SpeedChange::Peg.down(0, &t), 0);
    }

    #[test]
    fn double_from_slowest_makes_progress() {
        // Without the increment-before-doubling rule, doubling step 0
        // would stay at 0 forever.
        let t = table();
        assert_eq!(SpeedChange::Double.up(0, &t), 1); // j=1 -> 2 -> idx 1
        assert_eq!(SpeedChange::Double.up(1, &t), 3); // j=2 -> 4 -> idx 3
        assert_eq!(SpeedChange::Double.up(3, &t), 7); // j=4 -> 8 -> idx 7
        assert_eq!(SpeedChange::Double.up(7, &t), 10); // j=8 -> 16 -> clamp
    }

    #[test]
    fn double_down_halves() {
        let t = table();
        assert_eq!(SpeedChange::Double.down(10, &t), 4); // j=11 -> 5 -> idx 4
        assert_eq!(SpeedChange::Double.down(4, &t), 1); // j=5 -> 2 -> idx 1
        assert_eq!(SpeedChange::Double.down(1, &t), 0); // j=2 -> 1 -> idx 0
        assert_eq!(SpeedChange::Double.down(0, &t), 0); // stays
    }

    #[test]
    fn up_never_decreases_down_never_increases() {
        let t = table();
        for rule in [SpeedChange::One, SpeedChange::Double, SpeedChange::Peg] {
            for cur in 0..t.len() {
                assert!(rule.up(cur, &t) >= cur, "{rule:?} up from {cur}");
                assert!(rule.down(cur, &t) <= cur, "{rule:?} down from {cur}");
                assert!(rule.up(cur, &t) < t.len());
            }
        }
    }

    #[test]
    fn repeated_up_reaches_fastest_for_all_rules() {
        let t = table();
        for rule in [SpeedChange::One, SpeedChange::Double, SpeedChange::Peg] {
            let mut cur = 0;
            for _ in 0..t.len() + 1 {
                cur = rule.up(cur, &t);
            }
            assert_eq!(cur, t.fastest(), "{rule:?} never reached the top");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SpeedChange::One.label(), "one");
        assert_eq!(SpeedChange::Double.label(), "double");
        assert_eq!(SpeedChange::Peg.label(), "peg");
    }
}
