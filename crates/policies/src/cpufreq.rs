//! The Linux cpufreq governors this research line led to.
//!
//! The paper's interval scheduler is the direct ancestor of Linux's
//! `ondemand` (2.6.9, 2004) and `conservative` governors: sample CPU
//! load periodically, jump or creep the frequency against thresholds.
//! Implementing them against the same kernel hook makes the lineage
//! testable — and shows that the paper's core findings (threshold
//! sensitivity, flapping on periodic loads) carry over to the
//! production designs.
//!
//! Semantics follow the kernel documentation:
//!
//! - [`Ondemand`]: "when triggered, cpufreq checks the CPU-usage
//!   statistics over the last period and the governor sets the CPU
//!   accordingly"; load above `up_threshold` (default 80 %) jumps
//!   straight to the maximum; otherwise the frequency is set
//!   proportionally to the measured load, rounded up to a real step.
//! - [`Conservative`]: "much like the ondemand governor \[but\] the
//!   frequency is gracefully increased and decreased rather than
//!   jumping to max"; one `freq_step` up when load exceeds
//!   `up_threshold`, one down when it falls below `down_threshold`
//!   (defaults 80 %/20 %).
//! - [`Schedutil`]: the modern default — `f = headroom · f_current ·
//!   util` against the *maximum* capacity, i.e.
//!   `f = 1.25 · f_max · (util · f_cur / f_max)`, quantised up to a
//!   real step.

use sim_core::{Frequency, SimTime};

use itsy_hw::{ClockTable, StepIndex};

use crate::governor::{ClockPolicy, PolicyRequest};

/// The `ondemand` governor.
#[derive(Debug, Clone)]
pub struct Ondemand {
    table: ClockTable,
    /// Load above this jumps to the maximum frequency (default 0.80).
    pub up_threshold: f64,
}

impl Ondemand {
    /// Creates the governor with the kernel's default 80 % threshold.
    pub fn new(table: ClockTable) -> Self {
        Ondemand {
            table,
            up_threshold: 0.80,
        }
    }

    /// Overrides the threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1]`.
    pub fn with_up_threshold(mut self, t: f64) -> Self {
        assert!(t > 0.0 && t <= 1.0, "threshold must be in (0,1]");
        self.up_threshold = t;
        self
    }
}

impl ClockPolicy for Ondemand {
    fn on_interval(
        &mut self,
        _now: SimTime,
        utilization: f64,
        current_step: StepIndex,
    ) -> PolicyRequest {
        let load = utilization.clamp(0.0, 1.0);
        let target = if load > self.up_threshold {
            self.table.fastest()
        } else {
            // Proportional: the slowest frequency that keeps the load
            // under the threshold, computed from current capacity.
            let cur_khz = self.table.freq(current_step).as_khz() as f64;
            let needed = cur_khz * load / self.up_threshold;
            self.table
                .step_at_least(Frequency::from_khz(needed.ceil() as u32))
        };
        PolicyRequest {
            step: (target != current_step).then_some(target),
            voltage: None,
        }
    }

    fn name(&self) -> String {
        format!("ondemand(up {:.0}%)", self.up_threshold * 100.0)
    }
}

/// The `conservative` governor.
#[derive(Debug, Clone)]
pub struct Conservative {
    table: ClockTable,
    /// Step up above this load (default 0.80).
    pub up_threshold: f64,
    /// Step down below this load (default 0.20).
    pub down_threshold: f64,
    /// Steps moved per decision (the kernel's `freq_step`, here in
    /// table steps; default 1).
    pub freq_step: usize,
}

impl Conservative {
    /// Creates the governor with the kernel's defaults.
    pub fn new(table: ClockTable) -> Self {
        Conservative {
            table,
            up_threshold: 0.80,
            down_threshold: 0.20,
            freq_step: 1,
        }
    }
}

impl ClockPolicy for Conservative {
    fn on_interval(
        &mut self,
        _now: SimTime,
        utilization: f64,
        current_step: StepIndex,
    ) -> PolicyRequest {
        let load = utilization.clamp(0.0, 1.0);
        let target = if load > self.up_threshold {
            self.table
                .clamp(current_step as isize + self.freq_step as isize)
        } else if load < self.down_threshold {
            self.table
                .clamp(current_step as isize - self.freq_step as isize)
        } else {
            current_step
        };
        PolicyRequest {
            step: (target != current_step).then_some(target),
            voltage: None,
        }
    }

    fn name(&self) -> String {
        format!(
            "conservative(up {:.0}%, down {:.0}%)",
            self.up_threshold * 100.0,
            self.down_threshold * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ClockTable {
        ClockTable::sa1100()
    }

    #[test]
    fn ondemand_jumps_to_max_on_high_load() {
        let mut g = Ondemand::new(table());
        let req = g.on_interval(SimTime::ZERO, 0.95, 3);
        assert_eq!(req.step, Some(10));
    }

    #[test]
    fn ondemand_scales_proportionally_below_threshold() {
        let mut g = Ondemand::new(table());
        // At 206.4 MHz with 40% load: needed = 206.4 * 0.4/0.8 = 103.2.
        let req = g.on_interval(SimTime::ZERO, 0.40, 10);
        assert_eq!(req.step, Some(3)); // 103.2 MHz
                                       // Idle load drops to the floor.
        let req = g.on_interval(SimTime::ZERO, 0.0, 10);
        assert_eq!(req.step, Some(0));
    }

    #[test]
    fn ondemand_is_stable_inside_the_band() {
        // At the step matching its load, it requests nothing.
        let mut g = Ondemand::new(table());
        // 103.2 MHz at 75% load: needed = 103.2*0.9375 = 96.7 -> step 3.
        let req = g.on_interval(SimTime::ZERO, 0.75, 3);
        assert_eq!(req.step, None);
    }

    #[test]
    fn conservative_creeps() {
        let mut g = Conservative::new(table());
        assert_eq!(g.on_interval(SimTime::ZERO, 0.9, 5).step, Some(6));
        assert_eq!(g.on_interval(SimTime::ZERO, 0.1, 5).step, Some(4));
        assert_eq!(g.on_interval(SimTime::ZERO, 0.5, 5).step, None);
        // Clamped at the ends.
        assert_eq!(g.on_interval(SimTime::ZERO, 0.9, 10).step, None);
        assert_eq!(g.on_interval(SimTime::ZERO, 0.1, 0).step, None);
    }

    #[test]
    fn ondemand_repeats_its_answer_to_a_repeated_interval() {
        // Pure in (load, step): the same interval gets the same answer.
        let mut g = Ondemand::new(table());
        let first = g.on_interval(SimTime::ZERO, 0.40, 10);
        for _ in 0..5 {
            assert_eq!(g.on_interval(SimTime::ZERO, 0.40, 10), first);
        }
    }

    #[test]
    fn names() {
        assert_eq!(Ondemand::new(table()).name(), "ondemand(up 80%)");
        assert_eq!(
            Conservative::new(table()).name(),
            "conservative(up 80%, down 20%)"
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        let _ = Ondemand::new(table()).with_up_threshold(0.0);
    }
}

/// The `schedutil` governor: frequency proportional to scheduler
/// utilization with a fixed 25 % headroom
/// (`f = 1.25 · util_capacity · f_max`).
#[derive(Debug, Clone)]
pub struct Schedutil {
    table: ClockTable,
    /// Headroom multiplier (the kernel hardcodes 1.25).
    pub headroom: f64,
}

impl Schedutil {
    /// Creates the governor with the kernel's 1.25 headroom.
    pub fn new(table: ClockTable) -> Self {
        Schedutil {
            table,
            headroom: 1.25,
        }
    }
}

impl ClockPolicy for Schedutil {
    fn on_interval(
        &mut self,
        _now: SimTime,
        utilization: f64,
        current_step: StepIndex,
    ) -> PolicyRequest {
        // Capacity-normalised utilization: busy time at the current
        // clock, expressed against the fastest clock.
        let cur_khz = self.table.freq(current_step).as_khz() as f64;
        let capacity_util = utilization.clamp(0.0, 1.0) * cur_khz;
        let needed = self.headroom * capacity_util;
        let target = if needed <= 0.0 {
            self.table.slowest()
        } else {
            self.table
                .step_at_least(Frequency::from_khz(needed.ceil() as u32))
        };
        PolicyRequest {
            step: (target != current_step).then_some(target),
            voltage: None,
        }
    }

    fn name(&self) -> String {
        format!("schedutil(headroom {:.2})", self.headroom)
    }
}

#[cfg(test)]
mod schedutil_tests {
    use super::*;

    #[test]
    fn schedutil_tracks_capacity_utilization() {
        let mut g = Schedutil::new(ClockTable::sa1100());
        // Fully busy at 103.2 MHz: needed = 1.25 * 103.2 = 129 -> 132.7.
        let req = g.on_interval(SimTime::ZERO, 1.0, 3);
        assert_eq!(req.step, Some(5));
        // 40% busy at 206.4: needed = 1.25 * 82.6 = 103.2 -> step 3.
        let req = g.on_interval(SimTime::ZERO, 0.40, 10);
        assert_eq!(req.step, Some(3));
        // Idle floors out.
        let req = g.on_interval(SimTime::ZERO, 0.0, 10);
        assert_eq!(req.step, Some(0));
    }

    #[test]
    fn schedutil_is_stable_at_a_matched_point() {
        let mut g = Schedutil::new(ClockTable::sa1100());
        // 132.7 MHz at 75% busy: needed = 1.25*99.5 = 124.4 -> 132.7.
        let req = g.on_interval(SimTime::ZERO, 0.75, 5);
        assert_eq!(req.step, None);
    }

    #[test]
    fn schedutil_name() {
        assert_eq!(
            Schedutil::new(ClockTable::sa1100()).name(),
            "schedutil(headroom 1.25)"
        );
    }
}
