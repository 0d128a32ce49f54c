//! The SA-1100 core as a clock/voltage state machine.
//!
//! [`CpuCore`] tracks the current clock step, core voltage and execution
//! mode, and charges the transition costs the paper measured:
//!
//! - changing the clock step stalls instruction execution for ≈200 µs,
//!   independent of source and target step ("between 11,200 clock periods
//!   at 59 MHz and 40,000 at 200 MHz");
//! - lowering the voltage takes ≈250 µs to settle (with an undershoot
//!   below the target before it stabilises); raising it is effectively
//!   instantaneous.
//!
//! The low 1.23 V supply is below the manufacturer's specification and is
//! only safe "at moderate clock speeds"; [`CpuCore`] enforces a maximum
//! step for it (162.2 MHz, the threshold the paper's voltage-scaling
//! policy uses).

use core::fmt;

use sim_core::{Frequency, SimDuration, Voltage};

#[cfg(test)]
use crate::clock::V_LOW;
use crate::clock::{ClockTable, StepIndex, V_HIGH};
use crate::power::PowerParams;

/// Fastest step (index into the SA-1100 table) at which the 1.23 V
/// supply is considered stable: 162.2 MHz.
pub const V_LOW_MAX_STEP: StepIndex = 7;

/// Execution mode of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuMode {
    /// Executing instructions.
    Run,
    /// Idle "nap": pipeline stalled until the next interrupt, clocks
    /// running, peripherals active.
    Nap,
    /// Mid clock-change: no instructions execute.
    Stalled,
}

/// Error returned for electrically unsafe voltage/frequency requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsafeVoltage {
    /// The requested step.
    pub step: StepIndex,
    /// The requested voltage.
    pub voltage: Voltage,
}

impl fmt::Display for UnsafeVoltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "voltage {} is unstable at clock step {}",
            self.voltage, self.step
        )
    }
}

impl std::error::Error for UnsafeVoltage {}

/// Cost of applying a requested clock/voltage transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Transition {
    /// Time during which the core executes nothing (clock re-lock).
    pub stall: SimDuration,
    /// Time until the new (lower) voltage is stable. The core keeps
    /// executing during the settle; power accounting uses the old
    /// voltage until it completes.
    pub settle: SimDuration,
}

/// The core clock/voltage state machine plus lifetime transition
/// statistics.
#[derive(Debug, Clone)]
pub struct CpuCore {
    table: ClockTable,
    step: StepIndex,
    voltage: Voltage,
    clock_switches: u64,
    voltage_switches: u64,
    stall_total: SimDuration,
}

impl CpuCore {
    /// Creates a core at the given initial step and the stock 1.5 V.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range for `table`.
    pub fn new(table: ClockTable, step: StepIndex) -> Self {
        assert!(step < table.len(), "initial step out of range");
        CpuCore {
            table,
            step,
            voltage: V_HIGH,
            clock_switches: 0,
            voltage_switches: 0,
            stall_total: SimDuration::ZERO,
        }
    }

    /// The clock table this core runs from.
    pub fn table(&self) -> &ClockTable {
        &self.table
    }

    /// Current clock step.
    #[inline]
    pub fn step(&self) -> StepIndex {
        self.step
    }

    /// Current clock frequency.
    #[inline]
    pub fn freq(&self) -> Frequency {
        self.table.freq(self.step)
    }

    /// Current core voltage.
    #[inline]
    pub fn voltage(&self) -> Voltage {
        self.voltage
    }

    /// Number of clock-step changes so far.
    pub fn clock_switches(&self) -> u64 {
        self.clock_switches
    }

    /// Number of voltage changes so far.
    pub fn voltage_switches(&self) -> u64 {
        self.voltage_switches
    }

    /// Total time spent stalled in clock changes.
    pub fn total_stall(&self) -> SimDuration {
        self.stall_total
    }

    /// True if `voltage` is electrically safe at `step`.
    pub fn is_safe(step: StepIndex, voltage: Voltage) -> bool {
        voltage >= V_HIGH || step <= V_LOW_MAX_STEP
    }

    /// Requests a transition to `(step, voltage)` and returns its cost.
    ///
    /// A no-op request costs nothing. When both the clock and the
    /// voltage change, the costs overlap conservatively: the stall and
    /// settle run concurrently (the paper found both are < 2 % of a
    /// scheduling interval).
    ///
    /// Returns an error — and changes nothing — if the combination is
    /// electrically unsafe (1.23 V above 162.2 MHz).
    pub fn request(
        &mut self,
        step: StepIndex,
        voltage: Voltage,
        params: &PowerParams,
    ) -> Result<Transition, UnsafeVoltage> {
        assert!(step < self.table.len(), "step out of range");
        if !Self::is_safe(step, voltage) {
            return Err(UnsafeVoltage { step, voltage });
        }
        let mut t = Transition::default();
        if step != self.step {
            self.step = step;
            self.clock_switches += 1;
            t.stall = params.clock_switch_stall();
            self.stall_total += t.stall;
        }
        if voltage != self.voltage {
            let lowering = voltage < self.voltage;
            self.voltage = voltage;
            self.voltage_switches += 1;
            if lowering {
                t.settle = params.voltage_settle_down();
            }
        }
        Ok(t)
    }

    /// Like [`CpuCore::request`], but emits [`obs::EventKind::ClockTransition`]
    /// and [`obs::EventKind::VoltageTransition`] events at simulated time
    /// `now_us` into `trace` for every state change actually applied.
    pub fn request_traced(
        &mut self,
        step: StepIndex,
        voltage: Voltage,
        params: &PowerParams,
        now_us: u64,
        trace: &mut obs::Trace,
    ) -> Result<Transition, UnsafeVoltage> {
        let from_khz = self.freq().as_khz();
        let from_mv = self.voltage.as_mv();
        let t = self.request(step, voltage, params)?;
        if trace.is_enabled() {
            let to_khz = self.freq().as_khz();
            if to_khz != from_khz {
                trace.emit(
                    now_us,
                    obs::EventKind::ClockTransition {
                        from_khz: u64::from(from_khz),
                        to_khz: u64::from(to_khz),
                        stall_us: t.stall.as_micros(),
                    },
                );
            }
            let to_mv = self.voltage.as_mv();
            if to_mv != from_mv {
                trace.emit(
                    now_us,
                    obs::EventKind::VoltageTransition {
                        from_mv: u64::from(from_mv),
                        to_mv: u64::from(to_mv),
                        settle_us: t.settle.as_micros(),
                    },
                );
            }
        }
        Ok(t)
    }

    /// Convenience: change only the clock step, keeping voltage.
    pub fn set_step(&mut self, step: StepIndex, params: &PowerParams) -> Transition {
        let v = self.voltage;
        self.request(step, v, params)
            .expect("keeping current voltage cannot become unsafe at a lower step")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> (CpuCore, PowerParams) {
        (
            CpuCore::new(ClockTable::sa1100(), 10),
            PowerParams::default(),
        )
    }

    #[test]
    fn initial_state() {
        let (c, _) = core();
        assert_eq!(c.step(), 10);
        assert_eq!(c.freq(), Frequency::from_khz(206_400));
        assert_eq!(c.voltage(), V_HIGH);
        assert_eq!(c.clock_switches(), 0);
    }

    #[test]
    fn clock_change_costs_200us_regardless_of_distance() {
        let (mut c, p) = core();
        let t1 = c.set_step(0, &p); // 206.4 -> 59.0
        assert_eq!(t1.stall.as_micros(), 200);
        let t2 = c.set_step(1, &p); // 59.0 -> 73.7
        assert_eq!(t2.stall.as_micros(), 200);
        assert_eq!(c.clock_switches(), 2);
        assert_eq!(c.total_stall().as_micros(), 400);
    }

    #[test]
    fn noop_request_is_free() {
        let (mut c, p) = core();
        let t = c.request(10, V_HIGH, &p).unwrap();
        assert_eq!(t, Transition::default());
        assert_eq!(c.clock_switches(), 0);
        assert_eq!(c.voltage_switches(), 0);
    }

    #[test]
    fn voltage_down_settles_up_is_instant() {
        let (mut c, p) = core();
        c.set_step(5, &p);
        let down = c.request(5, V_LOW, &p).unwrap();
        assert_eq!(down.settle.as_micros(), 250);
        assert_eq!(down.stall, SimDuration::ZERO);
        let up = c.request(5, V_HIGH, &p).unwrap();
        assert_eq!(up.settle, SimDuration::ZERO);
        assert_eq!(c.voltage_switches(), 2);
    }

    #[test]
    fn low_voltage_unsafe_above_162mhz() {
        let (mut c, p) = core();
        let err = c.request(8, V_LOW, &p).unwrap_err();
        assert_eq!(err.step, 8);
        // State unchanged on error.
        assert_eq!(c.step(), 10);
        assert_eq!(c.voltage(), V_HIGH);
        // At step 7 (162.2 MHz) it is allowed.
        assert!(c.request(7, V_LOW, &p).is_ok());
    }

    #[test]
    fn safety_predicate_matches_paper_threshold() {
        assert!(CpuCore::is_safe(7, V_LOW));
        assert!(!CpuCore::is_safe(8, V_LOW));
        assert!(CpuCore::is_safe(10, V_HIGH));
    }

    #[test]
    fn combined_change_overlaps_costs() {
        let (mut c, p) = core();
        let t = c.request(3, V_LOW, &p).unwrap();
        assert_eq!(t.stall.as_micros(), 200);
        assert_eq!(t.settle.as_micros(), 250);
        assert_eq!(c.step(), 3);
        assert_eq!(c.voltage(), V_LOW);
    }

    #[test]
    fn traced_request_emits_only_applied_changes() {
        let (mut c, p) = core();
        let mut trace = obs::Trace::on();
        // No-op: nothing emitted.
        c.request_traced(10, V_HIGH, &p, 0, &mut trace).unwrap();
        assert!(trace.is_empty());
        // Clock + voltage change: one event each, at the given time.
        c.request_traced(5, V_LOW, &p, 10_000, &mut trace).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].time_us, 10_000);
        assert_eq!(trace.events()[0].kind.name(), "clock");
        assert_eq!(trace.events()[1].kind.name(), "voltage");
        // Unsafe request: error, nothing emitted.
        assert!(c.request_traced(10, V_LOW, &p, 20_000, &mut trace).is_err());
        assert_eq!(trace.len(), 2);
        // Disabled trace stays empty but the transition still applies.
        let mut off = obs::Trace::off();
        c.request_traced(10, V_HIGH, &p, 30_000, &mut off).unwrap();
        assert!(off.is_empty());
        assert_eq!(c.step(), 10);
    }

    #[test]
    fn switch_overhead_is_under_2_percent_of_quantum() {
        // Section 5.4: "the time needed for clock and voltage changes are
        // less than 2% of the scheduling interval".
        let p = PowerParams::default();
        let quantum_us = 10_000.0;
        assert!(p.clock_switch_stall().as_micros() as f64 / quantum_us <= 0.02);
        assert!(p.voltage_settle_down().as_micros() as f64 / quantum_us <= 0.025);
    }
}
