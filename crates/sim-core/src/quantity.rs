//! Physical quantity newtypes: frequency, voltage, power and energy.
//!
//! Frequencies are stored in kilohertz and voltages in millivolts so that
//! the SA-1100 clock-step table and the Itsy's two supply levels (1.5 V
//! and 1.23 V) are represented exactly as integers. Power and energy are
//! `f64` watts/joules — they are model outputs, not state the simulation
//! branches on.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Sub};

use crate::time::SimDuration;

/// A clock frequency, stored in kHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frequency(u32);

impl Frequency {
    /// Creates a frequency from a kHz count.
    pub const fn from_khz(khz: u32) -> Self {
        Frequency(khz)
    }

    /// Creates a frequency from a whole-MHz count.
    pub const fn from_mhz(mhz: u32) -> Self {
        Frequency(mhz * 1_000)
    }

    /// The frequency in kHz.
    pub const fn as_khz(self) -> u32 {
        self.0
    }

    /// The frequency in Hz.
    pub const fn as_hz(self) -> u64 {
        self.0 as u64 * 1_000
    }

    /// The frequency in MHz, as a float (for reporting).
    pub fn as_mhz_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Number of clock cycles elapsed in `d` at this frequency, rounded
    /// down.
    pub fn cycles_in(self, d: SimDuration) -> u64 {
        // cycles = f[Hz] * t[s] = f[kHz] * t[us] / 1000.
        (self.0 as u128 * d.as_micros() as u128 / 1_000) as u64
    }

    /// Time needed to execute `cycles` clock cycles at this frequency,
    /// rounded up to the next microsecond (an event cannot complete
    /// mid-microsecond).
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    pub fn time_for_cycles(self, cycles: u64) -> SimDuration {
        assert!(self.0 > 0, "time_for_cycles on zero frequency");
        // t[us] = cycles / f[kHz] * 1000, rounded up.
        let khz = self.0 as u128;
        let us = (cycles as u128 * 1_000).div_ceil(khz);
        SimDuration::from_micros(us as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MHz", self.as_mhz_f64())
    }
}

/// A supply voltage, stored in mV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Voltage(u32);

impl Voltage {
    /// Creates a voltage from a mV count.
    pub const fn from_mv(mv: u32) -> Self {
        Voltage(mv)
    }

    /// The voltage in mV.
    pub const fn as_mv(self) -> u32 {
        self.0
    }

    /// The voltage in volts, as a float.
    pub fn as_volts_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}V", self.as_volts_f64())
    }
}

/// Instantaneous power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from a watt value.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or not finite.
    pub fn from_watts(w: f64) -> Self {
        assert!(w.is_finite() && w >= 0.0, "invalid power: {w}");
        Power(w)
    }

    /// Creates a power from a milliwatt value.
    pub fn from_milliwatts(mw: f64) -> Self {
        Power::from_watts(mw / 1_000.0)
    }

    /// The power in watts.
    pub const fn as_watts(self) -> f64 {
        self.0
    }

    /// Energy dissipated by drawing this power for `d`.
    pub fn over(self, d: SimDuration) -> Energy {
        Energy(self.0 * d.as_secs_f64())
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}W", self.0)
    }
}

/// Accumulated energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from a joule value.
    ///
    /// # Panics
    ///
    /// Panics if `j` is negative or not finite.
    pub fn from_joules(j: f64) -> Self {
        assert!(j.is_finite() && j >= 0.0, "invalid energy: {j}");
        Energy(j)
    }

    /// The energy in joules.
    pub const fn as_joules(self) -> f64 {
        self.0
    }

    /// The energy in watt-hours.
    pub fn as_watt_hours(self) -> f64 {
        self.0 / 3_600.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}J", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_khz(206_400);
        assert_eq!(f.as_hz(), 206_400_000);
        assert!((f.as_mhz_f64() - 206.4).abs() < 1e-9);
        assert_eq!(Frequency::from_mhz(59).as_khz(), 59_000);
    }

    #[test]
    fn cycles_round_trip() {
        let f = Frequency::from_khz(100_000); // 100 MHz: 100 cycles per us.
        assert_eq!(f.cycles_in(SimDuration::from_micros(10)), 1_000);
        assert_eq!(f.time_for_cycles(1_000).as_micros(), 10);
        // Rounds up: 50 cycles at 100 MHz is 0.5 us -> 1 us.
        assert_eq!(f.time_for_cycles(50).as_micros(), 1);
    }

    #[test]
    fn cycles_in_no_overflow_for_long_durations() {
        let f = Frequency::from_khz(206_400);
        let day = SimDuration::from_secs(86_400);
        assert_eq!(f.cycles_in(day), 206_400_000u64 * 86_400);
    }

    #[test]
    fn power_energy_integration() {
        let p = Power::from_watts(2.0);
        let e = p.over(SimDuration::from_secs(30));
        assert!((e.as_joules() - 60.0).abs() < 1e-9);
        assert!((e.as_watt_hours() - 60.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn strongarm_sa2_worked_example() {
        // Paper section 2.1: 600 M instructions, 500 mW at 600 MHz takes 1 s
        // and 500 mJ; at 150 MHz it takes 4 s and 40 mW * 4 s = 160 mJ.
        let work_cycles = 600_000_000u64;
        let fast = Frequency::from_mhz(600);
        let slow = Frequency::from_mhz(150);
        let t_fast = fast.time_for_cycles(work_cycles);
        let t_slow = slow.time_for_cycles(work_cycles);
        assert_eq!(t_fast.as_micros(), 1_000_000);
        assert_eq!(t_slow.as_micros(), 4_000_000);
        let e_fast = Power::from_milliwatts(500.0).over(t_fast);
        let e_slow = Power::from_milliwatts(40.0).over(t_slow);
        assert!((e_fast.as_joules() - 0.5).abs() < 1e-9);
        assert!((e_slow.as_joules() - 0.16).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid power")]
    fn negative_power_rejected() {
        let _ = Power::from_watts(-1.0);
    }

    #[test]
    fn voltage_display() {
        assert_eq!(format!("{}", Voltage::from_mv(1_230)), "1.23V");
        assert_eq!(format!("{}", Voltage::from_mv(1_500)), "1.50V");
    }
}
