//! The Itsy power model.
//!
//! Instantaneous system power is modelled as
//!
//! ```text
//! P = P_core(mode, f, V) + P_base + P_lcd·[lcd on] + P_audio·[audio on]
//! ```
//!
//! with the core term following the CMOS relation `P ∝ V²·F` for its
//! dynamic fraction. Only part of the power drawn from the core rail
//! scales with the software-selectable voltage (the paper measured
//! "about a 15 % reduction in the power consumed by the processor" when
//! dropping 1.5 V → 1.23 V, much less than the 33 % a pure V² law gives),
//! so [`PowerParams::v2_fraction`] controls how much of the core power is
//! on the scaled domain.
//!
//! In the idle "nap" mode the pipeline is stalled but the clock tree
//! keeps running, so nap power is a *fraction* of active power at the
//! same frequency — not zero. This matters: it is why running fast and
//! idling is worse than running just fast enough (§2.1).
//!
//! Default parameters are calibrated against the paper's anchors; see
//! `EXPERIMENTS.md` for the paper-vs-model comparison.

use sim_core::{Frequency, Power, SimDuration, Voltage};

use crate::cpu::CpuMode;

/// Tunable constants of the power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerParams {
    /// Active core power per MHz at `v_ref`, in watts.
    pub core_w_per_mhz: f64,
    /// Reference core voltage (the stock 1.5 V).
    pub v_ref_mv: u32,
    /// Fraction of core power on the voltage-scaled domain.
    pub v2_fraction: f64,
    /// Nap-mode core power as a fraction of active power at the same
    /// frequency/voltage (clock tree still toggling, pipeline stalled).
    pub nap_fraction: f64,
    /// Always-on system draw: DC-DC conversion, DRAM refresh, flash,
    /// touchscreen controller (watts).
    pub base_w: f64,
    /// Display panel draw when enabled (watts).
    pub lcd_w: f64,
    /// Audio codec + speaker draw when enabled (watts).
    pub audio_w: f64,
    /// Time during which the core executes no instructions while the
    /// clock is re-locked (the paper measured ≈200 µs, independent of the
    /// source and target speeds).
    pub clock_switch_stall_us: u64,
    /// Settle time when *lowering* the core voltage (the paper measured
    /// ≈250 µs 1.5 V → 1.23 V, with a brief undershoot). Raising the
    /// voltage was "effectively instantaneous".
    pub voltage_settle_down_us: u64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            core_w_per_mhz: 0.0031,
            v_ref_mv: 1_500,
            v2_fraction: 0.55,
            nap_fraction: 0.35,
            base_w: 0.70,
            lcd_w: 0.15,
            audio_w: 0.10,
            clock_switch_stall_us: 200,
            voltage_settle_down_us: 250,
        }
    }
}

impl PowerParams {
    /// The stall imposed on the core by a clock-step change.
    pub fn clock_switch_stall(&self) -> SimDuration {
        SimDuration::from_micros(self.clock_switch_stall_us)
    }

    /// The settle time of a voltage *decrease*.
    pub fn voltage_settle_down(&self) -> SimDuration {
        SimDuration::from_micros(self.voltage_settle_down_us)
    }

    /// The voltage scaling factor applied to core power: 1.0 at `v_ref`,
    /// smaller below it.
    pub fn voltage_factor(&self, v: Voltage) -> f64 {
        let ratio = v.as_mv() as f64 / self.v_ref_mv as f64;
        (1.0 - self.v2_fraction) + self.v2_fraction * ratio * ratio
    }

    /// Returns these parameters with the core and base draws scaled by
    /// parts-per-million factors (`1_000_000` = unchanged).
    ///
    /// This is the hardware-spread hook for fleet simulation: real
    /// devices of one SKU differ a few percent in silicon leakage and
    /// board-level draw, and the spread is specified in integer ppm so
    /// a device's parameters derive exactly from its spec — no float
    /// round-trip between the population generator and the job key.
    pub fn scaled_ppm(&self, core_ppm: u32, base_ppm: u32) -> PowerParams {
        PowerParams {
            core_w_per_mhz: self.core_w_per_mhz * (core_ppm as f64 / 1e6),
            base_w: self.base_w * (base_ppm as f64 / 1e6),
            ..self.clone()
        }
    }
}

/// Which peripheral devices are currently powered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceSet {
    /// LCD panel enabled.
    pub lcd: bool,
    /// Audio path enabled.
    pub audio: bool,
}

impl DeviceSet {
    /// Everything off (the configuration of the §2.1 battery-lifetime
    /// experiment).
    pub const NONE: DeviceSet = DeviceSet {
        lcd: false,
        audio: false,
    };

    /// Display and audio on (the MPEG workload configuration).
    pub const AV: DeviceSet = DeviceSet {
        lcd: true,
        audio: true,
    };

    /// Display only.
    pub const LCD: DeviceSet = DeviceSet {
        lcd: true,
        audio: false,
    };
}

/// Computes instantaneous power from machine state.
#[derive(Debug, Clone, Default)]
pub struct PowerModel {
    /// The model constants.
    pub params: PowerParams,
}

impl PowerModel {
    /// Creates a model with the given constants.
    pub fn new(params: PowerParams) -> Self {
        PowerModel { params }
    }

    /// Core power in the given mode at frequency `f` and voltage `v`.
    pub fn core_power(&self, mode: CpuMode, f: Frequency, v: Voltage) -> Power {
        let active = self.params.core_w_per_mhz * f.as_mhz_f64() * self.params.voltage_factor(v);
        let w = match mode {
            CpuMode::Run => active,
            CpuMode::Nap => active * self.params.nap_fraction,
            // During a clock-change stall no instructions retire but the
            // PLL and clock tree are busy; charge nap-level power.
            CpuMode::Stalled => active * self.params.nap_fraction,
        };
        Power::from_watts(w)
    }

    /// Peripheral power for the given device set.
    pub fn peripheral_power(&self, devices: DeviceSet) -> Power {
        let mut w = self.params.base_w;
        if devices.lcd {
            w += self.params.lcd_w;
        }
        if devices.audio {
            w += self.params.audio_w;
        }
        Power::from_watts(w)
    }

    /// Total system power.
    pub fn system_power(
        &self,
        mode: CpuMode,
        f: Frequency,
        v: Voltage,
        devices: DeviceSet,
    ) -> Power {
        self.core_power(mode, f, v) + self.peripheral_power(devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ClockTable, V_HIGH, V_LOW};

    fn model() -> (PowerModel, ClockTable) {
        (PowerModel::default(), ClockTable::sa1100())
    }

    #[test]
    fn core_power_scales_with_frequency() {
        let (m, t) = model();
        let p59 = m.core_power(CpuMode::Run, t.freq(0), V_HIGH).as_watts();
        let p206 = m.core_power(CpuMode::Run, t.freq(10), V_HIGH).as_watts();
        assert!((p206 / p59 - 206.4 / 59.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_drop_cuts_core_power_about_15_percent() {
        // The paper: "the voltage reduction yields about a 15% reduction
        // in the power consumed by the processor".
        let (m, t) = model();
        let hi = m.core_power(CpuMode::Run, t.freq(5), V_HIGH).as_watts();
        let lo = m.core_power(CpuMode::Run, t.freq(5), V_LOW).as_watts();
        let reduction = 1.0 - lo / hi;
        assert!(
            (0.12..=0.22).contains(&reduction),
            "core power reduction = {reduction}"
        );
    }

    #[test]
    fn nap_power_is_a_fraction_of_active() {
        let (m, t) = model();
        let run = m.core_power(CpuMode::Run, t.freq(10), V_HIGH).as_watts();
        let nap = m.core_power(CpuMode::Nap, t.freq(10), V_HIGH).as_watts();
        assert!(nap > 0.0, "nap must not be free: the clock still runs");
        assert!(nap < run);
        assert!((nap / run - m.params.nap_fraction).abs() < 1e-9);
    }

    #[test]
    fn peripherals_add_up() {
        let (m, _) = model();
        let none = m.peripheral_power(DeviceSet::NONE).as_watts();
        let lcd = m.peripheral_power(DeviceSet::LCD).as_watts();
        let av = m.peripheral_power(DeviceSet::AV).as_watts();
        assert!((none - m.params.base_w).abs() < 1e-12);
        assert!((lcd - none - m.params.lcd_w).abs() < 1e-12);
        assert!((av - lcd - m.params.audio_w).abs() < 1e-12);
    }

    #[test]
    fn running_slow_beats_racing_to_idle_for_fixed_work() {
        // Section 2.1's argument: with voltage scaling, finishing work
        // just in time at a low step beats racing at the top step and
        // napping, because nap power is not zero and the V^2 term shrinks.
        let (m, t) = model();
        let work_cycles = 59_000_000.0; // 1 s at 59 MHz.
                                        // Slow: run at 59 MHz / 1.23 V for 1 s.
        let slow_p = m.system_power(CpuMode::Run, t.freq(0), V_LOW, DeviceSet::NONE);
        let slow_e = slow_p.over(SimDuration::from_secs(1)).as_joules();
        // Fast: run at 206.4 MHz / 1.5 V for 59/206.4 s, then nap.
        let busy = SimDuration::from_secs_f64(work_cycles / 206.4e6);
        let idle = SimDuration::from_secs(1) - busy;
        let fast_e = m
            .system_power(CpuMode::Run, t.freq(10), V_HIGH, DeviceSet::NONE)
            .over(busy)
            .as_joules()
            + m.system_power(CpuMode::Nap, t.freq(10), V_HIGH, DeviceSet::NONE)
                .over(idle)
                .as_joules();
        assert!(
            slow_e < fast_e,
            "slow-and-steady {slow_e} should beat race-to-idle {fast_e}"
        );
    }

    #[test]
    fn voltage_factor_is_one_at_reference() {
        let p = PowerParams::default();
        assert!((p.voltage_factor(V_HIGH) - 1.0).abs() < 1e-12);
        assert!(p.voltage_factor(V_LOW) < 1.0);
    }

    #[test]
    fn ppm_scaling_spreads_core_and_base_draw() {
        let stock = PowerParams::default();
        let hot = stock.scaled_ppm(1_050_000, 980_000); // +5 % core, −2 % base
        assert!((hot.core_w_per_mhz / stock.core_w_per_mhz - 1.05).abs() < 1e-12);
        assert!((hot.base_w / stock.base_w - 0.98).abs() < 1e-12);
        // Everything else is untouched.
        assert_eq!(hot.v_ref_mv, stock.v_ref_mv);
        assert_eq!(hot.clock_switch_stall_us, stock.clock_switch_stall_us);
        // Identity scaling is exact.
        assert_eq!(stock.scaled_ppm(1_000_000, 1_000_000), stock);
    }

    #[test]
    fn switch_costs_expose_paper_values() {
        let p = PowerParams::default();
        assert_eq!(p.clock_switch_stall().as_micros(), 200);
        assert_eq!(p.voltage_settle_down().as_micros(), 250);
    }
}
