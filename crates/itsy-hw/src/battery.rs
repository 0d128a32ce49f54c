//! Battery model with rate-dependent capacity and recovery.
//!
//! Section 2.1 of the paper: "the amount of energy a battery can deliver
//! (i.e., its capacity) is reduced with increased power consumption",
//! illustrated by the Itsy on a pair of AAA alkalines lasting ~2 hours
//! idle at 206 MHz but ~18 hours at 59 MHz — a 9× lifetime improvement
//! for only a 3.5× clock reduction. The paper also cites the "pulsed
//! power" effect: interspersing bursts with long rests lets the battery
//! recover some capacity.
//!
//! We model both effects:
//!
//! - **rate-capacity**: a Peukert-style derating applied to an
//!   exponentially-smoothed draw — charge consumed per second is
//!   `P · max(1, (P̄/P_ref)^(k−1))`, where `P̄` is the smoothed recent
//!   draw;
//! - **recovery**: a fraction of the derating *loss* (the charge consumed
//!   beyond the ideal `P·dt`) is parked in a recoverable pool that flows
//!   back into the battery while the draw is light, so pulsed loads
//!   deliver more total energy than a constant load of the same average
//!   power.
//!
//! # Memoised decay factors
//!
//! [`Battery::drain`] needs `1 − exp(−dt/τ)` for the smoothing and the
//! recovery time constants on every call, and the kernel drains with a
//! handful of durations over and over — the 10-ms quantum above all.
//! Each factor is a pure function of the draw's microsecond count (the
//! parameters never change after construction), so the battery keeps
//! the last factor per `µs % 8` and recomputes only on a miss, with the
//! very expression it would otherwise evaluate. A hit therefore returns
//! the same bits a fresh `exp` would, and the charge trajectory is
//! unchanged. The memo belongs to the battery instance: no global or
//! thread-local state.

use sim_core::{Power, SimDuration};

/// Battery model constants.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryParams {
    /// Nominal deliverable energy at the reference draw, in watt-hours.
    /// Two AAA alkalines ≈ 3.46 Wh.
    pub nominal_wh: f64,
    /// Draw (watts) at which the nominal capacity is fully delivered.
    pub ref_power_w: f64,
    /// Peukert exponent; 1.0 disables rate effects. Alkalines are
    /// strongly rate-sensitive (k ≈ 1.3–1.4).
    pub peukert_k: f64,
    /// Time constant of the draw smoothing (seconds); controls how fast
    /// the battery "recovers" after a burst.
    pub smoothing_tau_s: f64,
    /// Fraction of the derating loss that is recoverable during rest.
    pub recovery_fraction: f64,
    /// Time constant (seconds) of charge recovery while the draw is at
    /// or below the reference power.
    pub recovery_tau_s: f64,
}

impl Default for BatteryParams {
    fn default() -> Self {
        // Calibrated to the paper's anchors: idle draw at 59 MHz
        // (~0.19 W) delivers ~18 h; idle draw at 206.4 MHz (~0.95 W)
        // delivers ~2 h.
        BatteryParams {
            nominal_wh: 3.46,
            ref_power_w: 0.19,
            peukert_k: 1.373,
            smoothing_tau_s: 60.0,
            recovery_fraction: 0.6,
            recovery_tau_s: 100.0,
        }
    }
}

/// A discharging battery.
///
/// # Examples
///
/// ```
/// use itsy_hw::battery::{Battery, BatteryParams};
/// use sim_core::{Power, SimDuration};
///
/// let mut battery = Battery::new(BatteryParams::default());
/// battery.drain(Power::from_watts(0.95), SimDuration::from_secs(3600));
/// assert!(battery.remaining_fraction() < 0.7);
/// // Closed form: ~2 hours at the 206.4 MHz idle draw.
/// let hours = battery.lifetime_hours_at_constant(Power::from_watts(0.95));
/// assert!((1.8..2.2).contains(&hours));
/// ```
#[derive(Debug, Clone)]
pub struct Battery {
    params: BatteryParams,
    charge_j: f64,
    avg_power_w: f64,
    recoverable_j: f64,
    /// Smoothing factor per draw duration.
    alpha: DecayMemo,
    /// Recovery factor per draw duration.
    beta: DecayMemo,
}

/// `1 − exp(−dt/τ)` for one fixed `τ`, remembered for the last draw
/// duration seen in each of 8 slots (by `µs % 8`). Zero marks an empty
/// slot: `drain` never asks for a zero-length draw.
#[derive(Debug, Clone, Default)]
struct DecayMemo([(u64, f64); 8]);

impl DecayMemo {
    #[inline]
    fn factor(&mut self, us: u64, dt: f64, tau_s: f64) -> f64 {
        let slot = &mut self.0[(us % 8) as usize];
        if slot.0 != us {
            *slot = (us, 1.0 - (-dt / tau_s).exp());
        }
        slot.1
    }
}

impl Battery {
    /// Creates a fully-charged battery.
    pub fn new(params: BatteryParams) -> Self {
        Battery::with_charge_fraction(params, 1.0)
    }

    /// Creates a battery holding `fraction` of its nominal charge
    /// (clamped to `[0, 1]`). Fleet populations start devices at
    /// varied charge states; a device mid-discharge behaves differently
    /// under rate-derating than a fresh one.
    pub fn with_charge_fraction(params: BatteryParams, fraction: f64) -> Self {
        let charge_j = params.nominal_wh * 3_600.0 * fraction.clamp(0.0, 1.0);
        Battery {
            params,
            charge_j,
            avg_power_w: 0.0,
            recoverable_j: 0.0,
            alpha: DecayMemo::default(),
            beta: DecayMemo::default(),
        }
    }

    /// The model constants.
    pub fn params(&self) -> &BatteryParams {
        &self.params
    }

    /// Remaining deliverable charge in joules (at the reference rate).
    pub fn remaining_joules(&self) -> f64 {
        self.charge_j.max(0.0)
    }

    /// Remaining charge as a fraction of nominal.
    pub fn remaining_fraction(&self) -> f64 {
        (self.charge_j / (self.params.nominal_wh * 3_600.0)).clamp(0.0, 1.0)
    }

    /// True once the battery can no longer supply the load.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.charge_j <= 0.0
    }

    /// The current smoothed draw used for derating (reporting).
    pub fn smoothed_draw(&self) -> Power {
        Power::from_watts(self.avg_power_w.max(0.0))
    }

    /// Derating factor at smoothed draw `p_avg`: 1 at or below the
    /// reference draw, growing as `(p/p_ref)^(k-1)` above it.
    #[inline]
    pub fn derating(&self, p_avg: f64) -> f64 {
        if p_avg <= self.params.ref_power_w || self.params.peukert_k <= 1.0 {
            1.0
        } else {
            (p_avg / self.params.ref_power_w).powf(self.params.peukert_k - 1.0)
        }
    }

    /// Draws power `p` for duration `d`, updating the smoothed draw and
    /// consuming derated charge.
    #[inline]
    pub fn drain(&mut self, p: Power, d: SimDuration) {
        let dt = d.as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let us = d.as_micros();
        // Exponential smoothing toward the instantaneous draw.
        let alpha = self.alpha.factor(us, dt, self.params.smoothing_tau_s);
        self.avg_power_w += alpha * (p.as_watts() - self.avg_power_w);
        let derate = self.derating(self.avg_power_w);
        let ideal = p.as_watts() * dt;
        let loss = ideal * (derate - 1.0);
        self.charge_j -= ideal + loss;
        self.recoverable_j += loss * self.params.recovery_fraction;
        // Charge recovery while the load is light.
        if p.as_watts() <= self.params.ref_power_w && self.recoverable_j > 0.0 {
            let beta = self.beta.factor(us, dt, self.params.recovery_tau_s);
            let back = self.recoverable_j * beta;
            self.recoverable_j -= back;
            self.charge_j += back;
        }
    }

    /// Closed-form lifetime in hours under a constant draw (steady-state
    /// smoothed draw equals the instantaneous draw).
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn lifetime_hours_at_constant(&self, p: Power) -> f64 {
        let w = p.as_watts();
        assert!(w > 0.0, "lifetime under zero draw is unbounded");
        let derate = self.derating(w);
        self.params.nominal_wh / (w * derate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Rng;

    /// `Battery::drain` as it was before the decay memo: both factors
    /// from `exp` on every call.
    fn drain_unmemoised(b: &mut Battery, p: Power, d: SimDuration) {
        let dt = d.as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        let alpha = 1.0 - (-dt / b.params.smoothing_tau_s).exp();
        b.avg_power_w += alpha * (p.as_watts() - b.avg_power_w);
        let derate = b.derating(b.avg_power_w);
        let ideal = p.as_watts() * dt;
        let loss = ideal * (derate - 1.0);
        b.charge_j -= ideal + loss;
        b.recoverable_j += loss * b.params.recovery_fraction;
        if p.as_watts() <= b.params.ref_power_w && b.recoverable_j > 0.0 {
            let beta = 1.0 - (-dt / b.params.recovery_tau_s).exp();
            let back = b.recoverable_j * beta;
            b.recoverable_j -= back;
            b.charge_j += back;
        }
    }

    #[test]
    fn memoised_drain_keeps_every_bit() {
        let mut rng = Rng::new(0x5eed);
        let mut memo = Battery::with_charge_fraction(BatteryParams::default(), 0.9);
        let mut plain = memo.clone();
        let ref_w = memo.params.ref_power_w;
        let (mut derated, mut recovered) = (0, 0);
        let mut step = |p: f64, us: u64| {
            derated += usize::from(memo.avg_power_w > ref_w);
            recovered += usize::from(p <= ref_w && memo.recoverable_j > 0.0);
            let (p, d) = (Power::from_watts(p), SimDuration::from_micros(us));
            memo.drain(p, d);
            drain_unmemoised(&mut plain, p, d);
            assert_eq!(
                memo.remaining_fraction().to_bits(),
                plain.remaining_fraction().to_bits(),
                "charge after {p:?} for {us} us"
            );
            assert_eq!(
                memo.smoothed_draw().as_watts().to_bits(),
                plain.smoothed_draw().as_watts().to_bits(),
                "smoothed draw after {p:?} for {us} us"
            );
        };
        for round in 0..40 {
            // Arbitrary draws.
            for _ in 0..200 {
                step(rng.uniform_range(0.05, 5.0), 1 + rng.below(20_000));
            }
            // Durations that share a memo slot, alternating: `us` with
            // `us + 8` and with `us + 16`. Even rounds hold a sustained
            // heavy draw (smoothed draw above the 0.19-W reference, so
            // the derating `powf` path runs); odd rounds a light one
            // (the recovery path, which reads the second memo).
            let us = 1 + rng.below(20_000);
            let (lo, hi) = if round % 2 == 0 {
                (0.5, 5.0)
            } else {
                (0.05, 0.19)
            };
            for i in 0..300 {
                let other = if i % 4 < 2 { us + 8 } else { us + 16 };
                let d = if i % 2 == 0 { us } else { other };
                step(rng.uniform_range(lo, hi), d);
            }
        }
        assert!(
            derated > 1_000,
            "only {derated} drains above the reference draw"
        );
        assert!(
            recovered > 1_000,
            "only {recovered} drains on the recovery path"
        );
    }

    #[test]
    fn full_at_birth() {
        let b = Battery::new(BatteryParams::default());
        assert!(!b.is_empty());
        assert!((b.remaining_fraction() - 1.0).abs() < 1e-12);
        assert!((b.remaining_joules() - 3.46 * 3600.0).abs() < 1e-6);
    }

    #[test]
    fn partial_charge_starts_proportionally_full() {
        let b = Battery::with_charge_fraction(BatteryParams::default(), 0.25);
        assert!((b.remaining_fraction() - 0.25).abs() < 1e-12);
        // Clamped at both ends.
        let over = Battery::with_charge_fraction(BatteryParams::default(), 1.7);
        assert!((over.remaining_fraction() - 1.0).abs() < 1e-12);
        let under = Battery::with_charge_fraction(BatteryParams::default(), -0.5);
        assert!(under.is_empty());
    }

    #[test]
    fn paper_anchor_lifetimes() {
        // ~18 h at the 59 MHz idle draw, ~2 h at the 206.4 MHz idle draw.
        let b = Battery::new(BatteryParams::default());
        let slow = b.lifetime_hours_at_constant(Power::from_watts(0.19));
        let fast = b.lifetime_hours_at_constant(Power::from_watts(0.95));
        assert!((17.0..19.5).contains(&slow), "slow lifetime = {slow}h");
        assert!((1.8..2.2).contains(&fast), "fast lifetime = {fast}h");
        // The headline asymmetry: ~9x life for ~3.5x clock.
        let ratio = slow / fast;
        assert!((8.0..10.5).contains(&ratio), "lifetime ratio = {ratio}");
    }

    #[test]
    fn derating_is_monotone_and_one_at_reference() {
        let b = Battery::new(BatteryParams::default());
        assert_eq!(b.derating(0.19), 1.0);
        assert_eq!(b.derating(0.01), 1.0);
        let d1 = b.derating(0.5);
        let d2 = b.derating(1.0);
        assert!(1.0 < d1 && d1 < d2);
    }

    #[test]
    fn draining_matches_closed_form_for_constant_load() {
        let mut b = Battery::new(BatteryParams::default());
        let p = Power::from_watts(0.95);
        let step = SimDuration::from_secs(10);
        let mut hours = 0.0;
        // Warm up the smoothing first (battery starts with avg 0).
        while !b.is_empty() {
            b.drain(p, step);
            hours += 10.0 / 3600.0;
            assert!(hours < 30.0, "battery never drained");
        }
        let expect = b.lifetime_hours_at_constant(p);
        // The smoothing warm-up gives a small bonus at the start.
        assert!(
            (hours - expect).abs() / expect < 0.05,
            "simulated {hours}h vs closed-form {expect}h"
        );
    }

    #[test]
    fn pulsed_discharge_beats_constant_at_same_average_power() {
        // The Chiasserini/Rao effect the paper cites: alternating bursts
        // with long rests delivers more total energy than the same
        // average power drawn continuously.
        let params = BatteryParams::default();
        let mut constant = Battery::new(params.clone());
        let mut pulsed = Battery::new(params);
        let step = SimDuration::from_secs(1);
        let mut constant_j = 0.0;
        let mut pulsed_j = 0.0;
        let mut t = 0u64;
        while !constant.is_empty() || !pulsed.is_empty() {
            if !constant.is_empty() {
                constant.drain(Power::from_watts(0.6), step);
                constant_j += 0.6;
            }
            if !pulsed.is_empty() {
                // 1.2 W for 100 s, then 0 W for 100 s: same 0.6 W average.
                let burst = (t / 100).is_multiple_of(2);
                let p = if burst { 1.2 } else { 0.0 };
                pulsed.drain(Power::from_watts(p), step);
                pulsed_j += p;
            }
            t += 1;
            assert!(t < 200_000, "drain loop ran away");
        }
        assert!(
            pulsed_j > constant_j,
            "pulsed delivered {pulsed_j}J <= constant {constant_j}J"
        );
    }

    #[test]
    fn peukert_disabled_gives_ideal_battery() {
        let b = Battery::new(BatteryParams {
            peukert_k: 1.0,
            ..BatteryParams::default()
        });
        let l1 = b.lifetime_hours_at_constant(Power::from_watts(0.5));
        let l2 = b.lifetime_hours_at_constant(Power::from_watts(1.0));
        assert!((l1 / l2 - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn zero_draw_lifetime_panics() {
        let b = Battery::new(BatteryParams::default());
        let _ = b.lifetime_hours_at_constant(Power::ZERO);
    }
}
