//! Serializable policy descriptors.
//!
//! A live policy ([`IntervalScheduler`], [`ConstantPolicy`]) is a boxed
//! trait object carrying mutable predictor state — it cannot be hashed,
//! compared, or persisted. A [`PolicyDesc`] is the *recipe* for one:
//! plain data naming the predictor, thresholds, speed rules and voltage
//! rule. The execution engine content-addresses jobs by hashing the
//! descriptor's [canonical encoding](PolicyDesc::canonical), and
//! rebuilds a fresh policy per run with [`PolicyDesc::build`], so a
//! cached result is provably a function of its inputs.
//!
//! Canonical-encoding rules (the on-disk cache key depends on them):
//!
//! - field order is fixed and every field is always present;
//! - `f64` parameters are encoded as `to_bits()` hex, never decimal —
//!   formatting is lossy and locale/version-dependent, bits are not;
//! - enum variants use lowercase stable tags, not `Debug` output.
//!
//! The encoders and labels append digits directly
//! ([`sim_core::digits`]) rather than through `write!`: a warm cache
//! hit re-encodes its cell's whole spec, and a batch labels every
//! policy it ran.

use core::fmt::Write;

use itsy_hw::{ClockTable, StepIndex};
use sim_core::digits::{push_decimal, push_hex16};
use sim_core::Voltage;

use crate::governor::{
    push_rounded, ClockPolicy, ConstantPolicy, Hysteresis, IntervalScheduler, VoltageRule,
};
use crate::govil::{AgedAverage, Cycle, Flat, LongShort, Pattern, Peak};
use crate::predictor::{AvgN, Past, Predictor, SlidingWindowAvg};
use crate::simple::NonIdleCycleAvg;
use crate::speed::SpeedChange;

/// A buildable, hashable description of a utilization predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorDesc {
    /// Weiser's PAST: last interval only.
    Past,
    /// Decaying average with weight N.
    AvgN(u32),
    /// Unweighted average of the last `n` intervals.
    SlidingWindow(usize),
    /// Govil's FLAT: constant prediction.
    Flat(f64),
    /// Govil's LONG_SHORT.
    LongShort,
    /// Govil's AGED_AVERAGES with geometric factor `k`.
    Aged(f64),
    /// Govil's CYCLE.
    Cycle,
    /// Govil's PATTERN.
    Pattern,
    /// Govil's PEAK.
    Peak,
}

impl PredictorDesc {
    /// Instantiates a fresh predictor with zeroed state.
    pub fn build(self) -> Box<dyn Predictor + Send> {
        match self {
            PredictorDesc::Past => Box::new(Past::new()),
            PredictorDesc::AvgN(n) => Box::new(AvgN::new(n)),
            PredictorDesc::SlidingWindow(n) => Box::new(SlidingWindowAvg::new(n)),
            PredictorDesc::Flat(level) => Box::new(Flat::new(level)),
            PredictorDesc::LongShort => Box::new(LongShort::new()),
            PredictorDesc::Aged(k) => Box::new(AgedAverage::new(k)),
            PredictorDesc::Cycle => Box::new(Cycle::new()),
            PredictorDesc::Pattern => Box::new(Pattern::new()),
            PredictorDesc::Peak => Box::new(Peak::new()),
        }
    }

    /// Stable canonical tag for content addressing.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    /// Appends [`canonical`](Self::canonical)'s tag to `out`.
    fn write_canonical(&self, out: &mut String) {
        match *self {
            PredictorDesc::Past => out.push_str("past"),
            PredictorDesc::AvgN(n) => {
                out.push_str("avg_n:");
                push_decimal(out, n.into());
            }
            PredictorDesc::SlidingWindow(n) => {
                out.push_str("sliding:");
                push_decimal(out, n as u64);
            }
            PredictorDesc::Flat(level) => {
                out.push_str("flat:");
                push_hex16(out, level.to_bits());
            }
            PredictorDesc::LongShort => out.push_str("long_short"),
            PredictorDesc::Aged(k) => {
                out.push_str("aged:");
                push_hex16(out, k.to_bits());
            }
            PredictorDesc::Cycle => out.push_str("cycle"),
            PredictorDesc::Pattern => out.push_str("pattern"),
            PredictorDesc::Peak => out.push_str("peak"),
        }
    }

    /// The variant's tag and its parameter's bits, as
    /// [`PolicyDesc::bits`] packs them.
    fn bits(&self) -> (u64, u64) {
        match *self {
            PredictorDesc::Past => (0, 0),
            PredictorDesc::AvgN(n) => (1, n.into()),
            PredictorDesc::SlidingWindow(n) => (2, n as u64),
            PredictorDesc::Flat(level) => (3, level.to_bits()),
            PredictorDesc::LongShort => (4, 0),
            PredictorDesc::Aged(k) => (5, k.to_bits()),
            PredictorDesc::Cycle => (6, 0),
            PredictorDesc::Pattern => (7, 0),
            PredictorDesc::Peak => (8, 0),
        }
    }

    /// Human-readable name matching the paper's / Govil's spelling.
    pub fn label(&self) -> String {
        let mut out = String::new();
        self.write_label(&mut out);
        out
    }

    /// Appends [`label`](Self::label)'s name to `out`.
    fn write_label(&self, out: &mut String) {
        match *self {
            PredictorDesc::Past => out.push_str("PAST"),
            PredictorDesc::AvgN(n) => {
                out.push_str("AVG_");
                push_decimal(out, n.into());
            }
            PredictorDesc::SlidingWindow(n) => {
                out.push_str("SW_");
                push_decimal(out, n as u64);
            }
            PredictorDesc::Flat(level) => {
                out.push_str("FLAT_");
                push_rounded(out, level * 100.0);
            }
            PredictorDesc::LongShort => out.push_str("LONG_SHORT"),
            PredictorDesc::Aged(k) => {
                let _ = write!(out, "AGED_{k:.2}");
            }
            PredictorDesc::Cycle => out.push_str("CYCLE"),
            PredictorDesc::Pattern => out.push_str("PATTERN"),
            PredictorDesc::Peak => out.push_str("PEAK"),
        }
    }
}

/// A buildable, hashable description of a complete clock policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyDesc {
    /// Pin the clock and voltage — the constant-speed baselines.
    Constant {
        /// Pinned clock step.
        step: StepIndex,
        /// Pinned core voltage, mV.
        voltage_mv: u32,
    },
    /// The paper's interval scheduler.
    Interval {
        /// Utilization predictor.
        predictor: PredictorDesc,
        /// Hysteresis band.
        hysteresis: Hysteresis,
        /// Scale-up rule.
        up: SpeedChange,
        /// Scale-down rule.
        down: SpeedChange,
        /// Optional 1.23 V rule.
        voltage_rule: Option<VoltageRule>,
    },
    /// The Figure 5 simple-averaging strawman ([`NonIdleCycleAvg`]).
    SimpleAvg {
        /// Averaging window, in quanta.
        window: usize,
    },
}

impl PolicyDesc {
    /// The constant top-speed (206.4 MHz, 1.5 V) baseline.
    pub fn constant_top() -> Self {
        PolicyDesc::Constant {
            step: 10,
            voltage_mv: itsy_hw::clock::V_HIGH.as_mv(),
        }
    }

    /// An interval scheduler without voltage scaling.
    pub fn interval(
        predictor: PredictorDesc,
        hysteresis: Hysteresis,
        up: SpeedChange,
        down: SpeedChange,
    ) -> Self {
        PolicyDesc::Interval {
            predictor,
            hysteresis,
            up,
            down,
            voltage_rule: None,
        }
    }

    /// The paper's best policy: PAST, peg-peg, >98 %/<93 %.
    pub fn best_from_paper() -> Self {
        Self::interval(
            PredictorDesc::Past,
            Hysteresis::BEST,
            SpeedChange::Peg,
            SpeedChange::Peg,
        )
    }

    /// Adds a voltage-scaling rule (interval policies only).
    ///
    /// # Panics
    ///
    /// Panics on a constant policy — its voltage is already explicit.
    pub fn with_voltage_rule(mut self, rule: VoltageRule) -> Self {
        match &mut self {
            PolicyDesc::Interval { voltage_rule, .. } => *voltage_rule = Some(rule),
            PolicyDesc::Constant { .. } => {
                panic!("voltage rule on a constant policy: set `voltage_mv` instead")
            }
            PolicyDesc::SimpleAvg { .. } => {
                panic!("the simple-averaging strawman has no voltage rule")
            }
        }
        self
    }

    /// Instantiates the live policy with fresh state.
    pub fn build(&self, table: ClockTable) -> Box<dyn ClockPolicy> {
        match self {
            PolicyDesc::Constant { step, voltage_mv } => {
                Box::new(ConstantPolicy::new(*step, Voltage::from_mv(*voltage_mv)))
            }
            PolicyDesc::Interval {
                predictor,
                hysteresis,
                up,
                down,
                voltage_rule,
            } => {
                let mut sched =
                    IntervalScheduler::new(predictor.build(), *hysteresis, *up, *down, table);
                if let Some(rule) = voltage_rule {
                    sched = sched.with_voltage_rule(*rule);
                }
                Box::new(sched)
            }
            PolicyDesc::SimpleAvg { window } => Box::new(NonIdleCycleAvg::new(*window, table)),
        }
    }

    /// Stable canonical encoding for content addressing.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    /// Appends [`canonical`](Self::canonical)'s encoding to `out`, so a
    /// caller can build a whole job key in one buffer.
    pub fn write_canonical(&self, out: &mut String) {
        match *self {
            PolicyDesc::Constant { step, voltage_mv } => {
                out.push_str("constant;step=");
                push_decimal(out, step as u64);
                out.push_str(";mv=");
                push_decimal(out, voltage_mv.into());
            }
            PolicyDesc::Interval {
                predictor,
                hysteresis,
                up,
                down,
                voltage_rule,
            } => {
                out.push_str("interval;pred=");
                predictor.write_canonical(out);
                out.push_str(";up_th=");
                push_hex16(out, hysteresis.up.to_bits());
                out.push_str(";down_th=");
                push_hex16(out, hysteresis.down.to_bits());
                out.push_str(";up=");
                out.push_str(up.label());
                out.push_str(";down=");
                out.push_str(down.label());
                out.push_str(";vrule=");
                match voltage_rule {
                    Some(r) => {
                        out.push_str("le");
                        push_decimal(out, r.low_at_or_below as u64);
                    }
                    None => out.push_str("none"),
                }
            }
            PolicyDesc::SimpleAvg { window } => {
                out.push_str("simple_avg;window=");
                push_decimal(out, window as u64);
            }
        }
    }

    /// The descriptor's bit image: its variant, rules and parameters as
    /// integers, floats by `to_bits()` — the bits
    /// [`canonical`](Self::canonical) encodes, so two descriptors share
    /// an image exactly when they share an encoding. Unlike the
    /// descriptor, the image is `Eq + Hash`, so it can key a map.
    pub fn bits(&self) -> [u64; 5] {
        match *self {
            PolicyDesc::Constant { step, voltage_mv } => [0, step as u64, voltage_mv.into(), 0, 0],
            PolicyDesc::Interval {
                predictor,
                hysteresis,
                up,
                down,
                voltage_rule,
            } => {
                let (tag, param) = predictor.bits();
                let rules = 1
                    | tag << 8
                    | (up as u64) << 16
                    | (down as u64) << 24
                    | u64::from(voltage_rule.is_some()) << 32;
                let step = voltage_rule.map_or(0, |r| r.low_at_or_below as u64);
                [
                    rules,
                    param,
                    hysteresis.up.to_bits(),
                    hysteresis.down.to_bits(),
                    step,
                ]
            }
            PolicyDesc::SimpleAvg { window } => [2, window as u64, 0, 0, 0],
        }
    }

    /// Human-readable summary for progress lines and tables.
    pub fn label(&self) -> String {
        let mut out = String::with_capacity(32);
        match *self {
            PolicyDesc::Constant { step, voltage_mv } => {
                out.push_str("constant step ");
                push_decimal(&mut out, step as u64);
                out.push_str(" @ ");
                push_decimal(&mut out, voltage_mv.into());
                out.push_str(" mV");
            }
            PolicyDesc::Interval {
                predictor,
                hysteresis,
                up,
                down,
                ..
            } => {
                predictor.write_label(&mut out);
                out.push(' ');
                out.push_str(up.label());
                out.push('-');
                out.push_str(down.label());
                out.push(' ');
                hysteresis.write_label(&mut out);
            }
            PolicyDesc::SimpleAvg { window } => {
                out.push_str("SIMPLE_AVG_");
                push_decimal(&mut out, window as u64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    #[test]
    fn canonical_is_injective_over_the_sweep_grid() {
        // Every cell of the §5.3 grid must get a distinct encoding.
        let mut seen = std::collections::HashSet::new();
        for n in 0..=10u32 {
            for up in [SpeedChange::One, SpeedChange::Double, SpeedChange::Peg] {
                for down in [SpeedChange::One, SpeedChange::Double, SpeedChange::Peg] {
                    for th in [Hysteresis::PERING, Hysteresis::BEST] {
                        let d = PolicyDesc::interval(PredictorDesc::AvgN(n), th, up, down);
                        assert!(seen.insert(d.canonical()), "duplicate: {}", d.canonical());
                    }
                }
            }
        }
        assert_eq!(seen.len(), 11 * 3 * 3 * 2);
    }

    #[test]
    fn bit_images_agree_with_canonical_encodings() {
        // Two descriptors share a bit image exactly when they share an
        // encoding, over every variant, rule and parameter kind.
        let mut descs = vec![
            PolicyDesc::constant_top(),
            PolicyDesc::Constant {
                step: 5,
                voltage_mv: 1230,
            },
            PolicyDesc::SimpleAvg { window: 4 },
            PolicyDesc::SimpleAvg { window: 5 },
        ];
        let predictors = [
            PredictorDesc::Past,
            PredictorDesc::AvgN(3),
            PredictorDesc::AvgN(4),
            PredictorDesc::SlidingWindow(3),
            PredictorDesc::Flat(0.7),
            PredictorDesc::Flat(-0.0),
            PredictorDesc::LongShort,
            PredictorDesc::Aged(0.7),
            PredictorDesc::Cycle,
            PredictorDesc::Pattern,
            PredictorDesc::Peak,
        ];
        for p in predictors {
            for up in [SpeedChange::One, SpeedChange::Double, SpeedChange::Peg] {
                for down in [SpeedChange::One, SpeedChange::Peg] {
                    for th in [Hysteresis::PERING, Hysteresis::BEST] {
                        let d = PolicyDesc::interval(p, th, up, down);
                        descs.push(d);
                        for low_at_or_below in [0, 5] {
                            descs.push(d.with_voltage_rule(VoltageRule { low_at_or_below }));
                        }
                    }
                }
            }
        }
        let encoded: Vec<(String, [u64; 5])> =
            descs.iter().map(|d| (d.canonical(), d.bits())).collect();
        for (a, a_bits) in &encoded {
            for (b, b_bits) in &encoded {
                assert_eq!(a == b, a_bits == b_bits, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn float_params_encode_bit_exactly() {
        let a = PredictorDesc::Flat(0.7).canonical();
        let b = PredictorDesc::Flat(0.7 + f64::EPSILON).canonical();
        assert_ne!(a, b, "nearby floats must not collide");
        assert_eq!(a, PredictorDesc::Flat(0.7).canonical());
    }

    #[test]
    fn built_policy_matches_direct_construction() {
        let desc = PolicyDesc::best_from_paper();
        let mut built = desc.build(ClockTable::sa1100());
        let mut direct = IntervalScheduler::best_from_paper(ClockTable::sa1100());
        for (i, util) in [1.0, 0.5, 0.99, 0.2, 1.0].iter().enumerate() {
            let t = SimTime::from_millis(10 * i as u64);
            assert_eq!(
                built.on_interval(t, *util, 5),
                direct.on_interval(t, *util, 5),
            );
        }
        assert_eq!(built.name(), direct.name());
    }

    #[test]
    fn simple_avg_desc_builds_strawman() {
        let desc = PolicyDesc::SimpleAvg { window: 4 };
        let mut p = desc.build(ClockTable::sa1100());
        assert_eq!(p.name(), "NonIdleCycleAvg_4");
        // Fully busy at the top step: no change requested.
        let req = p.on_interval(SimTime::ZERO, 1.0, 10);
        assert_eq!(req.step, None);
        assert_eq!(desc.canonical(), "simple_avg;window=4");
    }

    #[test]
    fn constant_desc_builds_constant_policy() {
        let desc = PolicyDesc::constant_top();
        let mut p = desc.build(ClockTable::sa1100());
        let req = p.on_interval(SimTime::ZERO, 0.5, 3);
        assert_eq!(req.step, Some(10));
    }

    #[test]
    fn every_predictor_desc_builds() {
        for d in [
            PredictorDesc::Past,
            PredictorDesc::AvgN(5),
            PredictorDesc::SlidingWindow(4),
            PredictorDesc::Flat(0.7),
            PredictorDesc::LongShort,
            PredictorDesc::Aged(0.9),
            PredictorDesc::Cycle,
            PredictorDesc::Pattern,
            PredictorDesc::Peak,
        ] {
            let mut p = d.build();
            let w = p.observe(0.75);
            assert!((0.0..=1.0).contains(&w), "{} out of range", d.label());
            assert!(!d.canonical().is_empty());
        }
    }
}
