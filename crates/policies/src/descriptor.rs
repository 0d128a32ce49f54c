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

use itsy_hw::{ClockTable, StepIndex};
use sim_core::Voltage;

use crate::governor::{ClockPolicy, ConstantPolicy, Hysteresis, IntervalScheduler, VoltageRule};
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
        match self {
            PredictorDesc::Past => "past".to_string(),
            PredictorDesc::AvgN(n) => format!("avg_n:{n}"),
            PredictorDesc::SlidingWindow(n) => format!("sliding:{n}"),
            PredictorDesc::Flat(level) => format!("flat:{:016x}", level.to_bits()),
            PredictorDesc::LongShort => "long_short".to_string(),
            PredictorDesc::Aged(k) => format!("aged:{:016x}", k.to_bits()),
            PredictorDesc::Cycle => "cycle".to_string(),
            PredictorDesc::Pattern => "pattern".to_string(),
            PredictorDesc::Peak => "peak".to_string(),
        }
    }

    /// Human-readable name matching the paper's / Govil's spelling.
    pub fn label(&self) -> String {
        match self {
            PredictorDesc::Past => "PAST".to_string(),
            PredictorDesc::AvgN(n) => format!("AVG_{n}"),
            PredictorDesc::SlidingWindow(n) => format!("SW_{n}"),
            PredictorDesc::Flat(level) => format!("FLAT_{:.0}", level * 100.0),
            PredictorDesc::LongShort => "LONG_SHORT".to_string(),
            PredictorDesc::Aged(k) => format!("AGED_{k:.2}"),
            PredictorDesc::Cycle => "CYCLE".to_string(),
            PredictorDesc::Pattern => "PATTERN".to_string(),
            PredictorDesc::Peak => "PEAK".to_string(),
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
        match self {
            PolicyDesc::Constant { step, voltage_mv } => {
                format!("constant;step={step};mv={voltage_mv}")
            }
            PolicyDesc::Interval {
                predictor,
                hysteresis,
                up,
                down,
                voltage_rule,
            } => format!(
                "interval;pred={};up_th={:016x};down_th={:016x};up={};down={};vrule={}",
                predictor.canonical(),
                hysteresis.up.to_bits(),
                hysteresis.down.to_bits(),
                up.label(),
                down.label(),
                match voltage_rule {
                    Some(r) => format!("le{}", r.low_at_or_below),
                    None => "none".to_string(),
                },
            ),
            PolicyDesc::SimpleAvg { window } => format!("simple_avg;window={window}"),
        }
    }

    /// Human-readable summary for progress lines and tables.
    pub fn label(&self) -> String {
        match self {
            PolicyDesc::Constant { step, voltage_mv } => {
                format!("constant step {step} @ {voltage_mv} mV")
            }
            PolicyDesc::Interval {
                predictor,
                hysteresis,
                up,
                down,
                ..
            } => format!(
                "{} {}-{} {}",
                predictor.label(),
                up.label(),
                down.label(),
                hysteresis
            ),
            PolicyDesc::SimpleAvg { window } => format!("SIMPLE_AVG_{window}"),
        }
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
