//! The governor: prediction + hysteresis + speed-setting + voltage rule.
//!
//! [`IntervalScheduler`] is the paper's interval scheduler skeleton. On
//! every scheduling interval it feeds the observed utilization to its
//! predictor; if the weighted utilization rises above the upper
//! hysteresis bound the clock is scaled up by the configured rule, and
//! if it drops below the lower bound it is scaled down. Pering et al.
//! used 70 %/50 % bounds; the paper's best policy used 98 %/93 % with
//! PAST prediction and peg-peg speed setting.

use core::fmt;

use sim_core::{SimTime, Voltage};

use itsy_hw::clock::{V_HIGH, V_LOW};
use itsy_hw::cpu::V_LOW_MAX_STEP;
use itsy_hw::{ClockTable, StepIndex};

use crate::predictor::Predictor;
use crate::speed::SpeedChange;

/// The hysteresis band gating clock changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hysteresis {
    /// Scale up when the weighted utilization exceeds this.
    pub up: f64,
    /// Scale down when the weighted utilization falls below this.
    pub down: f64,
}

impl Hysteresis {
    /// Pering et al.'s starting values (70 % / 50 %).
    pub const PERING: Hysteresis = Hysteresis {
        up: 0.70,
        down: 0.50,
    };

    /// The paper's best empirical thresholds (98 % / 93 %).
    pub const BEST: Hysteresis = Hysteresis {
        up: 0.98,
        down: 0.93,
    };

    /// Validates that the band is well-formed.
    ///
    /// # Panics
    ///
    /// Panics if `down > up` or either bound leaves `[0, 1]`.
    pub fn validate(self) -> Self {
        assert!(
            (0.0..=1.0).contains(&self.up) && (0.0..=1.0).contains(&self.down),
            "hysteresis bounds must be in [0,1]"
        );
        assert!(self.down <= self.up, "hysteresis band inverted");
        self
    }
}

impl fmt::Display for Hysteresis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ">{:.0}%/<{:.0}%", self.up * 100.0, self.down * 100.0)
    }
}

/// What a policy asks the kernel to do after an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PolicyRequest {
    /// Desired clock step, if a change is requested.
    pub step: Option<StepIndex>,
    /// Desired core voltage, if a change is requested.
    pub voltage: Option<Voltage>,
}

impl PolicyRequest {
    /// A request that changes nothing.
    pub const NONE: PolicyRequest = PolicyRequest {
        step: None,
        voltage: None,
    };
}

/// A clock-scaling policy module, called from the kernel's timer
/// interrupt at every scheduling interval — the paper's "extensible
/// clock scaling policy module ... implemented as a kernel module".
pub trait ClockPolicy {
    /// Observes the utilization (`0.0..=1.0`) of the interval ending at
    /// `now` while the CPU sat at `current_step`, and returns the
    /// desired machine state.
    fn on_interval(
        &mut self,
        now: SimTime,
        utilization: f64,
        current_step: StepIndex,
    ) -> PolicyRequest;

    /// Like [`ClockPolicy::on_interval`], but also emits an
    /// [`obs::EventKind::PolicyDecision`] event into `trace`.
    ///
    /// The default implementation reports the raw utilization as the
    /// weighted value, which is correct for policies without a
    /// predictor; predictor-backed policies override to expose the
    /// predictor's state (the quantity the hysteresis band actually
    /// compares).
    fn on_interval_traced(
        &mut self,
        now: SimTime,
        utilization: f64,
        current_step: StepIndex,
        trace: &mut obs::Trace,
    ) -> PolicyRequest {
        let req = self.on_interval(now, utilization, current_step);
        emit_decision(trace, now, utilization, utilization, current_step, req);
        req
    }

    /// Name used in reports.
    fn name(&self) -> String;
}

/// Records one policy decision into `trace` (no-op when disabled).
fn emit_decision(
    trace: &mut obs::Trace,
    now: SimTime,
    utilization: f64,
    weighted: f64,
    current_step: StepIndex,
    req: PolicyRequest,
) {
    if trace.is_enabled() {
        trace.emit(
            now.as_micros(),
            obs::EventKind::PolicyDecision {
                utilization,
                weighted,
                from_step: current_step as u64,
                to_step: req.step.map(|s| s as u64),
                to_mv: req.voltage.map(|v| u64::from(v.as_mv())),
            },
        );
    }
}

/// Voltage-scaling rule: run the core at 1.23 V whenever the clock is at
/// or below a threshold step (the paper used 162.2 MHz, the fastest
/// step at which the lowered supply is stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoltageRule {
    /// Steps at or below this run at the low voltage.
    pub low_at_or_below: StepIndex,
}

impl Default for VoltageRule {
    fn default() -> Self {
        VoltageRule {
            low_at_or_below: V_LOW_MAX_STEP,
        }
    }
}

impl VoltageRule {
    /// The voltage this rule selects for a step.
    pub fn voltage_for(&self, step: StepIndex) -> Voltage {
        if step <= self.low_at_or_below {
            V_LOW
        } else {
            V_HIGH
        }
    }
}

/// The composed interval scheduler.
pub struct IntervalScheduler {
    predictor: Box<dyn Predictor + Send>,
    hysteresis: Hysteresis,
    up_rule: SpeedChange,
    down_rule: SpeedChange,
    table: ClockTable,
    voltage_rule: Option<VoltageRule>,
}

impl IntervalScheduler {
    /// Builds a scheduler from its four components.
    pub fn new(
        predictor: Box<dyn Predictor + Send>,
        hysteresis: Hysteresis,
        up_rule: SpeedChange,
        down_rule: SpeedChange,
        table: ClockTable,
    ) -> Self {
        IntervalScheduler {
            predictor,
            hysteresis: hysteresis.validate(),
            up_rule,
            down_rule,
            table,
            voltage_rule: None,
        }
    }

    /// Enables voltage scaling with the given rule.
    pub fn with_voltage_rule(mut self, rule: VoltageRule) -> Self {
        self.voltage_rule = Some(rule);
        self
    }

    /// The paper's best policy: PAST, peg-peg, >98 % up / <93 % down.
    pub fn best_from_paper(table: ClockTable) -> Self {
        IntervalScheduler::new(
            Box::new(crate::predictor::Past::new()),
            Hysteresis::BEST,
            SpeedChange::Peg,
            SpeedChange::Peg,
            table,
        )
    }

    /// The hysteresis band in force.
    pub fn hysteresis(&self) -> Hysteresis {
        self.hysteresis
    }
}

impl ClockPolicy for IntervalScheduler {
    fn on_interval(
        &mut self,
        _now: SimTime,
        utilization: f64,
        current_step: StepIndex,
    ) -> PolicyRequest {
        let w = self.predictor.observe(utilization.clamp(0.0, 1.0));
        let target = if w > self.hysteresis.up {
            Some(self.up_rule.up(current_step, &self.table))
        } else if w < self.hysteresis.down {
            Some(self.down_rule.down(current_step, &self.table))
        } else {
            None
        };
        let step = target.filter(|&s| s != current_step);
        let voltage = self
            .voltage_rule
            .map(|r| r.voltage_for(step.unwrap_or(current_step)));
        PolicyRequest { step, voltage }
    }

    fn on_interval_traced(
        &mut self,
        now: SimTime,
        utilization: f64,
        current_step: StepIndex,
        trace: &mut obs::Trace,
    ) -> PolicyRequest {
        let req = self.on_interval(now, utilization, current_step);
        let weighted = self.predictor.current();
        emit_decision(trace, now, utilization, weighted, current_step, req);
        req
    }

    fn name(&self) -> String {
        let v = if self.voltage_rule.is_some() {
            ", Vscale"
        } else {
            ""
        };
        format!(
            "{}, {} - {}, Thresholds: {}{}",
            self.predictor.name(),
            self.up_rule.label(),
            self.down_rule.label(),
            self.hysteresis,
            v
        )
    }
}

/// A fixed-speed, fixed-voltage "policy" — the paper's constant-speed
/// baselines in Table 2.
#[derive(Debug, Clone, Copy)]
pub struct ConstantPolicy {
    /// The pinned clock step.
    pub step: StepIndex,
    /// The pinned core voltage.
    pub voltage: Voltage,
}

impl ConstantPolicy {
    /// Creates a constant policy.
    pub fn new(step: StepIndex, voltage: Voltage) -> Self {
        ConstantPolicy { step, voltage }
    }
}

impl ClockPolicy for ConstantPolicy {
    fn on_interval(&mut self, _: SimTime, _: f64, current: StepIndex) -> PolicyRequest {
        PolicyRequest {
            step: (current != self.step).then_some(self.step),
            voltage: Some(self.voltage),
        }
    }

    fn name(&self) -> String {
        format!("Constant Speed @ step {}, {}", self.step, self.voltage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{AvgN, Past};

    fn best() -> IntervalScheduler {
        IntervalScheduler::best_from_paper(ClockTable::sa1100())
    }

    #[test]
    fn busy_interval_pegs_up() {
        let mut p = best();
        let req = p.on_interval(SimTime::ZERO, 1.0, 0);
        assert_eq!(req.step, Some(10));
        assert_eq!(req.voltage, None);
    }

    #[test]
    fn idle_interval_pegs_down() {
        let mut p = best();
        p.on_interval(SimTime::ZERO, 1.0, 0);
        let req = p.on_interval(SimTime::from_millis(10), 0.5, 10);
        assert_eq!(req.step, Some(0));
    }

    #[test]
    fn in_band_utilization_requests_nothing() {
        let mut p = best();
        // 0.95 is between 0.93 and 0.98.
        let req = p.on_interval(SimTime::ZERO, 0.95, 5);
        assert_eq!(req, PolicyRequest::NONE);
    }

    #[test]
    fn no_request_when_already_at_target() {
        let mut p = best();
        let req = p.on_interval(SimTime::ZERO, 1.0, 10);
        assert_eq!(req.step, None, "already pegged at the top");
    }

    #[test]
    fn avg9_lags_12_intervals_from_idle() {
        // Table 1's headline: with a 70% upper bound, AVG_9 takes 12
        // fully-busy quanta before the first scale-up.
        let mut p = IntervalScheduler::new(
            Box::new(AvgN::new(9)),
            Hysteresis::PERING,
            SpeedChange::One,
            SpeedChange::One,
            ClockTable::sa1100(),
        );
        let mut first_up = None;
        for i in 1..=20 {
            let req = p.on_interval(SimTime::from_millis(10 * i), 1.0, 0);
            if req.step.is_some() && first_up.is_none() {
                first_up = Some(i);
            }
        }
        assert_eq!(first_up, Some(12));
    }

    #[test]
    fn voltage_rule_tracks_threshold() {
        let r = VoltageRule::default();
        assert_eq!(r.voltage_for(7), V_LOW); // 162.2 MHz
        assert_eq!(r.voltage_for(8), V_HIGH); // 176.9 MHz
        assert_eq!(r.voltage_for(0), V_LOW);
    }

    #[test]
    fn scheduler_with_voltage_rule_requests_voltage() {
        let mut p = IntervalScheduler::new(
            Box::new(Past::new()),
            Hysteresis::BEST,
            SpeedChange::Peg,
            SpeedChange::Peg,
            ClockTable::sa1100(),
        )
        .with_voltage_rule(VoltageRule::default());
        // Pegging down to step 0 must come with the low voltage.
        p.on_interval(SimTime::ZERO, 1.0, 0);
        let req = p.on_interval(SimTime::from_millis(10), 0.1, 10);
        assert_eq!(req.step, Some(0));
        assert_eq!(req.voltage, Some(V_LOW));
        // Pegging up must come with the high voltage.
        let req = p.on_interval(SimTime::from_millis(20), 1.0, 0);
        assert_eq!(req.step, Some(10));
        assert_eq!(req.voltage, Some(V_HIGH));
    }

    #[test]
    fn constant_policy_restores_its_step() {
        let mut p = ConstantPolicy::new(5, V_HIGH);
        assert_eq!(
            p.on_interval(SimTime::ZERO, 0.5, 5),
            PolicyRequest {
                step: None,
                voltage: Some(V_HIGH)
            }
        );
        let req = p.on_interval(SimTime::ZERO, 0.5, 3);
        assert_eq!(req.step, Some(5));
    }

    #[test]
    fn name_matches_paper_style() {
        let p = best();
        assert_eq!(p.name(), "PAST, peg - peg, Thresholds: >98%/<93%");
    }

    #[test]
    fn traced_interval_reports_predictor_weighted_value() {
        // AVG_3 after observing 1.0 from a zeroed state decays to
        // (3·0 + 1)/4 = 0.25 — the traced event must carry the
        // predictor's state, not the raw utilization.
        let mut p = IntervalScheduler::new(
            Box::new(AvgN::new(3)),
            Hysteresis::PERING,
            SpeedChange::One,
            SpeedChange::One,
            ClockTable::sa1100(),
        );
        let mut trace = obs::Trace::on();
        let req = p.on_interval_traced(SimTime::from_millis(10), 1.0, 5, &mut trace);
        assert_eq!(trace.len(), 1);
        let e = &trace.events()[0];
        assert_eq!(e.time_us, 10_000);
        match &e.kind {
            obs::EventKind::PolicyDecision {
                utilization,
                weighted,
                from_step,
                to_step,
                ..
            } => {
                assert_eq!(*utilization, 1.0);
                assert!((*weighted - 0.25).abs() < 1e-9);
                assert_eq!(*from_step, 5);
                assert_eq!(*to_step, req.step.map(|s| s as u64));
            }
            other => panic!("expected policy decision, got {other:?}"),
        }
    }

    #[test]
    fn traced_interval_matches_untraced_decision() {
        let mut traced = best();
        let mut plain = best();
        let mut trace = obs::Trace::off();
        for (i, u) in [1.0, 0.2, 0.97, 0.5].into_iter().enumerate() {
            let now = SimTime::from_millis(10 * (i as u64 + 1));
            let a = traced.on_interval_traced(now, u, 5, &mut trace);
            let b = plain.on_interval(now, u, 5);
            assert_eq!(a, b, "tracing must not perturb decisions");
        }
        assert!(trace.is_empty());
    }

    #[test]
    fn default_traced_impl_uses_raw_utilization() {
        let mut p = ConstantPolicy::new(5, V_HIGH);
        let mut trace = obs::Trace::on();
        p.on_interval_traced(SimTime::from_millis(10), 0.4, 5, &mut trace);
        match &trace.events()[0].kind {
            obs::EventKind::PolicyDecision {
                weighted, to_mv, ..
            } => {
                assert_eq!(*weighted, 0.4);
                assert_eq!(*to_mv, Some(1500));
            }
            other => panic!("expected policy decision, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "band inverted")]
    fn inverted_band_rejected() {
        let _ = IntervalScheduler::new(
            Box::new(Past::new()),
            Hysteresis { up: 0.5, down: 0.7 },
            SpeedChange::One,
            SpeedChange::One,
            ClockTable::sa1100(),
        );
    }
}
