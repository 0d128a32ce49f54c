//! Weiser et al.'s trace-driven baselines: OPT, FUTURE and the original
//! unfinished-work PAST.
//!
//! These algorithms operate on a recorded *work trace* — per-interval
//! work expressed as a fraction of what the fastest clock could execute
//! in one interval. They need information a deployed kernel cannot
//! have: OPT sees the whole future, FUTURE peeks one interval ahead,
//! and even Weiser's own PAST needs to know "the amount of work that had
//! to be performed in the preceding intervals" (the unfinished-cycle
//! backlog), which §3 of the Grunwald paper points out makes it
//! unimplementable on a real system without application help. A
//! simulator *does* know the offered work, so we reproduce all three as
//! comparison baselines.
//!
//! Speeds here are continuous fractions of the maximum clock, as in
//! Weiser's original study. Energy accounting goes through the
//! parameterized power model of [`crate::scaling`]: the default
//! [`opt`]/[`future`]/[`weiser_past`] entry points use
//! [`PowerModel::weiser`] (`α = 2`, the voltage-scaling assumption
//! `V ∝ f`, i.e. energy-per-cycle ∝ `speed²`, reproducing the
//! historical numbers exactly), while the `*_with` variants accept any
//! exponent — the optimality-gap experiment runs the same oracles
//! under the cube rule `α = 3`.

use crate::scaling::PowerModel;

/// A recorded per-interval work trace. Entry `w ∈ [0, 1]` is the work
/// offered in that interval as a fraction of a full-speed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkTrace {
    work: Vec<f64>,
}

impl WorkTrace {
    /// Wraps a per-interval work vector.
    ///
    /// # Panics
    ///
    /// Panics if any entry is outside `[0, 1]` or the trace is empty.
    pub fn new(work: Vec<f64>) -> Self {
        assert!(!work.is_empty(), "empty work trace");
        assert!(
            work.iter().all(|w| (0.0..=1.0).contains(w)),
            "work entries must be fractions of a full-speed interval"
        );
        WorkTrace { work }
    }

    /// The per-interval work fractions.
    pub fn intervals(&self) -> &[f64] {
        &self.work
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.work.len()
    }

    /// Always false (construction rejects empty traces).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Mean offered work — OPT's constant speed.
    pub fn mean_work(&self) -> f64 {
        self.work.iter().sum::<f64>() / self.work.len() as f64
    }
}

/// The outcome of running a trace-driven algorithm over a [`WorkTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSchedule {
    /// Algorithm label.
    pub name: &'static str,
    /// Speed chosen for each interval (fraction of maximum).
    pub speeds: Vec<f64>,
    /// Backlog (unfinished work, in full-speed-interval units) at the
    /// *end* of each interval.
    pub backlog: Vec<f64>,
    /// Relative energy: `Σ executed_cycles · speed²`, normalised so that
    /// running everything at full speed costs `Σ work`.
    pub energy: f64,
}

impl TraceSchedule {
    /// Work left unfinished when the trace ends.
    pub fn final_backlog(&self) -> f64 {
        *self.backlog.last().expect("schedules cover >= 1 interval")
    }

    /// The largest backlog ever accumulated — a proxy for the delay the
    /// algorithm inflicts.
    pub fn peak_backlog(&self) -> f64 {
        self.backlog.iter().copied().fold(0.0, f64::max)
    }
}

/// Executes `offered + backlog` at `speed`, returning
/// `(executed, new_backlog)`.
fn run_interval(offered: f64, backlog: f64, speed: f64) -> (f64, f64) {
    let pending = offered + backlog;
    let executed = pending.min(speed);
    (executed, pending - executed)
}

/// Minimum speed floor: Weiser's simulations never let the clock go
/// below a fraction of maximum; we use the Itsy's 59/206.4 ratio.
pub const MIN_SPEED: f64 = 59.0 / 206.4;

/// OPT: perfect future knowledge — run the whole trace at the constant
/// speed that just finishes all work by the end (clamped to
/// [`MIN_SPEED`], 1.0]). Work may be deferred arbitrarily far, so the
/// constant mean is always feasible. Energy at `α = 2`.
pub fn opt(trace: &WorkTrace) -> TraceSchedule {
    opt_with(trace, &PowerModel::weiser())
}

/// [`opt`] with energy accounted under an arbitrary power model.
pub fn opt_with(trace: &WorkTrace, power: &PowerModel) -> TraceSchedule {
    let speed = trace.mean_work().clamp(MIN_SPEED, 1.0);
    let mut backlog = 0.0;
    let mut speeds = Vec::with_capacity(trace.len());
    let mut backlogs = Vec::with_capacity(trace.len());
    let mut energy = 0.0;
    for &w in trace.intervals() {
        let (executed, b) = run_interval(w, backlog, speed);
        backlog = b;
        energy += power.energy(executed, speed);
        speeds.push(speed);
        backlogs.push(backlog);
    }
    TraceSchedule {
        name: "OPT",
        speeds,
        backlog: backlogs,
        energy,
    }
}

/// FUTURE: peeks exactly one interval ahead — each interval runs at the
/// minimum speed that clears the backlog plus that interval's own work.
/// Energy at `α = 2`.
pub fn future(trace: &WorkTrace) -> TraceSchedule {
    future_with(trace, &PowerModel::weiser())
}

/// [`future`] with energy accounted under an arbitrary power model.
pub fn future_with(trace: &WorkTrace, power: &PowerModel) -> TraceSchedule {
    let mut backlog = 0.0;
    let mut speeds = Vec::with_capacity(trace.len());
    let mut backlogs = Vec::with_capacity(trace.len());
    let mut energy = 0.0;
    for &w in trace.intervals() {
        let speed = (w + backlog).clamp(MIN_SPEED, 1.0);
        let (executed, b) = run_interval(w, backlog, speed);
        backlog = b;
        energy += power.energy(executed, speed);
        speeds.push(speed);
        backlogs.push(backlog);
    }
    TraceSchedule {
        name: "FUTURE",
        speeds,
        backlog: backlogs,
        energy,
    }
}

/// Weiser's original PAST, including the unfinished-work ("excess
/// cycles") feedback: if the previous interval left a backlog, speed up
/// enough to clear it; otherwise nudge the speed up 20 % of maximum when
/// the previous interval was busier than 70 %, and ease it down when it
/// was under 50 % busy. Energy at `α = 2`.
pub fn weiser_past(trace: &WorkTrace) -> TraceSchedule {
    weiser_past_with(trace, &PowerModel::weiser())
}

/// [`weiser_past`] with energy accounted under an arbitrary power
/// model.
pub fn weiser_past_with(trace: &WorkTrace, power: &PowerModel) -> TraceSchedule {
    let mut backlog = 0.0;
    let mut speed: f64 = 1.0;
    let mut speeds = Vec::with_capacity(trace.len());
    let mut backlogs = Vec::with_capacity(trace.len());
    let mut energy = 0.0;
    for &w in trace.intervals() {
        let (executed, b) = run_interval(w, backlog, speed);
        // Utilization the kernel would have observed this interval.
        let util = (executed / speed).clamp(0.0, 1.0);
        energy += power.energy(executed, speed);
        speeds.push(speed);
        backlogs.push(b);
        // Choose next interval's speed from what just happened.
        speed = if b > 0.0 {
            // Unfinished work: the step the Grunwald paper says needs
            // unavailable information — add exactly the backlog.
            (speed + b).clamp(MIN_SPEED, 1.0)
        } else if util > 0.7 {
            (speed + 0.2).clamp(MIN_SPEED, 1.0)
        } else if util < 0.5 {
            (speed - (0.6 - util)).clamp(MIN_SPEED, 1.0)
        } else {
            speed
        };
        backlog = b;
    }
    TraceSchedule {
        name: "PAST(Weiser)",
        speeds,
        backlog: backlogs,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_trace() -> WorkTrace {
        // 9 busy-at-60% intervals then 1 idle, repeated — the idealized
        // MPEG-like load of section 5.3.
        let mut w = Vec::new();
        for _ in 0..20 {
            w.extend(std::iter::repeat_n(0.6, 9));
            w.push(0.0);
        }
        WorkTrace::new(w)
    }

    #[test]
    fn opt_runs_constant_and_finishes() {
        let t = square_trace();
        let s = opt(&t);
        assert!(s.speeds.windows(2).all(|w| w[0] == w[1]));
        assert!((s.speeds[0] - 0.54).abs() < 1e-9);
        assert!(s.final_backlog() < 1e-9, "OPT must finish all work");
    }

    #[test]
    fn future_finishes_every_interval_when_feasible() {
        let t = square_trace();
        let s = future(&t);
        // Work per interval (0.6) is under full speed, so FUTURE never
        // carries a backlog.
        assert!(s.backlog.iter().all(|&b| b < 1e-9));
        assert!(s.peak_backlog() < 1e-9);
    }

    #[test]
    fn energy_ordering_opt_best_past_worst() {
        // Weiser et al.'s headline result.
        let t = square_trace();
        let e_opt = opt(&t).energy;
        let e_future = future(&t).energy;
        let e_past = weiser_past(&t).energy;
        assert!(e_opt <= e_future + 1e-9, "OPT {e_opt} vs FUTURE {e_future}");
        assert!(
            e_future <= e_past + 1e-9,
            "FUTURE {e_future} vs PAST {e_past}"
        );
        // And all beat running flat out.
        let e_max: f64 = t.intervals().iter().sum();
        assert!(e_past < e_max);
    }

    #[test]
    fn past_clears_backlog_next_interval() {
        // A burst larger than MIN_SPEED while PAST has slowed down
        // creates a backlog that the next interval's speed covers.
        let mut w = vec![0.0; 10]; // drive the speed to the floor
        w.push(1.0); // burst
        w.push(0.0);
        w.push(0.0);
        let t = WorkTrace::new(w);
        let s = weiser_past(&t);
        // Backlog right after the burst (interval 10) is positive...
        assert!(s.backlog[10] > 0.0);
        // ...and cleared within the following two intervals.
        assert!(s.backlog[12] < 1e-9);
    }

    #[test]
    fn all_schedules_respect_speed_bounds() {
        let t = square_trace();
        for s in [opt(&t), future(&t), weiser_past(&t)] {
            assert!(
                s.speeds
                    .iter()
                    .all(|&v| (MIN_SPEED - 1e-12..=1.0).contains(&v)),
                "{} leaves speed bounds",
                s.name
            );
            assert_eq!(s.speeds.len(), t.len());
            assert_eq!(s.backlog.len(), t.len());
        }
    }

    #[test]
    fn work_conservation() {
        // Total executed (inferred from energy bookkeeping inputs) plus
        // final backlog equals total offered work.
        let t = square_trace();
        for s in [opt(&t), future(&t), weiser_past(&t)] {
            let mut executed_total = 0.0;
            let mut backlog = 0.0;
            for (i, &w) in t.intervals().iter().enumerate() {
                let (executed, b) = run_interval(w, backlog, s.speeds[i]);
                executed_total += executed;
                backlog = b;
            }
            let offered: f64 = t.intervals().iter().sum();
            assert!(
                (executed_total + s.final_backlog() - offered).abs() < 1e-9,
                "{} loses work",
                s.name
            );
        }
    }

    #[test]
    fn alpha2_regression_pins_the_historical_energies() {
        // The trio's energies on the section-5.3 square trace have been
        // stable since the module was written; parameterizing α must
        // not move them. OPT: 108 units of work at the 0.54 mean speed
        // = 108·0.54². FUTURE: every busy interval runs its 0.6 exactly
        // = 108·0.6². PAST's feedback loop is pinned numerically.
        let t = square_trace();
        let (e_opt, e_future, e_past) = (opt(&t).energy, future(&t).energy, weiser_past(&t).energy);
        assert!((e_opt - 31.4928).abs() < 1e-9, "OPT moved: {e_opt}");
        assert!((e_future - 38.88).abs() < 1e-9, "FUTURE moved: {e_future}");
        assert!(
            (e_past - PAST_SQUARE_ENERGY).abs() < 1e-9,
            "PAST moved: {e_past:.17}"
        );
    }

    /// `weiser_past` energy on `square_trace` at α = 2, pinned.
    const PAST_SQUARE_ENERGY: f64 = 88.848;

    #[test]
    fn default_entry_points_are_exactly_alpha2() {
        let t = square_trace();
        let power = PowerModel::weiser();
        assert_eq!(opt(&t), opt_with(&t, &power));
        assert_eq!(future(&t), future_with(&t, &power));
        assert_eq!(weiser_past(&t), weiser_past_with(&t, &power));
    }

    #[test]
    fn cube_rule_reweights_but_keeps_the_ordering() {
        // α = 3 penalizes high speeds harder; speeds are unchanged
        // (the policies do not consult the power model), so the
        // OPT ≤ FUTURE ≤ PAST ordering survives.
        let t = square_trace();
        let cube = PowerModel::cube();
        let e_opt = opt_with(&t, &cube);
        let e_future = future_with(&t, &cube);
        let e_past = weiser_past_with(&t, &cube);
        assert_eq!(e_opt.speeds, opt(&t).speeds);
        assert!((e_opt.energy - 108.0 * 0.54f64.powi(3)).abs() < 1e-9);
        assert!(e_opt.energy <= e_future.energy + 1e-9);
        assert!(e_future.energy <= e_past.energy + 1e-9);
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn out_of_range_work_rejected() {
        let _ = WorkTrace::new(vec![0.5, 1.2]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_trace_rejected() {
        let _ = WorkTrace::new(vec![]);
    }
}
