//! The modern speed-scaling canon on deadline job sets: the exact
//! offline optimum (Yao–Demers–Shenker, refined by Li–Yao–Yuan's
//! critical-interval construction) and the online algorithms the
//! experimental literature measures against it — OA, AVR, BKP and qOA,
//! the suite of Abousamra–Bunde–Pruhs — under a parameterized power
//! model `P(s) = s^α`.
//!
//! [`crate::oracle`] reproduces Weiser's trace-driven baselines on
//! per-interval *work traces*; this module works on an explicit job
//! model — release time, deadline, work — which is what makes an exact
//! optimum computable. Times are measured in scheduling intervals
//! (10 ms on the Itsy) and speeds are fractions of the maximum clock,
//! matching the rest of the crate.
//!
//! # Energy convention
//!
//! Executing `w` units of work at constant speed `s` costs
//! `w · s^α` ([`PowerModel::energy`]); idle time is free. At `α = 2`
//! this is exactly the `V ∝ f` accounting the Weiser oracle has always
//! used (energy-per-cycle ∝ speed²), so [`PowerModel::weiser`] is the
//! default throughout the workspace; `α = 3` ([`PowerModel::cube`]) is
//! the canonical cube rule of the speed-scaling literature. The YDS
//! schedule minimizes energy for *every* convex power function
//! simultaneously (its speed profile majorizes nothing), so one
//! [`yds`] call serves any `α ≥ 1`.

use itsy_hw::ClockTable;

/// Tolerance for matching event times that should coincide but may
/// differ by floating-point noise.
const TOL: f64 = 1e-9;

/// Sub-steps per inter-event gap when simulating online rules whose
/// speed varies continuously between events (qOA, BKP). OA and AVR are
/// piecewise-constant between events and run with one step per gap.
const SUBSTEPS: u32 = 8;

/// One job: `work` units (full-speed interval equivalents) released at
/// `release` that must finish by `deadline`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Arrival time, in scheduling intervals.
    pub release: f64,
    /// Completion deadline, in scheduling intervals; `> release`.
    pub deadline: f64,
    /// Work, in full-speed-interval units; `>= 0`.
    pub work: f64,
}

impl Job {
    /// Builds a job, validating the window.
    ///
    /// # Panics
    ///
    /// Panics on non-finite fields, `deadline <= release`, or negative
    /// work.
    pub fn new(release: f64, deadline: f64, work: f64) -> Self {
        assert!(
            release.is_finite() && deadline.is_finite() && work.is_finite(),
            "job fields must be finite"
        );
        assert!(deadline > release, "deadline must follow release");
        assert!(work >= 0.0, "work must be non-negative");
        Job {
            release,
            deadline,
            work,
        }
    }

    /// Average speed needed to spread the work across the whole window
    /// — AVR's per-job contribution.
    pub fn density(&self) -> f64 {
        self.work / (self.deadline - self.release)
    }
}

/// A validated, canonically-ordered set of jobs. Zero-work jobs are
/// dropped and the rest sorted by `(release, deadline, work)`, so every
/// algorithm here is independent of input order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobSet {
    jobs: Vec<Job>,
}

impl JobSet {
    /// Canonicalizes a job list (drop zero-work jobs, sort).
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.retain(|j| j.work > 0.0);
        jobs.sort_by(|a, b| {
            a.release
                .total_cmp(&b.release)
                .then(a.deadline.total_cmp(&b.deadline))
                .then(a.work.total_cmp(&b.work))
        });
        JobSet { jobs }
    }

    /// The jobs, sorted by release time.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs carry work.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total work over all jobs.
    pub fn total_work(&self) -> f64 {
        self.jobs.iter().map(|j| j.work).sum()
    }

    /// The same windows with every job's work multiplied by `factor` —
    /// YDS speeds scale linearly with it, which is how tests steer
    /// random instances into the feasible speed range.
    pub fn with_work_scaled(&self, factor: f64) -> JobSet {
        assert!(factor.is_finite() && factor > 0.0, "scale must be positive");
        JobSet {
            jobs: self
                .jobs
                .iter()
                .map(|j| Job {
                    work: j.work * factor,
                    ..*j
                })
                .collect(),
        }
    }
}

/// The power model `P(s) = s^α`: energy to run work `w` at speed `s`
/// is `w · s^α`. See the module docs for the convention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    alpha: f64,
}

impl PowerModel {
    /// A power model with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is finite and `>= 1` (the convex regime
    /// every algorithm here assumes).
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 1.0,
            "power exponent must be finite and >= 1"
        );
        PowerModel { alpha }
    }

    /// `α = 2`: the `V ∝ f` assumption of Weiser et al. and of
    /// [`crate::oracle`]'s historical energy numbers.
    pub fn weiser() -> Self {
        PowerModel::new(2.0)
    }

    /// `α = 3`: the cube rule standard in the speed-scaling
    /// literature.
    pub fn cube() -> Self {
        PowerModel::new(3.0)
    }

    /// The exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Energy to execute `work` at constant `speed`; zero work or
    /// speed costs nothing.
    pub fn energy(&self, work: f64, speed: f64) -> f64 {
        if work <= 0.0 || speed <= 0.0 {
            return 0.0;
        }
        // The two canonical exponents avoid powf: exact on the α = 2
        // path (bit-for-bit with the legacy oracle accounting) and
        // faster in the simulation loops.
        if self.alpha == 2.0 {
            work * speed * speed
        } else if self.alpha == 3.0 {
            work * speed * speed * speed
        } else {
            work * speed.powf(self.alpha)
        }
    }

    /// qOA's speed multiplier `q = 2 − 1/α`, the competitive-ratio
    /// optimum from Bansal–Chan–Pruhs–Katz.
    pub fn qoa_q(&self) -> f64 {
        2.0 - 1.0 / self.alpha
    }
}

/// A span of time run at one constant speed. `executed` is the work
/// actually completed in the span; for schedules with built-in idle
/// slack (the quantized optimum) it can be less than
/// `speed · (end − start)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedSegment {
    /// Span start, in scheduling intervals.
    pub start: f64,
    /// Span end.
    pub end: f64,
    /// Speed as a fraction of the maximum clock (may exceed 1 for
    /// continuous-speed algorithms).
    pub speed: f64,
    /// Work executed within the span.
    pub executed: f64,
}

/// A complete speed schedule for one job set.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Algorithm label.
    pub name: String,
    /// Non-overlapping spans sorted by start; time not covered is
    /// idle.
    pub segments: Vec<SpeedSegment>,
    /// Whether every job finished inside its window.
    pub feasible: bool,
    /// The fastest speed the schedule ever uses.
    pub max_speed: f64,
}

impl Schedule {
    /// Total energy under `power`: the sum of each segment's
    /// `executed · speed^α`.
    pub fn energy(&self, power: &PowerModel) -> f64 {
        self.segments
            .iter()
            .map(|s| power.energy(s.executed, s.speed))
            .sum()
    }

    /// Total work executed.
    pub fn executed(&self) -> f64 {
        self.segments.iter().map(|s| s.executed).sum()
    }
}

/// The exact offline optimum: repeatedly find the *critical interval*
/// — the `[t1, t2]` maximizing `Σ work of jobs with [r, d] ⊆ [t1, t2]`
/// over `t2 − t1` — run those jobs there (EDF) at that constant
/// intensity, remove the interval from the time axis, and recurse on
/// the rest. Optimal for every convex power function at once.
///
/// The collapsed-axis bookkeeping follows Li–Yao–Yuan: after an
/// interval is assigned, the remaining jobs' windows are re-expressed
/// on a time axis with the interval cut out, and an ordered list of
/// still-unassigned original-time spans maps collapsed coordinates
/// back when segments are emitted. `O(n²)` per round, `O(n³)` total —
/// instant at the few hundred jobs a trace derives.
pub fn yds(jobs: &JobSet) -> Schedule {
    let mut schedule = Schedule {
        name: "OPT".to_string(),
        segments: Vec::new(),
        feasible: true,
        max_speed: 0.0,
    };
    if jobs.is_empty() {
        return schedule;
    }
    #[derive(Clone, Copy)]
    struct Win {
        r: f64,
        d: f64,
        w: f64,
    }
    let mut pending: Vec<Win> = jobs
        .jobs()
        .iter()
        .map(|j| Win {
            r: j.release,
            d: j.deadline,
            w: j.work,
        })
        .collect();
    let t_min = pending.iter().map(|j| j.r).fold(f64::INFINITY, f64::min);
    let t_max = pending
        .iter()
        .map(|j| j.d)
        .fold(f64::NEG_INFINITY, f64::max);
    // Original-time spans not yet assigned a speed; their concatenation
    // *is* the collapsed axis the pending windows live on.
    let mut free: Vec<(f64, f64)> = vec![(t_min, t_max)];
    while !pending.is_empty() {
        // Densest interval in collapsed coordinates. Candidate starts
        // are release times; for each, one pass over the jobs in
        // deadline order accumulates the contained work, so every
        // candidate end (a deadline) is scored with the full sum.
        let mut releases: Vec<f64> = pending.iter().map(|j| j.r).collect();
        releases.sort_by(f64::total_cmp);
        releases.dedup();
        let mut by_deadline = pending.clone();
        by_deadline.sort_by(|a, b| a.d.total_cmp(&b.d));
        let (mut best_g, mut best_t1, mut best_t2) = (-1.0f64, 0.0, 0.0);
        for &t1 in &releases {
            let mut sum = 0.0;
            for j in &by_deadline {
                if j.r >= t1 {
                    sum += j.w;
                    let span = j.d - t1;
                    if span > 0.0 {
                        let g = sum / span;
                        if g > best_g {
                            (best_g, best_t1, best_t2) = (g, t1, j.d);
                        }
                    }
                }
            }
        }
        let (t1, t2, g) = (best_t1, best_t2, best_g);
        debug_assert!(g > 0.0, "critical interval must carry work");
        schedule.max_speed = schedule.max_speed.max(g);
        // Map the collapsed interval [t1, t2] back onto original time,
        // consuming the covered pieces of the free list.
        let mut next_free = Vec::with_capacity(free.len() + 1);
        let mut cursor = t_min;
        for &(a, b) in &free {
            let (cs, ce) = (cursor, cursor + (b - a));
            cursor = ce;
            let lo = t1.max(cs);
            let hi = t2.min(ce);
            // Strictly positive width: the cursor is a running sum
            // while the interval endpoints come from collapse
            // arithmetic, so the two can disagree by an ulp — emitting
            // those slivers would break segment ordering.
            if hi > lo + 1e-12 {
                let oa = a + (lo - cs);
                let ob = a + (hi - cs);
                schedule.segments.push(SpeedSegment {
                    start: oa,
                    end: ob,
                    speed: g,
                    executed: g * (ob - oa),
                });
                if lo > cs {
                    next_free.push((a, oa));
                }
                if hi < ce {
                    next_free.push((ob, b));
                }
            } else {
                next_free.push((a, b));
            }
        }
        free = next_free;
        // Drop the interval's jobs; collapse everyone else's window
        // coordinates around the cut.
        let shrink = t2 - t1;
        pending.retain(|j| !(j.r >= t1 && j.d <= t2));
        let collapse = |x: f64| {
            if x <= t1 {
                x
            } else if x >= t2 {
                x - shrink
            } else {
                t1
            }
        };
        for j in &mut pending {
            j.r = collapse(j.r);
            j.d = collapse(j.d);
        }
    }
    schedule
        .segments
        .sort_by(|a, b| a.start.total_cmp(&b.start));
    // Merge contiguous pieces of the same critical interval back into
    // single spans.
    let mut merged: Vec<SpeedSegment> = Vec::with_capacity(schedule.segments.len());
    for s in schedule.segments.drain(..) {
        if let Some(last) = merged.last_mut() {
            if last.speed == s.speed && (s.start - last.end).abs() < TOL {
                last.end = s.end;
                last.executed += s.executed;
                continue;
            }
        }
        merged.push(s);
    }
    schedule.segments = merged;
    schedule
}

/// The Itsy's 11 clock steps (59.0 … 206.4 MHz) as ascending fractions
/// of the fastest clock — the step table [`yds_on_steps`] discretizes
/// onto.
pub fn itsy_step_speeds() -> Vec<f64> {
    let table = ClockTable::sa1100();
    let top = f64::from(table.freq(table.fastest()).as_khz());
    table
        .iter()
        .map(|(_, f)| f64::from(f.as_khz()) / top)
        .collect()
}

fn round_up_to_step(speed: f64, steps: &[f64]) -> f64 {
    for &s in steps {
        if s + TOL >= speed {
            return s;
        }
    }
    *steps.last().expect("non-empty step table")
}

/// Discretizes a continuous schedule onto a clock-step table: each
/// segment's work runs at the slowest step `>=` its continuous speed
/// and idles the slack away inside the same span. Rounding every
/// critical interval *up* keeps EDF feasible (each interval's jobs
/// finish no later than under the continuous optimum), so the result
/// is a real schedule the hardware could execute — and its energy is
/// exactly `Σ w_I · step(g_I)^α`, the quantization penalty the
/// property tests bound. Marked infeasible if any segment needs more
/// than the top step.
pub fn quantize_to_steps(continuous: &Schedule, steps: &[f64]) -> Schedule {
    assert!(
        !steps.is_empty() && steps[0] > 0.0 && steps.windows(2).all(|w| w[0] < w[1]),
        "steps must be ascending positive speeds"
    );
    let top = *steps.last().expect("non-empty step table");
    let mut quantized = Schedule {
        name: format!("{}(steps)", continuous.name),
        segments: Vec::with_capacity(continuous.segments.len()),
        feasible: continuous.feasible,
        max_speed: 0.0,
    };
    for s in &continuous.segments {
        if s.speed > top + TOL {
            quantized.feasible = false;
        }
        let q = round_up_to_step(s.speed, steps);
        quantized.max_speed = quantized.max_speed.max(q);
        quantized.segments.push(SpeedSegment {
            start: s.start,
            end: s.end,
            speed: q,
            executed: s.executed,
        });
    }
    quantized
}

/// [`yds`] followed by [`quantize_to_steps`] — the best any machine
/// restricted to `steps` could do.
pub fn yds_on_steps(jobs: &JobSet, steps: &[f64]) -> Schedule {
    quantize_to_steps(&yds(jobs), steps)
}

/// What an online rule sees when asked for a speed: the current time,
/// the end of the interval the speed will be held for, the pending
/// jobs' `(deadline, remaining work)` in EDF order, and every job
/// released so far with its original work.
pub struct OnlineView<'a> {
    /// Current time.
    pub now: f64,
    /// End of the commitment step (the speed is held constant on
    /// `[now, step_end]`).
    pub step_end: f64,
    /// Unfinished released jobs as `(deadline, remaining)`, sorted by
    /// deadline.
    pub pending: &'a [(f64, f64)],
    /// All jobs with `release <= now`, original works.
    pub released: &'a [Job],
}

/// Event-driven EDF simulation shared by every online algorithm. The
/// speed rule is re-evaluated `substeps` times between consecutive
/// release/deadline events and held constant in between; work drains
/// earliest-deadline-first.
///
/// A *deadline-rescue floor* keeps discretization honest: when a
/// deadline falls inside the current step, the speed is raised to at
/// least the level that meets it (the algorithms' continuous-time
/// feasibility arguments assume instantaneous reaction; OA, AVR and
/// qOA already dominate this floor on the event grid, BKP can need it
/// between samples). `cap`, when set, bounds the speed from above
/// *after* the floor — used by step-restricted schedules, where a
/// missed deadline must surface as `feasible = false` rather than as
/// an impossible speed.
fn run_online(
    name: &str,
    jobs: &JobSet,
    substeps: u32,
    cap: Option<f64>,
    mut rule: impl FnMut(&OnlineView) -> f64,
) -> Schedule {
    let mut schedule = Schedule {
        name: name.to_string(),
        segments: Vec::new(),
        feasible: true,
        max_speed: 0.0,
    };
    if jobs.is_empty() {
        return schedule;
    }
    let eps = 1e-7 * jobs.total_work().max(1.0);
    let mut events: Vec<f64> = jobs
        .jobs()
        .iter()
        .flat_map(|j| [j.release, j.deadline])
        .collect();
    events.sort_by(f64::total_cmp);
    events.dedup_by(|next, kept| *next - *kept < TOL);
    let all = jobs.jobs();
    let mut next_arrival = 0usize;
    let mut released: Vec<Job> = Vec::new();
    let mut pending: Vec<(f64, f64)> = Vec::new();
    for window in events.windows(2) {
        let (e0, e1) = (window[0], window[1]);
        while next_arrival < all.len() && all[next_arrival].release <= e0 + TOL {
            let j = all[next_arrival];
            next_arrival += 1;
            released.push(j);
            let at = pending.partition_point(|&(d, _)| d <= j.deadline);
            pending.insert(at, (j.deadline, j.work));
        }
        if !pending.is_empty() {
            let dt = (e1 - e0) / f64::from(substeps);
            for k in 0..substeps {
                if pending.is_empty() {
                    break;
                }
                let a = e0 + f64::from(k) * dt;
                let b = if k + 1 == substeps { e1 } else { a + dt };
                let view = OnlineView {
                    now: a,
                    step_end: b,
                    pending: &pending,
                    released: &released,
                };
                let mut s = rule(&view).max(0.0);
                let mut due = 0.0;
                for &(d, rem) in pending.iter() {
                    if d > b + TOL {
                        break;
                    }
                    due += rem;
                    if d > a {
                        s = s.max(due / (d - a));
                    }
                }
                if let Some(cap) = cap {
                    s = s.min(cap);
                }
                if s <= 0.0 {
                    continue;
                }
                schedule.max_speed = schedule.max_speed.max(s);
                let mut capacity = s * (b - a);
                let mut executed = 0.0;
                for slot in pending.iter_mut() {
                    if capacity <= 0.0 {
                        break;
                    }
                    let take = slot.1.min(capacity);
                    slot.1 -= take;
                    capacity -= take;
                    executed += take;
                }
                pending.retain(|&(_, rem)| rem > 0.0);
                schedule.segments.push(SpeedSegment {
                    start: a,
                    end: b,
                    speed: s,
                    executed,
                });
            }
        }
        // A job still holding work past its deadline missed it; EDF
        // keeps draining it (it sorts first) so the run terminates.
        for &(d, rem) in &pending {
            if d <= e1 + TOL && rem > eps {
                schedule.feasible = false;
            }
        }
    }
    if pending.iter().any(|&(_, rem)| rem > eps) {
        schedule.feasible = false;
    }
    schedule
}

/// AVR (Average Rate): speed is the sum of the densities of every job
/// whose window contains the current time — execution-independent, and
/// piecewise constant between events, so the grid simulates it
/// exactly.
pub fn avr(jobs: &JobSet) -> Schedule {
    run_online("AVR", jobs, 1, None, |v| {
        v.released
            .iter()
            .filter(|j| v.now < j.deadline)
            .map(Job::density)
            .sum()
    })
}

fn oa_speed(v: &OnlineView) -> f64 {
    let mut due = 0.0;
    let mut speed = 0.0f64;
    for &(d, rem) in v.pending {
        due += rem;
        if d > v.now {
            speed = speed.max(due / (d - v.now));
        }
    }
    speed
}

/// OA (Optimal Available): at every moment, run at the speed the
/// offline optimum would use if no further jobs arrived — the max over
/// pending deadlines `d` of unfinished-work-due-by-`d` over `d − now`.
/// Between events the maximizing group drains at exactly its own
/// ratio, so the speed is constant there and the grid is exact.
pub fn oa(jobs: &JobSet) -> Schedule {
    run_online("OA", jobs, 1, None, oa_speed)
}

/// qOA: run at `q` times OA's speed on the *actual* remaining work,
/// `q = 2 − 1/α` by default ([`PowerModel::qoa_q`]) — trades a little
/// over-provisioning for a better competitive ratio at high `α`. Its
/// speed decays within a step, so sampling at step start
/// over-provisions and stays feasible.
pub fn qoa(jobs: &JobSet, q: f64) -> Schedule {
    assert!(q >= 1.0 && q.is_finite(), "qOA multiplier must be >= 1");
    run_online("qOA", jobs, SUBSTEPS, None, |v| q * oa_speed(v))
}

/// [`qoa`] at the exponent-matched multiplier `2 − 1/α`.
pub fn qoa_for(jobs: &JobSet, power: &PowerModel) -> Schedule {
    qoa(jobs, power.qoa_q())
}

/// BKP (Bansal–Kimbrel–Pruhs): `e`-times the running estimate
/// `v(t) = max over future deadlines t2 of the work released in
/// [e·t − (e−1)·t2, t] with deadline ≤ t2, over e·(t2 − t)` — uses
/// original (not remaining) work, giving the best known
/// competitive ratio in `α`. The estimate moves between events, so it
/// is sampled on sub-steps with the rescue floor as the safety net.
pub fn bkp(jobs: &JobSet) -> Schedule {
    let e = std::f64::consts::E;
    run_online("BKP", jobs, SUBSTEPS, None, |v| {
        let t = v.now;
        let mut best = 0.0f64;
        for cand in v.released {
            let t2 = cand.deadline;
            if t2 <= t {
                continue;
            }
            let t1 = e * t - (e - 1.0) * t2;
            let w: f64 = v
                .released
                .iter()
                .filter(|j| j.release >= t1 - TOL && j.deadline <= t2)
                .map(|j| j.work)
                .sum();
            best = best.max(w / (e * (t2 - t)));
        }
        e * best
    })
}

/// Simulates EDF under the piecewise-constant speed profile described
/// by `segments` (idle in the gaps) and reports whether every job
/// completes inside its window — the independent referee the property
/// tests run against every schedule this module emits.
pub fn edf_feasible(jobs: &JobSet, segments: &[SpeedSegment]) -> bool {
    if jobs.is_empty() {
        return true;
    }
    let eps = 1e-6 * jobs.total_work().max(1.0);
    let mut segs: Vec<SpeedSegment> = segments.to_vec();
    segs.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut points: Vec<f64> = jobs
        .jobs()
        .iter()
        .flat_map(|j| [j.release, j.deadline])
        .chain(segs.iter().flat_map(|s| [s.start, s.end]))
        .collect();
    points.sort_by(f64::total_cmp);
    points.dedup();
    let all = jobs.jobs();
    let mut next_arrival = 0usize;
    let mut pending: Vec<(f64, f64)> = Vec::new();
    let mut seg_idx = 0usize;
    for window in points.windows(2) {
        let (a, b) = (window[0], window[1]);
        while next_arrival < all.len() && all[next_arrival].release <= a + TOL {
            let j = all[next_arrival];
            next_arrival += 1;
            let at = pending.partition_point(|&(d, _)| d <= j.deadline);
            pending.insert(at, (j.deadline, j.work));
        }
        let mid = 0.5 * (a + b);
        while seg_idx < segs.len() && segs[seg_idx].end <= mid {
            seg_idx += 1;
        }
        let speed = if seg_idx < segs.len() && segs[seg_idx].start <= mid {
            segs[seg_idx].speed
        } else {
            0.0
        };
        let mut capacity = speed * (b - a);
        for slot in pending.iter_mut() {
            if capacity <= 0.0 {
                break;
            }
            let take = slot.1.min(capacity);
            slot.1 -= take;
            capacity -= take;
        }
        pending.retain(|&(_, rem)| rem > 0.0);
        for &(d, rem) in &pending {
            if d <= b + TOL && rem > eps {
                return false;
            }
        }
    }
    pending.iter().all(|&(_, rem)| rem <= eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single() -> JobSet {
        JobSet::new(vec![Job::new(0.0, 10.0, 5.0)])
    }

    #[test]
    fn yds_single_job_runs_at_density() {
        let s = yds(&single());
        assert_eq!(s.segments.len(), 1);
        let seg = s.segments[0];
        assert!((seg.start - 0.0).abs() < 1e-12);
        assert!((seg.end - 10.0).abs() < 1e-12);
        assert!((seg.speed - 0.5).abs() < 1e-12);
        assert!((seg.executed - 5.0).abs() < 1e-12);
        assert!((s.energy(&PowerModel::weiser()) - 1.25).abs() < 1e-12);
        assert!((s.energy(&PowerModel::cube()) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn empty_set_is_trivially_optimal() {
        let s = yds(&JobSet::new(vec![]));
        assert!(s.segments.is_empty());
        assert!(s.feasible);
        assert_eq!(s.energy(&PowerModel::weiser()), 0.0);
        assert!(edf_feasible(&JobSet::new(vec![]), &s.segments));
    }

    #[test]
    fn zero_work_jobs_are_dropped() {
        let set = JobSet::new(vec![Job::new(0.0, 1.0, 0.0), Job::new(0.0, 2.0, 1.0)]);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn job_set_is_input_order_independent() {
        let a = JobSet::new(vec![Job::new(0.0, 10.0, 4.0), Job::new(2.0, 6.0, 4.0)]);
        let b = JobSet::new(vec![Job::new(2.0, 6.0, 4.0), Job::new(0.0, 10.0, 4.0)]);
        assert_eq!(a, b);
        assert_eq!(yds(&a), yds(&b));
    }

    #[test]
    fn online_suite_is_feasible_and_dominates_opt_on_a_small_set() {
        let set = JobSet::new(vec![
            Job::new(0.0, 12.0, 3.0),
            Job::new(2.0, 6.0, 2.0),
            Job::new(5.0, 20.0, 4.0),
        ]);
        let power = PowerModel::weiser();
        let opt = yds(&set);
        let e_opt = opt.energy(&power);
        assert!(edf_feasible(&set, &opt.segments));
        for s in [avr(&set), oa(&set), qoa_for(&set, &power), bkp(&set)] {
            assert!(s.feasible, "{} missed a deadline", s.name);
            assert!(
                (s.executed() - set.total_work()).abs() < 1e-6,
                "{} lost work",
                s.name
            );
            assert!(
                s.energy(&power) >= e_opt - 1e-9,
                "{} beat the offline optimum",
                s.name
            );
        }
    }

    #[test]
    fn itsy_steps_are_the_eleven_clock_fractions() {
        let steps = itsy_step_speeds();
        assert_eq!(steps.len(), 11);
        assert!((steps[0] - 59.0 / 206.4).abs() < 1e-12);
        assert!((steps[10] - 1.0).abs() < 1e-12);
        assert!(steps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quantize_rounds_up_and_flags_overspeed() {
        let steps = itsy_step_speeds();
        // 0.5 is exactly the 103.2 MHz step: no penalty.
        let exact = quantize_to_steps(&yds(&single()), &steps);
        assert!(exact.feasible);
        assert!((exact.segments[0].speed - 103.2 / 206.4).abs() < 1e-12);
        // A job needing speed 2.0 cannot fit the table.
        let hot = JobSet::new(vec![Job::new(0.0, 1.0, 2.0)]);
        let q = quantize_to_steps(&yds(&hot), &steps);
        assert!(!q.feasible);
        assert!((q.segments[0].speed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rescue_floor_keeps_bkp_feasible_between_samples() {
        // Tight windows that force BKP's sampled estimate to lag.
        let set = JobSet::new(vec![
            Job::new(0.0, 1.0, 0.7),
            Job::new(0.5, 1.5, 0.6),
            Job::new(1.0, 2.0, 0.8),
        ]);
        let s = bkp(&set);
        assert!(s.feasible);
        assert!((s.executed() - set.total_work()).abs() < 1e-6);
    }
}
