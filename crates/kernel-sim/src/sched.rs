//! The kernel proper: timer ticks, round-robin scheduling, utilization
//! accounting, the policy hook, and energy integration.
//!
//! Time advances in *segments* — maximal spans during which the machine
//! state (running task, mode, clock, voltage) is constant. Segment
//! boundaries are timer ticks, work completions, spin expirations and
//! stall expirations. Power is integrated per segment; the power trace
//! is a step function with one sample per power change.

use std::collections::VecDeque;

use sim_core::{Power, SimDuration, SimFidelity, SimTime, TimeSeries};

use itsy_hw::clock::V_HIGH;
use itsy_hw::{CorePowerCache, CpuMode, RunTotals, SpanEnergy, StepIndex, Work};
use policies::{ClockPolicy, PolicyRequest};

use crate::log::{DeadlineLog, SchedLog};
use crate::machine::Machine;
use crate::report::KernelReport;
use crate::task::{Pid, TaskAction, TaskBehavior, TaskCtx, IDLE_PID};

/// Run-loop configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Scheduling quantum; the paper forces the Linux scheduler to run
    /// every 10 ms tick.
    pub quantum: SimDuration,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Capture the scheduler activity log.
    pub log_sched: bool,
    /// Capture the power step-function trace (needed by the DAQ).
    pub record_power: bool,
    /// Stop early once an attached battery is exhausted.
    pub stop_when_battery_empty: bool,
    /// Collect a structured event trace (quantum boundaries, policy
    /// decisions, clock/voltage transitions, scheduling picks) into
    /// [`KernelReport::trace`]. Off by default: the bulk experiment
    /// engine runs thousands of cells and only `repro trace` wants the
    /// event stream.
    pub trace: bool,
    /// Bound on [`SchedLog`] records kept (the paper's kernel-memory
    /// limit); `None` keeps everything. Ignored when `log_sched` is
    /// off — a disabled log drops nothing.
    pub sched_log_capacity: Option<usize>,
    /// At [`SimFidelity::Summary`], run the tick-by-tick loop instead of
    /// the uniform-span fast path. The two agree on every integer
    /// observable and on energy within 1e-12 relative (the differential
    /// suite proves it); the reference loop exists as the oracle for
    /// that proof and for debugging. Full fidelity always runs the tick
    /// loop, so there the flag changes nothing. Tracing implies the tick
    /// loop regardless of this flag: per-tick events make every tick
    /// observable, so there is nothing to batch.
    pub reference: bool,
    /// What the run must materialize. [`SimFidelity::Full`] (the
    /// default) records per-tick series, the scheduler log and the
    /// power trace exactly as always. [`SimFidelity::Summary`] skips
    /// all per-tick emission: means come from exact integer
    /// accumulators ([`KernelReport::ticks`] and friends), and energy
    /// flows through a compensated [`SpanEnergy`] accumulator, one term
    /// per uniform span. Integer accounting, policy decision sequences,
    /// deadline outcomes and final battery state stay bit-identical to
    /// a Full run (the differential suite proves it); only
    /// series-derived floats differ, within the bound documented in
    /// DESIGN.md §9. Orthogonal to
    /// [`KernelConfig::reference`]: a Summary+reference run ticks
    /// through the oracle loop while still skipping emission.
    pub fidelity: SimFidelity,
    /// Number of equal sim-time windows to fold the run's trajectory
    /// into ([`KernelReport::timeline`]): per-window energy and busy
    /// time, derived from the same segment arithmetic in every
    /// path/fidelity combination. `0` (the default) records nothing.
    pub timeline_windows: u32,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            quantum: SimDuration::from_millis(10),
            duration: SimDuration::from_secs(30),
            log_sched: true,
            record_power: true,
            stop_when_battery_empty: false,
            trace: false,
            sched_log_capacity: None,
            reference: false,
            fidelity: SimFidelity::Full,
            timeline_windows: 0,
        }
    }
}

/// Windowed trajectory accumulator: energy and busy time bucketed into
/// equal sim-time windows. Spans are split at window boundaries, so a
/// multi-window uniform span lands exactly where a tick-by-tick run
/// would put it.
struct TimelineAcc {
    win_us: u64,
    duration_us: u64,
    energy_j: Vec<f64>,
    busy_us: Vec<u64>,
}

impl TimelineAcc {
    fn new(windows: u32, duration_us: u64) -> Self {
        TimelineAcc {
            win_us: duration_us.div_ceil(u64::from(windows)).max(1),
            duration_us,
            energy_j: vec![0.0; windows as usize],
            busy_us: vec![0; windows as usize],
        }
    }

    /// Attributes `watts` drawn over `[a_us, b_us)` to the windows it
    /// crosses. Time past the nominal duration (a trailing stall) folds
    /// into the last window.
    fn energy(&mut self, a_us: u64, b_us: u64, watts: f64) {
        let (win, n) = (self.win_us, self.energy_j.len());
        let mut t = a_us;
        while t < b_us {
            let s = ((t / win) as usize).min(n - 1);
            let boundary = if s + 1 == n {
                b_us
            } else {
                ((s as u64 + 1) * win).min(b_us)
            };
            self.energy_j[s] += watts * (boundary - t) as f64 / 1e6;
            t = boundary;
        }
    }

    /// Attributes non-idle time over `[a_us, b_us)` to its windows.
    fn busy(&mut self, a_us: u64, b_us: u64) {
        let (win, n) = (self.win_us, self.busy_us.len());
        let mut t = a_us;
        while t < b_us {
            let s = ((t / win) as usize).min(n - 1);
            let boundary = if s + 1 == n {
                b_us
            } else {
                ((s as u64 + 1) * win).min(b_us)
            };
            self.busy_us[s] += boundary - t;
            t = boundary;
        }
    }

    fn samples(&self) -> Vec<crate::report::WindowSample> {
        (0..self.energy_j.len())
            .map(|i| crate::report::WindowSample {
                start_us: (i as u64 * self.win_us).min(self.duration_us),
                end_us: ((i as u64 + 1) * self.win_us).min(self.duration_us),
                energy_j: self.energy_j[i],
                busy_us: self.busy_us[i],
                misses: 0,
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RunState {
    NeedsAction,
    Work(Work),
    Spin(SimTime),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Ready,
    Sleeping(SimTime),
    Exited,
}

struct TaskState {
    behavior: Box<dyn TaskBehavior>,
    run: RunState,
    status: Status,
    cpu_time: SimDuration,
}

/// Reusable allocation pool for repeated kernel runs.
///
/// A run's report carries four [`TimeSeries`] whose backing vectors are
/// the bulk of a short run's heap traffic. Batch drivers that execute
/// thousands of simulations hand the same scratch to every run
/// ([`Kernel::run_scratch`]) and return each finished report's buffers
/// with [`SimScratch::recycle`], so steady-state simulation performs no
/// series allocation at all. Buffer reuse cannot change results: a
/// recycled vector is cleared before use and only its capacity
/// survives.
#[derive(Debug, Default)]
pub struct SimScratch {
    series_buffers: Vec<Vec<(u64, f64)>>,
}

impl SimScratch {
    /// An empty pool.
    pub fn new() -> Self {
        SimScratch::default()
    }

    fn take_buffer(&mut self) -> Vec<(u64, f64)> {
        self.series_buffers.pop().unwrap_or_default()
    }

    /// Returns a finished report's series allocations to the pool.
    pub fn recycle(&mut self, report: KernelReport) {
        for series in [
            report.utilization,
            report.freq_mhz,
            report.work_fraction,
            report.power_w,
        ] {
            self.series_buffers.push(series.into_buffer());
        }
    }
}

/// The run loop's mutable state, shared by the tick-by-tick loop and the
/// Summary uniform-span path so both execute the exact same accounting
/// code where they overlap.
struct LoopState {
    now: SimTime,
    next_tick: SimTime,
    stall_until: SimTime,
    end: SimTime,
    quantum: SimDuration,
    utilization: TimeSeries,
    freq_mhz: TimeSeries,
    work_fraction: TimeSeries,
    power_w: TimeSeries,
    totals: RunTotals,
    /// Peripheral draw, constant for the whole run: the device set is
    /// fixed at machine construction and never changes mid-simulation.
    peripheral: Power,
    power_cache: CorePowerCache,
    busy_in_quantum: SimDuration,
    work_in_quantum: Work,
    last_power: Option<f64>,
    fastest: StepIndex,
    full_speed_khz: u32,
    action_fuel_at: (SimTime, u32),
    /// Set when an attached battery emptied and the run must stop.
    stopped: bool,
    /// Summary fidelity: per-tick emission is skipped and the fields
    /// below carry the run's exact closed-form observables.
    summary: bool,
    /// Completed quanta (= utilization samples a Full run would hold).
    ticks: u64,
    /// Busy microseconds inside completed quanta, each clamped to the
    /// quantum — the exact integer numerator of mean utilization.
    util_sum_us: u64,
    /// Sum of the per-tick frequency samples in kHz (plus the t = 0
    /// sample), the exact integer numerator of the mean frequency over
    /// `ticks + 1` samples.
    freq_khz_sum: u64,
    /// Compensated energy accumulator; committed into `totals` at
    /// finish. Only used in summary runs.
    span_energy: SpanEnergy,
    /// Windowed trajectory accumulator; `None` unless
    /// [`KernelConfig::timeline_windows`] is nonzero.
    timeline: Option<TimelineAcc>,
}

/// A provably-uniform stretch of whole quanta a Summary run commits in
/// closed form: machine state, the running task and the per-tick
/// utilization are all constant until the span's bounding event.
enum SpanKind {
    /// No runnable task; the core naps.
    Idle,
    /// A single runnable task computing through its work quantum.
    Work(Pid, Work),
    /// A single runnable task spinning until the contained time.
    Spin(Pid, SimTime),
}

/// The simulated kernel. Construct, [`Kernel::spawn`] workloads,
/// optionally [`Kernel::install_policy`], then [`Kernel::run`].
///
/// # Examples
///
/// ```
/// use itsy_hw::{DeviceSet, Work};
/// use kernel_sim::task::FnBehavior;
/// use kernel_sim::{Kernel, KernelConfig, Machine, TaskAction};
/// use sim_core::SimDuration;
///
/// let mut kernel = Kernel::new(
///     Machine::itsy(10, DeviceSet::NONE),
///     KernelConfig {
///         duration: SimDuration::from_secs(1),
///         ..KernelConfig::default()
///     },
/// );
/// kernel.spawn(Box::new(FnBehavior::new("busy", |_ctx| {
///     TaskAction::Compute(Work::cycles(1.0e9))
/// })));
/// let report = kernel.run();
/// assert_eq!(report.mean_utilization(), 1.0);
/// assert!(report.energy.as_joules() > 0.0);
/// ```
pub struct Kernel {
    machine: Machine,
    config: KernelConfig,
    tasks: Vec<TaskState>,
    runqueue: VecDeque<Pid>,
    current: Option<Pid>,
    policy: Option<Box<dyn ClockPolicy>>,
    deadlines: DeadlineLog,
    sched_log: SchedLog,
    trace: obs::Trace,
}

impl Kernel {
    /// Creates a kernel for `machine` with the given configuration.
    pub fn new(machine: Machine, config: KernelConfig) -> Self {
        // Summary fidelity records no scheduler log: disabling it here
        // (rather than gating every record site) also keeps it from
        // counting drops it never intended to keep.
        let log_sched = config.log_sched && !config.fidelity.is_summary();
        let sched_log = SchedLog::bounded(log_sched, config.sched_log_capacity);
        let trace = if config.trace {
            obs::Trace::on()
        } else {
            obs::Trace::off()
        };
        Kernel {
            machine,
            config,
            tasks: Vec::new(),
            runqueue: VecDeque::new(),
            current: None,
            policy: None,
            deadlines: DeadlineLog::default(),
            sched_log,
            trace,
        }
    }

    /// Spawns a task; pids start at 1 (0 is the idle task).
    pub fn spawn(&mut self, behavior: Box<dyn TaskBehavior>) -> Pid {
        let pid = (self.tasks.len() + 1) as Pid;
        self.tasks.push(TaskState {
            behavior,
            run: RunState::NeedsAction,
            status: Status::Ready,
            cpu_time: SimDuration::ZERO,
        });
        self.runqueue.push_back(pid);
        pid
    }

    /// Installs the clock-scaling policy module.
    pub fn install_policy(&mut self, policy: Box<dyn ClockPolicy>) {
        self.policy = Some(policy);
    }

    fn task(&mut self, pid: Pid) -> &mut TaskState {
        &mut self.tasks[(pid - 1) as usize]
    }

    /// True while the current task is waiting for its behavior to be
    /// asked what to do next.
    fn needs_action(&self) -> bool {
        self.current
            .is_some_and(|pid| self.tasks[(pid - 1) as usize].run == RunState::NeedsAction)
    }

    fn pick_current(&mut self, now: SimTime) {
        if let Some(pid) = self.current {
            if self.task(pid).status == Status::Ready {
                return;
            }
            self.current = None;
        }
        while let Some(pid) = self.runqueue.pop_front() {
            if self.task(pid).status == Status::Ready {
                self.current = Some(pid);
                let khz = self.machine.cpu.freq().as_khz();
                self.sched_log.record(now, pid, khz);
                self.emit_schedule(now, pid, khz);
                return;
            }
        }
        // Idle: record the idle task taking over (once per transition).
        let khz = self.machine.cpu.freq().as_khz();
        self.sched_log.record(now, IDLE_PID, khz);
        self.emit_schedule(now, IDLE_PID, khz);
    }

    fn emit_schedule(&mut self, now: SimTime, pid: Pid, clock_khz: u32) {
        if self.trace.is_enabled() {
            self.trace.emit(
                now.as_micros(),
                obs::EventKind::Schedule {
                    pid: u64::from(pid),
                    clock_khz: u64::from(clock_khz),
                },
            );
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> KernelReport {
        self.run_scratch(&mut SimScratch::new())
    }

    /// Like [`Kernel::run`], but draws series buffers from (and is
    /// expected to eventually [`SimScratch::recycle`] back into) a
    /// caller-held allocation pool. Batch drivers use this to amortize
    /// per-run allocation across thousands of jobs.
    pub fn run_scratch(mut self, scratch: &mut SimScratch) -> KernelReport {
        let quantum = self.config.quantum;
        assert!(!quantum.is_zero(), "quantum must be positive");
        let fastest = self.machine.cpu.table().fastest();
        let mut ls = LoopState {
            now: SimTime::ZERO,
            next_tick: SimTime::ZERO + quantum,
            stall_until: SimTime::ZERO,
            end: SimTime::ZERO + self.config.duration,
            quantum,
            utilization: TimeSeries::with_buffer("utilization", scratch.take_buffer()),
            freq_mhz: TimeSeries::with_buffer("freq_mhz", scratch.take_buffer()),
            work_fraction: TimeSeries::with_buffer("work_fraction", scratch.take_buffer()),
            power_w: TimeSeries::with_buffer("watts", scratch.take_buffer()),
            totals: RunTotals::new(),
            peripheral: self.machine.power.peripheral_power(self.machine.devices),
            power_cache: CorePowerCache::new(),
            busy_in_quantum: SimDuration::ZERO,
            work_in_quantum: Work::ZERO,
            last_power: None,
            fastest,
            full_speed_khz: self.machine.cpu.table().freq(fastest).as_khz(),
            action_fuel_at: (SimTime::ZERO, 0u32),
            stopped: false,
            summary: self.config.fidelity.is_summary(),
            ticks: 0,
            util_sum_us: 0,
            freq_khz_sum: 0,
            span_energy: SpanEnergy::new(),
            timeline: (self.config.timeline_windows > 0).then(|| {
                TimelineAcc::new(
                    self.config.timeline_windows,
                    self.config.duration.as_micros(),
                )
            }),
        };

        // Record the initial frequency sample so Figure 8-style plots
        // start at t = 0; a summary run keeps the same sample as an
        // exact integer term instead.
        if ls.summary {
            ls.freq_khz_sum += u64::from(self.machine.cpu.freq().as_khz());
        } else {
            ls.freq_mhz
                .push(ls.now, self.machine.cpu.freq().as_mhz_f64());
        }
        self.pick_current(ls.now);

        // Full fidelity runs the tick loop alone; only a Summary run
        // skips uniform spans. Tracing forces the tick loop too:
        // per-tick policy and quantum events make every tick
        // observable, so no span is uniform.
        let batched = ls.summary && !self.config.reference && !self.config.trace;
        while ls.now < ls.end {
            self.resolve_actions(&mut ls);
            if batched && self.run_uniform_span(&mut ls) {
                if ls.stopped {
                    break;
                }
                continue;
            }
            if self.step_segment(&mut ls) {
                break; // battery empty
            }
        }
        self.finish(ls)
    }

    /// Resolves pending behavior decisions (no time passes). A stalled
    /// core executes nothing, so the whole block is skipped mid-stall;
    /// otherwise the loop ends when the current task has real work
    /// queued or the runqueue drains.
    fn resolve_actions(&mut self, ls: &mut LoopState) {
        let now = ls.now;
        while ls.stall_until <= now && self.needs_action() {
            let Some(pid) = self.current else { break };
            if ls.action_fuel_at.0 == now {
                ls.action_fuel_at.1 += 1;
                assert!(
                    ls.action_fuel_at.1 < 10_000,
                    "task {pid} livelocked at {now} (10k actions without time passing)"
                );
            } else {
                ls.action_fuel_at = (now, 0);
            }
            let freq = self.machine.cpu.freq();
            let state = &mut self.tasks[(pid - 1) as usize];
            let mut ctx = TaskCtx::new(now, freq, &mut self.deadlines);
            let action = state.behavior.next_action(&mut ctx);
            match action {
                TaskAction::Compute(w) if w.is_zero() => {} // ask again
                TaskAction::Compute(w) => state.run = RunState::Work(w),
                TaskAction::SpinUntil(t) if t <= now => {} // already passed
                TaskAction::SpinUntil(t) => state.run = RunState::Spin(t),
                TaskAction::SleepUntil(t) => {
                    state.status = Status::Sleeping(t);
                    state.run = RunState::NeedsAction;
                    self.pick_current(now);
                }
                TaskAction::Exit => {
                    state.status = Status::Exited;
                    state.run = RunState::NeedsAction;
                    self.pick_current(now);
                }
            }
        }
    }

    /// One iteration of the tick loop: a single segment plus, when the
    /// segment ends on a tick, the timer-tick work. Returns `true` when
    /// an attached battery emptied and the run must stop.
    ///
    /// Full fidelity runs every quantum through here, like the paper's
    /// kernel running its scheduler and policy on every 10 ms tick. At
    /// Summary fidelity this is the oracle the uniform-span path is
    /// proven against, and every non-uniform moment of a span-skipping
    /// run also flows through here, so the two cannot drift in shared
    /// territory.
    fn step_segment(&mut self, ls: &mut LoopState) -> bool {
        let now = ls.now;
        let quantum = ls.quantum;
        let boundary = ls.next_tick.min(ls.end);

        // Determine the segment: its end, mode, and work consumed.
        let step = self.machine.cpu.step();
        let freq = self.machine.cpu.freq();
        let (seg_end, mode, work_done, completes, is_spin): (SimTime, CpuMode, Work, bool, bool) =
            if ls.stall_until > now {
                (
                    ls.stall_until.min(boundary),
                    CpuMode::Stalled,
                    Work::ZERO,
                    false,
                    false,
                )
            } else if let Some(pid) = self.current {
                match self.task(pid).run {
                    RunState::Work(w) => {
                        let budget = boundary.duration_since(now);
                        match w.execute_for(budget, step, freq, &self.machine.mem) {
                            itsy_hw::WorkProgress::Completed(d) => {
                                (now + d, CpuMode::Run, w, true, false)
                            }
                            itsy_hw::WorkProgress::Remaining(rest) => {
                                let done = w.plus(rest.scaled(-1.0));
                                self.task(pid).run = RunState::Work(rest);
                                (boundary, CpuMode::Run, done, false, false)
                            }
                        }
                    }
                    RunState::Spin(t) if t <= now => {
                        // The spin target passed while the task was
                        // rotated out; it completes immediately.
                        (now, CpuMode::Run, Work::ZERO, true, true)
                    }
                    RunState::Spin(t) => {
                        let seg = t.min(boundary);
                        (seg, CpuMode::Run, Work::ZERO, seg == t, true)
                    }
                    RunState::NeedsAction => unreachable!("resolved above"),
                }
            } else {
                (boundary, CpuMode::Nap, Work::ZERO, false, false)
            };

        // Integrate power over the segment.
        let span = seg_end.duration_since(now);
        if !span.is_zero() {
            let core_p =
                ls.power_cache
                    .get(&self.machine.power, mode, freq, self.machine.cpu.voltage());
            let p = core_p + ls.peripheral;
            if ls.summary {
                // No power trace; energy goes through the compensated
                // accumulator (committed into the totals at finish).
                ls.span_energy.add(p, core_p, span);
            } else {
                if self.config.record_power && ls.last_power != Some(p.as_watts()) {
                    ls.power_w.push(now, p.as_watts());
                    ls.last_power = Some(p.as_watts());
                }
                ls.totals.energy += p.over(span);
                ls.totals.core_energy += core_p.over(span);
            }
            if let Some(tl) = ls.timeline.as_mut() {
                // Energy is drawn even when the battery empties below
                // and cuts the run short, so it is bucketed first.
                tl.energy(now.as_micros(), seg_end.as_micros(), p.as_watts());
            }
            if let Some(batt) = self.machine.battery.as_mut() {
                batt.drain(p, span);
                if self.config.stop_when_battery_empty && batt.is_empty() {
                    ls.now = seg_end;
                    return true;
                }
            }
            match mode {
                CpuMode::Run => {
                    ls.totals.busy += span;
                    ls.busy_in_quantum += span;
                    if is_spin {
                        ls.totals.spun += span;
                    }
                    if let Some(pid) = self.current {
                        self.task(pid).cpu_time += span;
                    }
                }
                CpuMode::Stalled => {
                    ls.totals.busy += span;
                    ls.busy_in_quantum += span;
                    ls.totals.stalled += span;
                }
                CpuMode::Nap => ls.totals.idle += span,
            }
            if !matches!(mode, CpuMode::Nap) {
                if let Some(tl) = ls.timeline.as_mut() {
                    tl.busy(now.as_micros(), seg_end.as_micros());
                }
            }
            if !ls.summary {
                // Only the work-fraction series reads this; a summary
                // run never computes it.
                ls.work_in_quantum = ls.work_in_quantum.plus(work_done);
            }
        }
        ls.now = seg_end;
        let now = seg_end;

        // Mark completions.
        if completes {
            if let Some(pid) = self.current {
                self.task(pid).run = RunState::NeedsAction;
            }
        }

        // Timer tick.
        if now == ls.next_tick && now <= ls.end {
            // Utilization of the quantum that just ended. The f64 value
            // feeds the policy in both fidelities; Full pushes it as a
            // series sample, Summary folds the exact integer numerator
            // into the mean-utilization accumulator instead.
            let util = (ls.busy_in_quantum.as_micros() as f64 / quantum.as_micros() as f64)
                .clamp(0.0, 1.0);
            if ls.summary {
                ls.ticks += 1;
                ls.util_sum_us += ls.busy_in_quantum.as_micros().min(quantum.as_micros());
            } else {
                ls.utilization.push(now, util);
                self.trace.emit(
                    now.as_micros(),
                    obs::EventKind::QuantumBoundary { utilization: util },
                );
                let wf = ls
                    .work_in_quantum
                    .total_cycles(ls.fastest, &self.machine.mem)
                    / (ls.full_speed_khz as f64 * quantum.as_micros() as f64 / 1_000.0);
                ls.work_fraction.push(now, wf.clamp(0.0, 1.0));
            }
            ls.busy_in_quantum = SimDuration::ZERO;
            ls.work_in_quantum = Work::ZERO;

            // Wake sleepers (jiffy granularity).
            for (i, t) in self.tasks.iter_mut().enumerate() {
                if let Status::Sleeping(until) = t.status {
                    if until <= now {
                        t.status = Status::Ready;
                        self.runqueue.push_back((i + 1) as Pid);
                    }
                }
            }

            // The clock-scaling policy module runs from the timer
            // interrupt.
            if let Some(policy) = self.policy.as_mut() {
                let cur = self.machine.cpu.step();
                let req = policy.on_interval_traced(now, util, cur, &mut self.trace);
                self.apply_request(req, now, ls);
            }
            if ls.summary {
                ls.freq_khz_sum += u64::from(self.machine.cpu.freq().as_khz());
            } else {
                ls.freq_mhz.push(now, self.machine.cpu.freq().as_mhz_f64());
            }

            // Scheduler entry on every tick: the paper's patch sets the
            // counter to one "forcing the scheduler to be called every
            // 10ms", so the current task always goes back on the queue.
            if let Some(pid) = self.current.take() {
                if self.task(pid).status == Status::Ready {
                    self.runqueue.push_back(pid);
                }
            }
            self.pick_current(now);

            ls.next_tick += quantum;
        }
        false
    }

    /// Applies a policy request at tick `now`. This is the one place a
    /// [`PolicyRequest`] changes the machine: unset fields keep the
    /// current step or voltage, an electrically unsafe voltage is
    /// clamped up to `V_HIGH` and retried, and a clock change stalls the
    /// core from `now`. Returns `false`, touching nothing, when the
    /// machine already holds the requested state.
    fn apply_request(&mut self, req: PolicyRequest, now: SimTime, ls: &mut LoopState) -> bool {
        let (step, voltage) = (self.machine.cpu.step(), self.machine.cpu.voltage());
        let target_step = req.step.unwrap_or(step);
        let target_v = req.voltage.unwrap_or(voltage);
        if target_step == step && target_v == voltage {
            return false;
        }
        let now_us = now.as_micros();
        let Machine { cpu, power, .. } = &mut self.machine;
        let params = &power.params;
        let transition = cpu
            .request_traced(target_step, target_v, params, now_us, &mut self.trace)
            .unwrap_or_else(|_| {
                cpu.request_traced(target_step, V_HIGH, params, now_us, &mut self.trace)
                    .expect("high voltage is safe at every step")
            });
        if !transition.stall.is_zero() {
            ls.stall_until = now + transition.stall;
        }
        true
    }

    /// The Summary fast path: detects a uniform span starting at the
    /// current (tick-aligned) time and commits it at once. One loop
    /// walks the span's quanta for what is genuinely per-tick (work
    /// remainders, battery drain and the policy, which sees every tick
    /// as it does on the tick loop); the span's time accounting,
    /// per-task CPU and frequency samples land as exact integer terms,
    /// and its energy as one compensated term.
    ///
    /// Returns `true` if it consumed at least one whole quantum (the
    /// caller re-enters the loop), `false` to fall back to
    /// [`Kernel::step_segment`].
    ///
    /// A span is uniform while all of these hold:
    /// - the core is not stalled and `now` sits exactly on a tick;
    /// - the runqueue is empty, so scheduling is trivial (either pure
    ///   idle or a single runnable task that round-robins onto itself);
    /// - the current task, if any, is mid-[`Work`] or mid-spin — its
    ///   behavior is not consulted, so no action can change anything;
    /// - no sleeper wakes, the spin does not expire, the work does not
    ///   complete, and the run does not end before the span's last
    ///   tick (each limit is computed exactly below);
    /// - the policy keeps requesting machine no-ops (a request that
    ///   changes the machine ends the span *after* its tick completes,
    ///   exactly like the tick loop).
    fn run_uniform_span(&mut self, ls: &mut LoopState) -> bool {
        debug_assert!(ls.summary, "Full fidelity runs the tick loop only");
        if ls.stall_until > ls.now || ls.now + ls.quantum != ls.next_tick {
            return false;
        }
        if !self.runqueue.is_empty() {
            return false;
        }
        let kind = match self.current {
            None => SpanKind::Idle,
            Some(pid) => match self.tasks[(pid - 1) as usize].run {
                RunState::Work(w) => SpanKind::Work(pid, w),
                RunState::Spin(t) if t > ls.now => SpanKind::Spin(pid, t),
                _ => return false,
            },
        };
        debug_assert!(ls.busy_in_quantum.is_zero() && ls.work_in_quantum.is_zero());

        let start_us = ls.now.as_micros();
        let q_us = ls.quantum.as_micros();
        // Whole quanta until the run ends (a trailing partial quantum
        // is never batched).
        let mut max = ls.end.duration_since(ls.now).as_micros() / q_us;
        // A sleeper waking at tick `j` changes the runqueue during that
        // tick's processing, so the span may cover at most `j - 1`
        // quanta; the wake tick itself runs on the tick loop.
        for t in &self.tasks {
            if let Status::Sleeping(until) = t.status {
                let wake_tick = if until.as_micros() <= start_us {
                    1
                } else {
                    let d = until.as_micros() - start_us;
                    d.div_ceil(q_us)
                };
                max = max.min(wake_tick - 1);
            }
        }
        // A spin expiring within quantum `k` (including exactly on its
        // tick, which marks a completion) ends uniformity at `k - 1`.
        if let SpanKind::Spin(_, until) = kind {
            let d = until.as_micros() - start_us;
            max = max.min((d - 1) / q_us);
        }
        if max == 0 {
            return false;
        }

        // Constant machine state across the span.
        let step = self.machine.cpu.step();
        let freq = self.machine.cpu.freq();
        let khz = freq.as_khz();
        let (mode, util) = match kind {
            SpanKind::Idle => (CpuMode::Nap, 0.0),
            SpanKind::Work(..) | SpanKind::Spin(..) => (CpuMode::Run, 1.0),
        };
        let core_p =
            ls.power_cache
                .get(&self.machine.power, mode, freq, self.machine.cpu.voltage());
        let p = core_p + ls.peripheral;

        // Nothing per-tick is emitted, but every quantum still runs:
        // `Work` remainders are order-dependent, a battery smooths its
        // draw, and the policy observes every tick as it does on the
        // tick loop.
        let mut w_left = match kind {
            SpanKind::Work(_, w) => w,
            _ => Work::ZERO,
        };
        let mut executed: u64 = 0; // quanta fully accounted
        let mut span_over = false; // policy changed the machine
        let mut energy_quanta: u64 = 0; // quanta owing energy
        while executed < max && !span_over {
            let t_k = SimTime::from_micros(start_us + (executed + 1) * q_us);
            if let SpanKind::Work(..) = kind {
                match w_left.execute_for(ls.quantum, step, freq, &self.machine.mem) {
                    itsy_hw::WorkProgress::Completed(_) => break, // tick loop finishes it
                    itsy_hw::WorkProgress::Remaining(rest) => w_left = rest,
                }
            }
            energy_quanta += 1;
            if let Some(batt) = self.machine.battery.as_mut() {
                batt.drain(p, ls.quantum);
                if self.config.stop_when_battery_empty && batt.is_empty() {
                    // Same cut as the tick loop: the emptying quantum
                    // draws energy but adds no time.
                    ls.now = t_k;
                    ls.stopped = true;
                    break;
                }
            }
            executed += 1;
            if let Some(policy) = self.policy.as_mut() {
                let req = policy.on_interval(t_k, util, step);
                span_over = self.apply_request(req, t_k, ls);
            }
        }

        if executed == 0 && !ls.stopped {
            return false;
        }

        // Closed-form commit: one compensated energy term for the whole
        // span (exact for constant power), exact integer accounting for
        // everything else.
        let span_total = SimDuration::from_micros(executed * q_us);
        ls.span_energy
            .add(p, core_p, SimDuration::from_micros(energy_quanta * q_us));
        if let Some(tl) = ls.timeline.as_mut() {
            // `energy_quanta` quanta drew power (an emptying battery's
            // final quantum draws energy but adds no time); `executed`
            // quanta were busy for Work/Spin.
            tl.energy(start_us, start_us + energy_quanta * q_us, p.as_watts());
            if !matches!(kind, SpanKind::Idle) {
                tl.busy(start_us, start_us + executed * q_us);
            }
        }
        if !ls.stopped {
            ls.now = SimTime::from_micros(start_us + executed * q_us);
        }
        ls.next_tick = ls.now + ls.quantum;
        ls.ticks += executed;
        // Frequency samples: every tick saw the span clock, except that
        // a span-ending decision leaves its own tick sampled at the new
        // clock (the tick loop samples post-decision).
        let khz64 = u64::from(khz);
        ls.freq_khz_sum += executed * khz64;
        if span_over {
            ls.freq_khz_sum -= khz64;
            ls.freq_khz_sum += u64::from(self.machine.cpu.freq().as_khz());
        }
        match kind {
            SpanKind::Idle => ls.totals.idle += span_total,
            SpanKind::Work(pid, _) => {
                ls.totals.busy += span_total;
                ls.util_sum_us += executed * q_us;
                let t = &mut self.tasks[(pid - 1) as usize];
                t.cpu_time += span_total;
                t.run = RunState::Work(w_left);
            }
            SpanKind::Spin(pid, _) => {
                ls.totals.busy += span_total;
                ls.totals.spun += span_total;
                ls.util_sum_us += executed * q_us;
                self.tasks[(pid - 1) as usize].cpu_time += span_total;
            }
        }
        true
    }

    /// Closes the power trace and assembles the report.
    fn finish(self, mut ls: LoopState) -> KernelReport {
        if ls.summary {
            // All of a summary run's energy flowed through the
            // compensated accumulator; land it in the totals now.
            ls.span_energy.commit(&mut ls.totals);
        } else if self.config.record_power {
            if let Some(p) = ls.last_power {
                ls.power_w.push(ls.now, p);
            }
        }

        let per_task = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| ((i + 1) as Pid, t.behavior.label(), t.cpu_time))
            .collect();

        KernelReport {
            utilization: ls.utilization,
            freq_mhz: ls.freq_mhz,
            work_fraction: ls.work_fraction,
            power_w: ls.power_w,
            busy: ls.totals.busy,
            idle: ls.totals.idle,
            stalled: ls.totals.stalled,
            spun: ls.totals.spun,
            energy: ls.totals.energy,
            core_energy: ls.totals.core_energy,
            sched_log: self.sched_log,
            deadlines: self.deadlines,
            trace: self.trace,
            clock_switches: self.machine.cpu.clock_switches(),
            voltage_switches: self.machine.cpu.voltage_switches(),
            final_step: self.machine.cpu.step(),
            per_task_cpu: per_task,
            battery_remaining: self
                .machine
                .battery
                .as_ref()
                .map(|b| b.remaining_fraction()),
            elapsed: ls.now.duration_since(SimTime::ZERO),
            fidelity: self.config.fidelity,
            quantum: ls.quantum,
            ticks: ls.ticks,
            util_sum_us: ls.util_sum_us,
            freq_khz_sum: ls.freq_khz_sum,
            timeline: ls.timeline.map(|t| t.samples()).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::FnBehavior;
    use itsy_hw::DeviceSet;
    use policies::{ClockPolicy, IntervalScheduler, PolicyRequest};

    fn config(secs: u64) -> KernelConfig {
        KernelConfig {
            duration: SimDuration::from_secs(secs),
            ..KernelConfig::default()
        }
    }

    fn busy_forever() -> Box<dyn TaskBehavior> {
        Box::new(FnBehavior::new("busy", |_ctx| {
            TaskAction::Compute(Work::cycles(1.0e9))
        }))
    }

    #[test]
    fn fully_busy_task_gives_unit_utilization() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        k.spawn(busy_forever());
        let r = k.run();
        assert_eq!(r.utilization.len(), 100);
        assert!(r.utilization.values().iter().all(|&u| u == 1.0));
        assert_eq!(r.idle, SimDuration::ZERO);
        assert_eq!(r.busy, SimDuration::from_secs(1));
    }

    #[test]
    fn empty_system_is_fully_idle() {
        let k = Kernel::new(Machine::itsy(0, DeviceSet::NONE), config(1));
        let r = k.run();
        assert!(r.utilization.values().iter().all(|&u| u == 0.0));
        assert_eq!(r.busy, SimDuration::ZERO);
        assert_eq!(r.idle, SimDuration::from_secs(1));
    }

    #[test]
    fn time_is_conserved() {
        let mut k = Kernel::new(Machine::itsy(5, DeviceSet::AV), config(2));
        k.spawn(Box::new(FnBehavior::new("half", |ctx| {
            // Compute 5 ms worth of cycles at 132.7 MHz, then sleep 15 ms.
            if ctx.now.as_micros() % 20_000 < 10_000 {
                TaskAction::Compute(Work::cycles(132_700.0 * 5.0))
            } else {
                TaskAction::SleepUntil(ctx.now + SimDuration::from_millis(15))
            }
        })));
        let r = k.run();
        assert_eq!(r.time_accounted(), SimDuration::from_secs(2));
    }

    #[test]
    fn half_load_measures_half_utilization() {
        // 5 ms of work at the start of every 20 ms period.
        let mut k = Kernel::new(Machine::itsy(5, DeviceSet::NONE), config(1));
        k.spawn(Box::new(FnBehavior::new("period", |ctx| {
            let period_start = SimTime::from_micros(ctx.now.as_micros() / 20_000 * 20_000);
            if ctx.now == period_start {
                // 5 ms of cycles at the current clock (132.7 MHz).
                TaskAction::Compute(Work::cycles(132_700.0 * 5.0))
            } else {
                TaskAction::SleepUntil(period_start + SimDuration::from_millis(20))
            }
        })));
        let r = k.run();
        let mean = r.mean_utilization();
        assert!((mean - 0.25).abs() < 0.05, "mean utilization = {mean}");
    }

    #[test]
    fn sleep_wakes_at_jiffy_granularity() {
        // A task sleeping until t=15ms must not run again before the
        // 20 ms tick.
        let mut first_wake = None;
        let mut started = false;
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        let wake_probe = std::sync::Arc::new(std::sync::Mutex::new(None));
        let probe = wake_probe.clone();
        k.spawn(Box::new(FnBehavior::new("sleeper", move |ctx| {
            if !started {
                started = true;
                return TaskAction::SleepUntil(SimTime::from_millis(15));
            }
            if first_wake.is_none() {
                first_wake = Some(ctx.now);
                *probe.lock().unwrap() = Some(ctx.now);
            }
            TaskAction::SleepUntil(ctx.now + SimDuration::from_secs(10))
        })));
        let _ = k.run();
        let woke = wake_probe.lock().unwrap().expect("task never woke");
        assert_eq!(woke, SimTime::from_millis(20));
    }

    #[test]
    fn spin_counts_as_busy() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        k.spawn(Box::new(FnBehavior::new("spinner", |ctx| {
            TaskAction::SpinUntil(ctx.now + SimDuration::from_millis(50))
        })));
        let r = k.run();
        assert_eq!(r.busy, SimDuration::from_secs(1));
        assert!(r.utilization.values().iter().all(|&u| u == 1.0));
    }

    #[test]
    fn round_robin_shares_the_cpu() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        let a = k.spawn(busy_forever());
        let b = k.spawn(busy_forever());
        let r = k.run();
        let count = |pid| {
            r.sched_log
                .records()
                .iter()
                .filter(|rec| rec.pid == pid)
                .count() as f64
        };
        let (ca, cb) = (count(a), count(b));
        assert!(ca > 0.0 && cb > 0.0);
        assert!((ca / cb - 1.0).abs() < 0.1, "unfair: {ca} vs {cb}");
    }

    #[test]
    fn best_policy_pegs_up_under_load() {
        let mut k = Kernel::new(Machine::itsy(0, DeviceSet::NONE), config(1));
        k.spawn(busy_forever());
        k.install_policy(Box::new(IntervalScheduler::best_from_paper(
            itsy_hw::ClockTable::sa1100(),
        )));
        let r = k.run();
        assert_eq!(r.final_step, 10);
        assert_eq!(r.clock_switches, 1, "one peg to the top, then stay");
        // The frequency trace shows the jump at the first tick.
        let vals = r.freq_mhz.values();
        assert!((vals[0] - 59.0).abs() < 1e-9);
        assert!((vals[2] - 206.4).abs() < 1e-9);
    }

    #[test]
    fn policy_toggling_accumulates_stalls() {
        // A pathological policy that alternates the clock every tick.
        struct Toggle(bool);
        impl ClockPolicy for Toggle {
            fn on_interval(&mut self, _: SimTime, _: f64, cur: StepIndex) -> PolicyRequest {
                self.0 = !self.0;
                PolicyRequest {
                    step: Some(if cur == 0 { 10 } else { 0 }),
                    voltage: None,
                }
            }
            fn name(&self) -> String {
                "toggle".into()
            }
        }
        let mut k = Kernel::new(Machine::itsy(0, DeviceSet::NONE), config(1));
        k.spawn(busy_forever());
        k.install_policy(Box::new(Toggle(false)));
        let r = k.run();
        // 100 ticks, a switch on each (except possibly the last),
        // 200 us stall each.
        assert!(r.clock_switches >= 99, "switches = {}", r.clock_switches);
        let stall_us = r.stalled.as_micros();
        assert!(
            (stall_us as i64 - (r.clock_switches as i64 * 200)).abs() <= 200,
            "stalled = {stall_us}us for {} switches",
            r.clock_switches
        );
    }

    #[test]
    fn energy_decomposes_into_core_and_peripherals() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::AV), config(2));
        k.spawn(busy_forever());
        let r = k.run();
        let core = r.core_energy.as_joules();
        let periph = r.peripheral_energy().as_joules();
        assert!(core > 0.0 && periph > 0.0);
        assert!((core + periph - r.energy.as_joules()).abs() < 1e-9);
        // Fully busy at 206.4 MHz: core = 0.64 W x 2 s, peripherals
        // (base + LCD + audio) = 0.95 W x 2 s.
        assert!((core - 1.28).abs() < 0.07, "core = {core}J");
        assert!((periph - 1.90).abs() < 0.05, "periph = {periph}J");
    }

    #[test]
    fn energy_matches_mean_power_times_time() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::AV), config(2));
        k.spawn(busy_forever());
        let r = k.run();
        let p = r.mean_power_w();
        assert!((r.energy.as_joules() - p * 2.0).abs() < 1e-9);
        // Fully busy at 206.4/1.5V with AV devices: core 0.64 W + 0.95 W.
        assert!((1.4..1.8).contains(&p), "mean power = {p}W");
    }

    #[test]
    fn exited_tasks_free_the_cpu() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        let mut done = false;
        k.spawn(Box::new(FnBehavior::new("oneshot", move |_ctx| {
            if done {
                TaskAction::Exit
            } else {
                done = true;
                // ~100 ms of cycles at 206.4 MHz.
                TaskAction::Compute(Work::cycles(206_400.0 * 100.0))
            }
        })));
        let r = k.run();
        let busy_ms = r.busy.as_micros() / 1_000;
        assert!((95..=105).contains(&busy_ms), "busy = {busy_ms}ms");
    }

    #[test]
    fn deadline_reports_flow_through() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        let mut n = 0u32;
        k.spawn(Box::new(FnBehavior::new("dl", move |ctx| {
            n += 1;
            if n == 1 {
                TaskAction::Compute(Work::cycles(206_400.0 * 30.0)) // 30 ms
            } else if n == 2 {
                ctx.report_deadline("frame", SimTime::from_millis(20));
                TaskAction::Exit
            } else {
                TaskAction::Exit
            }
        })));
        let r = k.run();
        assert_eq!(r.deadlines.len(), 1);
        assert_eq!(r.deadlines.misses(SimDuration::ZERO), 1);
        assert_eq!(r.deadlines.misses(SimDuration::from_millis(15)), 0);
    }

    #[test]
    fn power_trace_is_a_step_function_with_final_sample() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        k.spawn(Box::new(FnBehavior::new("burst", |ctx| {
            if ctx.now.as_micros() % 100_000 < 50_000 {
                TaskAction::Compute(Work::cycles(206_400.0 * 10.0))
            } else {
                TaskAction::SleepUntil(ctx.now + SimDuration::from_millis(50))
            }
        })));
        let r = k.run();
        assert!(r.power_w.len() >= 3);
        let times = r.power_w.times_us();
        assert_eq!(*times.last().unwrap(), 1_000_000);
    }

    #[test]
    fn per_task_accounting_adds_up() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        k.spawn(busy_forever());
        k.spawn(busy_forever());
        let r = k.run();
        assert_eq!(r.per_task_cpu.len(), 2);
        let a = r.per_task_cpu[0].2;
        let b = r.per_task_cpu[1].2;
        // Round-robin: equal shares, totalling all busy time.
        assert_eq!(a + b, r.busy);
        let ratio = a.as_micros() as f64 / b.as_micros() as f64;
        assert!((ratio - 1.0).abs() < 0.05, "unfair split {a} vs {b}");
        assert!(r.cpu_time_of("busy").is_some());
        assert_eq!(r.per_task_total(), r.busy);
    }

    #[test]
    fn fractional_final_quantum_is_accounted() {
        // 25 ms = 2 full quanta + a 5 ms tail with no tick.
        let mut k = Kernel::new(
            Machine::itsy(10, DeviceSet::NONE),
            KernelConfig {
                duration: SimDuration::from_millis(25),
                ..KernelConfig::default()
            },
        );
        k.spawn(busy_forever());
        let r = k.run();
        assert_eq!(r.utilization.len(), 2, "only full quanta get samples");
        assert_eq!(r.time_accounted(), SimDuration::from_millis(25));
        assert_eq!(r.busy, SimDuration::from_millis(25));
    }

    #[test]
    fn unsafe_voltage_requests_are_clamped_not_fatal() {
        // A policy that asks for 1.23 V at the top step: electrically
        // unsafe; the kernel must clamp the voltage up and proceed.
        struct Reckless;
        impl ClockPolicy for Reckless {
            fn on_interval(&mut self, _: SimTime, _: f64, _: StepIndex) -> PolicyRequest {
                PolicyRequest {
                    step: Some(10),
                    voltage: Some(itsy_hw::clock::V_LOW),
                }
            }
            fn name(&self) -> String {
                "reckless".into()
            }
        }
        let mut k = Kernel::new(Machine::itsy(0, DeviceSet::NONE), config(1));
        k.spawn(busy_forever());
        k.install_policy(Box::new(Reckless));
        let r = k.run();
        assert_eq!(r.final_step, 10, "the step change itself is honoured");
        // And the run completed with sane accounting.
        assert_eq!(r.time_accounted(), SimDuration::from_secs(1));
    }

    #[test]
    fn sleeping_past_the_end_is_fine() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        k.spawn(Box::new(FnBehavior::new("farsleeper", |ctx| {
            TaskAction::SleepUntil(ctx.now + SimDuration::from_secs(100))
        })));
        let r = k.run();
        assert_eq!(r.idle, SimDuration::from_secs(1));
    }

    #[test]
    fn trace_captures_quanta_decisions_and_transitions() {
        let mut k = Kernel::new(
            Machine::itsy(0, DeviceSet::NONE),
            KernelConfig {
                duration: SimDuration::from_secs(1),
                trace: true,
                ..KernelConfig::default()
            },
        );
        k.spawn(busy_forever());
        k.install_policy(Box::new(IntervalScheduler::best_from_paper(
            itsy_hw::ClockTable::sa1100(),
        )));
        let r = k.run();
        let count = |name: &str| {
            r.trace
                .events()
                .iter()
                .filter(|e| e.kind.name() == name)
                .count()
        };
        assert_eq!(count("quantum"), 100, "one per 10ms tick over 1s");
        assert_eq!(count("policy"), 100, "policy runs on every tick");
        assert_eq!(
            count("clock") as u64,
            r.clock_switches,
            "trace agrees with the hardware counters"
        );
        assert!(count("sched") > 0);
        // Times never decrease (export relies on this).
        let times: Vec<u64> = r.trace.events().iter().map(|e| e.time_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let run = |trace: bool| {
            let mut k = Kernel::new(
                Machine::itsy(0, DeviceSet::NONE),
                KernelConfig {
                    duration: SimDuration::from_secs(1),
                    trace,
                    ..KernelConfig::default()
                },
            );
            k.spawn(busy_forever());
            k.install_policy(Box::new(IntervalScheduler::best_from_paper(
                itsy_hw::ClockTable::sa1100(),
            )));
            k.run()
        };
        let traced = run(true);
        let plain = run(false);
        assert!(plain.trace.is_empty());
        assert_eq!(traced.energy, plain.energy);
        assert_eq!(traced.clock_switches, plain.clock_switches);
        assert_eq!(traced.final_step, plain.final_step);
        assert_eq!(traced.busy, plain.busy);
    }

    fn summary_config(secs: u64) -> KernelConfig {
        KernelConfig {
            fidelity: SimFidelity::Summary,
            ..config(secs)
        }
    }

    #[test]
    fn summary_run_emits_no_series_or_log() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), summary_config(1));
        k.spawn(busy_forever());
        let r = k.run();
        assert_eq!(r.utilization.len(), 0);
        assert_eq!(r.freq_mhz.len(), 0);
        assert_eq!(r.work_fraction.len(), 0);
        assert_eq!(r.power_w.len(), 0);
        assert!(r.sched_log.is_empty());
        assert_eq!(r.sched_log.dropped(), 0);
        // The closed-form accumulators carry the run instead.
        assert_eq!(r.ticks, 100);
        assert_eq!(r.util_sum_us, 1_000_000);
        assert_eq!(r.mean_utilization(), 1.0);
        assert_eq!(r.busy, SimDuration::from_secs(1));
    }

    #[test]
    fn summary_integer_accounting_matches_full() {
        // A mixed workload (compute bursts + sleeps) through both
        // fidelities: every integer observable must agree exactly.
        let run = |fidelity: SimFidelity| {
            let mut k = Kernel::new(
                Machine::itsy(5, DeviceSet::AV),
                KernelConfig {
                    fidelity,
                    ..config(2)
                },
            );
            k.spawn(Box::new(FnBehavior::new("half", |ctx| {
                if ctx.now.as_micros() % 20_000 < 10_000 {
                    TaskAction::Compute(Work::cycles(132_700.0 * 5.0))
                } else {
                    TaskAction::SleepUntil(ctx.now + SimDuration::from_millis(15))
                }
            })));
            k.install_policy(Box::new(IntervalScheduler::best_from_paper(
                itsy_hw::ClockTable::sa1100(),
            )));
            k.run()
        };
        let full = run(SimFidelity::Full);
        let summary = run(SimFidelity::Summary);
        assert_eq!(summary.busy, full.busy);
        assert_eq!(summary.idle, full.idle);
        assert_eq!(summary.stalled, full.stalled);
        assert_eq!(summary.spun, full.spun);
        assert_eq!(summary.clock_switches, full.clock_switches);
        assert_eq!(summary.voltage_switches, full.voltage_switches);
        assert_eq!(summary.final_step, full.final_step);
        assert_eq!(summary.per_task_cpu, full.per_task_cpu);
        assert_eq!(summary.ticks as usize, full.utilization.len());
        // Energy agrees to the documented bound (the summation order
        // differs); with spans this short the gap is tiny.
        let (e, f) = (summary.energy.as_joules(), full.energy.as_joules());
        assert!((e - f).abs() <= 1e-9 * f.max(1.0), "{e} vs {f}");
    }

    #[test]
    fn summary_means_are_exact_closed_forms() {
        let mut k = Kernel::new(Machine::itsy(0, DeviceSet::NONE), summary_config(1));
        k.spawn(busy_forever());
        k.install_policy(Box::new(IntervalScheduler::best_from_paper(
            itsy_hw::ClockTable::sa1100(),
        )));
        let r = k.run();
        // Peg to the top at the first tick: one sample at 59 MHz (t=0),
        // one at 59 MHz... no — the first tick's sample is taken after
        // the decision applies, so: t=0 at 59 MHz, 100 tick samples at
        // 206.4 MHz except the first tick is already switched.
        assert_eq!(r.final_step, 10);
        assert_eq!(r.ticks, 100);
        let khz = r.freq_khz_sum;
        assert_eq!(khz, 59_000 + 100 * 206_400);
        let expected = (khz as f64 / 101.0) / 1000.0;
        assert_eq!(r.mean_freq_mhz(), expected);
    }

    #[test]
    fn summary_reference_and_batched_agree_on_integers() {
        let run = |reference: bool| {
            let mut k = Kernel::new(
                Machine::itsy(10, DeviceSet::AV),
                KernelConfig {
                    reference,
                    ..summary_config(2)
                },
            );
            k.spawn(busy_forever());
            k.spawn(Box::new(FnBehavior::new("napper", |ctx| {
                TaskAction::SleepUntil(ctx.now + SimDuration::from_millis(130))
            })));
            k.install_policy(Box::new(IntervalScheduler::best_from_paper(
                itsy_hw::ClockTable::sa1100(),
            )));
            k.run()
        };
        let batched = run(false);
        let reference = run(true);
        assert_eq!(batched.busy, reference.busy);
        assert_eq!(batched.idle, reference.idle);
        assert_eq!(batched.ticks, reference.ticks);
        assert_eq!(batched.util_sum_us, reference.util_sum_us);
        assert_eq!(batched.freq_khz_sum, reference.freq_khz_sum);
        assert_eq!(batched.clock_switches, reference.clock_switches);
        assert_eq!(batched.per_task_cpu, reference.per_task_cpu);
    }

    #[test]
    #[should_panic(expected = "livelocked")]
    fn zero_work_livelock_is_detected() {
        let mut k = Kernel::new(Machine::itsy(10, DeviceSet::NONE), config(1));
        k.spawn(Box::new(FnBehavior::new("livelock", |_ctx| {
            TaskAction::Compute(Work::ZERO)
        })));
        let _ = k.run();
    }

    /// 5 ms of work at the start of every 20 ms period — a workload
    /// whose trajectory is *not* uniform across windows.
    fn periodic_half_load() -> Box<dyn TaskBehavior> {
        Box::new(FnBehavior::new("period", |ctx| {
            let period_start = SimTime::from_micros(ctx.now.as_micros() / 20_000 * 20_000);
            if ctx.now == period_start {
                TaskAction::Compute(Work::cycles(132_700.0 * 5.0))
            } else {
                TaskAction::SleepUntil(period_start + SimDuration::from_millis(20))
            }
        }))
    }

    #[test]
    fn timeline_partitions_the_run_and_conserves_totals() {
        // 7 windows over 1 s: deliberately not a divisor, so the last
        // window is short.
        let cfg = KernelConfig {
            timeline_windows: 7,
            ..config(1)
        };
        let mut k = Kernel::new(Machine::itsy(5, DeviceSet::NONE), cfg);
        k.spawn(periodic_half_load());
        let r = k.run();
        assert_eq!(r.timeline.len(), 7);
        // Windows tile [0, duration] exactly.
        assert_eq!(r.timeline[0].start_us, 0);
        assert_eq!(r.timeline.last().unwrap().end_us, 1_000_000);
        for pair in r.timeline.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us);
            assert!(pair[0].start_us < pair[0].end_us);
        }
        // Busy time and energy bucketed per window sum back to the
        // run's totals (energy up to float re-association).
        let busy_sum: u64 = r.timeline.iter().map(|w| w.busy_us).sum();
        assert_eq!(busy_sum, r.busy.as_micros());
        let energy_sum: f64 = r.timeline.iter().map(|w| w.energy_j).sum();
        let total = r.energy.as_joules();
        assert!(
            (energy_sum - total).abs() < 1e-9 * total.max(1.0),
            "{energy_sum} vs {total}"
        );
        // Every window saw some busy time and some energy.
        assert!(r.timeline.iter().all(|w| w.busy_us > 0));
        assert!(r.timeline.iter().all(|w| w.energy_j > 0.0));
        // Kernel leaves misses for the caller.
        assert!(r.timeline.iter().all(|w| w.misses == 0));
    }

    #[test]
    fn timeline_windows_zero_records_nothing() {
        let mut k = Kernel::new(Machine::itsy(5, DeviceSet::NONE), config(1));
        k.spawn(periodic_half_load());
        assert!(k.run().timeline.is_empty());
    }

    #[test]
    fn timeline_agrees_across_paths_and_fidelities() {
        let run = |reference: bool, fidelity: SimFidelity| {
            let cfg = KernelConfig {
                timeline_windows: 10,
                reference,
                fidelity,
                ..config(2)
            };
            let mut k = Kernel::new(Machine::itsy(5, DeviceSet::NONE), cfg);
            k.spawn(periodic_half_load());
            k.install_policy(Box::new(IntervalScheduler::best_from_paper(
                itsy_hw::ClockTable::sa1100(),
            )));
            k.run().timeline
        };
        let full = run(false, SimFidelity::Full);
        for (which, other) in [
            ("reference", run(true, SimFidelity::Full)),
            ("summary", run(false, SimFidelity::Summary)),
            ("summary+reference", run(true, SimFidelity::Summary)),
        ] {
            assert_eq!(full.len(), other.len());
            for (a, b) in full.iter().zip(&other) {
                assert_eq!((a.start_us, a.end_us), (b.start_us, b.end_us), "{which}");
                assert_eq!(a.busy_us, b.busy_us, "{which} busy @{}", a.start_us);
                assert!(
                    (a.energy_j - b.energy_j).abs() < 1e-9 * a.energy_j.max(1.0),
                    "{which} energy @{}: {} vs {}",
                    a.start_us,
                    a.energy_j,
                    b.energy_j
                );
            }
        }
    }
}
