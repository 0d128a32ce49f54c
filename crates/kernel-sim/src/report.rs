//! The output of a simulated run.

use sim_core::{Energy, SimDuration, SimFidelity, TimeSeries};

use itsy_hw::StepIndex;

use crate::log::{DeadlineLog, SchedLog};

/// One sim-time window of a run's trajectory: where the energy went
/// and how busy the CPU was between `start_us` and `end_us`. Produced
/// when [`KernelConfig::timeline_windows`] is nonzero; windows
/// partition `[0, duration]` and are derived from the same segment
/// arithmetic in both fidelities, so a device's timeline is
/// deterministic for a given spec.
///
/// [`KernelConfig::timeline_windows`]: crate::KernelConfig
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowSample {
    /// Window start, µs of sim time.
    pub start_us: u64,
    /// Window end (exclusive; the last window ends at the run
    /// duration), µs.
    pub end_us: u64,
    /// Energy drawn inside the window, joules.
    pub energy_j: f64,
    /// Non-idle time inside the window, µs.
    pub busy_us: u64,
    /// Deadline misses at [`KernelConfig::deadline_tolerance`] that
    /// completed inside the window (one completing past the last window
    /// counts in the last).
    ///
    /// [`KernelConfig::deadline_tolerance`]: crate::KernelConfig::deadline_tolerance
    pub misses: u64,
}

/// Everything a run produces: traces, logs, totals.
///
/// The four series and the scheduler log hold data only when
/// [`KernelConfig::record`] was on at [`SimFidelity::Full`]; the means
/// never read them.
///
/// [`KernelConfig::record`]: crate::KernelConfig::record
#[derive(Debug)]
pub struct KernelReport {
    /// Per-quantum CPU utilization (non-idle time / quantum), sampled at
    /// each timer tick — the policy's own input, and the data behind
    /// Figures 3 and 4.
    pub utilization: TimeSeries,
    /// Clock frequency in MHz at each timer tick — Figure 8's series.
    pub freq_mhz: TimeSeries,
    /// Per-quantum executed work as a fraction of a *full-speed*
    /// quantum — the Weiser-style work trace the oracle baselines
    /// consume.
    pub work_fraction: TimeSeries,
    /// Instantaneous system power (watts) as a step function: a sample
    /// at the start of every homogeneous segment plus a final sample at
    /// the end of the run. The DAQ resamples this at 5 kHz.
    pub power_w: TimeSeries,
    /// Total non-idle time (includes clock-change stalls).
    pub busy: SimDuration,
    /// Total idle (nap) time.
    pub idle: SimDuration,
    /// Portion of `busy` spent stalled in clock changes.
    pub stalled: SimDuration,
    /// Portion of `busy` spent in application spin loops (busy-waiting
    /// on wall-clock time rather than doing clock-dependent work).
    pub spun: SimDuration,
    /// Total energy drawn.
    pub energy: Energy,
    /// Portion of `energy` drawn by the processor core — the only part
    /// voltage scaling reduces ("voltage scaling only reduces the power
    /// used by the processor").
    pub core_energy: Energy,
    /// Scheduler activity log.
    pub sched_log: SchedLog,
    /// Deadline outcomes reported by tasks: every record when
    /// [`KernelConfig::record`] was on, counters either way.
    ///
    /// [`KernelConfig::record`]: crate::KernelConfig::record
    pub deadlines: DeadlineLog,
    /// Structured event trace (empty unless [`KernelConfig::trace`]
    /// was set).
    ///
    /// [`KernelConfig::trace`]: crate::KernelConfig
    pub trace: obs::Trace,
    /// Number of clock-step changes the policy caused.
    pub clock_switches: u64,
    /// Number of voltage changes the policy caused.
    pub voltage_switches: u64,
    /// Clock step at the end of the run.
    pub final_step: StepIndex,
    /// Per-task CPU time: `(pid, label, busy time)` — the Unix-style
    /// process accounting the paper's logging module enabled.
    pub per_task_cpu: Vec<(crate::task::Pid, String, SimDuration)>,
    /// Battery charge remaining at the end (fraction), if a battery was
    /// attached.
    pub battery_remaining: Option<f64>,
    /// Simulated wall-clock length of the run.
    pub elapsed: SimDuration,
    /// Fidelity the run was executed at: it picks which accumulators
    /// below carry the run's means.
    pub fidelity: SimFidelity,
    /// The scheduling quantum (denominator of the summary means).
    pub quantum: SimDuration,
    /// Completed quanta, at every fidelity — how many utilization
    /// samples a recording run holds.
    pub ticks: u64,
    /// Full accumulator: the per-tick utilization samples' sum, folded
    /// in tick order from `-0.0` as [`TimeSeries::mean`] folds a
    /// recorded series. Stays `-0.0` at Summary.
    pub util_sum: f64,
    /// Full accumulator: the frequency samples' sum in MHz, the t = 0
    /// sample included (`ticks + 1` terms), folded the same way.
    pub freq_mhz_sum: f64,
    /// Summary accumulator: busy µs inside completed quanta, each
    /// clamped to the quantum. `util_sum_us / (ticks · quantum)` is the
    /// exact mean utilization.
    pub util_sum_us: u64,
    /// Summary accumulator: sum of the per-tick clock samples in kHz,
    /// including the t = 0 sample (`ticks + 1` terms in total).
    pub freq_khz_sum: u64,
    /// Windowed trajectory of the run; empty unless
    /// [`KernelConfig::timeline_windows`] was nonzero.
    ///
    /// [`KernelConfig::timeline_windows`]: crate::KernelConfig
    pub timeline: Vec<WindowSample>,
}

impl KernelReport {
    /// Mean utilization over the whole run; `0.0` for a run shorter
    /// than one quantum.
    ///
    /// Full fidelity divides its running `f64` sum, bit-identical to
    /// the mean of the recorded series whether or not it was recorded;
    /// Summary computes the same quantity as an exact integer ratio, so
    /// the two can differ in the last few ULPs of the sum's
    /// accumulation error.
    pub fn mean_utilization(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else if self.fidelity.is_summary() {
            self.util_sum_us as f64 / (self.ticks * self.quantum.as_micros()) as f64
        } else {
            self.util_sum / self.ticks as f64
        }
    }

    /// Mean clock frequency over the run's `ticks + 1` samples (one at
    /// t = 0 plus one per tick), MHz.
    ///
    /// Full fidelity divides its running `f64` sum, bit-identical to
    /// the mean of the recorded `freq_mhz` series; Summary divides the
    /// exact integer kHz sum by the same sample count.
    pub fn mean_freq_mhz(&self) -> f64 {
        let samples = (self.ticks + 1) as f64;
        if self.fidelity.is_summary() {
            (self.freq_khz_sum as f64 / samples) / 1000.0
        } else {
            self.freq_mhz_sum / samples
        }
    }

    /// Average power over the run.
    pub fn mean_power_w(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.energy.as_joules() / self.elapsed.as_secs_f64()
        }
    }

    /// Busy + idle must equal elapsed time; exposed for invariant tests.
    pub fn time_accounted(&self) -> SimDuration {
        self.busy + self.idle
    }

    /// Peripheral (non-core) energy.
    pub fn peripheral_energy(&self) -> Energy {
        self.energy - self.core_energy
    }

    /// CPU time of the task with the given label, if it exists.
    pub fn cpu_time_of(&self, label: &str) -> Option<SimDuration> {
        self.per_task_cpu
            .iter()
            .find(|(_, l, _)| l == label)
            .map(|&(_, _, t)| t)
    }

    /// Sum of per-task CPU time; equals `busy` minus clock-change
    /// stalls (stalls are non-idle but belong to no task).
    pub fn per_task_total(&self) -> SimDuration {
        self.per_task_cpu
            .iter()
            .fold(SimDuration::ZERO, |acc, &(_, _, t)| acc + t)
    }
}
