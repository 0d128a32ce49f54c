//! The fleet run driver: population → streaming engine → sketches.
//!
//! [`run`] pushes a [`PopulationConfig`]'s lazy spec stream through
//! [`Engine::run_stream`], folding every device's [`JobResult`] into a
//! [`FleetAccum`] with [`fold_result`]. The fold touches only
//! commutative-merge sketches, so the accumulator — and its summary's
//! [`encode`](FleetSummary::encode) bytes — is identical at any
//! `--jobs` and under injected chaos (retries absorb the panics).
//!
//! Besides the whole-run [`FleetSummary`], the fold maintains a
//! windowed timeline: the engine slices each device's run into
//! [`TIMELINE_WINDOWS`] equal sim-time windows, and [`fold_result`]
//! merges the per-window deltas into one [`FleetWindow`] sketch per
//! window. The timeline answers "how did fleet energy, deadline misses
//! and battery drain evolve over simulated time", not just "what were
//! the totals".

use engine::{Engine, JobResult, JobSpec, StreamOutcome, WindowSample};
use sim_core::FleetSummary;

use crate::population::PopulationConfig;

/// A fleet run's outcome: the population accumulator plus the engine's
/// streaming stats, failure sample and metrics.
pub type FleetOutcome = StreamOutcome<FleetAccum>;

/// Number of equal sim-time windows the fleet timeline slices each
/// device run into. Twenty windows resolve the shape of a drain curve
/// without bloating the CSV; the value is part of the deterministic
/// artifact contract, so bump it deliberately.
pub const TIMELINE_WINDOWS: u32 = 20;

/// Clock-switch rate (per simulated second) above which a device is
/// counted as oscillating. The paper's pathological AVG_N traces bounce
/// the clock every few quanta — tens of switches per second — while
/// settled policies switch well under twice a second, so the threshold
/// separates the regimes with a wide margin on both sides.
pub const OSCILLATION_SWITCHES_PER_SEC: f64 = 2.0;

/// One sim-time window of the fleet timeline: the merge of every
/// device's delta for that slice of simulated time.
///
/// Metrics recorded per device and window: `energy_j`, `misses`,
/// `utilization` (busy time over the window span) and, for
/// battery-powered devices, `battery_drain_pct` (the window's energy as
/// a percentage of the pack's capacity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetWindow {
    /// Window start, microseconds of simulated time.
    pub start_us: u64,
    /// Window end (exclusive), microseconds of simulated time.
    pub end_us: u64,
    /// Per-device deltas for this window, merged fleet-wide.
    pub summary: FleetSummary,
}

/// The fold accumulator: whole-run summary plus the windowed timeline.
///
/// Both halves are built purely from commutative sketch merges, so the
/// accumulator is deterministic at any worker count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetAccum {
    /// Whole-run, whole-fleet summary (one record per device).
    pub summary: FleetSummary,
    /// Sim-time windows, in order; empty when the engine ran without a
    /// timeline (`timeline_windows == 0`).
    pub windows: Vec<FleetWindow>,
}

impl FleetAccum {
    /// Merges another accumulator in, index-wise on windows.
    pub fn merge(&mut self, other: &FleetAccum) {
        self.summary.merge(&other.summary);
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize(other.windows.len(), FleetWindow::default());
        }
        for (into, from) in self.windows.iter_mut().zip(&other.windows) {
            // Window boundaries are a pure function of the shared
            // device duration, so any non-empty side defines them.
            if into.end_us == 0 {
                into.start_us = from.start_us;
                into.end_us = from.end_us;
            }
            into.summary.merge(&from.summary);
        }
    }
}

/// Whole-run metric slots, in the order [`fold_result`] records them.
/// The battery slot is last: mains devices skip it.
static RUN_METRICS: [&str; 8] = [
    "energy_j",
    "mean_freq_mhz",
    "mean_utilization",
    "misses",
    "max_lateness_us",
    "clock_switches_per_sec",
    "oscillating",
    "battery_remaining",
];

/// Per-window metric slots, in record order; battery last likewise.
static WINDOW_METRICS: [&str; 4] = ["energy_j", "misses", "utilization", "battery_drain_pct"];

/// Folds one device's result — and its per-window timeline deltas —
/// into the fleet accumulator.
///
/// Whole-run metrics recorded per device: `energy_j`, `mean_freq_mhz`,
/// `mean_utilization`, `misses`, `max_lateness_us`,
/// `clock_switches_per_sec`, an `oscillating` 0/1 indicator (its mean
/// is the fleet's oscillation incidence), and `battery_remaining` for
/// battery-powered devices (mains devices are skipped, so the sketch's
/// mean is over devices that actually have a battery).
///
/// Every summary is laid out with fixed metric slots on first use, so
/// each sample is recorded by index.
pub fn fold_result(
    acc: &mut FleetAccum,
    _device: u64,
    spec: &JobSpec,
    r: &JobResult,
    timeline: &[WindowSample],
) {
    let secs = (spec.duration.as_micros() as f64 / 1e6).max(1e-9);
    let switches_per_sec = r.clock_switches as f64 / secs;
    let oscillating = if switches_per_sec > OSCILLATION_SWITCHES_PER_SEC {
        1.0
    } else {
        0.0
    };
    let run = [
        r.energy_j,
        r.mean_freq_mhz,
        r.mean_utilization,
        r.misses as f64,
        r.max_lateness_us as f64,
        switches_per_sec,
        oscillating,
    ];
    let summary = &mut acc.summary;
    summary.lay_out(&RUN_METRICS);
    for (slot, v) in run.into_iter().enumerate() {
        summary.record_at(slot, v);
    }
    if r.battery_remaining >= 0.0 {
        summary.record_at(run.len(), r.battery_remaining);
    }
    summary.bump_devices();

    if acc.windows.len() < timeline.len() {
        acc.windows.resize(timeline.len(), FleetWindow::default());
    }
    // 1 mWh = 3.6 J; zero capacity means mains-powered.
    let capacity_j = f64::from(spec.hw.battery_mwh) * 3.6;
    for (win, sample) in acc.windows.iter_mut().zip(timeline) {
        win.start_us = sample.start_us;
        win.end_us = sample.end_us;
        let span_us = sample.end_us.saturating_sub(sample.start_us).max(1);
        let row = [
            sample.energy_j,
            sample.misses as f64,
            sample.busy_us as f64 / span_us as f64,
        ];
        let summary = &mut win.summary;
        summary.lay_out(&WINDOW_METRICS);
        for (slot, v) in row.into_iter().enumerate() {
            summary.record_at(slot, v);
        }
        if capacity_j > 0.0 {
            summary.record_at(row.len(), sample.energy_j / capacity_j * 100.0);
        }
        summary.bump_devices();
    }
}

/// Streams the whole population through the engine and returns the
/// merged accumulator. `batch` names the run for metrics/progress
/// output. The timeline half of the accumulator is only populated when
/// the engine's `timeline_windows` is non-zero.
pub fn run(engine: &Engine, batch: &str, population: &PopulationConfig) -> FleetOutcome {
    engine.run_stream(batch, population.stream(), fold_result, |into, from| {
        into.merge(&from)
    })
}

/// Renders the human-readable digest the `repro fleet` command prints:
/// one line per metric with count, mean and extremes pulled from the
/// sketches.
pub fn digest(summary: &FleetSummary) -> String {
    let mut out = format!(
        "fleet: {} devices summarized, {} failed\n",
        summary.devices(),
        summary.failed()
    );
    for name in summary.metric_names().collect::<Vec<_>>() {
        let h = summary.metric(name).expect("listed metric exists");
        out.push_str(&format!(
            "  {name:<24} n={:<8} mean={:<12.4} min={:<12.4} p50={:<12.4} max={:.4}\n",
            h.count(),
            h.mean().unwrap_or(0.0),
            h.min().unwrap_or(0.0),
            h.percentile(0.5).unwrap_or(0.0),
            h.max().unwrap_or(0.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{EngineConfig, FaultPlan};

    fn outcome(jobs: usize, faults: Option<FaultPlan>) -> FleetOutcome {
        outcome_windowed(jobs, faults, 0)
    }

    fn outcome_windowed(jobs: usize, faults: Option<FaultPlan>, windows: u32) -> FleetOutcome {
        let engine = Engine::new(EngineConfig {
            jobs,
            faults,
            timeline_windows: windows,
            ..EngineConfig::hermetic()
        });
        run(&engine, "fleet-test", &PopulationConfig::new(10, 99))
    }

    #[test]
    fn summary_is_byte_identical_across_worker_counts() {
        let one = outcome(1, None);
        assert_eq!(one.stats.executed, 10);
        assert_eq!(one.acc.summary.devices(), 10);
        assert!(one.acc.windows.is_empty(), "no timeline unless asked");
        // Battery metric only covers battery-powered devices.
        let battery_n = one
            .acc
            .summary
            .metric("battery_remaining")
            .map_or(0, |h| h.count());
        assert!(battery_n <= 10);
        assert_eq!(one.acc.summary.metric("energy_j").unwrap().count(), 10);
        for jobs in [4, 8] {
            assert_eq!(
                one.acc.summary.encode(),
                outcome(jobs, None).acc.summary.encode(),
                "jobs=1 vs jobs={jobs}"
            );
        }
    }

    #[test]
    fn summary_is_byte_identical_under_injected_chaos() {
        let clean = outcome(1, None);
        let chaotic = outcome(
            4,
            Some(FaultPlan {
                panic: 1.0,
                max_panics: 2,
                ..FaultPlan::default()
            }),
        );
        assert_eq!(chaotic.stats.failed, 0, "retries absorb injected panics");
        assert_eq!(clean.acc.summary.encode(), chaotic.acc.summary.encode());
    }

    #[test]
    fn timeline_windows_merge_deterministically() {
        let one = outcome_windowed(1, None, TIMELINE_WINDOWS);
        assert_eq!(one.acc.windows.len(), TIMELINE_WINDOWS as usize);
        for (i, win) in one.acc.windows.iter().enumerate() {
            assert!(win.start_us < win.end_us, "window {i} has a span");
            assert_eq!(win.summary.devices(), 10, "window {i} saw every device");
            assert_eq!(win.summary.metric("energy_j").unwrap().count(), 10);
            assert_eq!(win.summary.metric("utilization").unwrap().count(), 10);
        }
        // Windows tile the shared device horizon without gaps.
        for pair in one.acc.windows.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us);
        }
        // Battery drain only covers battery-powered devices.
        let battery_n = one.acc.windows[0]
            .summary
            .metric("battery_drain_pct")
            .map_or(0, |h| h.count());
        assert!(battery_n > 0 && battery_n <= 10);
        // The timeline, like the summary, is worker-count independent.
        let four = outcome_windowed(4, None, TIMELINE_WINDOWS);
        assert_eq!(one.acc.summary.encode(), four.acc.summary.encode());
        assert_eq!(one.acc.windows.len(), four.acc.windows.len());
        for (a, b) in one.acc.windows.iter().zip(&four.acc.windows) {
            assert_eq!(a.start_us, b.start_us);
            assert_eq!(a.end_us, b.end_us);
            assert_eq!(a.summary.encode(), b.summary.encode());
        }
    }

    #[test]
    fn timeline_does_not_perturb_the_summary() {
        let plain = outcome(1, None);
        let windowed = outcome_windowed(1, None, TIMELINE_WINDOWS);
        assert_eq!(
            plain.acc.summary.encode(),
            windowed.acc.summary.encode(),
            "the timeline is derived observation; the summary must not move"
        );
    }

    #[test]
    fn oscillation_indicator_is_a_zero_one_metric() {
        let out = outcome(2, None);
        let h = out
            .acc
            .summary
            .metric("oscillating")
            .expect("indicator recorded");
        assert_eq!(h.count(), 10);
        let (min, max) = (h.min().unwrap(), h.max().unwrap());
        assert!(min == 0.0 || min == 1.0);
        assert!(max == 0.0 || max == 1.0);
    }

    #[test]
    fn mains_only_devices_record_no_battery_metrics() {
        let population = PopulationConfig::new(100, 99);
        let mut acc = FleetAccum::default();
        for device in (0..population.devices)
            .filter(|&d| population.spec_for(d).hw.battery_mwh == 0)
            .take(2)
        {
            let spec = population.spec_for(device);
            let (r, timeline) = spec.execute_timeline(2);
            fold_result(&mut acc, device, &spec, &r, &timeline);
        }
        let names: Vec<&str> = acc.summary.metric_names().collect();
        assert_eq!(
            names,
            [
                "clock_switches_per_sec",
                "energy_j",
                "max_lateness_us",
                "mean_freq_mhz",
                "mean_utilization",
                "misses",
                "oscillating"
            ]
        );
        for w in &acc.windows {
            let names: Vec<&str> = w.summary.metric_names().collect();
            assert_eq!(names, ["energy_j", "misses", "utilization"]);
        }
        let mut bytes = acc.summary.encode();
        for w in &acc.windows {
            bytes.push_str(&format!(
                "{} {}\n{}",
                w.start_us,
                w.end_us,
                w.summary.encode()
            ));
        }
        assert_eq!(
            bytes,
            "fleet-summary v1 devices=2 failed=0\n\
             clock_switches_per_sec\tn=2;z=0;s=17825792;min=4008000000000000;max=402c000000000000;b=25:1,60:1\n\
             energy_j\tn=2;z=0;s=2549279;min=3fee699c93e4fbd4;max=3ff7b150dffc4e54;b=-2:1,9:1\n\
             max_lateness_us\tn=2;z=1;s=2696937472;min=0000000000000000;max=40a4180000000000;b=181:1\n\
             mean_freq_mhz\tn=2;z=0;s=256867898;min=4050930288df0cac;max=4066557b2f250185;b=96:1,119:1\n\
             mean_utilization\tn=2;z=0;s=1028689;min=3fc230ec31162281;max=3fead8665e02ea96;b=-46:1,-5:1\n\
             misses\tn=2;z=2;s=0;min=0000000000000000;max=0000000000000000;b=\n\
             oscillating\tn=2;z=0;s=2097152;min=3ff0000000000000;max=3ff0000000000000;b=0:2\n\
             0 500000\n\
             fleet-summary v1 devices=2 failed=0\n\
             energy_j\tn=2;z=0;s=1274590;min=3fddc80d0fa3723b;max=3fe801b6da604298;b=-18:1,-7:1\n\
             misses\tn=2;z=2;s=0;min=0000000000000000;max=0000000000000000;b=\n\
             utilization\tn=2;z=0;s=1012409;min=3fb98aeb80ecfa6a;max=3febb413986338b4;b=-54:1,-4:1\n\
             500000 1000000\n\
             fleet-summary v1 devices=2 failed=0\n\
             energy_j\tn=2;z=0;s=1274688;min=3fdf0b2c18268568;max=3fe760eae5985a11;b=-17:1,-8:1\n\
             misses\tn=2;z=2;s=0;min=0000000000000000;max=0000000000000000;b=\n\
             utilization\tn=2;z=0;s=1044969;min=3fc79c62a1b5c7ce;max=3fe9fcb923a29c78;b=-40:1,-5:1\n"
        );
    }

    #[test]
    fn digest_lists_every_metric() {
        let out = outcome(2, None);
        let digest = digest(&out.acc.summary);
        assert!(digest.starts_with("fleet: 10 devices"));
        for name in out.acc.summary.metric_names() {
            assert!(digest.contains(name), "digest missing {name}");
        }
    }
}
