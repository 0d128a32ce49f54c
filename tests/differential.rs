//! Differential proof for the kernel's two loops.
//!
//! Full fidelity runs every quantum through the tick-by-tick loop.
//! Summary fidelity commits each provably-uniform span at once, in
//! closed form ([`KernelConfig::reference`] = `false`, the default),
//! keeping the tick loop as its oracle (`reference` = `true`). These
//! tests hold:
//!
//! - the Summary span loop to the Summary reference loop: every integer
//!   observable and closed-form accumulator exactly, energy within
//!   1e-12 relative, and every timeline window's busy time exactly and
//!   energy within 1e-12;
//! - Summary to Full: every integer observable exactly, exact policy
//!   observation streams, energy within 1e-9;
//! - Full runs to themselves and to the tick loop's absolute
//!   properties: the reference flag and tracing change no byte, sleeper
//!   wakes land on the 10 ms grid, busy + idle partitions the run, and
//!   idle energy equals its closed-form sum;
//! - a Full run with [`KernelConfig::record`] off to the same run
//!   recording: every other observable exactly, nothing recorded, and
//!   means from the running sums bit-equal to the recorded series'
//!   means;
//! - the deadline counters of runs that record nothing to the recorded
//!   deadline log, at three tolerances, with and without a timeline;
//!
//! over:
//!
//! - the full policy matrix (constant baselines, PAST, the AVG_N
//!   family, sliding windows, and the Govil canon: FLAT, LONG_SHORT,
//!   AGED_AVERAGES, CYCLE, PATTERN, PEAK) with every speed-change rule
//!   and with/without the 1.23 V voltage rule;
//! - every shipped workload (the paper's four recorded benchmarks,
//!   the browse + Java-poller ablation, the elastic MPEG player, and
//!   the synthetic square wave);
//! - hardware variants (scaled power models, batteries, odd quanta)
//!   and kernel configuration variants (a capped scheduler log,
//!   recording off, battery cut-off);
//! - randomized task soups (proptest) mixing compute, sleep, spin and
//!   exit with random power-model constants.
//!
//! "Bit-identical" is literal: every `f64` is compared by `to_bits`,
//! every series point by point, every log record field by field, and
//! the engine-level summaries by their canonical byte encoding.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use itsy_dvs::apps::Benchmark;
use itsy_dvs::dvs::{
    ClockPolicy, Hysteresis, PolicyDesc, PolicyRequest, PredictorDesc, SpeedChange, VoltageRule,
};
use itsy_dvs::engine::{HwSpec, JobResult, JobSpec, WorkloadSpec};
use itsy_dvs::hw::battery::BatteryParams;
use itsy_dvs::hw::{Battery, ClockTable, DeviceSet, PowerModel, PowerParams, StepIndex, Work};
use itsy_dvs::kernel::task::FnBehavior;
use itsy_dvs::kernel::{Kernel, KernelConfig, KernelReport, Machine, TaskAction};
use itsy_dvs::sim::{Rng, SimDuration, SimFidelity, SimTime};
use proptest::prelude::*;

/// Serializes every observable field of a report, with all floats
/// rendered as raw bits. Two runs are bit-identical iff their
/// fingerprints are equal.
fn fingerprint(r: &KernelReport) -> String {
    recorded_output(r) + &run_fingerprint(r)
}

/// What [`KernelConfig::record`] switches on: the four series, the
/// scheduler log and the deadline records.
fn recorded_output(r: &KernelReport) -> String {
    let mut s = String::new();
    for series in [&r.utilization, &r.freq_mhz, &r.work_fraction, &r.power_w] {
        for (t, v) in series.iter() {
            let _ = writeln!(s, "{} {:016x}", t.as_micros(), v.to_bits());
        }
        s.push(';');
    }
    for rec in r.sched_log.records() {
        let _ = writeln!(s, "sched {} {} {}", rec.at_us, rec.pid, rec.clock_khz);
    }
    let _ = writeln!(s, "sched_dropped={}", r.sched_log.dropped());
    for d in r.deadlines.records() {
        let _ = writeln!(s, "dl {} {} {}", d.label, d.due_us, d.completed_us);
    }
    s
}

/// The deadline log's counters, which a run keeps whether or not it
/// records: completions in all and per label, the worst lateness, the
/// misses at the log's tolerance and those misses per timeline window.
fn deadline_counts(r: &KernelReport) -> String {
    let dl = &r.deadlines;
    let windows: Vec<u64> = r.timeline.iter().map(|w| w.misses).collect();
    format!(
        "deadlines={} {:?} late={} misses@{}={} windows={windows:?}\n",
        dl.len(),
        dl.completions(),
        dl.max_lateness().as_micros(),
        dl.tolerance().as_micros(),
        dl.misses(dl.tolerance()),
    )
}

/// Everything else a report carries: the run itself, whatever it
/// recorded on the way.
fn run_fingerprint(r: &KernelReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "busy={} idle={} stalled={} spun={}",
        r.busy.as_micros(),
        r.idle.as_micros(),
        r.stalled.as_micros(),
        r.spun.as_micros()
    );
    let _ = writeln!(
        s,
        "energy={:016x} core={:016x}",
        r.energy.as_joules().to_bits(),
        r.core_energy.as_joules().to_bits()
    );
    let _ = writeln!(
        s,
        "ticks={} mean_util={:016x} mean_mhz={:016x}",
        r.ticks,
        r.mean_utilization().to_bits(),
        r.mean_freq_mhz().to_bits()
    );
    s += &deadline_counts(r);
    let _ = writeln!(
        s,
        "switches={}/{} final={}",
        r.clock_switches, r.voltage_switches, r.final_step
    );
    for (pid, label, cpu) in &r.per_task_cpu {
        let _ = writeln!(s, "task {} {} {}", pid, label, cpu.as_micros());
    }
    let _ = writeln!(s, "battery={:?}", r.battery_remaining.map(|b| b.to_bits()));
    s
}

/// Which loop a kernel-level run takes: a fidelity and the
/// [`KernelConfig::reference`] flag, and whether it records.
#[derive(Clone, Copy)]
struct Path {
    fidelity: SimFidelity,
    reference: bool,
    record: bool,
}

impl Path {
    /// `cfg` on this path, with the windowed timeline on so every
    /// comparison also covers per-window energy and busy time. Seven
    /// windows put window edges inside quanta, so spans get split.
    fn config(self, cfg: KernelConfig) -> KernelConfig {
        KernelConfig {
            fidelity: self.fidelity,
            reference: self.reference,
            record: self.record && cfg.record,
            timeline_windows: 7,
            ..cfg
        }
    }
}

/// Runs the same kernel construction on all five paths and returns the
/// recording Full report. At Full fidelity the reference flag must
/// change nothing, bit for bit, and recording must change nothing but
/// what it records ([`assert_record_is_output_only`]); at Summary
/// fidelity the span loop must agree with the summary reference loop
/// ([`assert_summary_loops_agree`]).
fn assert_kernel_differential(label: &str, build: &dyn Fn(Path) -> Kernel) -> KernelReport {
    let run = |fidelity, reference, record| {
        build(Path {
            fidelity,
            reference,
            record,
        })
        .run()
    };
    let full = run(SimFidelity::Full, false, true);
    assert_eq!(
        fingerprint(&full),
        fingerprint(&run(SimFidelity::Full, true, true)),
        "full fidelity depends on the reference flag: {label}"
    );
    assert_record_is_output_only(label, &full, &run(SimFidelity::Full, false, false));
    assert_summary_loops_agree(
        label,
        &run(SimFidelity::Summary, false, true),
        &run(SimFidelity::Summary, true, true),
    );
    full
}

/// Holds a Full run with [`KernelConfig::record`] off to the same run
/// recording: every observable but the recorded output bit-identical,
/// nothing recorded, and the means from the running sums bit-equal to
/// the recorded series' means. A build whose own config turns
/// recording off has no series to compare the means with.
fn assert_record_is_output_only(label: &str, recorded: &KernelReport, bare: &KernelReport) {
    assert_eq!(
        run_fingerprint(recorded),
        run_fingerprint(bare),
        "recording changed the run: {label}"
    );
    let series = [
        &bare.utilization,
        &bare.freq_mhz,
        &bare.work_fraction,
        &bare.power_w,
    ];
    assert!(
        series.iter().all(|s| s.is_empty())
            && bare.sched_log.is_empty()
            && bare.sched_log.dropped() == 0
            && bare.deadlines.records().is_empty(),
        "recording off still recorded: {label}"
    );
    if recorded.freq_mhz.is_empty() {
        return;
    }
    assert_eq!(
        recorded.ticks as usize,
        recorded.utilization.len(),
        "{label}"
    );
    assert_eq!(
        bare.mean_utilization().to_bits(),
        recorded.utilization.mean().unwrap_or(0.0).to_bits(),
        "mean utilization: {label}"
    );
    assert_eq!(
        bare.mean_freq_mhz().to_bits(),
        recorded.freq_mhz.mean().expect("t = 0 sample").to_bits(),
        "mean frequency: {label}"
    );
}

/// Holds a Summary span-loop run to the Summary reference loop: integer
/// observables and closed-form accumulators exactly, energy totals
/// within 1e-12 relative, and each timeline window's busy time exactly
/// and energy within 1e-12.
fn assert_summary_loops_agree(label: &str, fast: &KernelReport, reference: &KernelReport) {
    assert_eq!(
        integer_fingerprint(fast),
        integer_fingerprint(reference),
        "summary span loop diverged from the summary reference: {label}"
    );
    assert_eq!(
        summary_extras(fast),
        summary_extras(reference),
        "closed-form accumulators: {label}"
    );
    for (a, b) in [
        (fast.energy, reference.energy),
        (fast.core_energy, reference.core_energy),
    ] {
        assert!(
            rel_diff(a.as_joules(), b.as_joules()) < 1e-12,
            "summary span energy: {label}: {} vs {}",
            a.as_joules(),
            b.as_joules()
        );
    }
    assert_eq!(fast.timeline.len(), reference.timeline.len(), "{label}");
    for (a, b) in fast.timeline.iter().zip(&reference.timeline) {
        assert_eq!(
            (a.start_us, a.end_us, a.busy_us),
            (b.start_us, b.end_us, b.busy_us),
            "{label}: window busy time"
        );
        assert!(
            rel_diff(a.energy_j, b.energy_j) < 1e-12,
            "{label}: window energy @{}: {} vs {}",
            a.start_us,
            a.energy_j,
            b.energy_j
        );
    }
}

/// Engine-level differential for one spec: at Full fidelity the
/// reference entry point reproduces `execute()` byte for byte; at
/// Summary fidelity the span loop agrees with the summary reference
/// loop ([`assert_summary_results_agree`]).
fn assert_engine_differential(spec: &JobSpec) {
    assert_eq!(
        spec.execute().encode(),
        spec.execute_reference().encode(),
        "diverged: {} ({})",
        spec.label(),
        spec.canonical()
    );
    let summary = spec.clone().with_fidelity(SimFidelity::Summary);
    assert_summary_results_agree(
        &summary.canonical(),
        &summary.execute(),
        &summary.execute_reference(),
    );
}

/// The policy matrix the suite sweeps: the paper's interval schedulers,
/// the Govil canon, and the constant baselines.
fn policy_matrix() -> Vec<PolicyDesc> {
    vec![
        PolicyDesc::constant_top(),
        PolicyDesc::Constant {
            step: 2,
            voltage_mv: itsy_dvs::hw::V_LOW.as_mv(),
        },
        PolicyDesc::best_from_paper(),
        PolicyDesc::best_from_paper().with_voltage_rule(VoltageRule::default()),
        PolicyDesc::interval(
            PredictorDesc::AvgN(3),
            Hysteresis::PERING,
            SpeedChange::One,
            SpeedChange::One,
        ),
        PolicyDesc::interval(
            PredictorDesc::SlidingWindow(12),
            Hysteresis::BEST,
            SpeedChange::Double,
            SpeedChange::One,
        ),
        PolicyDesc::interval(
            PredictorDesc::Flat(0.7),
            Hysteresis::PERING,
            SpeedChange::Peg,
            SpeedChange::Double,
        ),
        PolicyDesc::interval(
            PredictorDesc::LongShort,
            Hysteresis::BEST,
            SpeedChange::Peg,
            SpeedChange::One,
        ),
        PolicyDesc::interval(
            PredictorDesc::Aged(0.5),
            Hysteresis::PERING,
            SpeedChange::One,
            SpeedChange::Peg,
        )
        .with_voltage_rule(VoltageRule::default()),
        PolicyDesc::interval(
            PredictorDesc::Cycle,
            Hysteresis::BEST,
            SpeedChange::Peg,
            SpeedChange::Peg,
        ),
        PolicyDesc::interval(
            PredictorDesc::Pattern,
            Hysteresis::BEST,
            SpeedChange::Peg,
            SpeedChange::Peg,
        ),
        PolicyDesc::interval(
            PredictorDesc::Peak,
            Hysteresis::PERING,
            SpeedChange::One,
            SpeedChange::One,
        ),
        PolicyDesc::SimpleAvg { window: 8 },
    ]
}

/// Every shipped workload shape the engine can simulate.
fn workload_matrix() -> Vec<WorkloadSpec> {
    let mut w: Vec<WorkloadSpec> = Benchmark::ALL
        .into_iter()
        .map(WorkloadSpec::Benchmark)
        .collect();
    w.push(WorkloadSpec::WebBrowse { poller: true });
    w.push(WorkloadSpec::MpegElastic);
    w.push(WorkloadSpec::SquareWave { busy: 3, idle: 5 });
    w
}

/// Every workload under every policy, through the engine and through
/// the kernel directly. The engine records nothing, yet its means equal
/// a recording kernel run's series means bit for bit.
#[test]
fn policy_matrix_is_bit_identical_on_every_workload() {
    for workload in workload_matrix() {
        for policy in policy_matrix() {
            for seed in [1, 42] {
                let spec = JobSpec::new(workload, policy, 3, seed);
                assert_engine_differential(&spec);
                let recorded = assert_kernel_differential(&spec.label(), &|path| {
                    let mut k = Kernel::new(
                        Machine::itsy(spec.initial_step, workload.devices()),
                        path.config(KernelConfig {
                            duration: spec.duration,
                            ..KernelConfig::default()
                        }),
                    );
                    workload.spawn_into(&mut k, seed);
                    k.install_policy(policy.build(ClockTable::sa1100()));
                    k
                });
                let result = spec.execute();
                assert_eq!(
                    result.mean_utilization.to_bits(),
                    recorded.utilization.mean().unwrap_or(0.0).to_bits(),
                    "{}",
                    spec.label()
                );
                assert_eq!(
                    result.mean_freq_mhz.to_bits(),
                    recorded.freq_mhz.mean().expect("t = 0 sample").to_bits(),
                    "{}",
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn hardware_variants_are_bit_identical() {
    let variants = [
        HwSpec::STOCK,
        // Hot silicon, dim backlight.
        HwSpec {
            core_ppm: 1_200_000,
            base_ppm: 900_000,
            ..HwSpec::STOCK
        },
        // Small battery, partly discharged (drains but does not empty).
        HwSpec {
            battery_mwh: 500,
            charge_pct: 40,
            ..HwSpec::STOCK
        },
    ];
    for hw in variants {
        for policy in [
            PolicyDesc::best_from_paper(),
            PolicyDesc::best_from_paper().with_voltage_rule(VoltageRule::default()),
        ] {
            assert_engine_differential(
                &JobSpec::new(WorkloadSpec::Benchmark(Benchmark::Mpeg), policy, 3, 7).with_hw(hw),
            );
        }
    }
}

#[test]
fn odd_quantum_is_bit_identical() {
    // A 7 ms quantum misaligns every periodic workload event with the
    // tick grid, exercising the span-boundary logic hard.
    for q_ms in [5, 7, 30] {
        assert_engine_differential(
            &JobSpec::new(
                WorkloadSpec::Benchmark(Benchmark::Mpeg),
                PolicyDesc::best_from_paper(),
                3,
                1,
            )
            .with_quantum(SimDuration::from_millis(q_ms)),
        );
    }
}

/// Kernel-level differential over configuration variants the engine
/// never sets, compared field-by-field (series samples, logs, totals).
#[test]
fn kernel_config_variants_are_bit_identical() {
    let variants: Vec<(&str, KernelConfig)> = vec![
        ("default", KernelConfig::default()),
        (
            "record off",
            KernelConfig {
                record: false,
                ..KernelConfig::default()
            },
        ),
        (
            "capped sched log",
            KernelConfig {
                sched_log_capacity: Some(16),
                ..KernelConfig::default()
            },
        ),
    ];
    for (label, cfg) in variants {
        let report = assert_kernel_differential(label, &|path| {
            let mut k = Kernel::new(
                Machine::itsy(10, DeviceSet::AV),
                path.config(KernelConfig {
                    duration: SimDuration::from_secs(3),
                    ..cfg.clone()
                }),
            );
            Benchmark::Mpeg.spawn_into(&mut k, 5);
            k.install_policy(PolicyDesc::best_from_paper().build(ClockTable::sa1100()));
            k
        });
        assert!(
            report.busy + report.idle <= SimDuration::from_secs(3),
            "{label}: accounting exceeds the run"
        );
    }
}

/// The deadline counters of runs that record nothing, held to the
/// recorded log of the same cell: completions in all and per label, the
/// worst lateness, the misses at the counted tolerance, and those misses
/// per timeline window by completion time. Every workload under every
/// policy at two seeds, at three tolerances, with and without a
/// seven-window timeline, at both fidelities (whose deadline outcomes
/// the tests above hold equal).
#[test]
fn deadline_counters_match_the_recorded_log() {
    let tolerances = [0, 15, 100].map(SimDuration::from_millis);
    let mut missed_at = [0usize; 3];
    for workload in workload_matrix() {
        for policy in policy_matrix() {
            for seed in [1, 42] {
                let spec = JobSpec::new(workload, policy, 3, seed);
                let run = |cfg: KernelConfig| {
                    let mut k = Kernel::new(
                        Machine::itsy(spec.initial_step, workload.devices()),
                        KernelConfig {
                            duration: spec.duration,
                            ..cfg
                        },
                    );
                    workload.spawn_into(&mut k, seed);
                    k.install_policy(policy.build(ClockTable::sa1100()));
                    k.run()
                };
                let recorded = run(KernelConfig::default());
                let records = recorded.deadlines.records();
                let mut per_label: Vec<(&str, u64)> = Vec::new();
                for d in records {
                    match per_label.iter_mut().find(|(l, _)| *l == d.label) {
                        Some((_, n)) => *n += 1,
                        None => per_label.push((d.label, 1)),
                    }
                }
                let worst = records.iter().map(|d| d.lateness()).max();
                for (t, &tolerance) in tolerances.iter().enumerate() {
                    let missed: Vec<u64> = (records.iter())
                        .filter(|d| !d.met(tolerance))
                        .map(|d| d.completed_us)
                        .collect();
                    missed_at[t] += missed.len();
                    for windows in [0, 7] {
                        for fidelity in [SimFidelity::Full, SimFidelity::Summary] {
                            let bare = run(KernelConfig {
                                record: false,
                                deadline_tolerance: tolerance,
                                timeline_windows: windows,
                                fidelity,
                                ..KernelConfig::default()
                            });
                            let label = format!(
                                "{} seed {seed}, {fidelity:?}, tolerance {tolerance}, \
                                 {windows} windows",
                                spec.label()
                            );
                            let dl = &bare.deadlines;
                            assert!(dl.records().is_empty(), "{label}: records kept");
                            assert_eq!(dl.len(), records.len(), "{label}: completions");
                            assert_eq!(dl.completions(), per_label, "{label}: per label");
                            assert_eq!(
                                dl.max_lateness(),
                                worst.unwrap_or(SimDuration::ZERO),
                                "{label}: worst lateness"
                            );
                            assert_eq!(dl.misses(tolerance), missed.len(), "{label}: misses");
                            // A miss lands in the window it completed in,
                            // and one past the run's end in the last.
                            let last = bare.timeline.len().saturating_sub(1);
                            let mut want = vec![0u64; bare.timeline.len()];
                            for &at in missed.iter().filter(|_| windows > 0) {
                                let w = bare.timeline.iter().position(|w| at < w.end_us);
                                want[w.unwrap_or(last)] += 1;
                            }
                            let got: Vec<u64> = bare.timeline.iter().map(|w| w.misses).collect();
                            assert_eq!(got, want, "{label}: misses per window");
                        }
                    }
                }
            }
        }
    }
    assert!(
        missed_at.iter().all(|&n| n > 0),
        "every tolerance must see misses: {missed_at:?}"
    );
}

#[test]
fn battery_cutoff_mid_span_is_bit_identical() {
    // A battery small enough to die mid-run: the cut-off lands inside
    // an idle or work span and must stop both kernels at the same
    // microsecond with the same partial accounting.
    for nominal_wh in [5e-5, 2.3e-4, 1.1e-3] {
        let report = assert_kernel_differential("battery cutoff", &|path| {
            let battery = Battery::with_charge_fraction(
                BatteryParams {
                    nominal_wh,
                    ..BatteryParams::default()
                },
                1.0,
            );
            let mut k = Kernel::new(
                Machine::itsy(10, DeviceSet::AV).with_battery(battery),
                path.config(KernelConfig {
                    duration: SimDuration::from_secs(3),
                    stop_when_battery_empty: true,
                    ..KernelConfig::default()
                }),
            );
            Benchmark::Mpeg.spawn_into(&mut k, 3);
            k.install_policy(PolicyDesc::best_from_paper().build(ClockTable::sa1100()));
            k
        });
        assert!(
            report.busy + report.idle < SimDuration::from_secs(3),
            "battery {nominal_wh} Wh should have died mid-run"
        );
    }
}

/// A task soup driven by a forked RNG: compute bursts, sleeps, spins
/// and the occasional exit, in random proportion.
fn spawn_random_soup(k: &mut Kernel, seed: u64, tasks: u64) {
    let mut root = Rng::new(seed);
    for i in 0..tasks {
        let mut rng = root.fork(i);
        k.spawn(Box::new(FnBehavior::new(
            format!("soup-{i}"),
            move |ctx| match rng.below(10) {
                0..=4 => TaskAction::Compute(Work::new(
                    rng.uniform_range(1e4, 4e6),
                    rng.uniform_range(0.0, 2e4),
                    rng.uniform_range(0.0, 1e3),
                )),
                5..=6 => TaskAction::SleepUntil(
                    ctx.now + SimDuration::from_micros(rng.below(120_000) + 1),
                ),
                7..=8 => {
                    TaskAction::SpinUntil(ctx.now + SimDuration::from_micros(rng.below(25_000) + 1))
                }
                _ if rng.chance(0.02) => TaskAction::Exit,
                _ => TaskAction::SleepUntil(
                    ctx.now + SimDuration::from_micros(rng.below(500_000) + 1),
                ),
            },
        )));
    }
}

proptest! {
    /// Random task soups under a random policy: the Summary span loop
    /// may never diverge from its reference, whatever the trace looks
    /// like.
    #[test]
    fn random_soups_are_bit_identical(
        seed in 0u64..u64::MAX,
        tasks in 1u64..4,
        policy_idx in 0usize..13,
        step in 0u8..11,
    ) {
        let policy = policy_matrix().swap_remove(policy_idx);
        assert_kernel_differential("random soup", &|path| {
            let mut k = Kernel::new(
                Machine::itsy(step as usize, DeviceSet::NONE),
                path.config(KernelConfig {
                    duration: SimDuration::from_secs(2),
                    ..KernelConfig::default()
                }),
            );
            spawn_random_soup(&mut k, seed, tasks);
            k.install_policy(policy.build(ClockTable::sa1100()));
            k
        });
    }

    /// Skip-ahead never jumps past an event boundary: under Summary
    /// span skipping sleepers wake exactly where the reference loop
    /// wakes them, and the Full tick loop puts every wake on the tick
    /// grid.
    #[test]
    fn sleeper_wakes_are_never_skipped(
        seed in 0u64..u64::MAX,
        sleep_us in 1u64..200_000,
    ) {
        let report = assert_kernel_differential("sleeper", &|path| {
            let mut rng = Rng::new(seed);
            let mut k = Kernel::new(
                Machine::itsy(10, DeviceSet::NONE),
                path.config(KernelConfig {
                    duration: SimDuration::from_secs(2),
                    ..KernelConfig::default()
                }),
            );
            k.spawn(Box::new(FnBehavior::new("sleeper", move |ctx| {
                // Sleep-only: every schedule this task causes is a
                // wake, and Linux 2.0 jiffy semantics put wakes on the
                // 10 ms grid — so any span that jumped a wake tick
                // would surface as an off-grid (or missing) record.
                let jitter = rng.below(3_000);
                TaskAction::SleepUntil(ctx.now + SimDuration::from_micros(sleep_us + jitter))
            })));
            // Constant top speed: no clock transitions, so no post-stall
            // reschedules — every record left is a tick-aligned wake.
            k.install_policy(PolicyDesc::constant_top().build(ClockTable::sa1100()));
            k
        });
        // Every non-idle schedule after a sleep lands on the 10 ms
        // grid: a span that jumped a wake tick would shift these.
        for rec in report.sched_log.records() {
            prop_assert_eq!(
                rec.at_us % 10_000,
                0,
                "schedule off the tick grid at {}",
                rec.at_us
            );
        }
    }

    /// Idle energy is exact under random power-model constants: the
    /// Full tick loop's per-quantum integration equals the closed-form
    /// sum bit for bit, and a Summary run's single span term agrees
    /// with its reference loop.
    #[test]
    fn idle_span_energy_is_exact_for_any_power_model(
        core_w_per_mhz in 1e-4f64..1e-2,
        v2_fraction in 0.0f64..1.0,
        nap_fraction in 0.05f64..1.0,
        base_w in 0.1f64..2.0,
        step in 0u8..11,
    ) {
        let params = PowerParams {
            core_w_per_mhz,
            v2_fraction,
            nap_fraction,
            base_w,
            ..PowerParams::default()
        };
        let report = assert_kernel_differential("idle power model", &|path| {
            let mut machine = Machine::itsy(step as usize, DeviceSet::NONE);
            machine.power = PowerModel::new(params.clone());
            Kernel::new(
                machine,
                path.config(KernelConfig {
                    duration: SimDuration::from_secs(2),
                    ..KernelConfig::default()
                }),
            )
        });
        // The whole run idles; its energy must equal the closed-form
        // sum of one delivery per quantum.
        let machine = Machine::itsy(step as usize, DeviceSet::NONE);
        let model = PowerModel::new(params);
        let p = model.core_power(
            itsy_dvs::hw::CpuMode::Nap,
            machine.cpu.freq(),
            machine.cpu.voltage(),
        ) + model.peripheral_power(DeviceSet::NONE);
        let q = SimDuration::from_millis(10);
        let expected = (0..200).fold(itsy_dvs::sim::Energy::ZERO, |e, _| e + p.over(q));
        prop_assert_eq!(
            report.energy.as_joules().to_bits(),
            expected.as_joules().to_bits(),
            "idle energy differs from the closed-form span sum"
        );
        prop_assert_eq!(report.idle, SimDuration::from_secs(2));
        prop_assert_eq!(report.busy, SimDuration::ZERO);
    }

    /// Busy + idle always partitions the simulated duration exactly,
    /// and Summary spans account the same time as the ticks they
    /// replace (no tick lost or double-counted by a span jump).
    #[test]
    fn span_accounting_partitions_the_run(
        seed in 0u64..u64::MAX,
        tasks in 1u64..4,
    ) {
        let report = assert_kernel_differential("partition", &|path| {
            let mut k = Kernel::new(
                Machine::itsy(10, DeviceSet::NONE),
                path.config(KernelConfig {
                    duration: SimDuration::from_secs(2),
                    ..KernelConfig::default()
                }),
            );
            spawn_random_soup(&mut k, seed, tasks);
            k.install_policy(PolicyDesc::best_from_paper().build(ClockTable::sa1100()));
            k
        });
        prop_assert_eq!(report.busy + report.idle, SimDuration::from_secs(2));
        prop_assert!(report.stalled <= report.busy);
        prop_assert!(report.spun <= report.busy);
    }
}

/// A traced run takes the tick loop, like every Full run; tracing must
/// not change its result through either entry point.
#[test]
fn traced_runs_agree_with_both_paths() {
    let spec = JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Mpeg),
        PolicyDesc::best_from_paper(),
        2,
        9,
    );
    let (traced, trace) = spec.execute_traced();
    assert_eq!(traced.encode(), spec.execute().encode());
    assert_eq!(traced.encode(), spec.execute_reference().encode());
    assert!(!trace.events().is_empty(), "tracing must capture events");
}

// ---------------------------------------------------------------------
// Summary fidelity across fidelities: the span-skipping mode must
// preserve every integer-valued observable bit-for-bit against a
// Full-fidelity run, and bound the only quantity it computes
// differently (energy: one compensated term per span instead of one
// term per segment).
// ---------------------------------------------------------------------

/// Serializes the state every fidelity must agree on exactly: time
/// accounting, completed ticks, machine transitions, per-task CPU,
/// deadline outcomes and the battery trajectory (whose per-quantum drain order is identical
/// in all paths, hence compared by bits). Excludes the series and the
/// sched log (Summary never records them) and energy (Summary commits
/// one compensated term per span, so it differs in the last ulps).
fn integer_fingerprint(r: &KernelReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "busy={} idle={} stalled={} spun={} elapsed={} ticks={}",
        r.busy.as_micros(),
        r.idle.as_micros(),
        r.stalled.as_micros(),
        r.spun.as_micros(),
        r.elapsed.as_micros(),
        r.ticks
    );
    let _ = writeln!(
        s,
        "switches={}/{} final={}",
        r.clock_switches, r.voltage_switches, r.final_step
    );
    for (pid, label, cpu) in &r.per_task_cpu {
        let _ = writeln!(s, "task {} {} {}", pid, label, cpu.as_micros());
    }
    for d in r.deadlines.records() {
        let _ = writeln!(s, "dl {} {} {}", d.label, d.due_us, d.completed_us);
    }
    s += &deadline_counts(r);
    let _ = writeln!(s, "battery={:?}", r.battery_remaining.map(|b| b.to_bits()));
    s
}

/// The Summary closed-form accumulators; both summary loops must
/// produce them exactly.
fn summary_extras(r: &KernelReport) -> String {
    format!(
        "util_sum_us={} freq_khz_sum={}",
        r.util_sum_us, r.freq_khz_sum
    )
}

/// Relative difference with a denominator floor, for energy bounds.
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// Holds a Summary span-loop result to the Summary reference loop's:
/// the span-granular energies within 1e-12 relative, every other field
/// byte-equal through the canonical encoding.
fn assert_summary_results_agree(label: &str, fast: &JobResult, reference: &JobResult) {
    assert!(
        rel_diff(fast.energy_j, reference.energy_j) < 1e-12
            && rel_diff(fast.core_energy_j, reference.core_energy_j) < 1e-12,
        "summary span energy drifted past the compensated bound: {label}"
    );
    let masked = |r: &JobResult| {
        JobResult {
            energy_j: 0.0,
            core_energy_j: 0.0,
            ..*r
        }
        .encode()
    };
    assert_eq!(
        masked(fast),
        masked(reference),
        "summary span loop diverged from summary reference: {label}"
    );
}

/// Engine-level sweep: for every workload x policy, a Summary run on
/// the span loop must match the Summary reference loop, and match a
/// Full run on all integer-derived fields with energy within the
/// documented 1e-9 bound.
#[test]
fn summary_policy_matrix_matches_reference_and_full() {
    for workload in workload_matrix() {
        for policy in policy_matrix() {
            let spec = JobSpec::new(workload, policy, 2, 1);
            let summary = spec.clone().with_fidelity(SimFidelity::Summary);
            let label = summary.label();
            let s_fast = summary.execute();
            assert_summary_results_agree(&label, &s_fast, &summary.execute_reference());
            let full = spec.execute();
            let masked_fast = JobResult {
                energy_j: 0.0,
                core_energy_j: 0.0,
                ..s_fast
            };
            // Cross-fidelity: every integer observable is exact.
            assert_eq!(masked_fast.misses, full.misses, "{label}");
            assert_eq!(masked_fast.max_lateness_us, full.max_lateness_us, "{label}");
            assert_eq!(masked_fast.clock_switches, full.clock_switches, "{label}");
            assert_eq!(
                masked_fast.voltage_switches, full.voltage_switches,
                "{label}"
            );
            assert_eq!(masked_fast.final_step, full.final_step, "{label}");
            assert_eq!(masked_fast.frames_shown, full.frames_shown, "{label}");
            assert_eq!(masked_fast.frames_dropped, full.frames_dropped, "{label}");
            assert_eq!(
                masked_fast.battery_remaining.to_bits(),
                full.battery_remaining.to_bits(),
                "battery drain order must not depend on fidelity: {label}"
            );
            assert_eq!(masked_fast.sched_dropped, 0, "{label}");
            assert!(
                rel_diff(s_fast.energy_j, full.energy_j) < 1e-9
                    && rel_diff(s_fast.core_energy_j, full.core_energy_j) < 1e-9,
                "summary energy drifted from full fidelity: {label} \
                 ({} vs {})",
                s_fast.energy_j,
                full.energy_j
            );
            assert!(
                (masked_fast.mean_utilization - full.mean_utilization).abs() < 1e-9,
                "{label}"
            );
            assert!(
                (masked_fast.mean_freq_mhz - full.mean_freq_mhz).abs() < 1e-6,
                "{label}"
            );
        }
    }
}

/// One recorded policy call: the arguments as delivered (utilization by
/// bits) and the request returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Call {
    at_us: u64,
    util_bits: u64,
    step: StepIndex,
    req: PolicyRequest,
}

/// Wraps a policy and logs every `on_interval` delivery.
struct Recording {
    inner: Box<dyn ClockPolicy>,
    log: Rc<RefCell<Vec<Call>>>,
}

impl ClockPolicy for Recording {
    fn on_interval(
        &mut self,
        now: SimTime,
        utilization: f64,
        current_step: StepIndex,
    ) -> PolicyRequest {
        let req = self.inner.on_interval(now, utilization, current_step);
        self.log.borrow_mut().push(Call {
            at_us: now.as_micros(),
            util_bits: utilization.to_bits(),
            step: current_step,
            req,
        });
        req
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The observation contract between the kernel's loops: at Summary
/// fidelity every policy sees the *exact* tick stream the Full
/// reference loop delivers (same times, same utilizations, same
/// answers), whether a tick runs on the tick loop or inside a uniform
/// span, and the machine ends in the same state.
#[test]
fn summary_policies_observe_the_reference_tick_stream() {
    for policy in policy_matrix() {
        let run = |fidelity: SimFidelity, reference: bool| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut k = Kernel::new(
                Machine::itsy(10, DeviceSet::AV),
                KernelConfig {
                    duration: SimDuration::from_secs(3),
                    reference,
                    fidelity,
                    ..KernelConfig::default()
                },
            );
            Benchmark::Mpeg.spawn_into(&mut k, 5);
            k.install_policy(Box::new(Recording {
                inner: policy.build(ClockTable::sa1100()),
                log: Rc::clone(&log),
            }));
            let report = k.run();
            let calls = Rc::try_unwrap(log).expect("kernel dropped").into_inner();
            (calls, report)
        };
        let (full_calls, full_report) = run(SimFidelity::Full, true);
        let (sum_calls, sum_report) = run(SimFidelity::Summary, false);
        let name = policy.label();
        assert_eq!(
            integer_fingerprint(&full_report),
            integer_fingerprint(&sum_report),
            "machine outcome diverged across fidelities: {name}"
        );
        assert!(
            !full_calls.is_empty(),
            "{name}: reference delivered no ticks"
        );
        assert_eq!(
            sum_calls, full_calls,
            "{name}: every policy must observe every tick"
        );
    }
}

proptest! {
    /// Random task soups across fidelities, with a battery (and
    /// mid-span cut-off) on even seeds: both summary loops agree with
    /// each other ([`assert_summary_loops_agree`]) and with Full on
    /// every integer observable; summary emits nothing per-tick; energy
    /// stays inside the cross-fidelity bound.
    #[test]
    fn random_soups_match_across_fidelities(
        seed in 0u64..u64::MAX,
        tasks in 1u64..4,
        policy_idx in 0usize..13,
    ) {
        let policy = policy_matrix().swap_remove(policy_idx);
        let with_battery = seed % 2 == 0;
        let build = |fidelity: SimFidelity, reference: bool| {
            let mut machine = Machine::itsy(10, DeviceSet::NONE);
            if with_battery {
                machine = machine.with_battery(Battery::with_charge_fraction(
                    BatteryParams {
                        nominal_wh: 2.3e-4,
                        ..BatteryParams::default()
                    },
                    1.0,
                ));
            }
            let mut k = Kernel::new(
                machine,
                Path {
                    fidelity,
                    reference,
                    record: true,
                }
                .config(KernelConfig {
                    duration: SimDuration::from_secs(2),
                    stop_when_battery_empty: with_battery,
                    ..KernelConfig::default()
                }),
            );
            spawn_random_soup(&mut k, seed, tasks);
            k.install_policy(policy.build(ClockTable::sa1100()));
            k.run()
        };
        let s_fast = build(SimFidelity::Summary, false);
        let s_ref = build(SimFidelity::Summary, true);
        let full = build(SimFidelity::Full, false);
        assert_summary_loops_agree("random soup", &s_fast, &s_ref);
        prop_assert_eq!(
            integer_fingerprint(&s_fast),
            integer_fingerprint(&full),
            "summary vs full fidelity"
        );
        for r in [&s_fast, &s_ref] {
            prop_assert!(
                r.utilization.is_empty()
                    && r.freq_mhz.is_empty()
                    && r.work_fraction.is_empty()
                    && r.power_w.is_empty(),
                "summary runs must not record series"
            );
            prop_assert_eq!(r.sched_log.records().len(), 0, "summary sched log");
        }
        prop_assert!(
            rel_diff(s_fast.energy.as_joules(), full.energy.as_joules()) < 1e-9
                && rel_diff(s_fast.core_energy.as_joules(), full.core_energy.as_joules())
                    < 1e-9,
            "cross-fidelity energy: {} vs {}",
            s_fast.energy.as_joules(),
            full.energy.as_joules()
        );
    }
}

// Referenced to keep the facade import honest; the matrix builds
// policies through descriptors only.
#[allow(dead_code)]
fn _policy_request_type_exists(r: PolicyRequest) -> PolicyRequest {
    r
}
