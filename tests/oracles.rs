//! Closed-form oracles for the kernel's power integration.
//!
//! The paper's power model is P·t: a core draws `P_run` while it runs
//! and `P_nap` while it naps, and the peripherals draw `P_per`
//! throughout (PAPER.md §2). At a pinned clock step and voltage nothing
//! else moves, so a run's energy has a closed form in its busy and idle
//! time. These tests hold both kernel loops to it on the paper's real
//! workloads, not just on idle runs, and check the metamorphic
//! relations that follow from it: idle energy is linear in time, the
//! core coefficient scales core energy alone, and the timeline windows
//! partition the run.

use itsy_dvs::apps::Benchmark;
use itsy_dvs::dvs::{ConstantPolicy, IntervalScheduler};
use itsy_dvs::hw::{ClockTable, CpuMode, DeviceSet, PowerModel, PowerParams, V_HIGH};
use itsy_dvs::kernel::{Kernel, KernelConfig, KernelReport, Machine};
use itsy_dvs::sim::{SimDuration, SimFidelity};

const FIDELITIES: [SimFidelity; 2] = [SimFidelity::Full, SimFidelity::Summary];

/// `|got - want| <= 1e-12 * |want|`.
fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-12 * want.abs(),
        "{what}: {got} J against the expected {want} J (gap {:e})",
        (got - want).abs() / want.abs()
    );
}

/// Every benchmark at a constant clock step spends energy
/// `(P_run + P_per)·busy + (P_nap + P_per)·idle` in total and
/// `P_run·busy + P_nap·idle` in the core, at both fidelities.
#[test]
fn constant_step_energy_is_closed_form_p_times_t() {
    let model = PowerModel::default();
    let table = ClockTable::sa1100();
    for b in Benchmark::ALL {
        for step in [0, 5, 10] {
            for fidelity in [SimFidelity::Full, SimFidelity::Summary] {
                let label = format!("{} step {step} {fidelity}", b.name());
                let mut kernel = Kernel::new(
                    Machine::itsy(step, b.devices()),
                    KernelConfig {
                        duration: SimDuration::from_secs(20),
                        fidelity,
                        ..KernelConfig::default()
                    },
                );
                b.spawn_into(&mut kernel, 1);
                kernel.install_policy(Box::new(ConstantPolicy::new(step, V_HIGH)));
                let r = kernel.run();
                assert_eq!(r.stalled, SimDuration::ZERO, "{label}: stalled");
                assert_eq!(r.clock_switches, 0, "{label}: clock switches");

                let f = table.freq(step);
                let p_run = model.core_power(CpuMode::Run, f, V_HIGH).as_watts();
                let p_nap = model.core_power(CpuMode::Nap, f, V_HIGH).as_watts();
                let p_per = model.peripheral_power(b.devices()).as_watts();
                let busy = r.busy.as_secs_f64();
                let idle = r.idle.as_secs_f64();
                assert_close(
                    r.energy.as_joules(),
                    (p_run + p_per) * busy + (p_nap + p_per) * idle,
                    &format!("{label}: total energy"),
                );
                assert_close(
                    r.core_energy.as_joules(),
                    p_run * busy + p_nap * idle,
                    &format!("{label}: core energy"),
                );
            }
        }
    }
}

/// With nothing to run, the machine naps at a fixed power, so a run
/// four times as long draws four times the energy, in total and in the
/// core.
#[test]
fn idle_energy_is_linear_in_time() {
    let idle = |step, fidelity, secs| {
        let mut kernel = Kernel::new(
            Machine::itsy(step, DeviceSet::NONE),
            KernelConfig {
                duration: SimDuration::from_secs(secs),
                fidelity,
                ..KernelConfig::default()
            },
        );
        kernel.install_policy(Box::new(ConstantPolicy::new(step, V_HIGH)));
        kernel.run()
    };
    for step in [0, 5, 10] {
        for fidelity in FIDELITIES {
            let label = format!("idle step {step} {fidelity}");
            let (short, long) = (idle(step, fidelity, 10), idle(step, fidelity, 40));
            assert_eq!(long.busy, SimDuration::ZERO, "{label}: busy");
            assert_close(
                long.energy.as_joules(),
                4.0 * short.energy.as_joules(),
                &format!("{label}: total energy"),
            );
            assert_close(
                long.core_energy.as_joules(),
                4.0 * short.core_energy.as_joules(),
                &format!("{label}: core energy"),
            );
        }
    }
}

/// Runs `b` for 20 s under the paper's best policy, with `power` and
/// the rest of `config`.
fn best_policy_run(b: Benchmark, power: PowerModel, config: KernelConfig) -> KernelReport {
    let mut machine = Machine::itsy(0, b.devices());
    machine.power = power;
    let config = KernelConfig {
        duration: SimDuration::from_secs(20),
        ..config
    };
    let mut kernel = Kernel::new(machine, config);
    b.spawn_into(&mut kernel, 1);
    let table = ClockTable::sa1100();
    kernel.install_policy(Box::new(IntervalScheduler::best_from_paper(table)));
    kernel.run()
}

/// A fleet device's `core_ppm` scales the core's power coefficient and
/// nothing else, so policy decisions stay the same, core energy scales
/// by exactly that factor and peripheral energy does not move.
#[test]
fn core_ppm_scales_core_energy_alone() {
    for b in Benchmark::ALL {
        for fidelity in FIDELITIES {
            let config = || KernelConfig {
                fidelity,
                ..KernelConfig::default()
            };
            let stock = best_policy_run(b, PowerModel::default(), config());
            let stock_peripheral = stock.energy.as_joules() - stock.core_energy.as_joules();
            for ppm in [950_000, 1_050_000] {
                let label = format!("{} {fidelity} core_ppm {ppm}", b.name());
                let params = PowerParams::default().scaled_ppm(ppm, 1_000_000);
                let r = best_policy_run(b, PowerModel::new(params), config());
                assert_eq!(r.busy, stock.busy, "{label}: busy");
                assert_eq!(
                    r.clock_switches, stock.clock_switches,
                    "{label}: clock switches"
                );
                assert_close(
                    r.core_energy.as_joules(),
                    stock.core_energy.as_joules() * ppm as f64 / 1e6,
                    &format!("{label}: core energy"),
                );
                assert_close(
                    r.energy.as_joules() - r.core_energy.as_joules(),
                    stock_peripheral,
                    &format!("{label}: peripheral energy"),
                );
            }
        }
    }
}

/// The timeline windows partition the run: their busy time sums to the
/// run's exactly, and their energy to the run's energy, on both kernel
/// loops at both fidelities.
#[test]
fn timeline_windows_sum_to_the_run() {
    for b in Benchmark::ALL {
        for fidelity in FIDELITIES {
            for reference in [false, true] {
                for windows in [7, 20] {
                    let label = format!(
                        "{} {fidelity} reference={reference} {windows} windows",
                        b.name()
                    );
                    let config = KernelConfig {
                        fidelity,
                        reference,
                        timeline_windows: windows,
                        ..KernelConfig::default()
                    };
                    let r = best_policy_run(b, PowerModel::default(), config);
                    assert_eq!(r.timeline.len(), windows as usize, "{label}: windows");
                    let busy_us: u64 = r.timeline.iter().map(|w| w.busy_us).sum();
                    assert_eq!(busy_us, r.busy.as_micros(), "{label}: busy");
                    let energy: f64 = r.timeline.iter().map(|w| w.energy_j).sum();
                    assert_close(energy, r.energy.as_joules(), &format!("{label}: energy"));
                }
            }
        }
    }
}
