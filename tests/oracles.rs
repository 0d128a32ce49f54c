//! Closed-form oracles for the kernel's power integration.
//!
//! The paper's power model is P·t: a core draws `P_run` while it runs
//! and `P_nap` while it naps, and the peripherals draw `P_per`
//! throughout (PAPER.md §2). At a pinned clock step and voltage nothing
//! else moves, so a run's energy has a closed form in its busy and idle
//! time. These tests hold both kernel loops to it on the paper's real
//! workloads, not just on idle runs.

use itsy_dvs::apps::Benchmark;
use itsy_dvs::dvs::ConstantPolicy;
use itsy_dvs::hw::{ClockTable, CpuMode, PowerModel, V_HIGH};
use itsy_dvs::kernel::{Kernel, KernelConfig, Machine};
use itsy_dvs::sim::{SimDuration, SimFidelity};

/// `|got - want| <= 1e-12 * |want|`.
fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-12 * want.abs(),
        "{what}: {got} J against the closed form's {want} J (gap {:e})",
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
