//! Hot-loop timing: where one short simulation's wall time goes.
//!
//! Times `Kernel::run` under several configurations, and the engine's
//! `JobSpec::execute` (the `repro bench` hot loop), at full fidelity
//! (the tick-by-tick loop) and in the summary-fidelity mode that skips
//! per-tick emission (O(1) per uniform span when the policy is
//! memoryless or absent).
//!
//! ```sh
//! cargo run --release --example hotloop
//! ```

use std::time::Instant;

use itsy_hw::{DeviceSet, Work};
use kernel_sim::task::FnBehavior;
use kernel_sim::{Kernel, KernelConfig, Machine, TaskAction};
use policies::IntervalScheduler;
use sim_core::{SimDuration, SimFidelity};
use workloads::{Benchmark, MpegConfig, MpegWorkload};

fn time_case(label: &str, workload: &str, policy: bool, fidelity: SimFidelity) {
    let secs = 2u64;
    let iters = 500u32;
    let build = || {
        let devices = if workload == "mpeg" {
            DeviceSet::AV
        } else {
            DeviceSet::NONE
        };
        let mut k = Kernel::new(
            Machine::itsy(10, devices),
            KernelConfig {
                duration: SimDuration::from_secs(secs),
                fidelity,
                ..KernelConfig::default()
            },
        );
        match workload {
            "mpeg" => {
                for t in MpegWorkload::new(MpegConfig::default(), 1).into_tasks() {
                    k.spawn(t);
                }
            }
            "busy" => {
                k.spawn(Box::new(FnBehavior::new("busy", |_ctx| {
                    TaskAction::Compute(Work::cycles(1.0e9))
                })));
            }
            _ => {} // idle: no tasks at all
        }
        if policy {
            k.install_policy(Box::new(IntervalScheduler::best_from_paper(
                itsy_hw::ClockTable::sa1100(),
            )));
        }
        k
    };
    for _ in 0..50 {
        std::hint::black_box(build().run());
    }
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(build().run());
    }
    let us = t.elapsed().as_micros() as f64;
    let ticks = iters as f64 * secs as f64 * 100.0;
    println!(
        "{label:36} {:8.0} sims/s  {:6.1} ns/tick",
        iters as f64 * 1e6 / us,
        us * 1000.0 / ticks
    );
}

fn time_exec(label: &str, f: &mut dyn FnMut()) {
    let iters = 500u32;
    for _ in 0..50 {
        f();
    }
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    let us = t.elapsed().as_micros() as f64;
    println!(
        "{label:36} {:8.0} sims/s  {:6.1} us/sim",
        iters as f64 * 1e6 / us,
        us / iters as f64
    );
}

fn main() {
    use SimFidelity::{Full, Summary};
    time_case("mpeg + policy (full)", "mpeg", true, Full);
    time_case("mpeg + policy (summary)", "mpeg", true, Summary);
    time_case("mpeg, no policy (full)", "mpeg", false, Full);
    time_case("mpeg, no policy (summary)", "mpeg", false, Summary);
    time_case("busy + policy (full)", "busy", true, Full);
    time_case("busy + policy (summary)", "busy", true, Summary);
    time_case("busy, no policy (full)", "busy", false, Full);
    time_case("busy, no policy (summary)", "busy", false, Summary);
    time_case("idle, no policy (full)", "idle", false, Full);
    time_case("idle, no policy (summary, O(1))", "idle", false, Summary);

    let spec = engine::JobSpec::new(
        engine::WorkloadSpec::Benchmark(Benchmark::Mpeg),
        policies::PolicyDesc::best_from_paper(),
        2,
        1,
    );
    let summary_spec = spec.clone().with_fidelity(SimFidelity::Summary);
    time_exec("JobSpec::execute (bench hot)", &mut || {
        std::hint::black_box(spec.execute());
    });
    time_exec("JobSpec::execute (summary)", &mut || {
        std::hint::black_box(summary_spec.execute());
    });
}
