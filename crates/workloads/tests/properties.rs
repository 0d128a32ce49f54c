//! Property-based tests of the workload infrastructure.

use proptest::prelude::*;

use itsy_hw::Work;
use sim_core::{SimDuration, SimTime};
use workloads::trace::generate_interactive_trace;
use workloads::{InputTrace, MpegConfig};

proptest! {
    /// The text trace format round-trips arbitrary traces.
    #[test]
    fn trace_text_round_trip(
        events in proptest::collection::vec(
            (0u64..1_000_000, 0.0f64..1e9, 0.0f64..1e6, 0.0f64..1e6, 0u64..1_000_000),
            0..50,
        ),
    ) {
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.0);
        let mut trace = InputTrace::new();
        for (at, cpu, refs, lines, resp) in sorted {
            trace.record(
                SimTime::from_micros(at),
                Work::new(cpu, refs, lines),
                SimDuration::from_micros(resp),
            );
        }
        let back = InputTrace::from_text(&trace.to_text()).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// Generated interactive traces respect their gap and work bounds
    /// for arbitrary parameters.
    #[test]
    fn generated_trace_bounds(
        seed in any::<u64>(),
        gap_lo in 100u64..1_000,
        gap_extra in 1u64..2_000,
        span_secs in 1u64..20,
    ) {
        let mut rng = sim_core::Rng::new(seed);
        let trace = generate_interactive_trace(
            &mut rng,
            SimDuration::from_secs(span_secs),
            (gap_lo, gap_lo + gap_extra),
            (1.0, 5.0),
            0.3,
            SimDuration::from_millis(300),
        );
        prop_assert!(trace.span() <= SimDuration::from_secs(span_secs));
        let times: Vec<u64> = trace.events().iter().map(|e| e.at_us).collect();
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            prop_assert!(gap >= gap_lo * 1_000);
            prop_assert!(gap <= (gap_lo + gap_extra) * 1_000);
        }
    }

    /// MPEG frame demand stays positive and near its configured mean
    /// for any seed.
    #[test]
    fn mpeg_demand_sane_for_any_seed(seed in any::<u64>()) {
        use kernel_sim::{Kernel, KernelConfig, Machine};
        let mut k = Kernel::new(
            Machine::itsy(10, itsy_hw::DeviceSet::AV),
            KernelConfig {
                duration: SimDuration::from_secs(3),
                record: false,
                ..KernelConfig::default()
            },
        );
        for t in workloads::MpegWorkload::new(MpegConfig::default(), seed).into_tasks() {
            k.spawn(t);
        }
        let r = k.run();
        let u = r.mean_utilization();
        prop_assert!((0.55..=0.95).contains(&u), "seed {seed}: utilization {u}");
        prop_assert_eq!(r.time_accounted(), SimDuration::from_secs(3));
    }
}

/// Distinct benchmarks produce distinct utilization signatures.
#[test]
fn benchmarks_are_distinguishable() {
    use kernel_sim::{Kernel, KernelConfig, Machine};
    use workloads::Benchmark;
    // Signature: (mean utilization, fraction of saturated quanta).
    let mut sigs = Vec::new();
    for b in Benchmark::ALL {
        let mut k = Kernel::new(
            Machine::itsy(10, b.devices()),
            KernelConfig {
                duration: SimDuration::from_secs(60),
                ..KernelConfig::default()
            },
        );
        b.spawn_into(&mut k, 5);
        let r = k.run();
        let vals = r.utilization.values();
        let saturated = vals.iter().filter(|&&u| u > 0.95).count() as f64 / vals.len() as f64;
        sigs.push((b.name(), r.mean_utilization(), saturated));
    }
    for i in 0..sigs.len() {
        for j in i + 1..sigs.len() {
            let mean_gap = (sigs[i].1 - sigs[j].1).abs();
            let sat_gap = (sigs[i].2 - sigs[j].2).abs();
            assert!(
                mean_gap > 0.05 || sat_gap > 0.05,
                "{} and {} look identical ({:?})",
                sigs[i].0,
                sigs[j].0,
                sigs
            );
        }
    }
}

proptest! {
    /// Job sets derived from any recorded work trace are feasible on
    /// the Itsy: per-interval work is at most one full-speed interval,
    /// so no critical interval can demand more than the top clock, and
    /// the step-quantized optimum schedules them without deadline
    /// misses.
    #[test]
    fn derived_job_sets_fit_the_itsy_steps(
        work in proptest::collection::vec(0.0f64..=1.0, 1..200),
        chunk in 1usize..20,
        slack in 0.0f64..30.0,
    ) {
        use policies::scaling::{edf_feasible, itsy_step_speeds, yds, yds_on_steps, Job, JobSet};

        let jobs = workloads::jobs::from_work_trace(&work, chunk, slack);
        let set = JobSet::new(
            jobs.iter()
                .map(|j| Job::new(j.release, j.deadline, j.work))
                .collect(),
        );
        let total: f64 = jobs.iter().map(|j| j.work).sum();
        prop_assert!((set.total_work() - total).abs() < 1e-9, "derivation conserves work");
        let opt = yds(&set);
        prop_assert!(
            opt.max_speed <= 1.0 + 1e-9,
            "derived sets never need more than the top clock: {}",
            opt.max_speed
        );
        let q = yds_on_steps(&set, &itsy_step_speeds());
        prop_assert!(q.feasible);
        prop_assert!(edf_feasible(&set, &q.segments));
    }
}
