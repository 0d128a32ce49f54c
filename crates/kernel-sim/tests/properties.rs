//! Property-based tests of the kernel and the deadline registry.

use proptest::prelude::*;

use itsy_hw::{DeviceSet, Work};
use kernel_sim::deadline::{DeadlineGovernor, DeadlineRegistry};
use kernel_sim::task::FnBehavior;
use kernel_sim::{Kernel, KernelConfig, Machine, TaskAction};
use policies::ClockPolicy;
use sim_core::{SimDuration, SimTime};

proptest! {
    /// Reservation rates add linearly and drop out on completion, for
    /// arbitrary announcement sets.
    #[test]
    fn registry_rates_are_additive(
        anns in proptest::collection::vec((1.0e3f64..1.0e8, 1u64..10_000), 1..20),
    ) {
        let mut reg = DeadlineRegistry::default();
        let mut ids = Vec::new();
        let mut expect = 0.0;
        for &(cycles, due_ms) in &anns {
            ids.push(reg.announce(cycles, SimTime::ZERO, SimTime::from_millis(due_ms)));
            expect += cycles / (due_ms as f64 * 1_000.0) * 1_000.0;
        }
        let got = reg.required_khz(SimTime::ZERO);
        prop_assert!((got - expect).abs() < 1e-6 * expect.max(1.0), "{got} vs {expect}");
        // Complete them all: requirement returns to zero.
        for id in ids {
            reg.complete(id);
        }
        prop_assert_eq!(reg.required_khz(SimTime::ZERO), 0.0);
    }

    /// The governor's step selection is monotone in the announced rate.
    #[test]
    fn governor_step_monotone_in_rate(c1 in 1.0e5f64..3.0e6, c2 in 1.0e5f64..3.0e6) {
        prop_assume!(c1 < c2);
        let step_for = |cycles: f64| {
            let reg = DeadlineRegistry::shared();
            reg.lock()
                .unwrap()
                .announce(cycles, SimTime::ZERO, SimTime::from_millis(10));
            let mut gov = DeadlineGovernor::new(reg, itsy_hw::ClockTable::sa1100());
            gov.on_interval(SimTime::ZERO, 0.5, 0).step.unwrap_or(0)
        };
        prop_assert!(step_for(c1) <= step_for(c2));
    }

    /// A periodic compute task conserves time and reports one deadline
    /// per period, for arbitrary period/demand combinations.
    #[test]
    fn periodic_tasks_account_cleanly(
        period_ms in 20u64..200,
        work_ms in 1u64..19,
        step in 0usize..11,
    ) {
        let mut kernel = Kernel::new(
            Machine::itsy(step, DeviceSet::NONE),
            KernelConfig {
                duration: SimDuration::from_secs(4),
                record: false,
                // The tolerance the misses below are counted at.
                deadline_tolerance: SimDuration::from_millis(50),
                ..KernelConfig::default()
            },
        );
        let work = Work::cycles(206_400.0 * work_ms as f64);
        let period = SimDuration::from_millis(period_ms);
        let mut k = 0u64;
        let mut pending = false;
        kernel.spawn(Box::new(FnBehavior::new("periodic", move |ctx| {
            let due = SimTime::ZERO + SimDuration::from_micros((k + 1) * period.as_micros());
            if pending {
                ctx.report_deadline("burst", due);
                pending = false;
                k += 1;
                let start = due;
                if ctx.now < start {
                    return TaskAction::SleepUntil(start);
                }
            }
            pending = true;
            TaskAction::Compute(work)
        })));
        let r = kernel.run();
        prop_assert_eq!(r.time_accounted(), SimDuration::from_secs(4));
        prop_assert!(!r.deadlines.is_empty());
        // Deadline count can't exceed the number of periods.
        prop_assert!(r.deadlines.len() as u64 <= 4_000 / period_ms + 1);
        // Busy time matches demand when the task keeps up.
        if r.deadlines.misses(SimDuration::from_millis(50)) == 0 && step == 10 {
            let expect = r.deadlines.len() as f64 * work_ms as f64 / 1_000.0;
            let busy = r.busy.as_secs_f64();
            prop_assert!((busy - expect).abs() < 0.2 * expect + 0.05, "{busy} vs {expect}");
        }
    }

    /// Any fixed-step "policy" that only re-requests the current step
    /// never causes a transition.
    #[test]
    fn noop_policies_never_switch(step in 0usize..11) {
        struct Hold(usize);
        impl ClockPolicy for Hold {
            fn on_interval(
                &mut self,
                _: SimTime,
                _: f64,
                cur: usize,
            ) -> policies::PolicyRequest {
                policies::PolicyRequest {
                    step: (cur != self.0).then_some(self.0),
                    voltage: None,
                }
            }
            fn name(&self) -> String {
                "hold".into()
            }
        }
        let mut kernel = Kernel::new(
            Machine::itsy(step, DeviceSet::NONE),
            KernelConfig {
                duration: SimDuration::from_secs(1),
                record: false,
                ..KernelConfig::default()
            },
        );
        kernel.spawn(Box::new(FnBehavior::new("busy", |_ctx| {
            TaskAction::Compute(Work::cycles(1.0e9))
        })));
        kernel.install_policy(Box::new(Hold(step)));
        let r = kernel.run();
        prop_assert_eq!(r.clock_switches, 0);
        prop_assert_eq!(r.stalled, SimDuration::ZERO);
    }
}
