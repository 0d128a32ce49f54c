//! A discrete-event simulation of the paper's modified Linux 2.0.30
//! kernel.
//!
//! §4.3 of the paper describes two kernel modifications:
//!
//! 1. a **scheduler activity log** — for every scheduling decision, the
//!    pid, microsecond timestamp and current clock rate
//!    ([`log::SchedLog`]);
//! 2. an **extensible clock-scaling policy module** called from the
//!    clock interrupt handler, with the scheduler tracking per-quantum
//!    CPU utilization ([`policies::ClockPolicy`] installed via
//!    [`Kernel::install_policy`]).
//!
//! The simulated kernel reproduces the environment those modules saw:
//!
//! - a 100 Hz timer; the run counter is forced to 1 so the scheduler
//!   (and the policy) runs every 10 ms quantum;
//! - round-robin scheduling among ready tasks; pid 0 is the idle task,
//!   which puts the core into the low-power "nap" mode;
//! - sleeping tasks wake on timer-tick granularity (Linux 2.0 jiffies);
//! - per-quantum utilization = non-idle time / quantum, exactly the
//!   number the policy module consumed;
//! - clock changes stall execution ~200 µs; the stall counts as
//!   *non-idle* time (the idle task is not running) but dissipates only
//!   nap-level core power.
//!
//! Workloads are [`task::TaskBehavior`] implementations (see the
//! `workloads` crate); deadlines they report land in
//! [`log::DeadlineLog`], the basis of the paper's inelastic
//! "no user-visible change" criterion.

pub mod deadline;
pub mod log;
pub mod machine;
pub mod report;
pub mod sched;
pub mod task;

pub use log::{DeadlineLog, DeadlineRecord, SchedLog, SchedRecord};
pub use machine::Machine;
pub use report::{KernelReport, WindowSample};
pub use sched::{Kernel, KernelConfig};
pub use task::{Pid, TaskAction, TaskBehavior, TaskCtx};
