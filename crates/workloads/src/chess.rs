//! The Chess workload: a Java front-end driving the Crafty engine.
//!
//! §4.2: "Crafty uses a play book for opening moves and then plays for
//! specific periods of time in later stages of the games and plays the
//! best move available when time expires." Figure 4(c) shows the
//! resulting utilization pattern: near-zero while the user thinks or
//! moves, pinned at 100 % while Crafty plans.
//!
//! Planning is modelled as [`TaskAction::SpinUntil`]: the engine
//! consumes every available cycle until its wall-clock budget expires,
//! regardless of clock speed (a slower clock just searches fewer nodes —
//! worse chess, but no deadline to miss, which is exactly why interval
//! schedulers find this workload confusing: demand is elastic but looks
//! saturated).

use kernel_sim::{TaskAction, TaskBehavior, TaskCtx};
use sim_core::{Rng, SimDuration, SimTime};

/// The two processes: the Java UI and the Crafty engine.
pub struct ChessWorkload {
    seed: u64,
}

impl ChessWorkload {
    /// Creates the workload.
    pub fn new(seed: u64) -> Self {
        ChessWorkload { seed }
    }

    /// UI task, engine task and the Kaffe poller.
    pub fn into_tasks(self) -> Vec<Box<dyn TaskBehavior>> {
        vec![
            Box::new(CraftyEngine::new(self.seed)),
            Box::new(ChessUi::new(self.seed)),
            Box::new(crate::java::JavaPoller::new()),
        ]
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EnginePhase {
    /// Opening book: instant responses for the first few moves.
    Book(u32),
    /// Waiting for the user's move.
    Waiting,
    /// Planning until the time budget expires.
    Planning,
}

/// The Crafty engine process.
///
/// "The 218 second trace includes a complete game" — after
/// [`CraftyEngine::GAME_MOVES`] engine moves the game ends (the novice
/// "lost, badly") and the process exits.
pub struct CraftyEngine {
    rng: Rng,
    phase: EnginePhase,
    moves_played: u32,
}

impl CraftyEngine {
    /// Engine moves in the complete game (long traces go quiet after).
    pub const GAME_MOVES: u32 = 24;

    /// Creates the engine.
    pub fn new(seed: u64) -> Self {
        CraftyEngine {
            rng: Rng::new(seed ^ 0x6372_6166),
            phase: EnginePhase::Book(3),
            moves_played: 0,
        }
    }

    /// Time the simulated user spends thinking before a move (a novice,
    /// per the paper, so sometimes long).
    fn user_think(&mut self) -> SimDuration {
        SimDuration::from_millis(2_000 + self.rng.below(10_000))
    }

    /// Crafty's planning budget for a move.
    fn plan_budget(&mut self) -> SimDuration {
        SimDuration::from_millis(2_000 + self.rng.below(6_000))
    }
}

impl TaskBehavior for CraftyEngine {
    fn next_action(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        match self.phase {
            EnginePhase::Book(left) => {
                // Book moves are nearly free: a lookup plus UI echo.
                self.phase = if left > 1 {
                    EnginePhase::Book(left - 1)
                } else {
                    EnginePhase::Waiting
                };
                let wake = ctx.now + self.user_think();
                TaskAction::SleepUntil(wake)
            }
            EnginePhase::Waiting => {
                // The user moved; plan a reply for a fixed time budget.
                self.phase = EnginePhase::Planning;
                TaskAction::SpinUntil(ctx.now + self.plan_budget())
            }
            EnginePhase::Planning => {
                // Budget expired: play the move, wait for the user.
                self.moves_played += 1;
                if self.moves_played >= Self::GAME_MOVES {
                    // Checkmate; the game — and the process — end.
                    return TaskAction::Exit;
                }
                self.phase = EnginePhase::Waiting;
                TaskAction::SleepUntil(ctx.now + self.user_think())
            }
        }
    }

    fn label(&self) -> String {
        "crafty".to_string()
    }
}

/// The Java UI process: repaints the board after every move.
pub struct ChessUi {
    rng: Rng,
    next_repaint: SimTime,
    pending: bool,
}

impl ChessUi {
    /// Creates the UI task.
    pub fn new(seed: u64) -> Self {
        ChessUi {
            rng: Rng::new(seed ^ 0x7569_6373),
            next_repaint: SimTime::from_millis(500),
            pending: false,
        }
    }
}

impl TaskBehavior for ChessUi {
    fn next_action(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        if self.pending {
            // Board render complete; interactive echo deadline.
            ctx.report_deadline("input", self.next_repaint + SimDuration::from_millis(300));
            self.pending = false;
            self.next_repaint = ctx.now + SimDuration::from_millis(3_000 + self.rng.below(9_000));
            return TaskAction::SleepUntil(self.next_repaint);
        }
        if ctx.now >= self.next_repaint {
            self.pending = true;
            // Repainting the board: ~25-60 ms at the top clock.
            let ms = self.rng.uniform_range(25.0, 60.0);
            TaskAction::Compute(crate::work_ms_at_top(ms, 0.4))
        } else {
            TaskAction::SleepUntil(self.next_repaint)
        }
    }

    fn label(&self) -> String {
        "chess-ui".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itsy_hw::DeviceSet;
    use kernel_sim::{Kernel, KernelConfig, Machine};

    fn run(secs: u64) -> kernel_sim::KernelReport {
        let mut k = Kernel::new(
            Machine::itsy(10, DeviceSet::LCD),
            KernelConfig {
                duration: SimDuration::from_secs(secs),
                ..KernelConfig::default()
            },
        );
        for t in ChessWorkload::new(11).into_tasks() {
            k.spawn(t);
        }
        k.run()
    }

    #[test]
    fn utilization_is_bimodal() {
        // Figure 4(c): low while the user thinks, 100% while Crafty
        // plans.
        let r = run(60);
        let vals = r.utilization.values();
        let saturated = vals.iter().filter(|&&u| u > 0.95).count();
        let idleish = vals.iter().filter(|&&u| u < 0.2).count();
        assert!(
            saturated > vals.len() / 10,
            "planning bursts missing ({saturated}/{} saturated)",
            vals.len()
        );
        assert!(
            idleish > vals.len() / 5,
            "thinking gaps missing ({idleish}/{} idle)",
            vals.len()
        );
    }

    #[test]
    fn planning_fraction_is_plausible() {
        let r = run(120);
        let u = r.mean_utilization();
        // Think 2-15 s vs plan 1.5-8 s plus UI work: roughly 25-60% busy.
        assert!((0.2..=0.65).contains(&u), "mean utilization = {u}");
    }

    #[test]
    fn planning_time_is_clock_invariant() {
        // Crafty plays when its wall-clock budget expires, whatever the
        // clock — so busy time changes little with frequency, unlike
        // deadline workloads.
        let run_at = |step: usize| {
            let mut k = Kernel::new(
                Machine::itsy(step, DeviceSet::LCD),
                KernelConfig {
                    duration: SimDuration::from_secs(60),
                    ..KernelConfig::default()
                },
            );
            k.spawn(Box::new(CraftyEngine::new(5)));
            k.run().busy.as_secs_f64()
        };
        let fast = run_at(10);
        let slow = run_at(0);
        assert!(
            (slow / fast - 1.0).abs() < 0.05,
            "engine busy time should not scale with clock: {slow} vs {fast}"
        );
    }

    #[test]
    fn the_game_ends() {
        // A complete game fits in the 218 s trace; afterwards the
        // engine exits and the system goes quiet.
        let mut k = Kernel::new(
            Machine::itsy(10, DeviceSet::LCD),
            KernelConfig {
                duration: SimDuration::from_secs(400),
                ..KernelConfig::default()
            },
        );
        k.spawn(Box::new(CraftyEngine::new(11)));
        let r = k.run();
        // The engine stopped planning well before the end: the last
        // 60 s are fully idle.
        let tail = r.utilization.window(
            sim_core::SimTime::from_secs(340),
            sim_core::SimTime::from_secs(400),
        );
        assert_eq!(tail.mean().unwrap(), 0.0, "engine never exited");
        // And the game took on the order of the paper's 218 s.
        let busy_secs = r.busy.as_secs_f64();
        assert!(
            (40.0..240.0).contains(&busy_secs),
            "planning time {busy_secs}"
        );
    }

    #[test]
    fn ui_reports_interactive_deadlines() {
        let r = run(60);
        let inputs = r
            .deadlines
            .records()
            .iter()
            .filter(|d| d.label == "input")
            .count();
        assert!(inputs > 2, "UI deadlines = {inputs}");
        // At full speed the echo deadline is easy to meet.
        assert_eq!(r.deadlines.misses_of("input", SimDuration::ZERO), 0);
    }
}
