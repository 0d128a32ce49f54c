//! The unit of computational demand: CPU cycles plus memory traffic.
//!
//! A [`Work`] quantum describes a burst of computation as a mix of pure
//! ALU cycles, individual word reads and cache-line fills. Its execution
//! *time* depends on the clock step, because the memory components cost
//! more core cycles at higher frequencies ([`MemoryTiming`]); this is the
//! mechanism behind the paper's Figure 9 ("processor utilization does not
//! always vary linearly with clock frequency").
//!
//! Components are `f64` so that work can be split at arbitrary event
//! boundaries (a policy may change the clock mid-burst) without
//! accumulating rounding debt.

use sim_core::round::ceil_u64;
use sim_core::{Frequency, SimDuration};

use crate::clock::StepIndex;
use crate::memory::MemoryTiming;

/// A quantum of computational demand.
///
/// # Examples
///
/// Memory-bound work speeds up sub-linearly with the clock (Table 3):
///
/// ```
/// use itsy_hw::{ClockTable, MemoryTiming, Work};
///
/// let table = ClockTable::sa1100();
/// let mem = MemoryTiming::sa1100_edo();
/// let w = Work::new(1.0e6, 0.0, 50_000.0); // CPU cycles + cache-line fills
/// let slow = w.time_at(0, table.freq(0), &mem);
/// let fast = w.time_at(10, table.freq(10), &mem);
/// let speedup = slow.as_micros() as f64 / fast.as_micros() as f64;
/// assert!(speedup < 3.5, "3.5x clock gives only {speedup:.2}x");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Work {
    /// Pure CPU cycles (frequency-independent cycle count).
    pub cpu_cycles: f64,
    /// Individual word reads that miss the cache.
    pub mem_refs: f64,
    /// Full cache-line fills.
    pub cache_lines: f64,
}

/// Result of running a [`Work`] quantum for a bounded duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkProgress {
    /// The work finished, taking the contained time (≤ the budget).
    Completed(SimDuration),
    /// The budget elapsed; the contained work remains.
    Remaining(Work),
}

impl Work {
    /// No work at all.
    pub const ZERO: Work = Work {
        cpu_cycles: 0.0,
        mem_refs: 0.0,
        cache_lines: 0.0,
    };

    /// Pure-CPU work of the given cycle count.
    pub fn cycles(cpu_cycles: f64) -> Self {
        Work {
            cpu_cycles,
            ..Work::ZERO
        }
    }

    /// Work with both CPU cycles and memory traffic.
    pub fn new(cpu_cycles: f64, mem_refs: f64, cache_lines: f64) -> Self {
        debug_assert!(cpu_cycles >= 0.0 && mem_refs >= 0.0 && cache_lines >= 0.0);
        Work {
            cpu_cycles,
            mem_refs,
            cache_lines,
        }
    }

    /// True if no demand remains (under a small epsilon to absorb f64
    /// splitting residue).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.total_raw() < 1e-6
    }

    fn total_raw(&self) -> f64 {
        self.cpu_cycles + self.mem_refs + self.cache_lines
    }

    /// Total core cycles this work occupies at clock step `step`.
    #[inline]
    pub fn total_cycles(&self, step: StepIndex, mem: &MemoryTiming) -> f64 {
        self.cpu_cycles
            + self.mem_refs * mem.word_cycles(step) as f64
            + self.cache_lines * mem.line_cycles(step) as f64
    }

    /// Wall-clock time this work takes at step `step` running at `f`,
    /// rounded up to the next microsecond.
    #[inline]
    pub fn time_at(&self, step: StepIndex, f: Frequency, mem: &MemoryTiming) -> SimDuration {
        let cycles = self.total_cycles(step, mem);
        if cycles <= 0.0 {
            return SimDuration::ZERO;
        }
        let us = cycles * 1_000.0 / f.as_khz() as f64;
        SimDuration::from_micros(ceil_u64(us))
    }

    /// Scales every component by `q`.
    #[inline]
    pub fn scaled(&self, q: f64) -> Work {
        Work {
            cpu_cycles: self.cpu_cycles * q,
            mem_refs: self.mem_refs * q,
            cache_lines: self.cache_lines * q,
        }
    }

    /// Adds two quanta component-wise.
    #[inline]
    pub fn plus(&self, other: Work) -> Work {
        Work {
            cpu_cycles: self.cpu_cycles + other.cpu_cycles,
            mem_refs: self.mem_refs + other.mem_refs,
            cache_lines: self.cache_lines + other.cache_lines,
        }
    }

    /// Runs this work at step `step`/frequency `f` for at most `budget`.
    ///
    /// The work is treated as a homogeneous mix: a fraction of the budget
    /// consumes the same fraction of every component. Returns either the
    /// (exact, rounded-up-to-µs) completion time or the unconsumed
    /// remainder.
    #[inline]
    pub fn execute_for(
        &self,
        budget: SimDuration,
        step: StepIndex,
        f: Frequency,
        mem: &MemoryTiming,
    ) -> WorkProgress {
        let needed = self.time_at(step, f, mem);
        if needed <= budget {
            return WorkProgress::Completed(needed);
        }
        if budget.is_zero() {
            return WorkProgress::Remaining(*self);
        }
        let q_done = budget.as_micros() as f64 / needed.as_micros() as f64;
        WorkProgress::Remaining(self.scaled(1.0 - q_done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockTable;

    fn setup() -> (ClockTable, MemoryTiming) {
        (ClockTable::sa1100(), MemoryTiming::sa1100_edo())
    }

    #[test]
    fn pure_cpu_time_scales_inversely_with_frequency() {
        let (t, m) = setup();
        let w = Work::cycles(59_000_000.0); // 1 s at 59 MHz.
        assert_eq!(w.time_at(0, t.freq(0), &m).as_micros(), 1_000_000);
        // At 118 MHz (exactly 2x), half the time.
        assert_eq!(w.time_at(4, t.freq(4), &m).as_micros(), 500_000);
    }

    #[test]
    fn memory_heavy_work_scales_sublinearly() {
        let (t, m) = setup();
        // All cache-line fills: 39 cycles each at 59 MHz, 69 at 206.4.
        let w = Work::new(0.0, 0.0, 1_000_000.0);
        let slow = w.time_at(0, t.freq(0), &m).as_micros() as f64;
        let fast = w.time_at(10, t.freq(10), &m).as_micros() as f64;
        let speedup = slow / fast;
        let freq_ratio = 206.4 / 59.0; // 3.5x
        assert!(speedup < freq_ratio * 0.6, "speedup = {speedup}");
        // But still faster in absolute terms.
        assert!(fast < slow);
    }

    #[test]
    fn total_cycles_uses_table3() {
        let (_, m) = setup();
        let w = Work::new(100.0, 10.0, 1.0);
        // Step 0: 100 + 10*11 + 1*39 = 249.
        assert!((w.total_cycles(0, &m) - 249.0).abs() < 1e-9);
        // Step 10: 100 + 10*20 + 1*69 = 369.
        assert!((w.total_cycles(10, &m) - 369.0).abs() < 1e-9);
    }

    #[test]
    fn execute_within_budget_completes() {
        let (t, m) = setup();
        let w = Work::cycles(59_000.0); // 1 ms at 59 MHz.
        match w.execute_for(SimDuration::from_millis(10), 0, t.freq(0), &m) {
            WorkProgress::Completed(d) => assert_eq!(d.as_micros(), 1_000),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn execute_over_budget_conserves_work() {
        let (t, m) = setup();
        let w = Work::new(59_000_000.0, 1_000.0, 500.0); // ~1 s at 59 MHz.
        let budget = SimDuration::from_millis(400);
        match w.execute_for(budget, 0, t.freq(0), &m) {
            WorkProgress::Remaining(rest) => {
                // Remaining fraction should equal 1 - budget/needed.
                let needed = w.time_at(0, t.freq(0), &m).as_micros() as f64;
                let expect_q = 1.0 - 400_000.0 / needed;
                assert!((rest.cpu_cycles / w.cpu_cycles - expect_q).abs() < 1e-9);
                assert!((rest.mem_refs / w.mem_refs - expect_q).abs() < 1e-9);
                // Running the remainder takes needed - budget (±1 us of
                // rounding).
                let rest_t = rest.time_at(0, t.freq(0), &m).as_micros() as i64;
                assert!((rest_t - (needed as i64 - 400_000)).abs() <= 1);
            }
            other => panic!("expected remainder, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_returns_everything() {
        let (t, m) = setup();
        let w = Work::cycles(1000.0);
        match w.execute_for(SimDuration::ZERO, 0, t.freq(0), &m) {
            WorkProgress::Remaining(rest) => assert_eq!(rest, w),
            other => panic!("expected remainder, got {other:?}"),
        }
    }

    #[test]
    fn zero_work_takes_zero_time() {
        let (t, m) = setup();
        assert_eq!(Work::ZERO.time_at(0, t.freq(0), &m), SimDuration::ZERO);
        assert!(Work::ZERO.is_zero());
    }

    #[test]
    fn scaled_and_plus() {
        let w = Work::new(100.0, 20.0, 4.0);
        let half = w.scaled(0.5);
        assert_eq!(half.cpu_cycles, 50.0);
        let sum = half.plus(half);
        assert!((sum.cpu_cycles - w.cpu_cycles).abs() < 1e-12);
        assert!((sum.mem_refs - w.mem_refs).abs() < 1e-12);
    }
}
