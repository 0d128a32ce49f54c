//! Kernel logs: scheduler activity and deadline outcomes.

use sim_core::{SimDuration, SimTime};

use crate::task::Pid;

/// One scheduling decision, as the paper's logging module records it:
/// "the process identifier of the process being scheduled, the time at
/// which it was scheduled (with microsecond resolution) and the current
/// clock rate".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedRecord {
    /// Time of the decision, µs.
    pub at_us: u64,
    /// The process scheduled (0 = idle).
    pub pid: Pid,
    /// Clock rate in force, kHz.
    pub clock_khz: u32,
}

/// The scheduler activity log.
///
/// §5.1: "Due to kernel memory limitations, we could only capture a
/// subset of the process behavior" — the log has a capacity; once full
/// it stops recording and counts what it dropped.
#[derive(Debug, Clone, Default)]
pub struct SchedLog {
    records: Vec<SchedRecord>,
    enabled: bool,
    capacity: Option<usize>,
    dropped: u64,
}

impl SchedLog {
    /// Creates a log; `enabled` mirrors the paper's ability to turn
    /// logging on and off (kernel memory was limited).
    pub fn new(enabled: bool) -> Self {
        SchedLog {
            records: Vec::new(),
            enabled,
            capacity: None,
            dropped: 0,
        }
    }

    /// Creates an enabled log bounded to `capacity` records — the
    /// paper's kernel-memory limit.
    pub fn with_capacity(capacity: usize) -> Self {
        SchedLog::bounded(true, Some(capacity))
    }

    /// Creates a log with both knobs explicit. Unlike
    /// [`SchedLog::with_capacity`] this honours `enabled`: a disabled
    /// log records nothing *and counts nothing as dropped* — drops
    /// measure capacity pressure, not the operator's choice to keep
    /// logging off.
    pub fn bounded(enabled: bool, capacity: Option<usize>) -> Self {
        SchedLog {
            records: Vec::new(),
            enabled,
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record if logging is enabled and space remains.
    pub fn record(&mut self, at: SimTime, pid: Pid, clock_khz: u32) {
        if !self.enabled {
            return;
        }
        if let Some(cap) = self.capacity {
            if self.records.len() >= cap {
                self.dropped += 1;
                return;
            }
        }
        self.records.push(SchedRecord {
            at_us: at.as_micros(),
            pid,
            clock_khz,
        });
    }

    /// Records dropped after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All records in time order.
    pub fn records(&self) -> &[SchedRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of decisions that scheduled a non-idle process.
    pub fn non_idle_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let busy = self.records.iter().filter(|r| r.pid != 0).count();
        busy as f64 / self.records.len() as f64
    }
}

/// The outcome of one deadline-bearing piece of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineRecord {
    /// What kind of work (e.g. `frame`, `audio`, `speech`).
    pub label: &'static str,
    /// When it was due, µs.
    pub due_us: u64,
    /// When it completed, µs.
    pub completed_us: u64,
}

impl DeadlineRecord {
    /// How late the work completed (zero if on time).
    pub fn lateness(&self) -> SimDuration {
        SimDuration::from_micros(self.completed_us.saturating_sub(self.due_us))
    }

    /// True if completion was within `tolerance` of the due time.
    pub fn met(&self, tolerance: SimDuration) -> bool {
        self.lateness() <= tolerance
    }
}

/// All deadline outcomes of a run.
#[derive(Debug, Clone, Default)]
pub struct DeadlineLog {
    records: Vec<DeadlineRecord>,
}

impl DeadlineLog {
    /// Records a completion.
    pub fn record(&mut self, label: &'static str, due: SimTime, completed: SimTime) {
        self.records.push(DeadlineRecord {
            label,
            due_us: due.as_micros(),
            completed_us: completed.as_micros(),
        });
    }

    /// All records.
    pub fn records(&self) -> &[DeadlineRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of deadlines missed by more than `tolerance`.
    pub fn misses(&self, tolerance: SimDuration) -> usize {
        self.records.iter().filter(|r| !r.met(tolerance)).count()
    }

    /// Number of deadlines with the given label missed by more than
    /// `tolerance`.
    pub fn misses_of(&self, label: &str, tolerance: SimDuration) -> usize {
        self.records
            .iter()
            .filter(|r| r.label == label && !r.met(tolerance))
            .count()
    }

    /// The worst lateness observed.
    pub fn max_lateness(&self) -> SimDuration {
        self.records
            .iter()
            .map(|r| r.lateness())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SchedLog::new(false);
        log.record(SimTime::from_micros(1), 3, 59_000);
        assert!(log.is_empty());
    }

    #[test]
    fn enabled_log_accumulates() {
        let mut log = SchedLog::new(true);
        log.record(SimTime::from_micros(1), 0, 59_000);
        log.record(SimTime::from_micros(2), 5, 206_400);
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[1].pid, 5);
        assert!((log.non_idle_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_bounded_log_never_counts_drops() {
        // Regression: a disabled log must not attribute the records it
        // ignores to capacity pressure, even when a capacity is set.
        let mut log = SchedLog::bounded(false, Some(1));
        for i in 0..10 {
            log.record(SimTime::from_micros(i), 1, 59_000);
        }
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0, "disabled is not dropping");
        // The same traffic through an enabled bounded log does drop.
        let mut log = SchedLog::bounded(true, Some(1));
        for i in 0..10 {
            log.record(SimTime::from_micros(i), 1, 59_000);
        }
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 9);
    }

    #[test]
    fn capacity_limit_drops_but_counts() {
        let mut log = SchedLog::with_capacity(2);
        for i in 0..5 {
            log.record(SimTime::from_micros(i), 1, 59_000);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        // The captured prefix is intact.
        assert_eq!(log.records()[0].at_us, 0);
        assert_eq!(log.records()[1].at_us, 1);
    }

    #[test]
    fn deadline_lateness_and_tolerance() {
        let mut log = DeadlineLog::default();
        log.record(
            "frame",
            SimTime::from_millis(100),
            SimTime::from_millis(101),
        );
        log.record(
            "frame",
            SimTime::from_millis(200),
            SimTime::from_millis(195),
        );
        let r = &log.records()[0];
        assert_eq!(r.lateness().as_micros(), 1_000);
        assert!(r.met(SimDuration::from_millis(5)));
        assert!(!r.met(SimDuration::from_micros(500)));
        // Early completion is never a miss.
        assert!(log.records()[1].met(SimDuration::ZERO));
        assert_eq!(log.misses(SimDuration::ZERO), 1);
        assert_eq!(log.misses(SimDuration::from_millis(5)), 0);
        assert_eq!(log.max_lateness().as_micros(), 1_000);
    }

    #[test]
    fn misses_by_label() {
        let mut log = DeadlineLog::default();
        log.record("frame", SimTime::from_millis(10), SimTime::from_millis(20));
        log.record("audio", SimTime::from_millis(10), SimTime::from_millis(10));
        assert_eq!(log.misses_of("frame", SimDuration::ZERO), 1);
        assert_eq!(log.misses_of("audio", SimDuration::ZERO), 0);
    }

    #[test]
    fn empty_log_max_lateness_is_zero() {
        let log = DeadlineLog::default();
        assert_eq!(log.max_lateness(), SimDuration::ZERO);
        assert_eq!(log.misses(SimDuration::ZERO), 0);
    }
}
