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

/// The deadline outcomes of a run: every record when the log records,
/// and counters either way.
///
/// A recording log keeps one [`DeadlineRecord`] per completion, which
/// the `deadline` and `elastic` experiments read. A counting log keeps
/// only the counters, so its memory does not grow with the run's
/// length; as §5.1 says of the paper's own logging module, "Due to
/// kernel memory limitations, we could only capture a subset of the
/// process behavior". The counters are the completions, in all and per
/// label, the worst lateness, the misses at the log's one tolerance
/// and, when the run has a timeline, those misses per window by
/// completion time.
#[derive(Debug, Clone)]
pub struct DeadlineLog {
    /// Every completion in order; empty unless the log records.
    records: Vec<DeadlineRecord>,
    recording: bool,
    /// The tolerance `misses` counts at.
    tolerance: SimDuration,
    completed: u64,
    misses: u64,
    max_lateness: SimDuration,
    /// Completions per label, in order of each label's first.
    per_label: Vec<(&'static str, u64)>,
    /// Misses per timeline window of `window_us`; empty without a
    /// timeline.
    window_misses: Vec<u64>,
    window_us: u64,
}

impl Default for DeadlineLog {
    /// A recording log that counts misses at 100 ms, the tolerance the
    /// experiments judge deadlines by.
    fn default() -> Self {
        DeadlineLog::new(true, SimDuration::from_millis(100))
    }
}

impl DeadlineLog {
    /// A log that keeps every record if `record` is set, and counts
    /// misses at `tolerance` either way.
    pub fn new(record: bool, tolerance: SimDuration) -> Self {
        DeadlineLog {
            records: Vec::new(),
            recording: record,
            tolerance,
            completed: 0,
            misses: 0,
            max_lateness: SimDuration::ZERO,
            per_label: Vec::new(),
            window_misses: Vec::new(),
            window_us: 1,
        }
    }

    /// Also counts misses per window: `windows` windows of `window_us`
    /// each, a miss in the one it completed in, and one past the last in
    /// the last.
    pub(crate) fn with_windows(mut self, windows: u32, window_us: u64) -> Self {
        self.window_misses = vec![0; windows as usize];
        self.window_us = window_us;
        self
    }

    /// Records a completion.
    pub fn record(&mut self, label: &'static str, due: SimTime, completed: SimTime) {
        let record = DeadlineRecord {
            label,
            due_us: due.as_micros(),
            completed_us: completed.as_micros(),
        };
        self.completed += 1;
        self.max_lateness = self.max_lateness.max(record.lateness());
        // A label is a literal, so the same address usually means the
        // same label, which spares a byte comparison.
        let same = |l: &&str| std::ptr::eq(*l, label) || *l == label;
        match self.per_label.iter_mut().find(|(l, _)| same(l)) {
            Some((_, n)) => *n += 1,
            None => self.per_label.push((label, 1)),
        }
        if !record.met(self.tolerance) {
            self.misses += 1;
            if let Some(last) = self.window_misses.len().checked_sub(1) {
                let window = (record.completed_us / self.window_us) as usize;
                self.window_misses[window.min(last)] += 1;
            }
        }
        if self.recording {
            self.records.push(record);
        }
    }

    /// All records, in completion order; empty unless the log records.
    pub fn records(&self) -> &[DeadlineRecord] {
        &self.records
    }

    /// Number of completions.
    pub fn len(&self) -> usize {
        self.completed as usize
    }

    /// True if nothing completed.
    pub fn is_empty(&self) -> bool {
        self.completed == 0
    }

    /// The tolerance the log counts misses at.
    pub fn tolerance(&self) -> SimDuration {
        self.tolerance
    }

    /// Number of deadlines missed by more than `tolerance`.
    ///
    /// # Panics
    ///
    /// If the log does not record and `tolerance` is not the one it
    /// counts at: a counting log never answers for another.
    pub fn misses(&self, tolerance: SimDuration) -> usize {
        if tolerance == self.tolerance {
            return self.misses as usize;
        }
        self.recorded("misses at another tolerance")
            .iter()
            .filter(|r| !r.met(tolerance))
            .count()
    }

    /// Number of deadlines with the given label missed by more than
    /// `tolerance`.
    ///
    /// # Panics
    ///
    /// If the log does not record.
    pub fn misses_of(&self, label: &str, tolerance: SimDuration) -> usize {
        self.recorded("misses per label")
            .iter()
            .filter(|r| r.label == label && !r.met(tolerance))
            .count()
    }

    /// Completions per label, each label where it first completed.
    pub fn completions(&self) -> &[(&'static str, u64)] {
        &self.per_label
    }

    /// Number of completions with the given label.
    pub fn completions_of(&self, label: &str) -> u64 {
        self.per_label
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |&(_, n)| n)
    }

    /// The worst lateness observed.
    pub fn max_lateness(&self) -> SimDuration {
        self.max_lateness
    }

    /// Misses at the log's tolerance per timeline window, by completion
    /// time; empty without a timeline.
    pub(crate) fn window_misses(&self) -> &[u64] {
        &self.window_misses
    }

    /// The records, for an answer only they hold.
    fn recorded(&self, what: &str) -> &[DeadlineRecord] {
        assert!(
            self.recording,
            "a counting deadline log keeps no records for {what}; it counts misses at {} only",
            self.tolerance
        );
        &self.records
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
    fn a_counting_log_keeps_counters_not_records() {
        let mut log = DeadlineLog::new(false, SimDuration::from_millis(5)).with_windows(2, 100_000);
        log.record("frame", SimTime::from_millis(10), SimTime::from_millis(20));
        log.record("audio", SimTime::from_millis(10), SimTime::from_millis(12));
        log.record(
            "frame",
            SimTime::from_millis(100),
            SimTime::from_millis(300),
        );
        assert!(log.records().is_empty());
        assert_eq!(log.len(), 3);
        assert_eq!(log.completions(), [("frame", 2), ("audio", 1)]);
        assert_eq!(log.completions_of("frame_dropped"), 0);
        assert_eq!(log.max_lateness(), SimDuration::from_millis(200));
        assert_eq!(log.misses(SimDuration::from_millis(5)), 2);
        // One miss in the first window; one past the last lands in it.
        assert_eq!(log.window_misses(), [1, 1]);
    }

    #[test]
    fn a_counting_log_never_answers_for_another_tolerance() {
        let log = DeadlineLog::new(false, SimDuration::from_millis(5));
        for ask in [
            |l: &DeadlineLog| l.misses(SimDuration::ZERO),
            |l: &DeadlineLog| l.misses_of("frame", SimDuration::from_millis(5)),
        ] {
            let asked = std::panic::catch_unwind(|| ask(&log));
            assert!(asked.is_err(), "a counting log answered");
        }
    }

    #[test]
    fn empty_log_max_lateness_is_zero() {
        let log = DeadlineLog::default();
        assert_eq!(log.max_lateness(), SimDuration::ZERO);
        assert_eq!(log.misses(SimDuration::ZERO), 0);
    }
}
