//! Timestamped input-event traces: generation, recording and replay.
//!
//! §4.2: "To capture repeatable behavior for the interactive
//! applications, we used a tracing mechanism that recorded timestamped
//! input events and then allowed us to replay those events with
//! millisecond accuracy." We generate traces deterministically from a
//! seed (there is no human to record), store them in the same
//! timestamp+event form, and replay them the same way every run — the
//! property the paper's methodology needs (their 95 % CIs were < 0.7 %
//! of the mean across replayed runs).

use sim_core::{Rng, SimDuration, SimTime};

use itsy_hw::Work;

/// One user-input event and the computation it triggers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputEvent {
    /// When the event arrives, µs from trace start.
    pub at_us: u64,
    /// The work the application performs in response.
    pub work: Work,
    /// Response deadline relative to the event (µs): the work should
    /// complete within this long for the interaction to feel
    /// instantaneous. Zero means no interactive deadline.
    pub response_us: u64,
}

impl InputEvent {
    /// The event's arrival time.
    pub fn at(&self) -> SimTime {
        SimTime::from_micros(self.at_us)
    }

    /// The absolute completion deadline, if any.
    pub fn due(&self) -> Option<SimTime> {
        (self.response_us > 0).then(|| self.at() + SimDuration::from_micros(self.response_us))
    }
}

/// An ordered input trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InputTrace {
    events: Vec<InputEvent>,
}

impl InputTrace {
    /// Creates an empty trace (for recording).
    pub fn new() -> Self {
        InputTrace::default()
    }

    /// Records an event; events must be appended in time order.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded event.
    pub fn record(&mut self, at: SimTime, work: Work, response: SimDuration) {
        if let Some(last) = self.events.last() {
            assert!(
                at.as_micros() >= last.at_us,
                "trace events must be recorded in order"
            );
        }
        self.events.push(InputEvent {
            at_us: at.as_micros(),
            work,
            response_us: response.as_micros(),
        });
    }

    /// The recorded events.
    pub fn events(&self) -> &[InputEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total trace span (time of the last event).
    pub fn span(&self) -> SimDuration {
        SimDuration::from_micros(self.events.last().map_or(0, |e| e.at_us))
    }

    /// Serialises to the on-disk trace format: one
    /// `at_us cpu_cycles mem_refs cache_lines response_us` line per
    /// event.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                e.at_us, e.work.cpu_cycles, e.work.mem_refs, e.work.cache_lines, e.response_us
            );
        }
        out
    }

    /// Parses the text trace format produced by [`InputTrace::to_text`].
    pub fn from_text(s: &str) -> Result<Self, String> {
        let mut trace = InputTrace::new();
        for (lineno, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(format!("line {}: expected 5 fields", lineno + 1));
            }
            let parse_f = |s: &str| {
                s.parse::<f64>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))
            };
            let parse_u = |s: &str| {
                s.parse::<u64>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))
            };
            trace.record(
                SimTime::from_micros(parse_u(fields[0])?),
                Work::new(
                    parse_f(fields[1])?,
                    parse_f(fields[2])?,
                    parse_f(fields[3])?,
                ),
                SimDuration::from_micros(parse_u(fields[4])?),
            );
        }
        Ok(trace)
    }
}

/// Iterator-style replayer: hands out events once their time arrives.
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    trace: InputTrace,
    next: usize,
}

impl TraceReplayer {
    /// Starts replaying `trace` from the beginning.
    pub fn new(trace: InputTrace) -> Self {
        TraceReplayer { trace, next: 0 }
    }

    /// The next pending event, if any.
    pub fn peek(&self) -> Option<&InputEvent> {
        self.trace.events().get(self.next)
    }

    /// Consumes and returns the next event if it is due at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<InputEvent> {
        match self.peek() {
            Some(e) if e.at() <= now => {
                let e = *e;
                self.next += 1;
                Some(e)
            }
            _ => None,
        }
    }

    /// True once every event has been replayed.
    pub fn exhausted(&self) -> bool {
        self.next >= self.trace.len()
    }
}

/// Builds a randomized browse/edit-style trace: bursts of interaction
/// separated by think time.
///
/// `burst_work_ms` bounds the per-event work (milliseconds at the top
/// clock); `gap_ms` bounds inter-event think time.
pub fn generate_interactive_trace(
    rng: &mut Rng,
    span: SimDuration,
    gap_ms: (u64, u64),
    burst_work_ms: (f64, f64),
    line_share: f64,
    response: SimDuration,
) -> InputTrace {
    let mut t = SimTime::ZERO;
    let mut trace = InputTrace::new();
    loop {
        let gap = SimDuration::from_millis(gap_ms.0 + rng.below(gap_ms.1 - gap_ms.0 + 1));
        t += gap;
        if t.as_micros() > span.as_micros() {
            break;
        }
        let ms = rng.uniform_range(burst_work_ms.0, burst_work_ms.1);
        trace.record(t, crate::work_ms_at_top(ms, line_share), response);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InputTrace {
        let mut t = InputTrace::new();
        t.record(
            SimTime::from_millis(100),
            Work::cycles(1000.0),
            SimDuration::from_millis(300),
        );
        t.record(
            SimTime::from_millis(500),
            Work::cycles(2000.0),
            SimDuration::ZERO,
        );
        t
    }

    #[test]
    fn record_and_inspect() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert_eq!(t.span(), SimDuration::from_millis(500));
        assert_eq!(
            t.events()[0].due(),
            Some(SimTime::from_millis(400)),
            "due = at + response"
        );
        assert_eq!(t.events()[1].due(), None);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_recording_panics() {
        let mut t = sample();
        t.record(SimTime::from_millis(1), Work::ZERO, SimDuration::ZERO);
    }

    #[test]
    fn replay_is_time_gated() {
        let mut r = TraceReplayer::new(sample());
        assert!(r.pop_due(SimTime::from_millis(50)).is_none());
        let e = r.pop_due(SimTime::from_millis(100)).unwrap();
        assert_eq!(e.at(), SimTime::from_millis(100));
        assert!(r.pop_due(SimTime::from_millis(100)).is_none());
        assert!(!r.exhausted());
        assert!(r.pop_due(SimTime::from_secs(10)).is_some());
        assert!(r.exhausted());
    }

    #[test]
    fn text_round_trip() {
        let t = sample();
        let back = InputTrace::from_text(&t.to_text()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn text_parser_rejects_malformed_lines() {
        assert!(InputTrace::from_text("1 2 3").is_err());
        assert!(InputTrace::from_text("a b c d e").is_err());
        // Comments and blank lines are fine.
        let t = InputTrace::from_text("# header\n\n100 10 0 0 0\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn generated_traces_are_deterministic() {
        let mk = || {
            let mut rng = Rng::new(7);
            generate_interactive_trace(
                &mut rng,
                SimDuration::from_secs(10),
                (200, 2_000),
                (5.0, 80.0),
                0.3,
                SimDuration::from_millis(300),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.span() <= SimDuration::from_secs(10));
    }

    #[test]
    fn generated_gaps_respect_bounds() {
        let mut rng = Rng::new(3);
        let t = generate_interactive_trace(
            &mut rng,
            SimDuration::from_secs(30),
            (500, 1_000),
            (1.0, 2.0),
            0.0,
            SimDuration::ZERO,
        );
        let times = t.events().iter().map(|e| e.at_us).collect::<Vec<_>>();
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            assert!((500_000..=1_000_000).contains(&gap), "gap = {gap}us");
        }
    }
}
