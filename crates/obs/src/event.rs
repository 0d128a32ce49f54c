//! Typed events and the per-run trace that collects them.
//!
//! Every event is a simulation event: it happens at a simulated instant
//! and is a deterministic function of a job spec — quantum boundaries,
//! policy decisions, clock/voltage transitions, scheduling picks. They
//! are collected in a [`Trace`] and exported by `repro trace`.
//! Engine happenings (cache probes, job lifecycle) carry no meaningful
//! sim time, so they are *logged* (see [`crate::logger`]) and counted in
//! metrics, never traced; that split is what keeps exports
//! byte-identical across cold/warm cache and any `--jobs` count.

use std::fmt;

/// One typed field of an event, for uniform CSV/JSON rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An unsigned count or id.
    U64(u64),
    /// A measurement; rendered with fixed precision so output is
    /// byte-stable.
    F64(f64),
    /// A short token (never free text).
    Text(String),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::U64(v) => write!(f, "{v}"),
            Field::F64(v) => write!(f, "{v:.6}"),
            Field::Text(s) => f.write_str(s),
        }
    }
}

fn opt_step(step: Option<u64>) -> Field {
    match step {
        Some(s) => Field::U64(s),
        None => Field::Text("hold".to_string()),
    }
}

/// What happened in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A scheduling quantum ended with this measured utilization.
    QuantumBoundary {
        /// Busy fraction of the quantum that just ended.
        utilization: f64,
    },
    /// The policy module ran from the timer interrupt.
    PolicyDecision {
        /// Raw utilization the policy observed.
        utilization: f64,
        /// The predictor's weighted utilization after observing it.
        weighted: f64,
        /// Clock step in force when the policy ran.
        from_step: u64,
        /// Step the policy requested; `None` means hold.
        to_step: Option<u64>,
        /// Core voltage requested, mV; `None` means hold.
        to_mv: Option<u64>,
    },
    /// The core changed clock step.
    ClockTransition {
        /// Previous frequency, kHz.
        from_khz: u64,
        /// New frequency, kHz.
        to_khz: u64,
        /// Re-lock stall charged, µs.
        stall_us: u64,
    },
    /// The core changed supply voltage.
    VoltageTransition {
        /// Previous voltage, mV.
        from_mv: u64,
        /// New voltage, mV.
        to_mv: u64,
        /// Settle time charged (lowering only), µs.
        settle_us: u64,
    },
    /// The scheduler picked a process (0 = idle).
    Schedule {
        /// Process scheduled.
        pid: u64,
        /// Clock rate in force, kHz.
        clock_khz: u64,
    },
}

impl EventKind {
    /// Stable snake_case event name (the CSV `event` column and Chrome
    /// trace name).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QuantumBoundary { .. } => "quantum",
            EventKind::PolicyDecision { .. } => "policy",
            EventKind::ClockTransition { .. } => "clock",
            EventKind::VoltageTransition { .. } => "voltage",
            EventKind::Schedule { .. } => "sched",
        }
    }

    /// The event's payload in fixed field order.
    pub fn fields(&self) -> Vec<(&'static str, Field)> {
        match self {
            EventKind::QuantumBoundary { utilization } => {
                vec![("utilization", Field::F64(*utilization))]
            }
            EventKind::PolicyDecision {
                utilization,
                weighted,
                from_step,
                to_step,
                to_mv,
            } => vec![
                ("utilization", Field::F64(*utilization)),
                ("weighted", Field::F64(*weighted)),
                ("from_step", Field::U64(*from_step)),
                ("to_step", opt_step(*to_step)),
                ("to_mv", opt_step(*to_mv)),
            ],
            EventKind::ClockTransition {
                from_khz,
                to_khz,
                stall_us,
            } => vec![
                ("from_khz", Field::U64(*from_khz)),
                ("to_khz", Field::U64(*to_khz)),
                ("stall_us", Field::U64(*stall_us)),
            ],
            EventKind::VoltageTransition {
                from_mv,
                to_mv,
                settle_us,
            } => vec![
                ("from_mv", Field::U64(*from_mv)),
                ("to_mv", Field::U64(*to_mv)),
                ("settle_us", Field::U64(*settle_us)),
            ],
            EventKind::Schedule { pid, clock_khz } => vec![
                ("pid", Field::U64(*pid)),
                ("clock_khz", Field::U64(*clock_khz)),
            ],
        }
    }

    /// The payload as space-separated `key=value` pairs — the log-record
    /// and CSV `detail` rendering.
    pub fn detail(&self) -> String {
        let fields = self.fields();
        let mut out = String::new();
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        out
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name(), self.detail())
    }
}

/// One event at a simulated instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time of the event, µs.
    pub time_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A per-run event collector.
///
/// A disabled trace ([`Trace::off`]) makes [`Trace::emit`] a no-op, so
/// instrumented code paths cost one branch when tracing is off — the
/// kernel's hot loop stays clean for the bench gate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    enabled: bool,
    events: Vec<Event>,
}

impl Trace {
    /// A collecting trace.
    pub fn on() -> Self {
        Trace {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// A no-op trace.
    pub fn off() -> Self {
        Trace::default()
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event at simulated time `time_us` (no-op when
    /// disabled). Callers append in nondecreasing sim-time order; the
    /// insertion index is the tiebreak for equal times at export.
    #[inline]
    pub fn emit(&mut self, time_us: u64, kind: EventKind) {
        if self.enabled {
            self.events.push(Event { time_us, kind });
        }
    }

    /// The collected events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_collects_nothing() {
        let mut t = Trace::off();
        t.emit(5, EventKind::QuantumBoundary { utilization: 1.0 });
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_preserves_order() {
        let mut t = Trace::on();
        t.emit(10, EventKind::QuantumBoundary { utilization: 0.5 });
        t.emit(
            10,
            EventKind::Schedule {
                pid: 1,
                clock_khz: 59_000,
            },
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].kind.name(), "quantum");
        assert_eq!(t.events()[1].kind.name(), "sched");
    }

    #[test]
    fn detail_is_fixed_precision_and_ordered() {
        let k = EventKind::PolicyDecision {
            utilization: 0.5,
            weighted: 1.0 / 3.0,
            from_step: 10,
            to_step: None,
            to_mv: Some(1500),
        };
        assert_eq!(
            k.detail(),
            "utilization=0.500000 weighted=0.333333 from_step=10 to_step=hold to_mv=1500"
        );
        assert_eq!(k.to_string(), format!("policy {}", k.detail()));
    }

    #[test]
    fn every_kind_has_name_and_fields() {
        let kinds = vec![
            EventKind::QuantumBoundary { utilization: 1.0 },
            EventKind::PolicyDecision {
                utilization: 1.0,
                weighted: 1.0,
                from_step: 0,
                to_step: Some(10),
                to_mv: None,
            },
            EventKind::ClockTransition {
                from_khz: 59_000,
                to_khz: 206_400,
                stall_us: 200,
            },
            EventKind::VoltageTransition {
                from_mv: 1500,
                to_mv: 1230,
                settle_us: 250,
            },
            EventKind::Schedule {
                pid: 0,
                clock_khz: 59_000,
            },
        ];
        let mut names = std::collections::BTreeSet::new();
        for k in &kinds {
            assert!(!k.fields().is_empty(), "{} has fields", k.name());
            names.insert(k.name());
        }
        assert_eq!(names.len(), kinds.len(), "names are distinct");
    }
}
