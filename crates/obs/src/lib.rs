//! Structured observability for the simulator stack.
//!
//! The paper's whole argument rests on being able to *watch* a policy
//! misbehave — the 5 kHz power trace, the kernel's scheduling log, the
//! Fourier analysis of AVG_N's oscillation. This crate is the uniform
//! substrate for that kind of evidence across the workspace:
//!
//! - [`event`] — typed events ([`EventKind`]) collected into a
//!   [`Trace`]. Simulation-domain events (policy decisions, clock and
//!   voltage transitions, quantum boundaries, scheduling picks) carry
//!   *simulated* time and are therefore reproducible bit-for-bit;
//!   engine-domain events (cache hits, job retries) belong to wall
//!   clock and are logged, never exported.
//! - [`logger`] — leveled, machine-readable stderr records replacing
//!   ad-hoc `eprintln!`s. Verbosity is a process-wide switch
//!   ([`set_verbosity`]) that `repro --quiet`/`-v` drives.
//! - [`run_metrics`] — the [`RunMetrics`] summary block written as
//!   `metrics.json` next to each batch's results.
//! - [`export`] — deterministic trace export: merged event streams
//!   ordered by `(sim_time, run, seq)` — never wall clock — rendered
//!   as CSV and Chrome `trace_event` JSON.
//! - [`span`] — hierarchical wall-clock span profiling: scoped RAII
//!   guards recording into per-thread buffers, merged per batch into a
//!   [`SpanTree`] and exportable as a Chrome flame-chart track. Off by
//!   default ([`span::set_enabled`]); `repro --profile` turns it on.
//! - [`registry`] — the live telemetry plane's process-global metric
//!   registry: typed counters/gauges/histograms with static handles,
//!   near-free when disabled, rendered as Prometheus text.
//! - [`exporter`] — the `/metrics` endpoint over a bare
//!   `TcpListener` plus the snapshot thread deriving rate gauges;
//!   `repro --metrics-addr` turns it on.
//! - [`watchdog`] — per-worker heartbeats and the stall watchdog that
//!   warns, live, when a worker stops making progress.
//! - [`host`] — host facts (CPU model, core count, kernel version) and
//!   the process's peak RSS, for provenance and memory reports.

pub mod event;
pub mod export;
pub mod exporter;
pub mod host;
pub mod logger;
pub mod registry;
pub mod run_metrics;
pub mod span;
pub mod watchdog;

pub use event::{Event, EventKind, Trace};
pub use export::{
    export_chrome_json, export_chrome_json_with_spans, export_csv, export_spans_chrome_json,
    merge_traces, MergedEvent,
};
pub use host::{core_count, cpu_model, kernel_version, peak_rss_bytes};
pub use logger::{enabled, set_verbosity, verbosity, Level};
pub use run_metrics::{PolicyMetrics, RunMetrics, StageMetrics};
pub use span::{Profile, SpanGuard, SpanNode, SpanTree, ThreadSpans};
