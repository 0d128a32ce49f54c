//! Parallel, cache-aware experiment execution.
//!
//! The paper's artifacts are grids of independent simulator runs — a
//! policy sweep is hundreds of cells, each a pure function of its
//! configuration. This crate turns that purity into infrastructure:
//!
//! - [`JobSpec`] describes one run completely and hashes to a stable
//!   [`ContentKey`];
//! - [`Engine`] executes batches of specs on a worker pool (`--jobs`),
//!   with results guaranteed bit-identical for 1 or N workers;
//! - completed cells persist in a content-addressed cache under
//!   `results/cache/`: one append-only record log (`v3.log`) of
//!   CRC-framed records, indexed in memory on first use, where a key's
//!   last record wins. An [`Engine`] holds the index from one batch to
//!   the next and catches it up with the file at each batch's start.
//!   Re-running a sweep only simulates what changed;
//! - a per-batch journal, a record log of the same kind under
//!   `results/state/`, makes interrupted runs resumable (`--resume`)
//!   even when the cache is off;
//! - every run counts what it did once, into the tallies that both its
//!   `metrics.json` and the live page from [`render_prometheus`] read.
//!
//! Experiment harnesses build specs, call [`Engine::run_batch`], and
//! format the returned [`JobResult`]s; they no longer own threading,
//! skipping, or progress reporting.
//!
//! The engine is also hardened against the failures this state
//! implies: the cache and the journal share one record log, with one
//! CRC framing. A damaged cache record is copied to `cache/quarantine/`
//! and recomputed, never served; a torn record in either log is
//! skipped, never misparsed, and the next append ends it with a newline
//! first, so a torn record costs only itself. A panicking job is
//! retried and then reported as a [`JobFailure`] instead of killing the
//! batch. A deterministic fault-injection
//! layer ([`fault`]) exercises all of it on demand — see
//! `--fault-plan` on the `repro` binary.

pub mod cache;
mod engine;
pub mod fault;
mod frame;
pub mod job;
pub mod journal;
pub mod key;
mod live;
mod pool;
pub mod stream;

pub use cache::{CacheProbe, ResultCache};
pub use engine::{BatchOutcome, BatchStats, Engine, EngineConfig, JobFailure};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use job::{HwSpec, JobResult, JobSpec, WorkloadSpec, SIM_VERSION, SUMMARY_SIM_VERSION};
pub use journal::Journal;
pub use kernel_sim::WindowSample;
pub use key::ContentKey;
pub use live::render_prometheus;
pub use stream::{StreamOutcome, StreamStats};
