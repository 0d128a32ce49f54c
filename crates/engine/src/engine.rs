//! The batch executor: worker pool + cache + journal + progress.
//!
//! [`Engine::run_batch`] takes a named list of [`JobSpec`]s and returns
//! one outcome per spec, in spec order. Three layers may satisfy a
//! cell before a simulator runs:
//!
//! 1. the batch journal (when resuming an interrupted run),
//! 2. the content-addressed cache (unless disabled), which the engine
//!    holds with its log's index from one batch to the next, catching
//!    the index up with the file at each batch's start,
//! 3. the worker pool, which simulates whatever is left.
//!
//! The first two are looked up in one up-front pass, spread over one
//! thread per [`CELLS_PER_PROBE_THREAD`] cells, up to as many as the
//! batch has workers; each thread reads the log through its own reader
//! and writes its cells' keys and reused results into their slots.
//! Whatever writes a file or depends on the order of cells
//! (quarantines, journal backfills) runs on the calling thread after
//! the pass, in cell order, so a batch's outcome, counts, fault draws
//! and files do not depend on how many threads probed.
//!
//! Results land in a slot vector indexed by submission order, so output
//! is a pure function of the specs — never of worker count or of which
//! worker finished first. The pool (shared with [`Engine::run_stream`])
//! sends each completion over a *bounded* channel to the calling
//! thread, which is the only thread that writes the cache and the
//! journal, and the simulated results' slots; workers just simulate and
//! send. The bound keeps completed-but-unwritten results from piling up
//! faster than the disk absorbs them.
//!
//! # Failure containment
//!
//! A panicking job is caught (`catch_unwind`) inside its worker,
//! retried up to [`EngineConfig::max_retries`] times, and — if it
//! never succeeds — reported as a [`JobFailure`] in its result slot.
//! One bad cell therefore costs one cell, not the batch: every other
//! cell completes, is cached and journaled as usual, and the journal
//! is *kept* (instead of deleted on completion) so `--resume` can
//! retry just the failures. Worker threads that die outside the
//! catch-unwind fence are detected at join and their in-flight cell is
//! reported failed rather than aborting the process.
//!
//! All of this is testable on demand: an [`EngineConfig::faults`] plan
//! injects seeded cache corruption, torn journal writes and worker
//! panics at content-addressed decision points (see [`crate::fault`]),
//! and the chaos suite asserts the engine's output is bit-identical to
//! a fault-free run.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use obs::RunMetrics;

use crate::cache::{read_checked, ResultCache};
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::frame::{Log, Reader};
use crate::job::{JobResult, JobSpec};
use crate::journal::Journal;
use crate::key::ContentKey;
use crate::live;
use crate::pool::{Tally, PROGRESS_INTERVAL};

/// The most cells the up-front pass gives one probing thread before it
/// starts another. Timed on a warm batch at two workers (DESIGN.md
/// §10), one thread served a cell in about 1.9 µs; a second thread cut
/// that to about 1.2 µs but added about 30 µs to start and join, and
/// the two took the same time at 40 to 60 cells. So a batch of at most
/// 40 cells probes on the calling thread alone, and one of more than
/// `40 (t − 1)` cells on `t` threads.
const CELLS_PER_PROBE_THREAD: usize = 40;

/// The threads the up-front pass runs on for `cells` cells at `workers`
/// workers: one per [`CELLS_PER_PROBE_THREAD`] cells, rounded up, and
/// at most `workers`. A batch under an active fault plan probes on one,
/// so that a key that repeats draws its faults in cell order.
fn probe_threads(cells: usize, workers: usize, faults: &FaultInjector) -> usize {
    if faults.is_active() {
        1
    } else {
        cells.div_ceil(CELLS_PER_PROBE_THREAD).min(workers).max(1)
    }
}

/// How a batch should be executed.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Consult and populate the on-disk result cache.
    pub use_cache: bool,
    /// Replay this batch's journal before running anything.
    pub resume: bool,
    /// Root for engine state (`<root>/cache`, `<root>/state`).
    /// Defaults to the repro results directory.
    pub state_root: Option<PathBuf>,
    /// Emit progress / throughput lines on stderr.
    pub progress: bool,
    /// Re-run a panicking job this many times before reporting it
    /// failed. Two retries tolerate the chaos suite's worst case
    /// (`max_panics=2`) and cost nothing on healthy runs.
    pub max_retries: u32,
    /// Deterministic fault plan to run the batch under; `None` (the
    /// default everywhere outside chaos tests) injects nothing.
    pub faults: Option<FaultPlan>,
    /// Write the batch's [`RunMetrics`] as `metrics.json` under
    /// `<state_root>/<batch>/`. Off by default (hermetic tests leave no
    /// files behind); the `repro` binary turns it on.
    pub write_metrics: bool,
    /// Number of sim-time windows each streamed job's trajectory is
    /// folded into (see [`kernel_sim::KernelConfig::timeline_windows`]).
    /// `0` (the default) disables the timeline; `repro fleet` turns it
    /// on to produce `fleet_timeline.csv`. Only `run_stream` consumes
    /// it — the batch path's cached results must stay
    /// timeline-independent.
    pub timeline_windows: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            use_cache: true,
            resume: false,
            state_root: None,
            progress: false,
            max_retries: 2,
            faults: None,
            write_metrics: false,
            timeline_windows: 0,
        }
    }
}

impl EngineConfig {
    /// Config for unit tests and benches: sequential, no disk state,
    /// no output.
    pub fn hermetic() -> Self {
        EngineConfig {
            jobs: 1,
            use_cache: false,
            ..Self::default()
        }
    }

    /// Config for library callers: all cores, no disk state, no
    /// output. This is what `experiments::*::run()` uses so that test
    /// suites stay hermetic; the `repro` binary opts into cache,
    /// resume and progress explicitly.
    pub fn in_memory() -> Self {
        EngineConfig {
            jobs: 0,
            ..Self::hermetic()
        }
    }
}

/// What a batch cost and where its results came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Cells requested.
    pub total: usize,
    /// Cells served from the result cache.
    pub cache_hits: usize,
    /// Cells served from an interrupted run's journal.
    pub journal_hits: usize,
    /// Cells successfully simulated.
    pub executed: usize,
    /// Cells that exhausted their retry budget and produced no result.
    pub failed: usize,
    /// Damaged cache entries quarantined (and recomputed) this batch.
    pub quarantined: usize,
    /// Worker threads used (0 when nothing needed executing).
    pub workers: usize,
    /// Wall-clock time for the whole batch, µs.
    pub elapsed_us: u64,
}

/// Why one cell produced no result.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Position of the failed spec in the submitted batch.
    pub index: usize,
    /// The spec's content key (feed to `--fault-plan` forensics).
    pub key: ContentKey,
    /// Human-readable spec label.
    pub label: String,
    /// Execution attempts made (1 + retries).
    pub attempts: u32,
    /// The final attempt's panic message.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell #{} ({}, key {}) failed after {} attempt(s): {}",
            self.index, self.label, self.key, self.attempts, self.message
        )
    }
}

/// Results plus accounting for one batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One outcome per input spec, in input order. `Err` slots carry
    /// the failure report for cells that exhausted their retries.
    pub results: Vec<Result<JobResult, JobFailure>>,
    /// Where they came from and what they cost.
    pub stats: BatchStats,
    /// Faults the configured plan actually injected (all zero when
    /// running without a plan).
    pub faults: FaultStats,
    /// Aggregated observability metrics for the batch (also written as
    /// `metrics.json` when [`EngineConfig::write_metrics`] is set).
    pub metrics: RunMetrics,
}

impl BatchOutcome {
    /// The failure reports, in batch order.
    pub fn failures(&self) -> Vec<&JobFailure> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// Unwraps every result, panicking with a consolidated report if
    /// any cell failed. Callers that can degrade cell-by-cell should
    /// match on `results` instead; callers that need the whole grid
    /// (every completed cell is already cached/journaled, so a re-run
    /// is cheap) use this.
    pub fn expect_all(self) -> Vec<JobResult> {
        let failures = self.failures();
        if !failures.is_empty() {
            let report: Vec<String> = failures.iter().map(|f| f.to_string()).collect();
            panic!(
                "{} of {} jobs failed (completed cells are cached; re-run to retry):\n  {}",
                report.len(),
                self.results.len(),
                report.join("\n  ")
            );
        }
        self.results
            .into_iter()
            .map(|r| r.expect("no failures"))
            .collect()
    }
}

/// The parallel, cache-aware experiment executor.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    /// The result cache of the last batch's cache directory, held with
    /// its log's index, window and buffers from one batch to the next.
    cache: Mutex<Option<Arc<ResultCache>>>,
}

impl Clone for Engine {
    /// An engine with the same configuration; its first batch opens its
    /// own cache.
    fn clone(&self) -> Self {
        Engine::new(self.config.clone())
    }
}

/// A cell whose up-front lookup leaves work that writes, which the
/// calling thread does after the pass, in cell order.
enum Deferred {
    /// A journal hit: the cache is backfilled with it.
    Backfill,
    /// A cache record that failed validation: its bytes, to quarantine.
    Quarantine(Vec<u8>),
}

/// A contiguous run of a batch's cells: the index of the first, and the
/// cells' specs and the slots for their keys and results.
type Run<'a> = (
    usize,
    &'a [JobSpec],
    &'a mut [ContentKey],
    &'a mut [Option<Result<JobResult, JobFailure>>],
);

/// One probing thread's own state in the up-front pass.
#[derive(Default)]
struct Prober {
    /// The canonical string of the cell at hand, from which its key is
    /// derived once. Every cell the thread takes reuses the buffer; a
    /// cell left to simulate writes its string again when it is stored,
    /// since holding every pending cell's string for the whole batch
    /// would cost more memory than the formatting costs time.
    canonical: String,
    /// The thread's reads of the cache log.
    reader: Reader,
    /// Keys whose record this thread found damaged: a later cell of one
    /// is a miss that draws no fault, as after a serial quarantine.
    damaged: Vec<ContentKey>,
    /// The reused results, counted.
    tally: Tally,
    /// The cells left to the calling thread, in cell order.
    deferred: Vec<(usize, Deferred)>,
}

impl Prober {
    /// Settles one run of cells: each cell's key, and its result if the
    /// journal or the cache holds one.
    fn settle(
        &mut self,
        (at, specs, keys, slots): Run,
        journaled: &HashMap<ContentKey, JobResult>,
        log: Option<&Log>,
        faults: &FaultInjector,
    ) {
        let cells = specs.iter().zip(keys).zip(slots);
        for (i, ((spec, key), slot)) in (at..).zip(cells) {
            self.canonical.clear();
            spec.write_canonical(&mut self.canonical);
            *key = ContentKey::of(&self.canonical);
            let hit = if let Some(&r) = journaled.get(key) {
                self.tally.journal_hits += 1;
                self.deferred.push((i, Deferred::Backfill));
                Some(r)
            } else {
                let found = match log {
                    Some(log) if !self.damaged.contains(key) => {
                        read_checked(log, &mut self.reader, *key, &self.canonical, faults)
                    }
                    _ => None,
                };
                match found {
                    Some(Ok(r)) => {
                        self.tally.cache_hits += 1;
                        obs::debug!("engine: cache_hit key={key}");
                        Some(r)
                    }
                    Some(Err(bytes)) => {
                        self.damaged.push(*key);
                        self.deferred
                            .push((i, Deferred::Quarantine(bytes.to_vec())));
                        None
                    }
                    None => {
                        if log.is_some() {
                            obs::debug!("engine: cache_miss key={key}");
                        }
                        None
                    }
                }
            };
            if let Some(r) = &hit {
                self.tally.record(spec, r);
            }
            *slot = hit.map(Ok);
        }
    }
}

/// What the up-front pass settled: every cell's key, the results it
/// reused, the cells left to the calling thread and the reused results'
/// tally.
struct Settled {
    keys: Vec<ContentKey>,
    slots: Vec<Option<Result<JobResult, JobFailure>>>,
    deferred: Vec<(usize, Deferred)>,
    tally: Tally,
}

/// Best-effort text from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            cache: Mutex::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Worker count after resolving `jobs = 0` to the machine's
    /// available parallelism.
    pub fn worker_count(&self) -> usize {
        if self.config.jobs > 0 {
            self.config.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Root directory for cache, journal and metrics state.
    pub(crate) fn state_root(&self) -> PathBuf {
        self.config.state_root.clone().unwrap_or_else(|| {
            std::env::var_os("REPRO_RESULTS_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("results"))
        })
    }

    /// The cache at `dir`: the one the last batch used if it was there,
    /// its index caught up with the file, and a new one otherwise.
    fn cache_at(&self, dir: PathBuf) -> Arc<ResultCache> {
        // The slot holds a whole cache or none at every step, so a lock
        // poisoned by a panicking batch is recovered.
        let mut held = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        match held.as_ref().filter(|c| c.dir() == dir) {
            Some(cache) => {
                cache.catch_up();
                Arc::clone(cache)
            }
            None => Arc::clone(held.insert(Arc::new(ResultCache::new(dir)))),
        }
    }

    /// The up-front pass over a batch's cells: each cell's canonical
    /// string and key, its journal lookup and, given the cache's `log`,
    /// its cache probe up to validation, with the reused results
    /// counted. It runs on [`probe_threads`] threads, the calling
    /// thread and scoped helpers, each with its own canonical buffer,
    /// reader and tally. A thread takes the next contiguous run of
    /// cells, a `1/threads` share of those not yet taken, until none are
    /// left, so a helper that starts late takes less. Nothing here
    /// writes a file or depends on which thread took which cell: the
    /// caller quarantines, backfills and publishes afterwards, in cell
    /// order.
    fn settle(
        &self,
        specs: &[JobSpec],
        journaled: &HashMap<ContentKey, JobResult>,
        log: Option<&Log>,
        faults: &FaultInjector,
    ) -> Settled {
        let threads = probe_threads(specs.len(), self.worker_count(), faults);
        let mut keys = vec![ContentKey(0); specs.len()];
        let mut slots = Vec::with_capacity(specs.len());
        slots.resize_with(specs.len(), || None);
        let rest: Mutex<Run> = Mutex::new((0, specs, &mut keys, &mut slots));
        let take = || {
            let mut rest = rest.lock().unwrap_or_else(PoisonError::into_inner);
            let (at, specs, keys, slots) = std::mem::take(&mut *rest);
            let n = specs.len().div_ceil(threads);
            let ((run, specs), (run_keys, keys)) = (specs.split_at(n), keys.split_at_mut(n));
            let (run_slots, slots) = slots.split_at_mut(n);
            *rest = (at + n, specs, keys, slots);
            (n > 0).then_some((at, run, run_keys, run_slots))
        };
        let probe = || {
            let mut prober = Prober::default();
            while let Some(run) = take() {
                prober.settle(run, journaled, log, faults);
            }
            (prober.tally, prober.deferred)
        };
        // Helpers hand their counts back through `finished`, not their
        // join handles, so the scope ends when their work does rather
        // than when their threads have exited.
        let finished = Mutex::new(Vec::new());
        let (mut tally, mut deferred) = std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(|| {
                    let done = probe();
                    let mut finished = finished.lock().unwrap_or_else(PoisonError::into_inner);
                    finished.push(done);
                });
            }
            probe()
        });
        let helpers = finished
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for (theirs, more) in helpers {
            tally.merge(&theirs);
            deferred.extend(more);
        }
        deferred.sort_unstable_by_key(|&(i, _)| i);
        Settled {
            keys,
            slots,
            deferred,
            tally,
        }
    }

    /// Runs every spec, returning outcomes in spec order.
    ///
    /// `batch` names the journal, so interrupting this call and
    /// re-running with `resume` set picks up where it stopped. The
    /// journal is always *written* (recovery must not require having
    /// predicted the crash); `resume` only controls whether an existing
    /// one is replayed. A batch that completes with no failures deletes
    /// its journal; one with failures keeps it so `--resume` retries
    /// only the failed cells.
    pub fn run_batch(&self, batch: &str, specs: &[JobSpec]) -> BatchOutcome {
        let started = Instant::now();
        let root = self.state_root();
        let faults = FaultInjector::new(self.config.faults);
        let cache = (self.config.use_cache).then(|| self.cache_at(root.join("cache")));
        let state_dir = root.join("state");

        // Layer 1 + 2: satisfy cells from journal and cache up front.
        let journaled = if self.config.resume {
            Journal::replay(&state_dir, batch)
        } else {
            Default::default()
        };
        let Settled {
            keys,
            mut slots,
            deferred,
            mut tally,
        } = match &cache {
            Some(c) => c.with_log(|log, _| self.settle(specs, &journaled, Some(log), &faults)),
            None => self.settle(specs, &journaled, None, &faults),
        };
        // The calling thread's tally: the cells, where reused ones came
        // from, their data-level aggregates, and the failures.
        tally.total = specs.len() as u64;
        // What writes runs here, in cell order, as a serial pass would
        // have run it.
        let mut canonical = String::new();
        for (i, deferred) in deferred {
            let (key, cache) = (keys[i], cache.as_deref());
            match deferred {
                // Backfill the cache so the next batch doesn't depend on
                // the journal surviving, unless it already holds the cell:
                // every `--resume` would append a duplicate.
                Deferred::Backfill => {
                    if let (Some(cache), Some(Ok(r))) =
                        (cache.filter(|c| !c.contains(key)), &slots[i])
                    {
                        canonical.clear();
                        specs[i].write_canonical(&mut canonical);
                        let _ = cache.store_keyed(key, &canonical, r, &faults);
                    }
                }
                Deferred::Quarantine(bytes) => {
                    // A record an earlier cell of its key quarantined is
                    // a plain miss.
                    if cache.is_some_and(|c| c.quarantine(key, &bytes)) {
                        tally.quarantined += 1;
                        obs::warn!("engine: cache_quarantine key={key} action=recompute");
                    } else {
                        obs::debug!("engine: cache_miss key={key}");
                    }
                }
            }
        }

        // Publish what was settled up front before any worker runs, so
        // a scrape never shows more jobs executed than cells.
        live::publish(None, &tally);

        // Cloned as workers pull them, so the specs are not held twice.
        let pending: Vec<usize> = (0..specs.len()).filter(|&i| slots[i].is_none()).collect();

        let mut journal = match Journal::open(&state_dir, batch) {
            Ok(j) => Some(j),
            Err(e) => {
                obs::warn!("engine: journal disabled for `{batch}`: {e}");
                None
            }
        };

        // Layer 3: simulate the rest on the pool, writing each
        // completion to cache, journal and its slot as it arrives.
        let workers = self.worker_count().min(pending.len());
        let (to_run, reused) = (pending.len(), tally.journal_hits + tally.cache_hits);
        let (mut done, mut last_report) = (0usize, Instant::now());
        let pooled = self.pool(
            workers,
            0,
            false,
            &faults,
            pending.into_iter().map(|i| (i, specs[i].clone())),
            |_: &mut (), i, _, result, _| Some((i, result)),
            |msg| {
                // A quiet interval (`None`) has nothing to write; every
                // completion below reports progress itself.
                let Some(msg) = msg else { return };
                match msg {
                    Ok((i, result)) => {
                        let key = keys[i];
                        if let Some(cache) = &cache {
                            canonical.clear();
                            specs[i].write_canonical(&mut canonical);
                            if let Err(e) = cache.store_keyed(key, &canonical, &result, &faults) {
                                obs::warn!("engine: cache write failed for {key}: {e}");
                            }
                        }
                        if let Some(j) = &mut journal {
                            if let Err(e) = j.record_with(key, &result, &faults) {
                                obs::warn!("engine: journal write failed: {e}");
                            }
                        }
                        slots[i] = Some(Ok(result));
                    }
                    Err(failure) => {
                        let i = failure.index;
                        slots[i] = Some(Err(failure));
                    }
                }
                done += 1;
                if self.config.progress
                    && (done == to_run || last_report.elapsed() >= PROGRESS_INTERVAL)
                {
                    last_report = Instant::now();
                    let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
                    let eta = (to_run - done) as f64 / rate.max(1e-9);
                    obs::info!(
                        "[{batch}] {done}/{to_run} simulated \
                         ({reused} reused) — {rate:.1} cells/s, ETA {eta:.0}s",
                    );
                }
            },
        );

        // A dead worker's in-flight cell never reported; fail any
        // still-empty slot rather than pretending it ran.
        let results: Vec<Result<JobResult, JobFailure>> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    Err(JobFailure {
                        index: i,
                        key: keys[i],
                        label: specs[i].label(),
                        attempts: 0,
                        message: "worker thread died before completing this job".to_string(),
                    })
                })
            })
            .collect();
        tally.failed = results.iter().filter(|r| r.is_err()).count() as u64;
        // The rest of the calling thread's counts; the workers
        // published theirs.
        live::publish(
            None,
            &Tally {
                failed: tally.failed,
                ..Tally::default()
            },
        );
        tally.merge(&pooled.tally);
        let failed = tally.failed;

        if let Some(j) = journal {
            if failed == 0 {
                if let Err(e) = j.finish() {
                    obs::warn!("engine: could not clear journal for `{batch}`: {e}");
                }
            } else {
                // Keep the journal: it holds every completed cell, so
                // a `--resume` re-run retries only the failures.
                obs::warn!(
                    "engine: keeping journal for `{batch}` ({failed} failed job(s)); \
                     re-run with --resume to retry them"
                );
            }
        }

        let stats = BatchStats {
            total: specs.len(),
            cache_hits: tally.cache_hits as usize,
            journal_hits: tally.journal_hits as usize,
            executed: tally.executed as usize,
            failed: failed as usize,
            quarantined: tally.quarantined as usize,
            workers,
            elapsed_us: started.elapsed().as_micros() as u64,
        };
        if self.config.progress {
            obs::info!(
                "[{batch}] {} cells in {:.1}s: {} simulated on {} worker(s), \
                 {} cache hit(s), {} journal hit(s)",
                stats.total,
                stats.elapsed_us as f64 / 1e6,
                stats.executed,
                stats.workers,
                stats.cache_hits,
                stats.journal_hits,
            );
            if faults.is_active() {
                let fs = faults.stats();
                obs::info!(
                    "[{batch}] faults injected under plan `{}`: {} total \
                     ({} read err, {} corrupt, {} truncate, {} write err, {} torn, {} panic)",
                    faults.plan(),
                    fs.total(),
                    fs.read_errors,
                    fs.corruptions,
                    fs.truncations,
                    fs.write_errors,
                    fs.torn_writes,
                    fs.panics,
                );
            }
        }

        let metrics = self.conclude(batch, workers, stats.elapsed_us, &tally);
        BatchOutcome {
            results,
            stats,
            faults: faults.stats(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkloadSpec;
    use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange};
    use workloads::Benchmark;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("engine-pool-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A small grid of genuinely distinct 2-second jobs.
    fn grid() -> Vec<JobSpec> {
        let mut specs = Vec::new();
        for bench in [Benchmark::Mpeg, Benchmark::Web] {
            for up in [SpeedChange::One, SpeedChange::Peg] {
                specs.push(JobSpec::new(
                    WorkloadSpec::Benchmark(bench),
                    PolicyDesc::interval(
                        PredictorDesc::Past,
                        Hysteresis::BEST,
                        up,
                        SpeedChange::Peg,
                    ),
                    2,
                    42,
                ));
            }
        }
        specs
    }

    #[test]
    fn a_batch_probes_on_one_thread_per_forty_cells_up_to_its_workers() {
        let inert = FaultInjector::inert();
        for (cells, workers, threads) in [
            (0, 8, 1),
            (1, 8, 1),
            (2, 8, 1),
            (39, 8, 1),
            (40, 8, 1),
            (41, 8, 2),
            (50, 8, 2),
            (258, 8, 7),
            (280, 8, 7),
            (281, 8, 8),
            (796, 8, 8),
            (796, 2, 2),
            (796, 1, 1),
        ] {
            assert_eq!(
                probe_threads(cells, workers, &inert),
                threads,
                "{cells} cells at {workers} workers"
            );
        }
        let chaos = FaultInjector::new(Some(FaultPlan::chaos(42)));
        for cells in [2, 41, 796] {
            assert_eq!(probe_threads(cells, 8, &chaos), 1, "{cells} cells");
        }
    }

    #[test]
    fn one_worker_and_many_workers_agree_bit_for_bit() {
        let specs = grid();
        let serial = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        let parallel = Engine::new(EngineConfig {
            jobs: 8,
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(serial.results, parallel.results);
        assert_eq!(serial.stats.executed, specs.len());
        assert_eq!(parallel.stats.workers, specs.len().min(8));
    }

    #[test]
    fn warm_cache_skips_every_cell_and_matches_cold() {
        let root = temp_root("warm");
        let config = EngineConfig {
            jobs: 2,
            use_cache: true,
            state_root: Some(root.clone()),
            ..EngineConfig::hermetic()
        };
        let specs = grid();
        let cold = Engine::new(config.clone()).run_batch("t", &specs);
        assert_eq!(cold.stats.executed, specs.len());
        assert_eq!(cold.stats.cache_hits, 0);

        let warm = Engine::new(config).run_batch("t", &specs);
        assert_eq!(warm.stats.executed, 0, "warm run must simulate nothing");
        assert_eq!(warm.stats.cache_hits, specs.len());
        assert_eq!(warm.results, cold.results, "cache round trip is bit-exact");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A cache-on engine over `root` at two workers.
    fn cached(root: &std::path::Path) -> Engine {
        Engine::new(EngineConfig {
            jobs: 2,
            use_cache: true,
            state_root: Some(root.to_path_buf()),
            ..EngineConfig::hermetic()
        })
    }

    #[test]
    fn a_held_cache_serves_what_another_writer_appended_between_batches() {
        let root = temp_root("held-append");
        let (engine, specs) = (cached(&root), grid());
        assert_eq!(engine.run_batch("t", &specs[..2]).stats.executed, 2);
        // Another cache over the same directory stores a third cell.
        let stored = specs[2].execute();
        ResultCache::new(root.join("cache"))
            .store(&specs[2], &stored)
            .expect("store");
        let second = engine.run_batch("t", &specs[..3]);
        assert_eq!(second.stats.cache_hits, 3);
        assert_eq!(second.stats.executed, 0);
        assert_eq!(second.results[2], Ok(stored));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_held_cache_recomputes_every_cell_once_its_directory_is_gone() {
        let root = temp_root("held-gone");
        let (engine, specs) = (cached(&root), grid());
        let first = engine.run_batch("t", &specs);
        std::fs::remove_dir_all(root.join("cache")).expect("delete the cache");
        let second = engine.run_batch("t", &specs);
        assert_eq!(second.stats.executed, specs.len());
        assert_eq!(second.stats.cache_hits, 0);
        assert_eq!(second.results, first.results);
        // The log is back, with one record per cell, and serves them.
        let log = ResultCache::new(root.join("cache")).log_path();
        let lines = std::fs::read_to_string(log)
            .expect("log recreated")
            .lines()
            .count();
        assert_eq!(lines, specs.len());
        assert_eq!(engine.run_batch("t", &specs).stats.cache_hits, specs.len());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_torn_tail_between_held_batches_costs_only_its_own_record() {
        let root = temp_root("held-torn");
        let (engine, specs) = (cached(&root), grid());
        let reference = engine.run_batch("t", &specs[..3]);
        // A writer killed mid-append leaves half of the fourth cell's
        // record, without a newline.
        let (spec, log) = (&specs[3], ResultCache::new(root.join("cache")).log_path());
        let payload = format!("{}\t{}", spec.canonical(), spec.execute().encode());
        let line = crate::frame::frame(spec.key(), &payload);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("open log");
        std::io::Write::write_all(&mut file, &line.as_bytes()[..line.len() / 2]).expect("tear");
        let second = engine.run_batch("t", &specs);
        assert_eq!(second.stats.cache_hits, 3);
        assert_eq!(second.stats.quarantined, 1, "the torn record was filed");
        assert_eq!(second.stats.executed, 1);
        assert_eq!(second.results[..3], reference.results[..]);
        // The recomputed record did not join the torn line: a fresh
        // cache serves every cell.
        let fresh = ResultCache::new(root.join("cache"));
        assert!(specs.iter().all(|s| fresh.load(s).is_some()));
        assert_eq!(engine.run_batch("t", &specs).stats.cache_hits, specs.len());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_replays_journal_even_without_cache() {
        let root = temp_root("resume");
        let specs = grid();
        // Fake an interrupted run: journal holds the first two cells.
        let reference = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        let state_dir = root.join("state");
        let mut j = Journal::open(&state_dir, "t").expect("open");
        for (spec, r) in specs.iter().zip(&reference.results).take(2) {
            j.record(spec.key(), r.as_ref().expect("reference ok"))
                .expect("record");
        }
        drop(j);

        let resumed = Engine::new(EngineConfig {
            resume: true,
            state_root: Some(root.clone()),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(resumed.stats.journal_hits, 2);
        assert_eq!(resumed.stats.executed, specs.len() - 2);
        assert_eq!(resumed.results, reference.results);
        // Completion cleared the journal.
        assert!(Journal::replay(&state_dir, "t").is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_backfills_only_the_cells_the_cache_lacks() {
        let root = temp_root("backfill");
        let specs = grid();
        let reference = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        let journal_every_cell = || {
            let mut j = Journal::open(&root.join("state"), "t").expect("open");
            for (spec, r) in specs.iter().zip(&reference.results) {
                j.record(spec.key(), r.as_ref().expect("reference ok"))
                    .expect("record");
            }
        };
        let log = ResultCache::new(root.join("cache")).log_path();
        let records = || std::fs::read_to_string(&log).map_or(0, |t| t.lines().count());
        let resume = || {
            Engine::new(EngineConfig {
                use_cache: true,
                resume: true,
                state_root: Some(root.clone()),
                ..EngineConfig::hermetic()
            })
            .run_batch("t", &specs)
        };

        // An empty cache takes every journaled cell ...
        journal_every_cell();
        let first = resume();
        assert_eq!(first.stats.journal_hits, specs.len());
        assert_eq!(records(), specs.len());
        // ... and a second resume appends no duplicates.
        journal_every_cell();
        let second = resume();
        assert_eq!(second.stats.journal_hits, specs.len());
        assert_eq!(records(), specs.len(), "resume duplicated cached cells");
        assert_eq!(second.results, reference.results);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = Engine::new(EngineConfig::hermetic()).run_batch("t", &[]);
        assert!(out.results.is_empty());
        assert_eq!(out.stats.total, 0);
        assert_eq!(out.stats.executed, 0);
    }

    #[test]
    fn injected_panics_are_retried_to_success() {
        // Every job panics on attempts 1 and 2 and runs clean on 3;
        // with two retries the batch must complete with full results
        // identical to an unfaulted run.
        let specs = grid();
        let clean = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);
        let chaotic = Engine::new(EngineConfig {
            jobs: 4,
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: 2,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(chaotic.faults.panics, 2 * specs.len() as u64);
        assert_eq!(chaotic.stats.failed, 0);
        assert_eq!(
            chaotic.results, clean.results,
            "retries must not change bits"
        );
    }

    #[test]
    fn exhausted_retries_fail_the_cell_not_the_batch() {
        // Unbounded panics against a zero-retry budget: every cell
        // fails, the batch still returns, and the failure report says
        // what happened. This is the regression test for the old
        // `.expect("engine worker panicked")` abort.
        let root = temp_root("fail");
        let specs = grid();
        let out = Engine::new(EngineConfig {
            jobs: 2,
            max_retries: 0,
            state_root: Some(root.clone()),
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: u32::MAX,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(out.stats.failed, specs.len());
        assert_eq!(out.stats.executed, 0);
        assert_eq!(out.failures().len(), specs.len());
        for (i, f) in out.failures().into_iter().enumerate() {
            assert_eq!(f.index, i);
            assert_eq!(f.attempts, 1, "zero retries = one attempt");
            assert!(f.message.contains("injected fault"), "{}", f.message);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn partial_failure_keeps_journal_for_resume() {
        // One seeded fault plan fails some cells; the journal must
        // survive with the successes so a --resume run retries only
        // the failures and converges to the clean result.
        let root = temp_root("partial");
        let specs = grid();
        let clean = Engine::new(EngineConfig::hermetic()).run_batch("t", &specs);

        // Panic probability 1 but only for the first attempt, with no
        // retry budget: every executed cell fails this round.
        let first = Engine::new(EngineConfig {
            max_retries: 0,
            state_root: Some(root.clone()),
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: 1,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert!(first.stats.failed == specs.len());

        // Resume with a clean engine: failures re-run and succeed.
        let resumed = Engine::new(EngineConfig {
            resume: true,
            state_root: Some(root.clone()),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(resumed.stats.failed, 0);
        assert_eq!(resumed.results, clean.results);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_track_cache_hits_across_cold_and_warm_runs() {
        let root = temp_root("metrics");
        let config = EngineConfig {
            jobs: 2,
            use_cache: true,
            state_root: Some(root.clone()),
            write_metrics: true,
            ..EngineConfig::hermetic()
        };
        let specs = grid();
        let cold = Engine::new(config.clone()).run_batch("t", &specs);
        assert_eq!(cold.metrics.executed, specs.len() as u64);
        assert_eq!(cold.metrics.cache_hits, 0);
        assert_eq!(cold.metrics.cache_hit_rate, 0.0);
        assert!(cold.metrics.sim_us > 0, "simulated time was accounted");
        assert!(
            cold.metrics.job_latency_max_us > 0.0,
            "latency percentiles are always collected"
        );
        // Per-policy buckets cover every cell exactly once.
        let cells: u64 = cold.metrics.per_policy.iter().map(|p| p.cells).sum();
        assert_eq!(cells, specs.len() as u64);

        let warm = Engine::new(config).run_batch("t", &specs);
        assert_eq!(warm.metrics.executed, 0);
        assert_eq!(warm.metrics.cache_hits, specs.len() as u64);
        assert_eq!(warm.metrics.cache_hit_rate, 1.0);
        // Cached results still contribute to the data-level aggregates.
        assert_eq!(warm.metrics.clock_switches, cold.metrics.clock_switches);
        assert_eq!(warm.metrics.per_policy, cold.metrics.per_policy);

        // write_metrics left the rollup on disk, reflecting the warm run.
        let json = std::fs::read_to_string(root.join("t").join("metrics.json"))
            .expect("metrics.json written");
        assert!(json.contains("\"cache_hits\": 4"), "{json}");
        assert!(json.contains("\"executed\": 0"), "{json}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_count_retries_from_injected_panics() {
        let specs = grid();
        let chaotic = Engine::new(EngineConfig {
            jobs: 4,
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: 2,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        assert_eq!(chaotic.stats.failed, 0);
        assert_eq!(
            chaotic.metrics.retries,
            2 * specs.len() as u64,
            "two injected panics per cell = two retries per cell"
        );
    }

    #[test]
    fn expect_all_panics_with_consolidated_report() {
        let specs = grid();
        let out = Engine::new(EngineConfig {
            max_retries: 0,
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: u32::MAX,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        })
        .run_batch("t", &specs);
        let err = std::thread::spawn(move || out.expect_all())
            .join()
            .expect_err("must panic");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("4 of 4 jobs failed"), "{msg}");
        assert!(msg.contains("cell #0"), "{msg}");
    }
}
