//! The worker pool behind both entry points.
//!
//! [`Engine::run_batch`] and [`Engine::run_stream`] differ only in where
//! specs come from and where completions go. Everything in between lives
//! here, once: the worker threads, the `catch_unwind` retry loop, the
//! fault hooks, watchdog heartbeats, and the [`Tally`] that both
//! [`RunMetrics`] and the live `/metrics` page are derived from.
//!
//! Workers pull `(index, spec)` pairs from a `Mutex`-guarded iterator, so
//! a lazy stream is advanced by whichever worker is free and never
//! materializes. A job's result goes to the caller's `finish` hook on
//! the worker. The stream folds it there and sends nothing; the batch
//! hands it on, because its cache, journal and slots live on the
//! calling thread. Only those batch results and [`JobFailure`]s cross a
//! bounded channel to the caller's `drain` hook on the calling thread,
//! so a stream's counts come from the workers' tallies, not from the
//! channel. The bound keeps completed-but-undrained results from piling
//! up faster than the drainer absorbs them.
//!
//! Each worker counts into a fresh tally and, every [`PUBLISH_EVERY`]
//! and when it runs dry, publishes it to the process-wide sum behind
//! `/metrics` (see `live`) and adds it into its run tally. The calling
//! thread publishes its own counts before it adds the workers' tallies
//! in: a batch publishes its cells and the results it reused before the
//! pool starts and its failures after it ends. A stream's cells are
//! unknown until pulled, so its workers count each device they pull in
//! the tally that also counts its execution. Either way a scrape never
//! shows more jobs executed than cells. Every count is recorded once
//! and read twice: by `metrics.json` and by a scrape.
//!
//! A job's content key is computed only when something reads it: an
//! active fault plan, the watchdog, a retry log line or a failure
//! report. A healthy stream with no plan never computes one.

use std::cell::LazyCell;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use kernel_sim::WindowSample;
use obs::{PolicyMetrics, RunMetrics};
use policies::PolicyDesc;
use sim_core::LogHistogram;

use crate::engine::{panic_message, Engine, JobFailure};
use crate::fault::FaultInjector;
use crate::job::{JobResult, JobSpec};
use crate::live;

/// How often a run may print a progress line, and how long the calling
/// thread waits for a message before waking `drain` without one.
pub(crate) const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);

/// How often a worker publishes what it counted to `/metrics`.
const PUBLISH_EVERY: Duration = Duration::from_millis(250);

/// What a run counted, in one place: one per worker, plus one for the
/// calling thread's own counts (cells requested, results reused from
/// journal and cache, failures). Merging is addition, so the total
/// never depends on which worker ran which job. A run's `metrics.json`
/// is derived from its merged tally, and `/metrics` renders the
/// process-wide sum of every published one.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Cells (a stream: devices) the run requested. A stream's workers
    /// count the devices they pull.
    pub(crate) total: u64,
    /// Jobs run to completion on a worker. Results a batch reuses from
    /// its journal or cache are recorded but not counted here.
    pub(crate) executed: u64,
    /// Cells served from the result cache.
    pub(crate) cache_hits: u64,
    /// Cells served from an interrupted run's journal.
    pub(crate) journal_hits: u64,
    /// Damaged cache records quarantined (and recomputed).
    pub(crate) quarantined: u64,
    /// Cells (devices) that produced no result.
    pub(crate) failed: u64,
    /// Failure reports beyond a stream's retention cap.
    pub(crate) failures_dropped: u64,
    /// Attempts beyond the first, over every job a worker ran.
    pub(crate) retries: u64,
    /// Simulated time of the jobs run to completion, µs.
    pub(crate) sim_us: u64,
    /// Scheduler log records dropped, over every recorded result.
    pub(crate) sched_dropped: u64,
    /// Clock-step transitions, over every recorded result.
    pub(crate) clock_switches: u64,
    /// Voltage transitions, over every recorded result.
    pub(crate) voltage_switches: u64,
    /// Wall-clock latency of every job a worker ran, failed ones
    /// included, µs.
    pub(crate) job_latency_us: LogHistogram,
    /// Cells and switches per policy, keyed by the descriptor's bit
    /// image ([`PolicyDesc::bits`]), so the fold never formats a label
    /// and finds an entry without a scan. The map's order varies between
    /// runs; every reader only adds counts, so no output depends on it.
    pub(crate) per_policy: HashMap<[u64; 5], (PolicyDesc, PolicyMetrics)>,
}

impl Tally {
    /// Counts one result's simulated-machine totals.
    pub(crate) fn record(&mut self, spec: &JobSpec, r: &JobResult) {
        self.sched_dropped += r.sched_dropped;
        self.clock_switches += r.clock_switches;
        self.voltage_switches += r.voltage_switches;
        let p = self.policy(spec.policy);
        p.cells += 1;
        p.clock_switches += r.clock_switches;
        p.voltage_switches += r.voltage_switches;
    }

    /// The entry for `desc`, added on first sight.
    fn policy(&mut self, desc: PolicyDesc) -> &mut PolicyMetrics {
        let entry = self.per_policy.entry(desc.bits());
        &mut entry.or_insert_with(|| (desc, PolicyMetrics::default())).1
    }

    /// Adds another tally in, entry by entry, so merging any number of
    /// tallies over the same policies keeps one entry per descriptor.
    /// The exhaustive destructure makes a new field a compile error
    /// here until it is merged.
    pub(crate) fn merge(&mut self, other: &Tally) {
        let Tally {
            total,
            executed,
            cache_hits,
            journal_hits,
            quarantined,
            failed,
            failures_dropped,
            retries,
            sim_us,
            sched_dropped,
            clock_switches,
            voltage_switches,
            job_latency_us,
            per_policy,
        } = other;
        self.total += total;
        self.executed += executed;
        self.cache_hits += cache_hits;
        self.journal_hits += journal_hits;
        self.quarantined += quarantined;
        self.failed += failed;
        self.failures_dropped += failures_dropped;
        self.retries += retries;
        self.sim_us += sim_us;
        self.sched_dropped += sched_dropped;
        self.clock_switches += clock_switches;
        self.voltage_switches += voltage_switches;
        self.job_latency_us.merge(job_latency_us);
        for (desc, p) in per_policy.values() {
            let mine = self.policy(*desc);
            mine.cells += p.cells;
            mine.clock_switches += p.clock_switches;
            mine.voltage_switches += p.voltage_switches;
        }
    }

    /// The run's [`RunMetrics`]: every count from the tally, latency
    /// percentiles and the per-policy breakdown (summed by label, since
    /// descriptors that differ only in their voltage rule share one).
    fn metrics(&self, batch: &str, workers: usize, wall_us: u64) -> RunMetrics {
        let mut per_policy: BTreeMap<String, PolicyMetrics> = BTreeMap::new();
        for (desc, p) in self.per_policy.values() {
            let entry = per_policy.entry(desc.label()).or_default();
            entry.cells += p.cells;
            entry.clock_switches += p.clock_switches;
            entry.voltage_switches += p.voltage_switches;
        }
        let mut metrics = RunMetrics {
            batch: batch.to_string(),
            total: self.total,
            executed: self.executed,
            cache_hits: self.cache_hits,
            journal_hits: self.journal_hits,
            failed: self.failed,
            failures_dropped: self.failures_dropped,
            quarantined: self.quarantined,
            retries: self.retries,
            workers: workers as u64,
            sched_dropped: self.sched_dropped,
            clock_switches: self.clock_switches,
            voltage_switches: self.voltage_switches,
            wall_us,
            sim_us: self.sim_us,
            peak_rss_bytes: obs::peak_rss_bytes().unwrap_or(0),
            per_policy: (per_policy.into_iter())
                .map(|(policy, p)| PolicyMetrics { policy, ..p })
                .collect(),
            ..RunMetrics::default()
        };
        metrics.set_job_latencies(&self.job_latency_us);
        metrics.finalize();
        metrics
    }
}

/// What the pool hands back once every worker has exited.
#[derive(Default)]
pub(crate) struct Pooled<A> {
    /// Surviving workers' accumulators, in worker order.
    pub accs: Vec<A>,
    /// Surviving workers' tallies, merged.
    pub tally: Tally,
    /// Specs taken from the source.
    pub pulled: usize,
    /// Workers that died outside the retry fence (engine bugs). Their
    /// in-flight job never completes and their accumulator is lost.
    pub dead: usize,
}

impl Engine {
    /// Runs every job from `jobs` on `workers` threads.
    ///
    /// `finish` takes each successful job on its worker, may fold it
    /// into the worker's accumulator, and returns what, if anything,
    /// the calling thread needs of it. `drain` gets those values and
    /// every [`JobFailure`] on the calling thread, and `None` whenever
    /// [`PROGRESS_INTERVAL`] passes with nothing to drain, so a caller
    /// whose jobs send nothing can still report progress.
    /// `timeline_windows > 0` runs jobs with the windowed timeline.
    /// `count_pulled` has each worker count every job it pulls as a
    /// cell, for a caller that cannot count its cells up front.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pool<I, A, T, F, D>(
        &self,
        workers: usize,
        timeline_windows: u32,
        count_pulled: bool,
        faults: &FaultInjector,
        jobs: I,
        finish: F,
        mut drain: D,
    ) -> Pooled<A>
    where
        I: Iterator<Item = (usize, JobSpec)> + Send,
        A: Default + Send,
        T: Send,
        F: Fn(&mut A, usize, &JobSpec, JobResult, &[WindowSample]) -> Option<T> + Sync,
        D: FnMut(Option<Result<T, JobFailure>>),
    {
        let source = Mutex::new((0usize, jobs));
        let (tx, rx) = mpsc::sync_channel(workers * 4);
        let mut pooled = Pooled::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (tx, source, finish) = (tx.clone(), &source, &finish);
                    s.spawn(move || {
                        self.work(
                            w,
                            source,
                            faults,
                            timeline_windows,
                            count_pulled,
                            finish,
                            tx,
                        )
                    })
                })
                .collect();
            // Only worker clones keep the channel open, so the drain
            // loop ends when the last worker exits.
            drop(tx);
            loop {
                match rx.recv_timeout(PROGRESS_INTERVAL) {
                    Ok(msg) => {
                        live::queued(-1);
                        drain(Some(msg));
                    }
                    Err(RecvTimeoutError::Timeout) => drain(None),
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            // A worker that died outside the catch-unwind fence is
            // reported instead of aborting the process.
            for h in handles {
                match h.join() {
                    Ok((acc, tally)) => {
                        pooled.accs.push(acc);
                        pooled.tally.merge(&tally);
                    }
                    Err(payload) => {
                        pooled.dead += 1;
                        let message = panic_message(payload.as_ref());
                        obs::error!("engine: worker thread died: {message}");
                    }
                }
            }
        });
        let (pulled, _) = source.into_inner().unwrap_or_else(PoisonError::into_inner);
        Pooled { pulled, ..pooled }
    }

    /// One worker: takes jobs until the source runs dry, runs each in the
    /// retry fence, and sends failures and whatever `finish` returns
    /// down `tx`. Returns its accumulator and its run tally.
    #[allow(clippy::too_many_arguments)]
    fn work<I, A, T, F>(
        &self,
        w: usize,
        source: &Mutex<(usize, I)>,
        faults: &FaultInjector,
        timeline_windows: u32,
        count_pulled: bool,
        finish: &F,
        tx: mpsc::SyncSender<Result<T, JobFailure>>,
    ) -> (A, Tally)
    where
        I: Iterator<Item = (usize, JobSpec)>,
        A: Default,
        F: Fn(&mut A, usize, &JobSpec, JobResult, &[WindowSample]) -> Option<T>,
    {
        let heartbeat = obs::watchdog::register(w);
        let max_retries = self.config().max_retries;
        let faulty = faults.is_active();
        let (mut acc, mut tally, mut fresh) = (A::default(), Tally::default(), Tally::default());
        // Publishing the empty tally gives the worker its `/metrics`
        // sample before its first job completes.
        live::publish(Some(w), &fresh);
        let mut published = Instant::now();
        // A source poisoned by a panicking iterator ends the run for
        // every worker.
        let next = || {
            let mut src = source.lock().ok()?;
            let job = src.1.next()?;
            src.0 += 1;
            Some(job)
        };
        while let Some((index, spec)) = next() {
            // Counted before the job runs, in the tally that will count
            // its execution, so no publish shows the one without the
            // other.
            fresh.total += u64::from(count_pulled);
            let started = Instant::now();
            // Computed on first read only (see the module docs).
            let key = LazyCell::new(|| spec.key());
            if obs::watchdog::active() {
                heartbeat.start(&key.to_string());
            }
            if let Some(stall) = faulty.then(|| faults.worker_stall(*key)).flatten() {
                // Wall-clock latency only: the result is untouched, but
                // the heartbeat above now has something for the
                // watchdog to catch.
                let key = *key;
                obs::debug!("engine: injected_stall key={key} ms={}", stall.as_millis());
                std::thread::sleep(stall);
            }
            let mut attempts = 0u32;
            let outcome = loop {
                attempts += 1;
                let run = catch_unwind(AssertUnwindSafe(|| {
                    if faulty && faults.worker_panic(*key, attempts) {
                        let key = *key;
                        panic!("injected fault: worker panic (job {key}, attempt {attempts})");
                    }
                    if timeline_windows > 0 {
                        spec.execute_timeline(timeline_windows)
                    } else {
                        (spec.execute(), Vec::new())
                    }
                }));
                match run {
                    Ok(done) => break Ok(done),
                    Err(payload) if attempts > max_retries => {
                        break Err(panic_message(payload.as_ref()))
                    }
                    Err(_) => {
                        fresh.retries += 1;
                        obs::debug!("engine: job_retry key={} attempt={attempts}", *key);
                    }
                }
            };
            let msg = match outcome {
                Ok((result, timeline)) => {
                    fresh.sim_us += spec.duration.as_micros();
                    fresh.record(&spec, &result);
                    fresh.executed += 1;
                    finish(&mut acc, index, &spec, result, &timeline).map(Ok)
                }
                Err(message) => {
                    let failure = JobFailure {
                        index,
                        key: *key,
                        label: spec.label(),
                        attempts,
                        message,
                    };
                    obs::error!("engine: {failure}");
                    Some(Err(failure))
                }
            };
            let now = Instant::now();
            fresh
                .job_latency_us
                .record((now - started).as_secs_f64() * 1e6);
            if now - published >= PUBLISH_EVERY {
                published = now;
                live::publish(Some(w), &fresh);
                tally.merge(&std::mem::take(&mut fresh));
            }
            if let Some(msg) = msg {
                live::queued(1);
                if tx.send(msg).is_err() {
                    break;
                }
            }
        }
        live::publish(Some(w), &fresh);
        tally.merge(&fresh);
        heartbeat.idle();
        (acc, tally)
    }

    /// Derives a run's [`RunMetrics`] from its merged `tally` and
    /// writes it as `metrics.json` when the config asks for it.
    pub(crate) fn conclude(
        &self,
        batch: &str,
        workers: usize,
        wall_us: u64,
        tally: &Tally,
    ) -> RunMetrics {
        let metrics = tally.metrics(batch, workers, wall_us);
        if self.config().write_metrics {
            let dir = self.state_root().join(batch);
            let write = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(dir.join("metrics.json"), metrics.to_json()));
            if let Err(e) = write {
                obs::warn!("engine: could not write metrics.json for `{batch}`: {e}");
            }
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::fault::FaultPlan;
    use crate::job::WorkloadSpec;
    use workloads::Benchmark;

    /// Runs `n` short jobs on two workers with a `finish` that counts
    /// each job in its worker's accumulator and sends nothing. Returns
    /// the values and the failures `drain` was called with, and what
    /// the pool handed back.
    fn drain_counts(config: EngineConfig, n: usize) -> (usize, usize, Pooled<u64>) {
        let engine = Engine::new(config);
        let faults = FaultInjector::new(engine.config().faults);
        let jobs = (0..n).map(|i| {
            let mut spec = JobSpec::new(
                WorkloadSpec::Benchmark(Benchmark::Web),
                PolicyDesc::best_from_paper(),
                1,
                1000 + i as u64,
            );
            spec.duration = sim_core::SimDuration::from_millis(100);
            (i, spec)
        });
        let (mut values, mut failures) = (0, 0);
        let pooled = engine.pool(
            2,
            0,
            true,
            &faults,
            jobs,
            |acc: &mut u64, _, _, _, _| {
                *acc += 1;
                None::<()>
            },
            |msg| match msg {
                Some(Ok(())) => values += 1,
                Some(Err(_)) => failures += 1,
                None => {}
            },
        );
        (values, failures, pooled)
    }

    #[test]
    fn a_healthy_stream_drains_nothing() {
        let (values, failures, pooled) = drain_counts(EngineConfig::hermetic(), 16);
        assert_eq!((values, failures), (0, 0));
        assert_eq!(pooled.tally.executed, 16);
        assert_eq!(pooled.accs.iter().sum::<u64>(), 16);
    }

    #[test]
    fn every_failure_is_drained() {
        let config = EngineConfig {
            max_retries: 0,
            faults: Some(FaultPlan {
                panic: 1.0,
                max_panics: u32::MAX,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        };
        let (values, failures, pooled) = drain_counts(config, 16);
        assert_eq!((values, failures), (0, 16));
        assert_eq!(pooled.tally.executed, 0);
        assert_eq!(pooled.accs.iter().sum::<u64>(), 0);
    }
}
