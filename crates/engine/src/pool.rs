//! The worker pool behind both entry points.
//!
//! [`Engine::run_batch`] and [`Engine::run_stream`] differ only in where
//! specs come from and where completions go. Everything in between lives
//! here, once: the worker threads, the `catch_unwind` retry loop, the
//! fault hooks, watchdog heartbeats, live-telemetry instruments, and the
//! per-worker [`Tally`] that [`RunMetrics`] is derived from.
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
//! A job's content key is computed only when something reads it: an
//! active fault plan, the watchdog, a retry log line or a failure
//! report. A healthy stream with no plan never computes one.

use std::cell::LazyCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use kernel_sim::WindowSample;
use obs::registry::{counter, gauge, histogram, Gauge};
use obs::{PolicyMetrics, RunMetrics};
use policies::PolicyDesc;
use sim_core::LogHistogram;

use crate::engine::{panic_message, Engine, JobFailure};
use crate::fault::FaultInjector;
use crate::job::{JobResult, JobSpec};

/// How often a run may print a progress line, and how long the calling
/// thread waits for a message before waking `drain` without one.
pub(crate) const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);

/// What a set of jobs added up to: one per worker, plus one for the
/// results a batch reused from its journal and cache. Merging is
/// addition, so the total never depends on which worker ran which job.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Jobs run to completion on a worker. Results a batch reuses from
    /// its journal or cache are recorded but not counted here.
    pub(crate) executed: u64,
    /// Attempts beyond the first, over every job a worker ran.
    retries: u64,
    /// Simulated time of the jobs run to completion, µs.
    sim_us: u64,
    /// Scheduler log records dropped, over every recorded result.
    sched_dropped: u64,
    /// Clock-step transitions, over every recorded result.
    clock_switches: u64,
    /// Voltage transitions, over every recorded result.
    voltage_switches: u64,
    /// Wall-clock latency of every job a worker ran, failed ones
    /// included, µs.
    job_latency_us: LogHistogram,
    /// Cells and switches per policy, keyed by descriptor so the fold
    /// never formats a label.
    per_policy: Vec<(PolicyDesc, PolicyMetrics)>,
}

impl Tally {
    /// Counts one result's simulated-machine totals.
    pub(crate) fn record(&mut self, spec: &JobSpec, r: &JobResult) {
        self.sched_dropped += r.sched_dropped;
        self.clock_switches += r.clock_switches;
        self.voltage_switches += r.voltage_switches;
        let at = match self.per_policy.iter().position(|(d, _)| *d == spec.policy) {
            Some(at) => at,
            None => {
                self.per_policy
                    .push((spec.policy, PolicyMetrics::default()));
                self.per_policy.len() - 1
            }
        };
        let p = &mut self.per_policy[at].1;
        p.cells += 1;
        p.clock_switches += r.clock_switches;
        p.voltage_switches += r.voltage_switches;
    }

    /// Adds another tally in. A descriptor may then appear more than
    /// once; [`Tally::metrics`] sums its entries by label. The
    /// exhaustive destructure makes a new field a compile error here
    /// until it is merged.
    pub(crate) fn merge(&mut self, other: Tally) {
        let Tally {
            executed,
            retries,
            sim_us,
            sched_dropped,
            clock_switches,
            voltage_switches,
            job_latency_us,
            per_policy,
        } = other;
        self.executed += executed;
        self.retries += retries;
        self.sim_us += sim_us;
        self.sched_dropped += sched_dropped;
        self.clock_switches += clock_switches;
        self.voltage_switches += voltage_switches;
        self.job_latency_us.merge(&job_latency_us);
        self.per_policy.extend(per_policy);
    }

    /// Completes `base`, whose counts the caller filled in, with the
    /// tally's totals, latency percentiles and per-policy breakdown and
    /// the profile's stage breakdown.
    fn metrics(&self, mut base: RunMetrics, profile: &obs::Profile) -> RunMetrics {
        let mut per_policy: BTreeMap<String, PolicyMetrics> = BTreeMap::new();
        for (desc, p) in &self.per_policy {
            let entry = per_policy.entry(desc.label()).or_default();
            entry.cells += p.cells;
            entry.clock_switches += p.clock_switches;
            entry.voltage_switches += p.voltage_switches;
        }
        base.retries = self.retries;
        base.sim_us = self.sim_us;
        base.sched_dropped = self.sched_dropped;
        base.clock_switches = self.clock_switches;
        base.voltage_switches = self.voltage_switches;
        base.peak_rss_bytes = obs::peak_rss_bytes().unwrap_or(0);
        base.per_policy = (per_policy.into_iter())
            .map(|(policy, p)| PolicyMetrics { policy, ..p })
            .collect();
        base.set_job_latencies(&self.job_latency_us);
        let stages = profile.tree().stage_self_totals();
        base.set_stages(stages.iter().map(|(name, &ns)| (name.as_str(), ns)));
        base.finalize();
        base
    }
}

/// What the pool hands back once every worker has exited.
#[derive(Default)]
pub(crate) struct Pooled<A> {
    /// Surviving workers' accumulators, in worker order.
    pub accs: Vec<A>,
    /// Surviving workers' tallies, merged.
    pub tally: Tally,
    /// Surviving workers' span buffers, labelled `worker-N`.
    pub spans: Vec<(String, obs::ThreadSpans)>,
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
    pub(crate) fn pool<I, A, T, F, D>(
        &self,
        workers: usize,
        timeline_windows: u32,
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
        let g_results = gauge(
            "engine_result_queue_depth",
            "Batch results and failures sent but not yet drained.",
        );
        let source = Mutex::new((0usize, jobs));
        let (tx, rx) = mpsc::sync_channel(workers * 4);
        let mut pooled = Pooled::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (tx, source, finish) = (tx.clone(), &source, &finish);
                    s.spawn(move || {
                        self.work(w, source, faults, timeline_windows, finish, (tx, g_results))
                    })
                })
                .collect();
            // Only worker clones keep the channel open, so the drain
            // loop ends when the last worker exits.
            drop(tx);
            loop {
                match rx.recv_timeout(PROGRESS_INTERVAL) {
                    Ok(msg) => {
                        g_results.dec();
                        drain(Some(msg));
                    }
                    Err(RecvTimeoutError::Timeout) => drain(None),
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            // A worker that died outside the catch-unwind fence is
            // reported instead of aborting the process.
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((acc, tally, spans)) => {
                        pooled.accs.push(acc);
                        pooled.tally.merge(tally);
                        if !spans.is_empty() {
                            pooled.spans.push((format!("worker-{w}"), spans));
                        }
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
    /// down `tx`, counting each in the `g_results` queue-depth gauge.
    fn work<I, A, T, F>(
        &self,
        w: usize,
        source: &Mutex<(usize, I)>,
        faults: &FaultInjector,
        timeline_windows: u32,
        finish: &F,
        (tx, g_results): (mpsc::SyncSender<Result<T, JobFailure>>, &Gauge),
    ) -> (A, Tally, obs::ThreadSpans)
    where
        I: Iterator<Item = (usize, JobSpec)>,
        A: Default,
        F: Fn(&mut A, usize, &JobSpec, JobResult, &[WindowSample]) -> Option<T>,
    {
        // Live-telemetry handles, resolved once so the loop below
        // touches only atomics (no-ops while the metrics plane is off).
        let m_jobs = counter("engine_jobs_executed_total", "Jobs completed.");
        let m_failed = counter("engine_jobs_failed_total", "Jobs out of retries.");
        let m_retries = counter("engine_job_retries_total", "Job attempts beyond the first.");
        let h_latency = histogram("engine_job_latency_us", "Per-job wall-clock latency, µs.");
        let worker_jobs = format!("engine_worker_jobs_total{{worker=\"{w}\"}}");
        let w_jobs = counter(&worker_jobs, "Jobs completed, by worker.");
        let heartbeat = obs::watchdog::register(w);
        let max_retries = self.config().max_retries;
        let faulty = faults.is_active();
        let (mut acc, mut tally) = (A::default(), Tally::default());
        // A source poisoned by a panicking iterator ends the run for
        // every worker.
        let next = || {
            let mut src = source.lock().ok()?;
            let job = src.1.next()?;
            src.0 += 1;
            Some(job)
        };
        while let Some((index, spec)) = next() {
            let job_span = obs::span::enter("job");
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
                        tally.retries += 1;
                        m_retries.inc();
                        obs::debug!("engine: job_retry key={} attempt={attempts}", *key);
                    }
                }
            };
            let msg = match outcome {
                Ok((result, timeline)) => {
                    tally.sim_us += spec.duration.as_micros();
                    tally.record(&spec, &result);
                    tally.executed += 1;
                    m_jobs.inc();
                    w_jobs.inc();
                    finish(&mut acc, index, &spec, result, &timeline).map(Ok)
                }
                Err(message) => {
                    m_failed.inc();
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
            let latency_us = started.elapsed().as_secs_f64() * 1e6;
            tally.job_latency_us.record(latency_us);
            h_latency.observe(latency_us);
            drop(job_span);
            if let Some(msg) = msg {
                g_results.inc();
                if tx.send(msg).is_err() {
                    break;
                }
            }
        }
        heartbeat.idle();
        (acc, tally, obs::span::drain())
    }

    /// Derives a run's [`RunMetrics`] from `base` (the caller's counts)
    /// and `tally`, assembles its profile — the calling thread first,
    /// then `worker_spans` — and writes `metrics.json` and
    /// `profile.trace.json` when the config asks for them.
    pub(crate) fn conclude(
        &self,
        base: RunMetrics,
        tally: &Tally,
        worker_spans: Vec<(String, obs::ThreadSpans)>,
    ) -> (RunMetrics, obs::Profile) {
        // Draining the calling thread also scoops up any spans the
        // experiment closed before the run, so its stages appear
        // alongside the engine's.
        let mut profile = obs::Profile::default();
        let collector = obs::span::drain();
        if !collector.is_empty() {
            profile.threads.push(("collector".to_string(), collector));
        }
        profile.threads.extend(worker_spans);
        let metrics = tally.metrics(base, &profile);

        if self.config().write_metrics {
            let batch = &metrics.batch;
            let dir = self.state_root().join(batch);
            let write = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(dir.join("metrics.json"), metrics.to_json()));
            if let Err(e) = write {
                obs::warn!("engine: could not write metrics.json for `{batch}`: {e}");
            }
            // The flame chart is wall-clock and profile-gated, so it
            // only exists when spans were actually collected — the
            // deterministic artifacts CI byte-diffs are untouched.
            if !profile.is_empty() {
                let json = obs::export_spans_chrome_json(&profile);
                if let Err(e) = std::fs::write(dir.join("profile.trace.json"), json) {
                    obs::warn!("engine: could not write profile.trace.json for `{batch}`: {e}");
                }
            }
        }
        (metrics, profile)
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
