//! Streaming execution: unbounded job sequences at bounded memory.
//!
//! [`Engine::run_batch`] materializes its results — one slot per spec —
//! which is right for grids of hundreds of cells and fatal for
//! populations of millions of devices. [`Engine::run_stream`] is the
//! other regime: the worker pool pulls specs from a lazy iterator, and
//! results are folded into a per-worker accumulator the moment they
//! exist, then discarded. A healthy device sends nothing to the calling
//! thread; only failure reports cross the bounded channel. The calling
//! thread wakes every `PROGRESS_INTERVAL` to print progress from a
//! shared completion count, and the final `executed` count comes from
//! the surviving workers' tallies, so it always matches the merged
//! accumulator. Peak memory is
//! `O(workers × channel capacity + accumulator size)` — independent of
//! how many devices stream through.
//!
//! # Determinism contract
//!
//! Which worker simulates which device depends on scheduling, so the
//! final accumulator is reached by folding an arbitrary partition of
//! the stream in arbitrary merge order. The caller's fold/merge must
//! therefore be **order- and partition-independent** — fold into a
//! commutative-merge structure like [`sim_core::FleetSummary`], whose
//! integer-exact sketches make any partition merge to byte-identical
//! state. Under that contract the outcome is bit-identical at any
//! `--jobs`, which the fleet suite verifies byte-for-byte.
//!
//! # What streaming deliberately skips
//!
//! No result cache and no journal: a million per-device cache files
//! would trade the bounded-memory win for an unbounded-disk loss, and
//! population runs are cheap to re-run *because* they never touch disk.
//! This also makes stream output trivially identical across cache
//! hit/miss state — there is no cache to hit. Failure containment is
//! kept: per-job catch-unwind, seeded fault injection and retries all
//! work exactly as in batch mode, with failed devices counted (and a
//! bounded sample of reports retained) rather than accumulated.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kernel_sim::WindowSample;
use obs::RunMetrics;

use crate::engine::{Engine, JobFailure};
use crate::fault::{FaultInjector, FaultStats};
use crate::job::{JobResult, JobSpec};
use crate::live;
use crate::pool::{Tally, PROGRESS_INTERVAL};

/// Failure reports retained verbatim; anything beyond is counted in
/// [`StreamStats::failed`] but not stored (a fully-failing million-
/// device run must not build a million-entry failure list).
const MAX_RETAINED_FAILURES: usize = 32;

/// What a streaming run processed and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Devices the generator produced.
    pub total: u64,
    /// Devices simulated and folded into a surviving worker's
    /// accumulator.
    pub executed: u64,
    /// Devices that exhausted their retry budget.
    pub failed: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Worker threads that died outside the catch-unwind fence (engine
    /// or fold bugs). Their in-flight device and local accumulator are
    /// lost, and their devices are not counted in `executed`.
    pub dead_workers: usize,
    /// Wall-clock time for the whole stream, µs.
    pub elapsed_us: u64,
}

impl StreamStats {
    /// Completed device simulations per wall-clock second. perfbench's
    /// `fleet` workload rates the same stream as `jobs_per_s`, which the
    /// perfbench-smoke CI job gates.
    pub fn devices_per_sec(&self) -> f64 {
        sim_core::rate_per_sec(self.executed, self.elapsed_us)
    }
}

/// Accumulated result of one streaming run.
#[derive(Debug)]
pub struct StreamOutcome<A> {
    /// The merged accumulator (worker shards merged in worker order —
    /// byte-stable only if the caller's merge is order-independent;
    /// see the module docs).
    pub acc: A,
    /// Counts and throughput.
    pub stats: StreamStats,
    /// Up to `MAX_RETAINED_FAILURES` failure reports, in arrival
    /// order; `stats.failed` is the true count.
    pub failures: Vec<JobFailure>,
    /// Faults the configured plan actually injected.
    pub faults: FaultStats,
    /// The run's metrics rollup (written as `metrics.json` when the
    /// engine config asks for it).
    pub metrics: RunMetrics,
    /// Span profile: the calling thread first, then workers.
    pub profile: obs::Profile,
}

impl Engine {
    /// Streams every spec from `specs` through the worker pool, folding
    /// each result into a per-worker accumulator and merging the
    /// shards at the end.
    ///
    /// `fold` is called once per completed device with the device's
    /// stream index, spec, result, and windowed timeline (empty unless
    /// [`crate::EngineConfig::timeline_windows`] is nonzero); `merge`
    /// folds one worker's accumulator into another. Both must be
    /// order-independent for deterministic output (module docs). The
    /// spec iterator is pulled lazily by whichever worker is free, and
    /// workers block while the bounded failure channel is full: the
    /// stream never materializes.
    pub fn run_stream<I, A, F, M>(
        &self,
        batch: &str,
        specs: I,
        fold: F,
        merge: M,
    ) -> StreamOutcome<A>
    where
        I: IntoIterator<Item = JobSpec>,
        I::IntoIter: Send,
        A: Default + Send,
        F: Fn(&mut A, u64, &JobSpec, &JobResult, &[WindowSample]) + Sync,
        M: Fn(&mut A, A),
    {
        let started = Instant::now();
        let faults = FaultInjector::new(self.config().faults);
        let workers = self.worker_count().max(1);
        let progress = self.config().progress;

        // The calling thread's tally: failure reports, and the devices
        // that workers pulled but could not count.
        let mut tally = Tally::default();
        let mut failures = Vec::new();
        // Healthy devices reach the calling thread only through this
        // count, which feeds the progress line and nothing else.
        let folded = AtomicU64::new(0);
        let mut last_report = Instant::now();
        let pooled = self.pool(
            workers,
            self.config().timeline_windows,
            true,
            &faults,
            specs.into_iter().enumerate(),
            |acc: &mut A, i, spec, result, timeline| {
                fold(acc, i as u64, spec, &result, timeline);
                folded.fetch_add(1, Ordering::Relaxed);
                None::<Infallible>
            },
            |msg| {
                if let Some(Err(failure)) = msg {
                    tally.failed += 1;
                    if failures.len() < MAX_RETAINED_FAILURES {
                        failures.push(failure);
                    } else {
                        tally.failures_dropped += 1;
                    }
                }
                if progress && last_report.elapsed() >= PROGRESS_INTERVAL {
                    last_report = Instant::now();
                    let done = folded.load(Ordering::Relaxed) + tally.failed;
                    let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
                    obs::info!("[{batch}] {done} devices streamed — {rate:.0} devices/s");
                }
            },
        );
        let mut acc = A::default();
        for shard in pooled.accs {
            merge(&mut acc, shard);
        }
        // Workers counted the devices they pulled; a dead worker's
        // count died with it, so the run's total still covers every
        // device pulled.
        tally.total = pooled.pulled as u64 - pooled.tally.total;
        // Publish the calling thread's own counts before adding the
        // workers' tallies in: the workers published theirs.
        live::publish(None, &tally);
        tally.merge(&pooled.tally);

        let stats = StreamStats {
            total: tally.total,
            // Counted where the fold happened, so a dead worker's
            // devices leave the count along with its shard.
            executed: tally.executed,
            failed: tally.failed,
            workers,
            dead_workers: pooled.dead,
            elapsed_us: started.elapsed().as_micros() as u64,
        };
        if progress {
            obs::info!(
                "[{batch}] stream done: {} devices in {:.1}s on {} worker(s) — \
                 {:.0} devices/s, {} failed",
                stats.total,
                stats.elapsed_us as f64 / 1e6,
                stats.workers,
                stats.devices_per_sec(),
                stats.failed,
            );
        }

        let (metrics, profile) =
            self.conclude(batch, workers, stats.elapsed_us, &tally, pooled.spans);
        StreamOutcome {
            acc,
            stats,
            failures,
            faults: faults.stats(),
            metrics,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::fault::FaultPlan;
    use crate::job::WorkloadSpec;
    use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange, VoltageRule};
    use sim_core::FleetSummary;
    use std::time::Duration;
    use workloads::Benchmark;

    /// A lazy stream of `n` distinct half-second jobs.
    fn spec_stream(n: u64) -> impl Iterator<Item = JobSpec> + Send {
        (0..n).map(|i| {
            let mut spec = JobSpec::new(
                WorkloadSpec::Benchmark(Benchmark::Web),
                PolicyDesc::best_from_paper(),
                1,
                1000 + i,
            );
            spec.duration = sim_core::SimDuration::from_millis(500);
            spec
        })
    }

    /// The test fold: two metrics and a device count.
    fn fold_device(acc: &mut FleetSummary, r: &JobResult) {
        acc.record("energy_j", r.energy_j);
        acc.record("misses", r.misses as f64);
        acc.bump_devices();
    }

    fn summarize(config: EngineConfig, n: u64) -> StreamOutcome<FleetSummary> {
        Engine::new(config).run_stream(
            "stream-test",
            spec_stream(n),
            |acc: &mut FleetSummary, _i, _spec, r, _tl| fold_device(acc, r),
            |into, from| into.merge(&from),
        )
    }

    #[test]
    fn stream_folds_every_device_exactly_once() {
        let out = summarize(EngineConfig::hermetic(), 12);
        assert_eq!(out.stats.total, 12);
        assert_eq!(out.stats.executed, 12);
        assert_eq!(out.stats.failed, 0);
        assert_eq!(out.acc.devices(), 12);
        assert_eq!(out.acc.metric("energy_j").unwrap().count(), 12);
        assert_eq!(out.metrics.executed, 12);
        assert!(out.metrics.peak_rss_bytes > 0, "RSS probe wired in");
    }

    #[test]
    fn stream_is_byte_identical_across_worker_counts() {
        let one = summarize(EngineConfig::hermetic(), 16);
        for jobs in [4, 8] {
            let many = summarize(
                EngineConfig {
                    jobs,
                    ..EngineConfig::hermetic()
                },
                16,
            );
            assert_eq!(
                one.acc.encode(),
                many.acc.encode(),
                "jobs=1 vs jobs={jobs} must merge to identical bytes"
            );
        }
    }

    #[test]
    fn stream_survives_injected_panics_bit_for_bit() {
        let clean = summarize(EngineConfig::hermetic(), 10);
        let chaotic = summarize(
            EngineConfig {
                jobs: 4,
                faults: Some(FaultPlan {
                    panic: 1.0,
                    max_panics: 2,
                    ..FaultPlan::default()
                }),
                ..EngineConfig::hermetic()
            },
            10,
        );
        assert_eq!(chaotic.stats.failed, 0, "retries absorb the chaos");
        assert_eq!(chaotic.faults.panics, 2 * 10);
        assert_eq!(
            clean.acc.encode(),
            chaotic.acc.encode(),
            "chaos with retries must not change bits"
        );
    }

    #[test]
    fn exhausted_retries_count_failures_without_accumulating() {
        let out = summarize(
            EngineConfig {
                jobs: 2,
                max_retries: 0,
                faults: Some(FaultPlan {
                    panic: 1.0,
                    max_panics: u32::MAX,
                    ..FaultPlan::default()
                }),
                ..EngineConfig::hermetic()
            },
            50,
        );
        assert_eq!(out.stats.failed, 50);
        assert_eq!(out.stats.executed, 0);
        assert_eq!(out.acc.devices(), 0, "failed devices are not folded");
        // Failure retention is bounded even when everything fails —
        // and the drops are now *reported*, not silent.
        assert_eq!(out.failures.len(), MAX_RETAINED_FAILURES);
        assert_eq!(
            out.metrics.failures_dropped,
            50 - MAX_RETAINED_FAILURES as u64
        );
        assert!(out.metrics.to_json().contains("\"failures_dropped\": 18,"));
    }

    #[test]
    fn a_dead_worker_takes_its_devices_out_of_every_count() {
        // A fold that panics kills its worker outside the retry fence,
        // and the worker's shard dies with it. Every count must agree
        // with the accumulator that survived.
        let out = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::hermetic()
        })
        .run_stream(
            "dead-worker-test",
            spec_stream(40),
            |acc: &mut FleetSummary, i, _spec, r, _tl| {
                assert_ne!(i, 30, "fold bug on device 30");
                fold_device(acc, r);
            },
            |into, from| into.merge(&from),
        );
        assert_eq!(out.stats.dead_workers, 1);
        assert_eq!(out.stats.failed, 0);
        assert_eq!(out.stats.executed, out.acc.devices());
        assert_eq!(out.metrics.executed, out.stats.executed);
        let cells: u64 = out.metrics.per_policy.iter().map(|p| p.cells).sum();
        assert_eq!(cells, out.stats.executed, "{:?}", out.metrics.per_policy);
    }

    #[test]
    fn progress_lines_survive_a_stream_that_sends_nothing() {
        // One worker stalling 150 ms per device keeps a healthy stream,
        // which sends nothing to the calling thread, running for several
        // progress intervals.
        let engine = Engine::new(EngineConfig {
            progress: true,
            faults: Some(FaultPlan {
                stall: 1.0,
                stall_ms: 150,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        });
        obs::logger::capture_begin();
        let out = engine.run_stream(
            "progress-test",
            spec_stream(8),
            |acc: &mut FleetSummary, _i, _spec, r, _tl| fold_device(acc, r),
            |into, from| into.merge(&from),
        );
        let lines: Vec<String> = obs::logger::capture_end()
            .into_iter()
            .filter(|line| line.contains("[progress-test]"))
            .collect();
        assert_eq!(out.stats.executed, 8);
        assert!(
            lines.iter().any(|l| l.contains("devices streamed")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains("stream done: 8 devices")),
            "{lines:?}"
        );
    }

    #[test]
    fn empty_stream_is_fine() {
        let out = summarize(EngineConfig::hermetic(), 0);
        assert_eq!(out.stats.total, 0);
        assert_eq!(out.acc, FleetSummary::new());
        assert_eq!(out.stats.devices_per_sec(), 0.0);
        assert_eq!(out.metrics.failures_dropped, 0);
    }

    #[test]
    fn timeline_windows_reach_the_fold_without_changing_results() {
        let base = summarize(EngineConfig::hermetic(), 6);
        let out = Engine::new(EngineConfig {
            timeline_windows: 8,
            ..EngineConfig::hermetic()
        })
        .run_stream(
            "stream-test",
            spec_stream(6),
            |acc: &mut (FleetSummary, Vec<usize>), _i, _spec, r, tl| {
                acc.0.record("energy_j", r.energy_j);
                acc.0.record("misses", r.misses as f64);
                acc.0.bump_devices();
                acc.1.push(tl.len());
            },
            |into, from| {
                into.0.merge(&from.0);
                into.1.extend(from.1);
            },
        );
        assert_eq!(out.acc.1.len(), 6, "every device carried a timeline");
        assert!(out.acc.1.iter().all(|&n| n == 8));
        assert_eq!(
            base.acc.encode(),
            out.acc.0.encode(),
            "the timeline is derived observation; results must not move"
        );
    }

    #[test]
    fn batch_and_stream_report_the_same_machine_totals() {
        // Two of the three policies share a label (the voltage rule is
        // not part of it), so `per_policy` has two buckets.
        let policies = [
            PolicyDesc::best_from_paper(),
            PolicyDesc::best_from_paper().with_voltage_rule(VoltageRule::default()),
            PolicyDesc::interval(
                PredictorDesc::AvgN(3),
                Hysteresis::BEST,
                SpeedChange::Peg,
                SpeedChange::Peg,
            ),
        ];
        let specs: Vec<JobSpec> = spec_stream(6)
            .enumerate()
            .map(|(i, spec)| JobSpec {
                workload: WorkloadSpec::Benchmark(Benchmark::Mpeg),
                policy: policies[i % 3],
                ..spec
            })
            .collect();
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::hermetic()
        });
        let batch = engine.run_batch("totals-test", &specs).metrics;
        let stream = engine
            .run_stream("totals-test", specs, |_: &mut (), _, _, _, _| {}, |_, _| {})
            .metrics;
        assert!(batch.clock_switches > 0, "MPEG switches the clock");
        assert!(batch.voltage_switches > 0, "the voltage rule switches Vdd");
        assert_eq!(stream.clock_switches, batch.clock_switches);
        assert_eq!(stream.voltage_switches, batch.voltage_switches);
        assert_eq!(stream.sched_dropped, batch.sched_dropped);
        assert_eq!(stream.per_policy, batch.per_policy);
        let cells: Vec<u64> = batch.per_policy.iter().map(|p| p.cells).collect();
        assert_eq!(cells.iter().sum::<u64>(), 6);
        assert_eq!(cells.len(), 2, "{:?}", batch.per_policy);
    }

    /// Runs `run` on its own thread while patrolling heartbeats with a
    /// 50 ms threshold; returns its output and every stall flagged.
    fn patrolled<T: Send + 'static>(
        run: impl FnOnce() -> T + Send + 'static,
    ) -> (T, Vec<obs::watchdog::Stall>) {
        let run = std::thread::spawn(run);
        let mut stalls = Vec::new();
        for _ in 0..200 {
            stalls.extend(obs::watchdog::patrol(50));
            if run.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        (run.join().expect("run finishes"), stalls)
    }

    #[test]
    fn watchdog_flags_an_injected_stall() {
        let stalling = EngineConfig {
            faults: Some(FaultPlan {
                stall: 1.0,
                stall_ms: 400,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        };
        obs::watchdog::set_active(true);
        let config = stalling.clone();
        let (streamed, stream_stalls) = patrolled(move || summarize(config, 2));
        let (batched, batch_stalls) = patrolled(move || {
            let specs: Vec<JobSpec> = spec_stream(2).collect();
            Engine::new(stalling).run_batch("stall-test", &specs)
        });
        obs::watchdog::set_active(false);
        assert_eq!(streamed.stats.executed, 2, "stalls delay, never fail");
        assert_eq!(streamed.faults.stalls, 2);
        assert_eq!(batched.stats.executed, 2, "stalls delay, never fail");
        assert_eq!(batched.faults.stalls, 2, "the batch path stalls too");
        for stalls in [stream_stalls, batch_stalls] {
            assert!(
                !stalls.is_empty(),
                "watchdog must flag the stalled worker live"
            );
            assert!(
                stalls.iter().all(|st| !st.job.is_empty()),
                "stall reports carry the in-flight job key"
            );
        }
    }
}
