//! The `fleet` workload: a `PopulationConfig::new(DEVICES, seed)`
//! population through `fleet::run` on an engine with the fleet timeline
//! on, no cache and `nproc` workers — what `repro fleet` runs. Most of
//! its cost is the Summary kernel, per-run kernel set-up, the sketch
//! fold and stream hand-off; it never touches the cache, the journal or
//! Full-fidelity series emission.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use engine::{Engine, EngineConfig, JobResult, JobSpec, WindowSample};
use fleet::{FleetAccum, PopulationConfig};

use crate::check::{Checker, Digest, FLEET_REFS};
use crate::layers::{self, LayerTimings, PathLayer, TracedReport};
use crate::stats::Timings;
use crate::{end_to_end, measure, nproc, repeated_setup, timed, Args, BatchStat, Outcome};

/// Devices per batch: about a third of a second on two workers, so a
/// 20-s run's cheapest tenth is still about six batches.
pub const DEVICES: u64 = 20_000;

/// Devices streamed once during set-up so thread-local scratch arenas
/// and first-touch page faults are paid before timing.
const WARMUP_DEVICES: u64 = 2_000;

/// Devices of the population the traced run replays engine-internal
/// layers on.
const REPLAY_DEVICES: u64 = 4_000;

/// Horizons (simulated seconds) of the kernel set-up/tick split: the
/// devices' own 1 s and five times that.
const FIT_SECS: [u64; 2] = [1, 5];

/// The fleet engine `repro fleet` builds, minus its artifact writes.
pub fn engine(jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        timeline_windows: fleet::TIMELINE_WINDOWS,
        ..EngineConfig::hermetic()
    })
}

/// Digest of a fleet run's outputs: the whole-run summary encoding,
/// then each timeline window's bounds and encoding.
pub fn digest(acc: &FleetAccum) -> u64 {
    let mut d = Digest::default();
    d.update(acc.summary.encode().as_bytes());
    for w in &acc.windows {
        d.update(format!("{} {}\n", w.start_us, w.end_us).as_bytes());
        d.update(w.summary.encode().as_bytes());
    }
    d.value()
}

/// Records folded into an accumulator's sketches.
pub fn sketch_records(acc: &FleetAccum) -> u64 {
    std::iter::once(&acc.summary)
        .chain(acc.windows.iter().map(|w| &w.summary))
        .flat_map(|s| {
            s.metric_names()
                .map(move |m| s.metric(m).map_or(0, |h| h.count()))
        })
        .sum()
}

/// A set-up fleet workload.
pub struct Fleet {
    /// The population every batch streams.
    pub population: PopulationConfig,
    /// `nproc` workers.
    pub engine: Engine,
    /// One worker: the scaling baseline and the 1-worker output check.
    pub single: Engine,
}

impl Fleet {
    /// Builds the population and engines and streams a warm-up
    /// population through them.
    pub fn setup(seed: u64) -> Self {
        let fleet = Fleet {
            population: PopulationConfig::new(DEVICES, seed),
            engine: engine(nproc()),
            single: engine(1),
        };
        fleet::run(
            &fleet.engine,
            "fleet-warmup",
            &PopulationConfig::new(WARMUP_DEVICES, seed),
        );
        fleet
    }

    /// One batch through `fleet::run`. A non-zero `fold_delay` instead
    /// runs the same stream with a fold closure that busy-waits that
    /// long after every `fold_result` — the sensitivity self-check's
    /// injected slowdown.
    pub fn batch(&self, engine: &Engine, fold_delay: Duration, checker: &Checker) -> BatchStat {
        let (outcome, wall_s, cpu_s) = timed(|| {
            if fold_delay.is_zero() {
                fleet::run(engine, "fleet", &self.population)
            } else {
                engine.run_stream(
                    "fleet",
                    self.population.stream(),
                    |acc: &mut FleetAccum,
                     device,
                     spec: &JobSpec,
                     r: &JobResult,
                     tl: &[WindowSample]| {
                        fleet::fold_result(acc, device, spec, r, tl);
                        layers::spin(fold_delay);
                    },
                    |into, from| into.merge(&from),
                )
            }
        });
        let ok = checker.check(digest(&outcome.acc));
        let stats = outcome.stats;
        BatchStat {
            wall_s,
            cpu_s,
            attempted: stats.total,
            jobs: stats.executed,
            failed: if ok { stats.failed } else { stats.total },
        }
    }

    /// One batch through the real `run_stream` with the harness timing
    /// `spec_for` in a wrapping iterator, `fold_result` in the fold
    /// closure and `FleetAccum::merge` in the merge closure.
    pub fn traced_batch(&self, checker: &Checker, sink: &TraceSink) -> BatchStat {
        let (outcome, wall_s, cpu_s) = timed(|| {
            self.engine.run_stream(
                "fleet",
                TimedPopulation {
                    config: &self.population,
                    next: 0,
                    spec_for: Timings::default(),
                    ticks: 0,
                    sink,
                },
                |acc: &mut TracedAccum,
                 device,
                 spec: &JobSpec,
                 r: &JobResult,
                 tl: &[WindowSample]| {
                    let t = Instant::now();
                    fleet::fold_result(&mut acc.fleet, device, spec, r, tl);
                    acc.fold.record_since(t);
                },
                |into: &mut TracedAccum, from: TracedAccum| {
                    let t = Instant::now();
                    into.fleet.merge(&from.fleet);
                    into.merge.record_since(t);
                    into.fold.extend(from.fold);
                    into.merge.extend(from.merge);
                },
            )
        });
        let ok = checker.check(digest(&outcome.acc.fleet));
        let mut s = sink.0.lock().expect("trace sink lock");
        s.timings
            .entry("fleet.fold_result_us")
            .or_default()
            .extend(outcome.acc.fold);
        s.timings
            .entry("fleet.merge_us")
            .or_default()
            .extend(outcome.acc.merge);
        s.sketch_records = sketch_records(&outcome.acc.fleet);
        s.jobs = outcome.stats.executed;
        s.batches += 1;
        let stats = outcome.stats;
        BatchStat {
            wall_s,
            cpu_s,
            attempted: stats.total,
            jobs: stats.executed,
            failed: if ok { stats.failed } else { stats.total },
        }
    }
}

/// What traced batches leave behind.
#[derive(Debug, Default)]
pub struct TraceState {
    /// In-path timings.
    pub timings: LayerTimings,
    /// Ticks of the last traced batch.
    pub ticks: u64,
    /// Sketch records of the last traced batch.
    pub sketch_records: u64,
    /// Devices completed in the last traced batch.
    pub jobs: u64,
    /// Traced batches run.
    pub batches: usize,
}

/// Shared between the producer thread's iterator and the caller.
#[derive(Debug, Default)]
pub struct TraceSink(Mutex<TraceState>);

impl TraceSink {
    /// What the traced batches left behind.
    pub fn into_state(self) -> TraceState {
        self.0.into_inner().expect("trace sink lock")
    }
}

/// The fold accumulator of a traced batch: the real accumulator plus
/// this worker's fold and merge timings.
#[derive(Debug, Default)]
struct TracedAccum {
    fleet: FleetAccum,
    fold: Timings,
    merge: Timings,
}

/// `DevicePopulation` rebuilt on `PopulationConfig::spec_for`, timing
/// each call. Its timings reach the sink when the engine's producer
/// thread drops it.
struct TimedPopulation<'a> {
    config: &'a PopulationConfig,
    next: u64,
    spec_for: Timings,
    ticks: u64,
    sink: &'a TraceSink,
}

impl Iterator for TimedPopulation<'_> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        if self.next >= self.config.devices {
            return None;
        }
        let t = Instant::now();
        let spec = self.config.spec_for(self.next);
        self.spec_for.record_since(t);
        self.next += 1;
        self.ticks += layers::ticks(&spec);
        Some(spec)
    }
}

impl Drop for TimedPopulation<'_> {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.0.lock() {
            s.timings
                .entry("fleet.spec_for_us")
                .or_default()
                .extend(std::mem::take(&mut self.spec_for));
            s.ticks = self.ticks;
        }
    }
}

/// Runs the workload as `args` asks.
pub fn run(args: &Args) -> Outcome {
    let checker = Checker::new(FLEET_REFS, args.seed);
    let (fleet, setup_s) = repeated_setup(5, || Fleet::setup(args.seed));
    let mut out = Outcome::default();
    if args.trace {
        let sink = TraceSink::default();
        let rounds = layers::rounds(
            args.seconds,
            || fleet.batch(&fleet.engine, Duration::ZERO, &checker),
            || fleet.traced_batch(&checker, &sink),
            || fleet.batch(&fleet.single, Duration::ZERO, &checker),
        );
        let state = sink.into_state();
        let specs: Vec<JobSpec> = (0..REPLAY_DEVICES)
            .map(|d| fleet.population.spec_for(d))
            .collect();
        let replay = layers::replay(
            &specs,
            |s| s.execute_timeline(fleet::TIMELINE_WINDOWS).0,
            FIT_SECS,
        );
        let mut timings = replay.timings;
        timings.extend(state.timings);
        let per_device = DEVICES as f64;
        let path = vec![
            PathLayer::measured("fleet.spec_for_us", &timings, state.batches),
            PathLayer::per_call("engine.key_us", &timings, per_device),
            PathLayer::per_call("kernel-sim.run_us", &timings, per_device),
            PathLayer::measured("fleet.fold_result_us", &timings, state.batches),
            PathLayer::measured("fleet.merge_us", &timings, state.batches),
        ];
        TracedReport {
            timings,
            path,
            fit: replay.fit,
            workers: nproc(),
            rounds,
            hit_ratio: 0.0,
            ticks: state.ticks,
            jobs: state.jobs,
            sketch_records: state.sketch_records,
        }
        .write(&mut out);
        out.failed += replay.mismatches;
    } else {
        let batches = measure(args.seconds, || {
            fleet.batch(&fleet.engine, Duration::ZERO, &checker)
        });
        end_to_end(&mut out, setup_s, &batches);
        // The 1-worker output check (the traced run's rounds include
        // 1-worker batches already).
        let one = fleet.batch(&fleet.single, Duration::ZERO, &checker);
        out.attempted += one.attempted;
        out.failed += one.failed;
    }
    out.correct = checker.mismatches() == 0 && out.failed == 0;
    out
}

/// The seed's digest, computed at one worker and at `nproc`; `None`
/// when the two disagree.
pub fn reference_digest(seed: u64) -> Option<u64> {
    let population = PopulationConfig::new(DEVICES, seed);
    let one = digest(&fleet::run(&engine(1), "fleet", &population).acc);
    let all = digest(&fleet::run(&engine(nproc()), "fleet", &population).acc);
    (one == all).then_some(one)
}
