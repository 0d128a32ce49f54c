//! Per-layer timings, taken around the calls the harness makes into
//! each crate's public functions.
//!
//! A traced run measures in two ways. Where the workload's own path
//! accepts harness code — the fleet's spec iterator, fold closure and
//! merge closure passed to `run_stream` — the harness times the real
//! calls. Everything the engine calls internally (`JobSpec::key`,
//! `execute`, the cache and the journal) is timed by a single-threaded
//! replay over the workload's own specs ([`replay`]). Each layer's busy
//! time per batch ([`PathLayer`]) is then its mean call time times the
//! calls the workload's path makes, and `.share` is that over the sum
//! for the path. A layer the path never calls is still timed on the
//! workload's specs, with a share of 0.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use engine::{CacheProbe, FaultInjector, JobResult, JobSpec, Journal, ResultCache, WorkloadSpec};
use fleet::{FleetAccum, PopulationConfig};
use kernel_sim::KernelConfig;
use sim_core::SimDuration;
use workloads::Benchmark;

use crate::stats::{median, Timings};
use crate::{wall_per_job, BatchStat, Outcome, ScratchDir};

/// Every timed layer, in report order; each is reported as `.p50`,
/// `.p99` and `.share`.
pub const TIMED_LAYERS: [&str; 11] = [
    "fleet.spec_for_us",
    "fleet.fold_result_us",
    "fleet.merge_us",
    "engine.key_us",
    "kernel-sim.run_us",
    "engine.cache_probe_miss_us",
    "engine.result_encode_us",
    "engine.cache_store_us",
    "engine.journal_record_us",
    "engine.cache_probe_hit_us",
    "engine.result_decode_us",
];

/// Scheduler ticks a spec simulates.
pub fn ticks(spec: &JobSpec) -> u64 {
    let quantum = spec.quantum.unwrap_or(KernelConfig::default().quantum);
    spec.duration.as_micros() / quantum.as_micros()
}

/// Busy-waits for `delay`. Used only by the sensitivity self-check to
/// slow the fleet's fold closure from outside the program.
pub fn spin(delay: Duration) {
    let started = Instant::now();
    while started.elapsed() < delay {
        std::hint::spin_loop();
    }
}

/// Timed calls, by layer name.
pub type LayerTimings = BTreeMap<&'static str, Timings>;

/// Kernel set-up versus tick-loop cost, fitted from `JobSpec::execute`
/// at two horizons.
#[derive(Debug, Clone, Default)]
pub struct KernelFit {
    /// Median intercept: per-run cost independent of length, µs.
    pub setup_us: f64,
    /// Median slope per benchmark, ns per tick, in [`Benchmark::ALL`]
    /// order.
    pub ns_per_tick: [f64; 4],
}

/// The result of a [`replay`].
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-layer call timings.
    pub timings: LayerTimings,
    /// Set-up/tick split.
    pub fit: KernelFit,
    /// Cache hits or decodes that did not return the stored result.
    pub mismatches: u64,
}

/// Times `f` on every item, recording each call under `layer`.
fn time_each<I, T>(
    timings: &mut LayerTimings,
    layer: &'static str,
    items: impl IntoIterator<Item = I>,
    mut f: impl FnMut(I) -> T,
) -> Vec<T> {
    let calls = timings.entry(layer).or_default();
    items
        .into_iter()
        .map(|item| {
            let t = Instant::now();
            let out = std::hint::black_box(f(item));
            calls.record_since(t);
            out
        })
        .collect()
}

/// Replays the engine-internal layers over `specs` on one thread, one
/// layer at a time over every spec — the way a batch probes, runs and
/// stores — so each layer runs with its own code and data hot: key,
/// cache probe (miss), the workload's own `run` call, result encode,
/// cache store, journal record, cache probe (hit), result decode, and
/// `JobSpec::execute` at the two `fit_secs` horizons.
pub fn replay(
    specs: &[JobSpec],
    run: impl Fn(&JobSpec) -> JobResult,
    fit_secs: [u64; 2],
) -> Replay {
    let root = ScratchDir::new("replay");
    let cache = ResultCache::new(root.path().join("cache"));
    let mut journal = Journal::open(&root.path().join("state"), "replay").expect("open journal");
    let inert = FaultInjector::inert();
    let mut t = LayerTimings::new();
    let keys = time_each(&mut t, "engine.key_us", specs, JobSpec::key);
    let misses = time_each(&mut t, "engine.cache_probe_miss_us", specs, |s| {
        cache.probe(s, &inert)
    });
    let results = time_each(&mut t, "kernel-sim.run_us", specs, run);
    let encoded = time_each(
        &mut t,
        "engine.result_encode_us",
        &results,
        JobResult::encode,
    );
    time_each(
        &mut t,
        "engine.cache_store_us",
        specs.iter().zip(&results),
        |(s, r)| cache.store(s, r).expect("store in scratch cache"),
    );
    time_each(
        &mut t,
        "engine.journal_record_us",
        keys.iter().zip(&results),
        |(&k, r)| journal.record(k, r).expect("append to scratch journal"),
    );
    let hits = time_each(&mut t, "engine.cache_probe_hit_us", specs, |s| {
        cache.probe(s, &inert)
    });
    let decoded = time_each(&mut t, "engine.result_decode_us", &encoded, |e| {
        JobResult::decode(e)
    });
    let mismatches = (0..specs.len())
        .filter(|&i| {
            misses[i] != CacheProbe::Miss
                || hits[i] != CacheProbe::Hit(results[i])
                || decoded[i] != Some(results[i])
        })
        .count() as u64;

    // The set-up/tick split: `execute` at both horizons, per spec.
    let at: Vec<Vec<(f64, f64)>> = fit_secs
        .iter()
        .map(|&secs| {
            specs
                .iter()
                .map(|spec| {
                    let mut s = spec.clone();
                    s.duration = SimDuration::from_secs(secs);
                    let started = Instant::now();
                    std::hint::black_box(s.execute());
                    (ticks(&s) as f64, started.elapsed().as_secs_f64() * 1e6)
                })
                .collect()
        })
        .collect();
    let points: Vec<(usize, [(f64, f64); 2])> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let WorkloadSpec::Benchmark(bench) = spec.workload else {
                panic!("benchmark workloads only");
            };
            let b = Benchmark::ALL
                .iter()
                .position(|&x| x == bench)
                .expect("known");
            (b, [at[0][i], at[1][i]])
        })
        .collect();
    Replay {
        timings: t,
        fit: fit(&points),
        mismatches,
    }
}

/// Per-spec two-point lines; medians of their intercepts and slopes.
fn fit(points: &[(usize, [(f64, f64); 2])]) -> KernelFit {
    let line = |[(n0, t0), (n1, t1)]: [(f64, f64); 2]| {
        let slope = (t1 - t0) / (n1 - n0);
        (t0 - slope * n0, slope)
    };
    let intercepts: Vec<f64> = points.iter().map(|&(_, p)| line(p).0).collect();
    let mut ns_per_tick = [0.0; 4];
    for (b, slot) in ns_per_tick.iter_mut().enumerate() {
        let slopes: Vec<f64> = points
            .iter()
            .filter(|(bench, _)| *bench == b)
            .map(|&(_, p)| line(p).1 * 1e3)
            .collect();
        *slot = median(&slopes);
    }
    KernelFit {
        setup_us: median(&intercepts),
        ns_per_tick,
    }
}

/// Times the fleet crate's layers on a population the workload does
/// not stream: `spec_for` per device, `fold_result` per device, and
/// `FleetAccum::merge` of eight partial accumulators.
pub fn fleet_probe(population: &PopulationConfig, devices: u64, timings: &mut LayerTimings) {
    let mut parts = vec![FleetAccum::default(); 8];
    for device in 0..devices {
        let t = Instant::now();
        let spec = population.spec_for(device);
        timings
            .entry("fleet.spec_for_us")
            .or_default()
            .record_since(t);
        let (result, timeline) = spec.execute_timeline(fleet::TIMELINE_WINDOWS);
        let acc = &mut parts[device as usize % 8];
        let t = Instant::now();
        fleet::fold_result(acc, device, &spec, &result, &timeline);
        timings
            .entry("fleet.fold_result_us")
            .or_default()
            .record_since(t);
    }
    let mut total = FleetAccum::default();
    for part in &parts {
        let t = Instant::now();
        total.merge(part);
        timings.entry("fleet.merge_us").or_default().record_since(t);
    }
}

/// One layer's busy time per batch on the workload's path.
#[derive(Debug, Clone, Copy)]
pub struct PathLayer {
    /// Layer name (one of [`TIMED_LAYERS`]).
    pub name: &'static str,
    /// Busy µs per batch.
    pub busy_us: f64,
    /// Runs inside another path layer (encode inside store, decode
    /// inside a probe hit), so it is not added to the path's total.
    pub nested: bool,
}

impl PathLayer {
    /// `calls` calls per batch at the layer's mean replayed cost.
    pub fn per_call(name: &'static str, timings: &LayerTimings, calls: f64) -> Self {
        PathLayer {
            name,
            busy_us: timings.get(name).map_or(0.0, Timings::mean_us) * calls,
            nested: false,
        }
    }

    /// The layer's whole recorded time spread over `batches` batches.
    pub fn measured(name: &'static str, timings: &LayerTimings, batches: usize) -> Self {
        PathLayer {
            name,
            busy_us: timings.get(name).map_or(0.0, Timings::total_us) / batches as f64,
            nested: false,
        }
    }

    /// Marks the layer nested.
    pub fn nested(mut self) -> Self {
        self.nested = true;
        self
    }
}

/// Alternates untraced, traced and single-worker batches until
/// `seconds` have passed (at least two rounds).
pub fn rounds(
    seconds: f64,
    mut plain: impl FnMut() -> BatchStat,
    mut traced: impl FnMut() -> BatchStat,
    mut single: impl FnMut() -> BatchStat,
) -> [Vec<BatchStat>; 3] {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut out: [Vec<BatchStat>; 3] = Default::default();
    while out[0].len() < 2 || started.elapsed() < budget {
        out[0].push(plain());
        out[1].push(traced());
        out[2].push(single());
    }
    out
}

/// Everything a traced run reports.
#[derive(Debug)]
pub struct TracedReport {
    /// Per-layer call timings (path and replay).
    pub timings: LayerTimings,
    /// Busy time per batch of each layer the workload's path calls.
    pub path: Vec<PathLayer>,
    /// Kernel set-up/tick split.
    pub fit: KernelFit,
    /// Threads doing the workload's work.
    pub workers: usize,
    /// Untraced, traced and single-worker batches.
    pub rounds: [Vec<BatchStat>; 3],
    /// Cache hits over cache probes on the path, per batch.
    pub hit_ratio: f64,
    /// Ticks simulated per batch.
    pub ticks: u64,
    /// Jobs completed per batch.
    pub jobs: u64,
    /// Sketch records folded per batch.
    pub sketch_records: u64,
}

impl TracedReport {
    /// Appends every per-layer metric to `out`.
    pub fn write(&self, out: &mut Outcome) {
        let busy: f64 = self
            .path
            .iter()
            .filter(|l| !l.nested)
            .map(|l| l.busy_us)
            .sum();
        for name in TIMED_LAYERS {
            let t = self.timings.get(name).cloned().unwrap_or_default();
            let on_path = self.path.iter().find(|l| l.name == name);
            out.push(format!("{name}.p50"), t.percentile_us(0.5), "us");
            out.push(format!("{name}.p99"), t.percentile_us(0.99), "us");
            out.push(
                format!("{name}.share"),
                on_path.map_or(0.0, |l| l.busy_us / busy),
                "ratio",
            );
        }
        out.push("kernel-sim.run_setup_us", self.fit.setup_us, "us");
        for (b, ns) in Benchmark::ALL.iter().zip(self.fit.ns_per_tick) {
            out.push(format!("kernel-sim.ns_per_tick.{}", b.name()), ns, "ns");
        }
        out.push("engine.cache_hit_ratio", self.hit_ratio, "ratio");
        let rate = |batches: &[BatchStat]| 1.0 / wall_per_job(batches);
        let [plain, traced, single] = &self.rounds;
        out.push(
            "engine.overhead_share",
            1.0 - busy / (self.workers as f64 * wall_per_job(plain) * self.jobs as f64 * 1e6),
            "ratio",
        );
        out.push(
            "engine.scaling_eff",
            rate(plain) / (crate::nproc() as f64 * rate(single)),
            "ratio",
        );
        out.push("kernel-sim.ticks", self.ticks as f64, "count");
        out.push("engine.jobs", self.jobs as f64, "count");
        out.push("fleet.sketch_records", self.sketch_records as f64, "count");
        out.push(
            "trace.overhead_pct",
            (wall_per_job(traced) / wall_per_job(plain) - 1.0) * 100.0,
            "%",
        );
        for batches in &self.rounds {
            out.attempted += batches.iter().map(|b| b.attempted).sum::<u64>();
            out.failed += batches.iter().map(|b| b.failed).sum::<u64>();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_point_fit_recovers_intercept_and_slope() {
        // 10 µs set-up, 0.05 µs (50 ns) per tick.
        let p = |b, n0: f64, n1: f64| (b, [(n0, 10.0 + 0.05 * n0), (n1, 10.0 + 0.05 * n1)]);
        let f = fit(&[
            p(0, 100.0, 500.0),
            p(1, 100.0, 30_000.0),
            p(2, 1.0, 2.0),
            p(3, 5.0, 9.0),
        ]);
        assert!((f.setup_us - 10.0).abs() < 1e-9);
        for ns in f.ns_per_tick {
            assert!((ns - 50.0).abs() < 1e-6, "{ns}");
        }
    }
}
