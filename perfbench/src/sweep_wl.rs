//! The `sweep_cold` and `sweep_warm` workloads: the paper's full
//! 796-cell `SweepConfig::full()` grid at Full fidelity, with cells
//! stretched to [`CELL_SECS`], through `experiments::sweep::run_with`
//! on an engine with the cache on and `nproc` workers.
//!
//! `sweep_cold` starts every batch from an empty state root, so the
//! Full batched tick loop and series emission carry most of each cell
//! and cache writes and journal appends most of the rest; it never
//! touches sketches or the Summary path. `sweep_warm` re-serves the
//! grid from a cache set-up populated: key, probe, checksum and decode
//! carry all the work and the kernel none, so a kernel change must
//! leave it unmoved while a cache-format change shows here first.

use std::path::Path;

use engine::{Engine, EngineConfig, JobResult, JobSpec, ResultCache};
use experiments::sweep::{self, Sweep, SweepConfig};
use fleet::PopulationConfig;

use crate::check::{Checker, Digest, SWEEP_REFS};
use crate::layers::{self, PathLayer, TracedReport};
use crate::{
    end_to_end, measure, nproc, repeated_setup, timed, Args, BatchStat, Outcome, ScratchDir,
    Workload,
};

/// Simulated seconds per cell: long enough that the tick loop, not
/// per-cell fixed costs, dominates a cold batch (about 1.1 s on two
/// workers).
pub const CELL_SECS: u64 = 300;

/// Cell length of the cold workload's warm-up batch.
const WARMUP_SECS: u64 = 10;

/// Horizons (simulated seconds) of the kernel set-up/tick split.
const FIT_SECS: [u64; 2] = [1, CELL_SECS];

/// Fleet devices the traced run times the fleet crate's layers on.
const FLEET_PROBE_DEVICES: u64 = 2_000;

/// The benchmark's grid.
pub fn config(secs: u64) -> SweepConfig {
    SweepConfig {
        secs,
        ..SweepConfig::full()
    }
}

/// A cache-on engine over `root`.
pub fn engine(jobs: usize, root: &Path) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        use_cache: true,
        state_root: Some(root.to_path_buf()),
        ..EngineConfig::hermetic()
    })
}

/// The grid's specs (grid order) and the results a state root's cache
/// holds for them; `None` if any cell is missing.
fn stored_results(root: &Path, specs: &[JobSpec]) -> Option<Vec<JobResult>> {
    let cache = ResultCache::new(root.join("cache"));
    specs.iter().map(|s| cache.load(s)).collect()
}

/// Digest of `JobResult::encode` of every cell, in grid order.
pub fn digest(results: &[JobResult]) -> u64 {
    let mut d = Digest::default();
    for r in results {
        d.update(r.encode().as_bytes());
        d.update(b"\n");
    }
    d.value()
}

/// Whether the `Sweep` that `run_with` returned carries exactly the
/// stored results: baseline energies, then every cell's energy, misses
/// and switches, bit for bit.
fn sweep_matches(s: &Sweep, results: &[JobResult]) -> bool {
    let n_base = s.baselines.len();
    s.failed.is_empty()
        && n_base + s.cells.len() == results.len()
        && s.baselines
            .iter()
            .zip(results)
            .all(|((_, e), r)| e.to_bits() == r.energy_j.to_bits())
        && s.cells.iter().zip(&results[n_base..]).all(|(c, r)| {
            c.energy_j.to_bits() == r.energy_j.to_bits()
                && c.misses as u64 == r.misses
                && c.switches == r.clock_switches
        })
}

/// The grid of one seed.
pub struct Grid {
    /// Grid configuration.
    pub config: SweepConfig,
    /// Seed every cell runs with.
    pub seed: u64,
    /// Specs in grid order (what `run_with` submits).
    pub specs: Vec<JobSpec>,
}

impl Grid {
    /// The full grid at [`CELL_SECS`].
    pub fn new(seed: u64) -> Self {
        let config = config(CELL_SECS);
        let specs = sweep::specs(&config, seed);
        Grid {
            config,
            seed,
            specs,
        }
    }

    /// Runs the grid once on `engine`, timed; `results` are the stored
    /// results its output must equal (`None`: read them back from the
    /// cache at `root` afterwards and check their digest).
    fn batch(
        &self,
        engine: &Engine,
        root: &Path,
        results: Option<&[JobResult]>,
        checker: &Checker,
    ) -> (BatchStat, Option<Vec<JobResult>>) {
        let ((sweep, stats, _), wall_s, cpu_s) =
            timed(|| sweep::run_with(engine, &self.config, self.seed));
        let stored = match results {
            Some(_) => None,
            None => stored_results(root, &self.specs),
        };
        let ok = match (results, &stored) {
            (Some(r), _) => sweep_matches(&sweep, r) && stats.cache_hits == stats.total,
            (None, Some(r)) => checker.check(digest(r)) && sweep_matches(&sweep, r),
            (None, None) => false,
        };
        if !ok {
            eprintln!("perfbench: sweep batch output did not match: {stats:?}");
        }
        let stat = BatchStat {
            wall_s,
            cpu_s,
            attempted: stats.total as u64,
            jobs: (stats.total - stats.failed) as u64,
            failed: if ok { stats.failed } else { stats.total } as u64,
        };
        (stat, stored)
    }

    /// One cold batch on a fresh state root.
    pub fn cold_batch(&self, jobs: usize, checker: &Checker) -> BatchStat {
        let root = ScratchDir::new("sweep_cold");
        self.batch(&engine(jobs, root.path()), root.path(), None, checker)
            .0
    }
}

/// The cold workload's set-up: the grid, plus one short-cell batch
/// without a cache so first-touch costs are paid before timing. The
/// warm-up creates no cache files: on the measuring host's ext4 the
/// cost of creating files depends on how many a previous run just
/// deleted, which would make `setup_s` measure the run before it. (Its
/// journal, one appended file, goes to a scratch root.)
pub fn cold_setup(seed: u64) -> Grid {
    let grid = Grid::new(seed);
    let root = ScratchDir::new("sweep_warmup");
    let no_cache = Engine::new(EngineConfig {
        jobs: nproc(),
        state_root: Some(root.path().to_path_buf()),
        ..EngineConfig::hermetic()
    });
    sweep::run_with(&no_cache, &config(WARMUP_SECS), seed);
    grid
}

/// A populated cache to serve the warm workload from.
pub struct Warm {
    /// The grid.
    pub grid: Grid,
    root: ScratchDir,
    /// `nproc` workers over the populated state root.
    pub engine: Engine,
    /// One worker over the same state root.
    pub single: Engine,
    /// What the cache holds, in grid order.
    results: Vec<JobResult>,
}

impl Warm {
    /// Populates a fresh state root with one cold batch and checks what
    /// it stored.
    pub fn setup(seed: u64, checker: &Checker) -> Self {
        let grid = Grid::new(seed);
        let root = ScratchDir::new("sweep_warm");
        let engine = engine(nproc(), root.path());
        // A bad population shows in the checker, and as failed warm
        // batches once they are compared against it.
        let (_, stored) = grid.batch(&engine, root.path(), None, checker);
        Warm {
            single: self::engine(1, root.path()),
            results: stored.unwrap_or_default(),
            grid,
            root,
            engine,
        }
    }

    /// Re-serves the whole grid from the cache.
    pub fn batch(&self, engine: &Engine, checker: &Checker) -> BatchStat {
        self.grid
            .batch(engine, self.root.path(), Some(&self.results), checker)
            .0
    }
}

/// Runs `sweep_cold` or `sweep_warm` as `args` asks.
pub fn run(args: &Args) -> Outcome {
    let checker = Checker::new(SWEEP_REFS, args.seed);
    let mut out = if args.workload == Workload::SweepCold {
        let (grid, setup_s) = repeated_setup(5, || cold_setup(args.seed));
        drive(
            args,
            &grid,
            setup_s,
            true,
            || grid.cold_batch(nproc(), &checker),
            || grid.cold_batch(1, &checker),
        )
    } else {
        // Three set-ups, not five: each is a whole cold batch.
        let (warm, setup_s) = repeated_setup(3, || Warm::setup(args.seed, &checker));
        drive(
            args,
            &warm.grid,
            setup_s,
            false,
            || warm.batch(&warm.engine, &checker),
            || warm.batch(&warm.single, &checker),
        )
    };
    out.correct = checker.mismatches() == 0 && out.failed == 0;
    out
}

/// Measures either sweep workload given its batches at `nproc` and at
/// one worker.
fn drive(
    args: &Args,
    grid: &Grid,
    setup_s: f64,
    cold: bool,
    plain: impl Fn() -> BatchStat,
    single: impl Fn() -> BatchStat,
) -> Outcome {
    let mut out = Outcome::default();
    if !args.trace {
        let batches = measure(args.seconds, &plain);
        end_to_end(&mut out, setup_s, &batches);
        let one = single();
        out.attempted += one.attempted;
        out.failed += one.failed;
        return out;
    }
    // The sweep path takes no harness code, so its traced batch is the
    // plain one and the layers come from the replay.
    let rounds = layers::rounds(args.seconds, &plain, &plain, &single);
    let mut replay = layers::replay(&grid.specs, JobSpec::execute, FIT_SECS);
    layers::fleet_probe(
        &PopulationConfig::new(FLEET_PROBE_DEVICES, args.seed),
        FLEET_PROBE_DEVICES,
        &mut replay.timings,
    );
    let cells = grid.specs.len() as f64;
    let t = &replay.timings;
    let path = if cold {
        vec![
            PathLayer::per_call("engine.key_us", t, cells),
            PathLayer::per_call("engine.cache_probe_miss_us", t, cells),
            PathLayer::per_call("kernel-sim.run_us", t, cells),
            PathLayer::per_call("engine.cache_store_us", t, cells),
            PathLayer::per_call("engine.journal_record_us", t, cells),
            // Encoded once for the cache entry, once for the journal.
            PathLayer::per_call("engine.result_encode_us", t, 2.0 * cells).nested(),
        ]
    } else {
        vec![
            PathLayer::per_call("engine.key_us", t, cells),
            PathLayer::per_call("engine.cache_probe_hit_us", t, cells),
            PathLayer::per_call("engine.result_decode_us", t, cells).nested(),
        ]
    };
    TracedReport {
        path,
        fit: replay.fit,
        // A warm batch runs no worker: the calling thread serves every
        // hit.
        workers: if cold { nproc() } else { 1 },
        rounds,
        hit_ratio: if cold { 0.0 } else { 1.0 },
        ticks: if cold {
            grid.specs.iter().map(layers::ticks).sum()
        } else {
            0
        },
        jobs: grid.specs.len() as u64,
        sketch_records: 0,
        timings: replay.timings,
    }
    .write(&mut out);
    out.failed += replay.mismatches;
    out
}

/// The seed's digest, computed at one worker and at `nproc`; `None`
/// when the two disagree.
pub fn reference_digest(seed: u64) -> Option<u64> {
    let grid = Grid::new(seed);
    let digests: Vec<u64> = [1, nproc()]
        .iter()
        .map(|&jobs| {
            let root = ScratchDir::new("sweep_ref");
            sweep::run_with(&engine(jobs, root.path()), &grid.config, seed);
            digest(&stored_results(root.path(), &grid.specs).expect("every cell stored"))
        })
        .collect();
    (digests[0] == digests[1]).then_some(digests[0])
}
