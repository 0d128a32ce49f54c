//! A batch's up-front pass (keys, journal lookups, cache probes,
//! quarantines and backfills) gives the same outcome at any worker
//! count: each case runs one batch on copies of one state root at
//! several `jobs` and compares what came back and what was left on
//! disk.
//!
//! The counts each case expects are spelled out, including what a key
//! that repeats within the batch costs, so that the cases hold for a
//! pass run on one thread as much as for one split across many.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use engine::{
    BatchOutcome, BatchStats, ContentKey, Engine, EngineConfig, FaultPlan, FaultStats, JobSpec,
    Journal, ResultCache, WorkloadSpec,
};
use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange};
use workloads::Benchmark;

const BATCH: &str = "grid";

/// A fresh directory for one case.
fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "engine-parallel-probe-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Copies the directory tree at `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create copy");
    for entry in fs::read_dir(from).expect("read dir").flatten() {
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), target).expect("copy file");
        }
    }
}

/// 256 distinct one-second cells, then two that repeat earlier cells'
/// specs: cell 256 repeats cell 3 and cell 257 repeats cell 10. At
/// `jobs` 8 a batch this long probes on 7 threads (one per 40 cells,
/// rounded up) and keeps its first thread busy while the others start,
/// so the repeats are likely probed on another thread than the cells
/// they repeat.
fn specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for bench in [
        Benchmark::Mpeg,
        Benchmark::Web,
        Benchmark::Chess,
        Benchmark::TalkingEditor,
    ] {
        for up in [SpeedChange::One, SpeedChange::Peg] {
            for down in [SpeedChange::One, SpeedChange::Peg] {
                for seed in 1..=16 {
                    specs.push(JobSpec::new(
                        WorkloadSpec::Benchmark(bench),
                        PolicyDesc::interval(PredictorDesc::Past, Hysteresis::BEST, up, down),
                        1,
                        seed,
                    ));
                }
            }
        }
    }
    specs.push(specs[3].clone());
    specs.push(specs[10].clone());
    specs
}

/// A cache-on engine over `root` at `jobs` workers.
fn engine(root: &Path, jobs: usize, resume: bool, faults: Option<FaultPlan>) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        use_cache: true,
        resume,
        faults,
        state_root: Some(root.to_path_buf()),
        ..EngineConfig::hermetic()
    })
}

/// The cache log at `root`.
fn log_path(root: &Path) -> PathBuf {
    ResultCache::new(root.join("cache")).log_path()
}

/// Every line of the cache log at `root`, in file order.
fn log_lines(root: &Path) -> Vec<Vec<u8>> {
    let bytes = fs::read(log_path(root)).expect("read cache log");
    bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect()
}

/// The quarantine directory's files and their bytes.
fn quarantine(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let dir = root.join("cache").join("quarantine");
    fs::read_dir(dir).map_or_else(
        |_| BTreeMap::new(),
        |entries| {
            entries
                .flatten()
                .map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, fs::read(e.path()).expect("read quarantined record"))
                })
                .collect()
        },
    )
}

/// Every field of `stats` but the wall-clock time and the simulation
/// workers, which follow `jobs`.
fn counts(stats: &BatchStats) -> [usize; 6] {
    [
        stats.total,
        stats.cache_hits,
        stats.journal_hits,
        stats.executed,
        stats.failed,
        stats.quarantined,
    ]
}

/// The simulation workers a batch run at `jobs` uses.
fn workers(jobs: usize, stats: &BatchStats) -> usize {
    jobs.min(stats.executed + stats.failed)
}

/// Rewrites the cache log at `root`: every record of `flipped` keys has
/// one payload byte flipped, the record of `cut` is cut short, and a
/// garbage line follows the first record, with a line of key-prefixed
/// garbage for `garbage` at the end.
fn damage(root: &Path, flipped: &[ContentKey], cut: ContentKey, garbage: ContentKey) {
    let mut out = Vec::new();
    for (n, line) in log_lines(root).into_iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        let key =
            ContentKey::parse(std::str::from_utf8(&line[..32]).expect("hex key")).expect("key");
        let mut line = line;
        if flipped.contains(&key) {
            let tab = line.iter().position(|&b| b == b'\t').expect("payload");
            line[tab + 10] ^= 0x01;
        } else if key == cut {
            line.truncate(line.len() / 2);
        }
        out.extend_from_slice(&line);
        out.push(b'\n');
        if n == 0 {
            out.extend_from_slice(b"this line is not a record at all\n");
        }
    }
    out.extend_from_slice(format!("{garbage} 0123 not a cache record\n").as_bytes());
    fs::write(log_path(root), out).expect("rewrite cache log");
}

/// A state root whose cache holds every cell of `specs` and then the
/// damage of [`damage`]: the `flipped` cells flipped, cell 20 cut short
/// and cell 30 filed under garbage.
fn damaged_root(tag: &str, specs: &[JobSpec], flipped: &[usize]) -> PathBuf {
    let base = temp_root(tag);
    let cold = engine(&base, 2, false, None).run_batch(BATCH, specs);
    assert_eq!(cold.stats.executed, specs.len());
    let key = |i: usize| specs[i].key();
    let flipped: Vec<_> = flipped.iter().map(|&i| key(i)).collect();
    damage(&base, &flipped, key(20), key(30));
    base
}

/// Runs one batch at `jobs` on a fresh copy of `base`, and returns its
/// outcome and the copy.
fn run_on_copy(
    base: &Path,
    jobs: usize,
    resume: bool,
    faults: Option<FaultPlan>,
    specs: &[JobSpec],
) -> (BatchOutcome, PathBuf) {
    let root = base.with_extension(format!("jobs{jobs}"));
    let _ = fs::remove_dir_all(&root);
    copy_tree(base, &root);
    let outcome = engine(&root, jobs, resume, faults).run_batch(BATCH, specs);
    (outcome, root)
}

/// Serves `specs` at each of `jobs` from copies of one [`damaged_root`]
/// with the `flipped` cells flipped, and checks that every run reads the
/// `expected` [`counts`], returns the fault-free results and leaves the
/// same `quarantine/` files and log lines.
fn a_damaged_batch_reads_the_same(
    tag: &str,
    specs: &[JobSpec],
    flipped: &[usize],
    jobs: &[usize],
    expected: [usize; 6],
) {
    let reference = Engine::new(EngineConfig::hermetic()).run_batch(BATCH, specs);
    let base = damaged_root(tag, specs, flipped);
    let runs: Vec<_> = jobs
        .iter()
        .map(|&jobs| {
            let (out, root) = run_on_copy(&base, jobs, false, None, specs);
            assert_eq!(counts(&out.stats), expected, "jobs {jobs}");
            assert_eq!(out.stats.workers, workers(jobs, &out.stats));
            assert_eq!(out.results, reference.results, "jobs {jobs}");
            let quarantined = quarantine(&root);
            assert_eq!(quarantined.len(), out.stats.quarantined, "jobs {jobs}");
            let lines: BTreeSet<Vec<u8>> = log_lines(&root).into_iter().collect();
            let _ = fs::remove_dir_all(&root);
            (quarantined, lines)
        })
        .collect();
    for run in &runs[1..] {
        assert!(run == &runs[0], "a worker count changed the outcome");
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn a_damaged_warm_batch_reads_the_same_at_any_worker_count() {
    // Cells 3 (which cell 256 repeats), 40 and 50 are flipped. Five
    // damaged keys are quarantined, each once: cell 256's key left the
    // index with cell 3's record, so cell 256 is a plain miss. The five
    // and cell 256 are simulated; cell 257 is a hit.
    a_damaged_batch_reads_the_same(
        "damaged",
        &specs(),
        &[3, 40, 50],
        &[1, 2, 8],
        [258, 252, 0, 6, 0, 5],
    );
}

#[test]
fn a_small_damaged_warm_batch_reads_the_same_at_any_worker_count() {
    // 36 distinct cells, then repeats of cells 3 and 10: 38 cells, few
    // enough to probe on the calling thread alone at any `jobs`.
    let mut specs = specs()[..36].to_vec();
    specs.push(specs[3].clone());
    specs.push(specs[10].clone());
    // Cells 3 (which cell 36 repeats) and 35 are flipped. Four damaged
    // keys are quarantined, each once; they and cell 36, a plain miss,
    // are simulated, and cell 37 is a hit.
    a_damaged_batch_reads_the_same("small", &specs, &[3, 35], &[1, 8], [38, 33, 0, 5, 0, 4]);
}

#[test]
fn a_resumed_batch_backfills_the_same_records_at_any_worker_count() {
    let specs = specs();
    let reference = Engine::new(EngineConfig::hermetic()).run_batch(BATCH, &specs);
    // The cache holds cells 0..160 and the journal cells 120..200, so
    // cells 160..200 are journal hits the cache lacks.
    let base = temp_root("resume");
    engine(&base, 2, false, None).run_batch(BATCH, &specs[..160]);
    let mut journal = Journal::open(&base.join("state"), BATCH).expect("open journal");
    for (spec, r) in specs.iter().zip(&reference.results).take(200).skip(120) {
        journal
            .record(spec.key(), r.as_ref().expect("reference ok"))
            .expect("record");
    }
    drop(journal);
    let cached = log_lines(&base).len() - 1;
    let runs: Vec<_> = [1, 8]
        .into_iter()
        .map(|jobs| {
            let (out, root) = run_on_copy(&base, jobs, true, None, &specs);
            // Cells 256 and 257 repeat cached cells 3 and 10.
            assert_eq!(out.stats.journal_hits, 80, "jobs {jobs}");
            assert_eq!(out.stats.cache_hits, 122, "jobs {jobs}");
            assert_eq!(out.stats.executed, 56, "jobs {jobs}");
            assert_eq!(out.stats.workers, workers(jobs, &out.stats));
            assert_eq!(out.results, reference.results, "jobs {jobs}");
            let lines = log_lines(&root);
            // The 40 backfills follow the cached records in cell order,
            // before any simulated cell's store.
            let backfilled = lines[cached..cached + 40].to_vec();
            let fresh = ResultCache::new(root.join("cache"));
            for (spec, line) in specs[160..200].iter().zip(&backfilled) {
                assert!(line.starts_with(spec.key().to_string().as_bytes()));
                assert!(fresh.load(spec).is_some());
            }
            let all: BTreeSet<Vec<u8>> = lines.into_iter().collect();
            let _ = fs::remove_dir_all(&root);
            (counts(&out.stats), backfilled, all)
        })
        .collect();
    assert!(runs[1] == runs[0], "a worker count changed the outcome");
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn a_damaged_warm_batch_draws_the_same_faults_at_any_worker_count() {
    let specs = specs();
    let reference = Engine::new(EngineConfig::hermetic()).run_batch(BATCH, &specs);
    let base = damaged_root("chaos", &specs, &[3, 40, 50]);
    let plan = Some(FaultPlan::chaos(42));
    let (one, one_root) = run_on_copy(&base, 1, false, plan, &specs);
    let (many, many_root) = run_on_copy(&base, 8, false, plan, &specs);
    // What a pass in cell order draws: cell 256, whose key cell 3's
    // record took out of the index, draws nothing.
    let drawn = FaultStats {
        read_errors: 41,
        corruptions: 57,
        truncations: 38,
        write_errors: 20,
        torn_writes: 30,
        panics: 42,
        stalls: 0,
    };
    assert_eq!(one.faults, drawn);
    assert_eq!(many.faults, drawn);
    assert_eq!(counts(&one.stats), [258, 130, 0, 128, 0, 86]);
    assert_eq!(counts(&many.stats), counts(&one.stats));
    assert_eq!(one.results, reference.results);
    assert_eq!(many.results, reference.results);
    assert_eq!(quarantine(&one_root), quarantine(&many_root));
    for root in [one_root, many_root, base] {
        let _ = fs::remove_dir_all(root);
    }
}
