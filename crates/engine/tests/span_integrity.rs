//! Span-profiler integrity under the engine's failure paths.
//!
//! Two invariants from the issue: every span enter gets a matching
//! exit even when jobs panic and are retried through the engine's
//! `catch_unwind` fence, and the merged span tree (structure and
//! counts, not timings) is identical whatever the worker count.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use engine::{Engine, EngineConfig, FaultPlan, JobSpec, WorkloadSpec};
use obs::span;
use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange};
use workloads::Benchmark;

/// Serializes tests in this binary: they toggle the process-global
/// profiling flag and share the main thread's span buffer.
fn profiling_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("span-integrity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small grid of distinct 2-second cells.
fn grid() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for bench in [Benchmark::Mpeg, Benchmark::Web] {
        for up in [SpeedChange::One, SpeedChange::Peg] {
            specs.push(JobSpec::new(
                WorkloadSpec::Benchmark(bench),
                PolicyDesc::interval(PredictorDesc::Past, Hysteresis::BEST, up, SpeedChange::Peg),
                2,
                42,
            ));
        }
    }
    specs
}

fn config(jobs: usize, root: PathBuf) -> EngineConfig {
    EngineConfig {
        jobs,
        state_root: Some(root),
        ..EngineConfig::hermetic()
    }
}

#[test]
fn panicking_retried_jobs_keep_spans_balanced() {
    let _l = profiling_lock();
    span::set_enabled(true);
    let _ = span::drain();
    let specs = grid();
    let root = temp_root("panics");

    // Every cell panics on its first two attempts inside the worker's
    // catch_unwind fence and succeeds on the third.
    let faulted = Engine::new(EngineConfig {
        faults: Some(FaultPlan {
            panic: 1.0,
            max_panics: 2,
            ..FaultPlan::default()
        }),
        ..config(2, root.clone())
    })
    .run_batch("spans-panic", &specs);
    span::set_enabled(false);
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(faulted.stats.failed, 0, "retries recovered every cell");
    assert_eq!(faulted.faults.panics, 2 * specs.len() as u64);
    assert_eq!(
        span::in_flight(),
        0,
        "no span left open on the collector thread"
    );

    let tree = faulted.profile.tree();
    assert_eq!(tree.dropped, 0);
    // Balanced enter/exit means every cell's spans all closed: one
    // "job" per cell (held across all three attempts), one "simulate"
    // per cell (injected panics fire before the simulator starts, so
    // only the clean attempt reaches it).
    assert_eq!(
        tree.count_of("job"),
        specs.len() as u64,
        "\n{}",
        tree.shape()
    );
    assert_eq!(
        tree.count_of("simulate"),
        specs.len() as u64,
        "\n{}",
        tree.shape()
    );
    assert_eq!(
        tree.find(&["job", "simulate"]).map(|n| n.count),
        Some(specs.len() as u64),
        "simulate nests under job:\n{}",
        tree.shape()
    );

    // The faulted run's span tree matches a clean run's exactly —
    // retries must add no span mass.
    span::set_enabled(true);
    let _ = span::drain();
    let root = temp_root("clean");
    let clean = Engine::new(config(2, root.clone())).run_batch("spans-panic", &specs);
    span::set_enabled(false);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        tree.shape(),
        clean.profile.tree().shape(),
        "panic+retry changed the span tree"
    );
}

#[test]
fn span_tree_is_identical_across_worker_counts() {
    let _l = profiling_lock();
    let specs = grid();

    let mut shapes = Vec::new();
    for jobs in [1usize, 4] {
        span::set_enabled(true);
        let _ = span::drain();
        let root = temp_root(&format!("jobs{jobs}"));
        let out = Engine::new(config(jobs, root.clone())).run_batch("spans-jobs", &specs);
        span::set_enabled(false);
        let _ = std::fs::remove_dir_all(&root);
        assert!(!out.profile.is_empty(), "profiling was on");
        shapes.push(out.profile.tree().shape());
    }
    assert_eq!(
        shapes[0], shapes[1],
        "merged span tree must not depend on --jobs"
    );
}

#[test]
fn waiting_threads_record_no_stage() {
    let _l = profiling_lock();
    let specs = grid();
    span::set_enabled(true);
    let _ = span::drain();
    let root = temp_root("waiting");
    let engine = Engine::new(config(2, root.clone()));
    let batch = engine.run_batch("spans-waiting", &specs);
    let stream = engine.run_stream(
        "spans-waiting",
        specs.clone(),
        |_: &mut (), _, _, _, _| {},
        |_, _| {},
    );
    span::set_enabled(false);
    let _ = std::fs::remove_dir_all(&root);

    // A thread blocked on a channel is not doing the work of a stage:
    // neither entry point profiles its waiting as `drain` or
    // `generate`, while the real work (jobs, journal writes) stays
    // attributed.
    for out in [&batch.profile, &stream.profile] {
        let tree = out.tree();
        assert_eq!(
            tree.count_of("job"),
            specs.len() as u64,
            "\n{}",
            tree.shape()
        );
        for stage in ["drain", "generate"] {
            assert_eq!(tree.count_of(stage), 0, "`{stage}` span:\n{}", tree.shape());
        }
    }
    assert_eq!(
        batch.profile.tree().count_of("journal_append"),
        specs.len() as u64
    );
}

#[test]
fn disabled_profiler_yields_empty_profile() {
    let _l = profiling_lock();
    span::set_enabled(false);
    let _ = span::drain();
    let root = temp_root("off");
    let out = Engine::new(config(2, root.clone())).run_batch("spans-off", &grid());
    let _ = std::fs::remove_dir_all(&root);
    assert!(out.profile.is_empty(), "no spans recorded when disabled");
    assert!(out.metrics.stages.is_empty(), "no stage breakdown either");
    assert!(
        out.metrics.job_latency_max_us > 0.0,
        "latency percentiles are always on, profiler or not"
    );
}
