//! The live metrics plane agrees with `metrics.json`.
//!
//! `/metrics` serves `obs::registry::render_prometheus()`, which the
//! worker pool and the batch path bump while jobs run. Each run's
//! `RunMetrics`, written as `metrics.json`, is derived afterwards from
//! the workers' tallies. Both count the same jobs, so after any mix of
//! batches and streams the scraped counters must equal the summed
//! `RunMetrics` fields. The registry is process-global, so this test
//! has its binary to itself.

use std::path::PathBuf;

use engine::{Engine, EngineConfig, FaultPlan, JobSpec, WorkloadSpec};
use obs::RunMetrics;
use policies::PolicyDesc;
use sim_core::SimDuration;
use workloads::Benchmark;

/// `n` distinct 200-ms Web cells, seeded from `first_seed` up.
fn cells(n: u64, first_seed: u64) -> Vec<JobSpec> {
    (first_seed..first_seed + n)
        .map(|seed| {
            let mut spec = JobSpec::new(
                WorkloadSpec::Benchmark(Benchmark::Web),
                PolicyDesc::best_from_paper(),
                1,
                seed,
            );
            spec.duration = SimDuration::from_millis(200);
            spec
        })
        .collect()
}

/// The value of the unlabelled sample `name` in Prometheus text.
fn scrape(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` sample in the scrape:\n{text}"))
}

#[test]
fn scraped_counters_equal_summed_run_metrics() {
    obs::registry::set_enabled(true);
    let root = std::env::temp_dir().join(format!("live-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Two workers, so every total passes through `Tally::merge`; the
    // plan makes some cells retry and one run out of retries.
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        use_cache: true,
        state_root: Some(PathBuf::from(&root)),
        faults: Some(FaultPlan {
            seed: 5,
            panic: 0.5,
            max_panics: 3,
            ..FaultPlan::default()
        }),
        ..EngineConfig::hermetic()
    });
    let grid = cells(24, 1);
    let cold = engine.run_batch("live-metrics", &grid);
    let warm = engine.run_batch("live-metrics", &grid);
    let stream = engine.run_stream(
        "live-metrics-stream",
        cells(16, 1_000),
        |n: &mut u64, _, _, _, _| *n += 1,
        |a, b| *a += b,
    );
    obs::registry::set_enabled(false);
    let text = obs::registry::render_prometheus();
    let _ = std::fs::remove_dir_all(&root);

    let runs: [&RunMetrics; 3] = [&cold.metrics, &warm.metrics, &stream.metrics];
    let sum = |field: fn(&RunMetrics) -> u64| runs.iter().map(|m| field(m)).sum::<u64>();
    let (executed, failed) = (sum(|m| m.executed), sum(|m| m.failed));
    let retries = sum(|m| m.retries);
    // Equality proves little unless the runs hit every path.
    assert!(executed > 0 && failed > 0 && retries > 0, "{runs:?}");
    assert!(
        warm.metrics.cache_hits > 0,
        "the warm batch reads the cache"
    );

    assert_eq!(scrape(&text, "engine_jobs_executed_total"), executed);
    assert_eq!(scrape(&text, "engine_jobs_failed_total"), failed);
    assert_eq!(scrape(&text, "engine_job_retries_total"), retries);
    assert_eq!(
        scrape(&text, "engine_job_latency_us_count"),
        executed + failed,
        "one latency sample per job a worker ran"
    );
    assert_eq!(
        scrape(&text, "engine_cache_hits_total"),
        cold.metrics.cache_hits + warm.metrics.cache_hits
    );
    assert_eq!(
        scrape(&text, "engine_cells_total"),
        cold.metrics.total + warm.metrics.total
    );
}
