//! The live metrics page agrees with `metrics.json`.
//!
//! `/metrics` serves `engine::render_prometheus()`: the process-wide
//! sum of the tallies that workers publish while they run and that
//! each run's calling thread publishes. Each run's `RunMetrics`,
//! written as `metrics.json`, is derived from the same tallies, so
//! after any mix of batches and streams every scraped counter equals
//! the summed `RunMetrics` field, and a scrape taken mid-run never
//! shows more jobs executed than cells requested. The sum is
//! process-global, so this test has its binary to itself.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use engine::{Engine, EngineConfig, FaultPlan, JobSpec, WorkloadSpec};
use obs::RunMetrics;
use policies::{PolicyDesc, VoltageRule};
use sim_core::SimDuration;
use workloads::Benchmark;

/// `n` distinct 200-ms Web cells under the paper's best policy with
/// voltage scaling, seeded from `first_seed` up.
fn cells(n: u64, first_seed: u64) -> Vec<JobSpec> {
    (first_seed..first_seed + n)
        .map(|seed| {
            let mut spec = JobSpec::new(
                WorkloadSpec::Benchmark(Benchmark::Web),
                PolicyDesc::best_from_paper().with_voltage_rule(VoltageRule::default()),
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

/// Reads one count from a run's metrics.
type Field = fn(&RunMetrics) -> u64;

/// Every counter family beside the `metrics.json` field it sums.
const FAMILIES: [(&str, Field); 12] = [
    ("engine_cells_total", |m| m.total),
    ("engine_jobs_executed_total", |m| m.executed),
    ("engine_jobs_failed_total", |m| m.failed),
    ("engine_job_retries_total", |m| m.retries),
    ("engine_cache_hits_total", |m| m.cache_hits),
    ("engine_journal_hits_total", |m| m.journal_hits),
    ("engine_quarantined_total", |m| m.quarantined),
    ("engine_failures_dropped_total", |m| m.failures_dropped),
    ("engine_sim_us_total", |m| m.sim_us),
    ("engine_sched_dropped_total", |m| m.sched_dropped),
    ("engine_clock_switches_total", |m| m.clock_switches),
    ("engine_voltage_switches_total", |m| m.voltage_switches),
];

/// Runs `run` while a second thread scrapes `/metrics` every 20 ms.
/// Returns what `run` returned and, for each scrape, the cells and
/// executed jobs counted since `run` started.
fn scraped_while<T>(run: impl FnOnce() -> T) -> (T, Vec<(u64, u64)>) {
    let counts = || {
        let text = engine::render_prometheus();
        (
            scrape(&text, "engine_cells_total"),
            scrape(&text, "engine_jobs_executed_total"),
        )
    };
    let (cells0, executed0) = counts();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut seen = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let (cells, executed) = counts();
                seen.push((cells - cells0, executed - executed0));
                std::thread::sleep(Duration::from_millis(20));
            }
            seen
        });
        let out = run();
        done.store(true, Ordering::SeqCst);
        (out, scraper.join().expect("scraper thread"))
    })
}

/// Checks the scrapes of one run that executed `executed` jobs: none
/// shows more jobs executed than cells, and one taken while jobs were
/// still unpublished, so before the run returned, already shows cells.
fn assert_cells_lead(what: &str, seen: &[(u64, u64)], executed: u64) {
    for &(c, e) in seen {
        assert!(c >= e, "{what}: a scrape read {c} cells but {e} executed");
    }
    assert!(
        seen.iter().any(|&(c, e)| c > 0 && e < executed),
        "{what}: no mid-run scrape showed cells: {seen:?}"
    );
}

#[test]
fn scraped_counters_equal_summed_run_metrics() {
    let root = std::env::temp_dir().join(format!("live-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Two workers, so every total passes through `Tally::merge`.
    let config = EngineConfig {
        jobs: 2,
        use_cache: true,
        state_root: Some(PathBuf::from(&root)),
        ..EngineConfig::hermetic()
    };
    // Some cells retry, some run out of retries, and half the cache
    // reads come back corrupt.
    let chaos = Engine::new(EngineConfig {
        faults: Some(FaultPlan {
            seed: 5,
            panic: 0.5,
            max_panics: 3,
            corrupt: 0.5,
            ..FaultPlan::default()
        }),
        ..config.clone()
    });
    // Mid-run scrapes: every job stalls 25 ms of wall clock, so both
    // runs outlast the workers' 250-ms publish interval.
    let stalled = Engine::new(EngineConfig {
        faults: Some(FaultPlan {
            stall: 1.0,
            stall_ms: 25,
            ..FaultPlan::default()
        }),
        ..config.clone()
    });
    let (slow_stream, seen) = scraped_while(|| {
        stalled.run_stream(
            "live-metrics-slow-stream",
            cells(40, 3_000),
            |n: &mut u64, _, _, _, _| *n += 1,
            |a, b| *a += b,
        )
    });
    assert_cells_lead("stream", &seen, slow_stream.metrics.executed);
    let (slow_batch, seen) =
        scraped_while(|| stalled.run_batch("live-metrics-slow-batch", &cells(24, 4_000)));
    assert_cells_lead("cold batch", &seen, slow_batch.metrics.executed);

    let grid = cells(24, 1);
    // The cold batch fails some cells, so it keeps its journal ...
    let cold = chaos.run_batch("live-metrics", &grid);
    // ... which a resumed run without cache or faults replays.
    let resumed = Engine::new(EngineConfig {
        resume: true,
        use_cache: false,
        ..config.clone()
    })
    .run_batch("live-metrics", &grid);
    // The warm batch reads the cold batch's cache entries.
    let warm = chaos.run_batch("live-metrics", &grid);
    let healthy = Engine::new(config.clone()).run_stream(
        "live-metrics-stream",
        cells(16, 1_000),
        |n: &mut u64, _, _, _, _| *n += 1,
        |a, b| *a += b,
    );
    // Every device fails, past the stream's retention cap of 32.
    let failing = Engine::new(EngineConfig {
        max_retries: 0,
        faults: Some(FaultPlan {
            panic: 1.0,
            max_panics: u32::MAX,
            ..FaultPlan::default()
        }),
        ..config
    })
    .run_stream(
        "live-metrics-failing",
        cells(40, 2_000),
        |n: &mut u64, _, _, _, _| *n += 1,
        |a, b| *a += b,
    );
    let text = engine::render_prometheus();
    let _ = std::fs::remove_dir_all(&root);

    let runs = [
        &slow_stream.metrics,
        &slow_batch.metrics,
        &cold.metrics,
        &resumed.metrics,
        &warm.metrics,
        &healthy.metrics,
        &failing.metrics,
    ];
    let sum = |field: Field| runs.iter().map(|m| field(m)).sum::<u64>();
    for (name, field) in FAMILIES {
        let want = sum(field);
        assert_eq!(scrape(&text, name), want, "{name}");
        // Equality proves little unless the runs hit every path. Only
        // a bounded scheduler log drops records, and nothing sets one.
        if name != "engine_sched_dropped_total" {
            assert!(want > 0, "no run counted {name}: {runs:?}");
        }
    }
    assert_eq!(
        scrape(&text, "engine_job_latency_us_count"),
        sum(|m| m.executed) + sum(|m| m.failed),
        "one latency sample per job a worker ran"
    );
}
