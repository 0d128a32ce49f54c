//! The live `/metrics` page: the process-wide sum of every published
//! [`Tally`], rendered as Prometheus text.
//!
//! Workers publish what they counted every quarter second and when
//! they run dry; a batch's calling thread publishes its cells and
//! reused results before its pool starts, and its failures when the
//! pool ends (see the pool's module docs). A scrape renders the sum, so
//! it never shows more jobs executed than cells, and at the end of a
//! run it equals the summed `metrics.json` fields: both read the same
//! tallies. Nothing here feeds back into a
//! simulation, so every deterministic artifact is the same whether
//! anyone scrapes or not.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::pool::Tally;

/// Batch results and failure reports sent by workers but not yet
/// drained by the calling thread.
static QUEUE_DEPTH: AtomicI64 = AtomicI64::new(0);

/// Everything published so far in this process.
struct Live {
    sum: Tally,
    /// Jobs completed, by worker id.
    worker_jobs: Vec<u64>,
    /// When the previous scrape rendered, and the completions it read.
    last_scrape: (Instant, u64),
}

static LIVE: LazyLock<Mutex<Live>> = LazyLock::new(|| {
    Mutex::new(Live {
        sum: Tally::default(),
        worker_jobs: Vec::new(),
        last_scrape: (Instant::now(), 0),
    })
});

/// The process sum. A panic mid-merge leaves every field a valid
/// count, so a poisoned lock is taken over rather than failing every
/// later publish and scrape.
fn live() -> MutexGuard<'static, Live> {
    LIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `tally` into the process sum. A worker's tally also counts
/// toward that worker's sample, which exists from its first publish.
pub(crate) fn publish(worker: Option<usize>, tally: &Tally) {
    let mut live = live();
    live.sum.merge(tally);
    if let Some(w) = worker {
        if live.worker_jobs.len() <= w {
            live.worker_jobs.resize(w + 1, 0);
        }
        live.worker_jobs[w] += tally.executed;
    }
}

/// Moves the result-queue depth by `delta`.
pub(crate) fn queued(delta: i64) {
    QUEUE_DEPTH.fetch_add(delta, Ordering::Relaxed);
}

/// Writes a family's `# HELP` and `# TYPE` lines.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Renders everything published so far in Prometheus text exposition
/// format 0.0.4. Every family is present from the first scrape, at 0
/// until something is published. `engine_jobs_per_sec` is the
/// completion rate since the previous render.
pub fn render_prometheus() -> String {
    let mut guard = live();
    let live = &mut *guard;
    let s = &live.sum;
    let mut out = String::new();
    let counters = [
        (
            "engine_cells_total",
            "Cells (fleet: devices) requested.",
            s.total,
        ),
        (
            "engine_jobs_executed_total",
            "Jobs (fleet: devices) completed.",
            s.executed,
        ),
        (
            "engine_jobs_failed_total",
            "Jobs that produced no result.",
            s.failed,
        ),
        (
            "engine_job_retries_total",
            "Job attempts beyond the first.",
            s.retries,
        ),
        (
            "engine_cache_hits_total",
            "Cells served from the cache.",
            s.cache_hits,
        ),
        (
            "engine_journal_hits_total",
            "Cells served from a resumed journal.",
            s.journal_hits,
        ),
        (
            "engine_quarantined_total",
            "Damaged cache entries quarantined.",
            s.quarantined,
        ),
        (
            "engine_failures_dropped_total",
            "Failure reports dropped by bounded retention (still counted as failed).",
            s.failures_dropped,
        ),
        (
            "engine_sim_us_total",
            "Simulated time of completed jobs, µs.",
            s.sim_us,
        ),
        (
            "engine_sched_dropped_total",
            "Scheduler log records dropped.",
            s.sched_dropped,
        ),
        (
            "engine_clock_switches_total",
            "Simulated clock-step transitions.",
            s.clock_switches,
        ),
        (
            "engine_voltage_switches_total",
            "Simulated voltage transitions.",
            s.voltage_switches,
        ),
    ];
    for (name, help, value) in counters {
        family(&mut out, name, "counter", help);
        let _ = writeln!(out, "{name} {value}");
    }
    let name = "engine_worker_jobs_total";
    family(&mut out, name, "counter", "Jobs completed, by worker.");
    for (w, jobs) in live.worker_jobs.iter().enumerate() {
        let _ = writeln!(out, "{name}{{worker=\"{w}\"}} {jobs}");
    }

    let now = Instant::now();
    let (then, then_executed) = std::mem::replace(&mut live.last_scrape, (now, s.executed));
    let rate = (s.executed - then_executed) as f64 / (now - then).as_secs_f64().max(1e-9);
    let hit_rate = if s.total > 0 {
        s.cache_hits as f64 / s.total as f64
    } else {
        0.0
    };
    let gauges = [
        (
            "engine_result_queue_depth",
            "Batch results and failures sent but not yet drained.",
            QUEUE_DEPTH.load(Ordering::Relaxed) as f64,
        ),
        (
            "engine_jobs_per_sec",
            "Jobs (fleet: devices) completed per second since the previous scrape.",
            rate,
        ),
        (
            "engine_cache_hit_rate",
            "Cache hits over cells requested, so far this process.",
            hit_rate,
        ),
    ];
    for (name, help, value) in gauges {
        family(&mut out, name, "gauge", help);
        let _ = writeln!(out, "{name} {value}");
    }

    let (name, latency) = ("engine_job_latency_us", &s.job_latency_us);
    family(&mut out, name, "summary", "Per-job wall-clock latency, µs.");
    for q in [0.5, 0.9, 0.99] {
        let v = latency.percentile(q).unwrap_or(0.0);
        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(
        out,
        "{name}_sum {}\n{name}_count {}",
        latency.sum(),
        latency.count()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_rendering_is_well_formed() {
        // Worker 1 publishes before worker 0; the samples still come
        // out in worker order.
        let one = Tally {
            executed: 2,
            ..Tally::default()
        };
        publish(Some(1), &one);
        publish(Some(0), &Tally::default());
        let mut latency = Tally::default();
        latency.job_latency_us.record(100.0);
        publish(None, &latency);
        let text = render_prometheus();

        assert!(text.contains("# TYPE engine_jobs_executed_total counter"));
        assert!(text.contains("# TYPE engine_result_queue_depth gauge"));
        assert!(text.contains("# TYPE engine_job_latency_us summary"));
        assert!(text.contains("engine_job_latency_us{quantile=\"0.5\"} "));
        assert!(text.contains("engine_job_latency_us_count "));
        let mut families: Vec<&str> = (text.lines())
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().expect("family name"))
            .collect();
        let n = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), n, "one # TYPE per family");
        let w0 = text.find("{worker=\"0\"}").expect("worker 0");
        let w1 = text.find("{worker=\"1\"}").expect("worker 1");
        assert!(w0 < w1, "worker samples in worker order");
        // Every non-comment line is `name value` with a numeric value,
        // and names a family declared above it.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let name = parts.next().expect("metric name");
            let value = parts.next().expect("metric value");
            assert!(parts.next().is_none(), "extra tokens in `{line}`");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in `{line}`"
            );
            let base = name.split('{').next().expect("base name");
            assert!(
                families.iter().any(|f| base
                    .strip_prefix(f)
                    .is_some_and(|rest| { ["", "_sum", "_count"].contains(&rest) })),
                "`{line}` has no family"
            );
        }
    }
}
