//! Benchmark harness for the itsy-dvs reproduction.
//!
//! Three workloads, each driven through the crates' public APIs from
//! one process with at most `nproc` engine workers:
//!
//! - `fleet` ([`fleet_wl`]): a device population through
//!   `fleet::run`, exactly as `repro fleet` runs it;
//! - `sweep_cold` ([`sweep_wl`]): the paper's full 796-cell policy
//!   grid through `experiments::sweep::run_with` against an empty
//!   state root with the cache on;
//! - `sweep_warm` ([`sweep_wl`]): the same grid re-served from a cache
//!   that set-up populated.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports per-layer timings taken around the calls the
//! harness makes into each crate ([`layers`]). Nothing inside the
//! program is instrumented for this.

pub mod check;
pub mod fleet_wl;
pub mod layers;
pub mod stats;
pub mod sweep_wl;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::median;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Device population through the streaming engine.
    Fleet,
    /// Full grid, empty cache.
    SweepCold,
    /// Full grid, populated cache.
    SweepWarm,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet" => Some(Workload::Fleet),
            "sweep_cold" => Some(Workload::SweepCold),
            "sweep_warm" => Some(Workload::SweepWarm),
            _ => None,
        }
    }
}

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Print the seed's output digest and exit (used to fill `refs/`).
    pub print_digest: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1
    /// [--print-digest]`; the workload is required, the rest default to
    /// seed 1, 10 s, untraced.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut print_digest = false;
        while let Some(flag) = args.next() {
            if flag == "--print-digest" {
                print_digest = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {flag} value `{value}`: {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| bad("one of fleet, sweep_cold, sweep_warm"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            print_digest,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports on its last line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Jobs (devices or cells) whose output the run checked.
    pub attempted: u64,
    /// Of those, jobs that reported a `JobFailure` or belonged to a
    /// batch whose digest mismatched.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a metric that cannot be
                // computed is a harness bug, reported as such.
                assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Wall time, process CPU time and output accounting of one batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStat {
    /// Wall seconds of the measured call.
    pub wall_s: f64,
    /// Process user+sys CPU seconds over the same call.
    pub cpu_s: f64,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Jobs failed (`JobFailure`s, or every job of a mismatched batch).
    pub failed: u64,
}

impl BatchStat {
    /// Completed jobs per wall second.
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }
}

/// Times `f` in wall and process CPU time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = process_cpu_s();
    let wall = Instant::now();
    let out = f();
    (out, wall.elapsed().as_secs_f64(), process_cpu_s() - cpu)
}

/// User+sys CPU seconds of the whole process, every thread included
/// (threads that already exited too), at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this harness runs on), and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Logical cores available, which is also the engine worker count.
pub fn nproc() -> usize {
    obs::core_count()
}

/// Runs `setup` `reps` times, returning the last state and the median
/// wall time (`setup_s`).
pub fn repeated_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        // Drop the previous state first so its clean-up is not timed.
        drop(state.take());
        let started = Instant::now();
        state = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&times))
}

/// Calls `batch` until `seconds` have passed and at least ten batches
/// ran.
pub fn measure(seconds: f64, mut batch: impl FnMut() -> BatchStat) -> Vec<BatchStat> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < 10 || started.elapsed() < budget {
        out.push(batch());
    }
    out
}

/// Median `cost` of the cheapest tenth of `batches` (at least one).
///
/// Other tenants of a shared host only ever slow a batch down, and on
/// the hosts this runs on they do so for seconds at a time, so the
/// median over all batches mostly measures how busy the neighbours
/// were. A slowdown in the program moves every batch, the cheapest
/// ones included; a burst of contention that spares a tenth of the run
/// does not move them.
pub fn cheapest_tenth(batches: &[BatchStat], cost: impl Fn(&BatchStat) -> f64) -> f64 {
    let mut costs: Vec<f64> = batches.iter().map(cost).collect();
    costs.sort_by(f64::total_cmp);
    median(&costs[..(costs.len() / 10).max(1)])
}

/// Wall seconds per job of the cheapest tenth of `batches`.
pub fn wall_per_job(batches: &[BatchStat]) -> f64 {
    cheapest_tenth(batches, |b| b.wall_s / b.jobs as f64)
}

/// The end-to-end metrics of an untraced run (see [`cheapest_tenth`]).
pub fn end_to_end(out: &mut Outcome, setup_s: f64, batches: &[BatchStat]) {
    let cpu_per_job = cheapest_tenth(batches, |b| b.cpu_s / b.jobs as f64);
    out.push("jobs_per_s", 1.0 / wall_per_job(batches), "1/s");
    out.push("cpu_us_per_job", cpu_per_job * 1e6, "us");
    let rss = obs::peak_rss_bytes().expect("VmHWM readable from /proc/self/status");
    out.push("peak_rss_mb", rss as f64 / 1e6, "MB");
    out.push("setup_s", setup_s, "s");
    out.attempted += batches.iter().map(|b| b.attempted).sum::<u64>();
    out.failed += batches.iter().map(|b| b.failed).sum::<u64>();
}

/// A scratch directory under the benchmark's own directory, removed
/// when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh, empty directory named after `tag`.
    pub fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".state")
            .join(format!(
                "{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch state directory");
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind once the last scratch dir goes.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload sweep_warm --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::SweepWarm);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(parse("--seed 1").is_err(), "workload is required");
        assert!(parse("--workload fleet --trace 2").is_err());
        assert!(parse("--workload fleet --seconds -1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fleet --seed").is_err());
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("setup_s", 0.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > before, "{x}");
    }
}
