//! `repro bench`: a self-contained performance-regression harness for
//! the paths the repository benchmark has no workload for.
//!
//! One invocation runs three phases, rates them as four gated
//! throughputs (the hot loop yields two), and writes them as
//! `BENCH_<n>.json` (plus a `BENCH_latest.json` alias for tooling):
//!
//! - **hot loop** — one MPEG cell under the paper's best policy run
//!   back-to-back on the calling thread: simulator-core throughput
//!   with no engine around it. Timed two ways (full fidelity, which
//!   runs the tick-by-tick loop, and summary fidelity), each as the
//!   median of [`BenchConfig::hot_rounds`] timed rounds so one
//!   scheduler hiccup cannot sink the measured speedup;
//! - **trace export** — the `avgn` scenario's structured-event
//!   export, rated in events per second;
//! - **optgap** — the optimality-gap suite ([`crate::optgap_cmd`]):
//!   trace recording, YDS critical intervals, and the online canon,
//!   rated in result rows per second.
//!
//! The fleet stream and the cold and warm sweeps are timed by
//! `perfbench/` (the benchmark of record), whose `jobs_per_s` the
//! perfbench-smoke CI job gates against the `"perfbench_jobs_per_s"`
//! floors in `BENCH_baseline.json`.
//!
//! The report's flat `"gate"` object holds the throughput numbers.
//! `repro bench --baseline <file>` re-reads a previous
//! report's gate and fails (exit code 1) when any metric regresses
//! more than `--bench-tolerance` percent — wall-clock throughput is
//! machine-dependent, so baselines only travel within one machine
//! (or a deliberately conservative checked-in floor, as CI uses).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use engine::{JobSpec, WorkloadSpec};
use policies::PolicyDesc;
use sim_core::{rate_per_sec, SimFidelity};
use workloads::Benchmark;

use crate::trace_exp;

/// Knobs for one bench run. `Default` is the real harness; tests
/// shrink the iteration counts.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Simulation seed (shared by every phase).
    pub seed: u64,
    /// Back-to-back single-thread simulations in the hot loop.
    pub hot_iters: u32,
    /// Simulated seconds per hot-loop iteration.
    pub hot_secs: u64,
    /// Timed rounds per hot-loop variant; the *median* round is
    /// reported. One round of a few milliseconds is inside scheduler
    /// noise — medians of several rounds keep a preempted round from
    /// moving the throughputs and `summary_speedup_vs_reference`.
    pub hot_rounds: u32,
    /// Simulated seconds for the trace-export phase.
    pub trace_secs: u64,
    /// Seconds of work trace per benchmark in the optgap phase.
    pub optgap_secs: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            seed: 1,
            hot_iters: 1_000,
            hot_secs: 2,
            hot_rounds: 3,
            trace_secs: 3,
            optgap_secs: 5,
        }
    }
}

/// Times `iters` calls of `f` once per round and returns the median
/// round's wall time in µs (rounds are sorted; even counts take the
/// lower middle). Medians shrug off the occasional preempted round
/// that a single timing or a mean would absorb.
fn median_round_us(rounds: u32, iters: u32, mut f: impl FnMut()) -> u64 {
    let mut times: Vec<u64> = (0..rounds.max(1))
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_micros() as u64
        })
        .collect();
    times.sort_unstable();
    times[(times.len() - 1) / 2]
}

/// The finished report: the JSON document, its parsed gate, and a
/// short human summary for the terminal.
pub struct BenchReport {
    /// The full `BENCH_*.json` document.
    pub json: String,
    /// The gate metrics (`hot_sims_per_sec`, …), as written.
    pub gate: BTreeMap<String, f64>,
    /// One line per phase for stdout.
    pub summary: String,
}

/// Runs every phase and assembles the report. Touches no files;
/// writing the report is [`BenchReport::save`].
pub fn run(cfg: &BenchConfig) -> BenchReport {
    // Phase 1: hot loop — the simulator core alone, single thread.
    // Timed two ways, each as a median of `hot_rounds` rounds: full
    // fidelity, which runs the tick-by-tick reference loop, and the
    // summary-fidelity span skipper the fleet runs on. The report
    // carries the summary speedup over the tick loop alongside both
    // raw throughputs.
    let hot_spec = JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Mpeg),
        PolicyDesc::best_from_paper(),
        cfg.hot_secs,
        cfg.seed,
    );
    let summary_spec = hot_spec.clone().with_fidelity(SimFidelity::Summary);
    let hot_rounds = cfg.hot_rounds.max(1);
    let hot_us = median_round_us(hot_rounds, cfg.hot_iters, || {
        std::hint::black_box(hot_spec.execute());
    });
    let summary_us = median_round_us(hot_rounds, cfg.hot_iters, || {
        std::hint::black_box(summary_spec.execute());
    });
    // Both variants ran `hot_iters` sims per round.
    let summary_speedup = if summary_us > 0 {
        hot_us as f64 / summary_us as f64
    } else {
        0.0
    };

    // Phase 2: trace export.
    let trace_started = Instant::now();
    let trace = trace_exp::export("avgn", cfg.seed, Some(cfg.trace_secs))
        .expect("avgn is a known scenario");
    let trace_us = trace_started.elapsed().as_micros() as u64;

    // Phase 3: optgap — trace recording plus the exact-optimum and
    // online-canon computations, end to end (no filesystem output).
    let optgap_cfg = crate::optgap_cmd::OptgapConfig {
        seed: cfg.seed,
        secs: cfg.optgap_secs,
        ..crate::optgap_cmd::OptgapConfig::default()
    };
    let optgap_started = Instant::now();
    let optgap = crate::optgap_cmd::run(&optgap_cfg);
    let optgap_us = optgap_started.elapsed().as_micros() as u64;

    let gate: BTreeMap<String, f64> = [
        (
            "hot_sims_per_sec",
            rate_per_sec(cfg.hot_iters as u64, hot_us),
        ),
        (
            "summary_sims_per_sec",
            rate_per_sec(cfg.hot_iters as u64, summary_us),
        ),
        (
            "trace_events_per_sec",
            rate_per_sec(trace.events as u64, trace_us),
        ),
        (
            "optgap_rows_per_sec",
            rate_per_sec(optgap.rows.len() as u64, optgap_us),
        ),
    ]
    .into_iter()
    // Rounded to the 6 decimals the JSON carries, so the in-memory
    // gate and a re-parse of the written file agree exactly.
    .map(|(k, v)| (k.to_string(), (v * 1e6).round() / 1e6))
    .collect();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench-v1\",");
    let _ = writeln!(json, "  \"seed\": {},", cfg.seed);
    // Host provenance: a BENCH number is meaningless without knowing
    // what machine produced it, so record the facts next to the gate.
    json.push_str("  \"host\": {\n");
    let cpu = obs::cpu_model().unwrap_or_else(|| "unknown".to_string());
    let _ = writeln!(
        json,
        "    \"cpu_model\": \"{}\",",
        cpu.replace('\\', "\\\\").replace('"', "\\\"")
    );
    let _ = writeln!(json, "    \"cores\": {},", obs::core_count());
    let _ = writeln!(
        json,
        "    \"kernel\": \"{}\"",
        obs::kernel_version()
            .unwrap_or_else(|| "unknown".to_string())
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
    );
    json.push_str("  },\n");
    json.push_str("  \"hot_loop\": {\n");
    let _ = writeln!(json, "    \"iters\": {},", cfg.hot_iters);
    let _ = writeln!(json, "    \"sim_secs\": {},", cfg.hot_secs);
    let _ = writeln!(json, "    \"rounds\": {hot_rounds},");
    let _ = writeln!(json, "    \"wall_us\": {hot_us},");
    let _ = writeln!(json, "    \"summary_wall_us\": {summary_us},");
    let _ = writeln!(
        json,
        "    \"summary_sims_per_sec\": {:.6},",
        gate["summary_sims_per_sec"]
    );
    let _ = writeln!(
        json,
        "    \"summary_speedup_vs_reference\": {summary_speedup:.6},"
    );
    let _ = writeln!(
        json,
        "    \"sims_per_sec\": {:.6}",
        gate["hot_sims_per_sec"]
    );
    json.push_str("  },\n");
    json.push_str("  \"trace_export\": {\n");
    let _ = writeln!(json, "    \"scenario\": \"avgn\",");
    let _ = writeln!(json, "    \"events\": {},", trace.events);
    let _ = writeln!(json, "    \"wall_us\": {trace_us},");
    let _ = writeln!(
        json,
        "    \"events_per_sec\": {:.6}",
        gate["trace_events_per_sec"]
    );
    json.push_str("  },\n");
    json.push_str("  \"optgap\": {\n");
    let _ = writeln!(json, "    \"secs\": {},", cfg.optgap_secs);
    let _ = writeln!(json, "    \"rows\": {},", optgap.rows.len());
    let _ = writeln!(json, "    \"wall_us\": {optgap_us},");
    let _ = writeln!(
        json,
        "    \"rows_per_sec\": {:.6}",
        gate["optgap_rows_per_sec"]
    );
    json.push_str("  },\n");
    json.push_str("  \"gate\": {\n");
    for (i, (k, v)) in gate.iter().enumerate() {
        let comma = if i + 1 < gate.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{k}\": {v:.6}{comma}");
    }
    json.push_str("  }\n}\n");

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "hot  : {} x {} s MPEG sims -> {:.2} sims/s (full fidelity, tick loop, median of {} rounds)",
        cfg.hot_iters, cfg.hot_secs, gate["hot_sims_per_sec"], hot_rounds,
    );
    let _ = writeln!(
        summary,
        "summ : {} x {} s MPEG sims -> {:.2} sims/s ({:.2}x vs the full-fidelity tick loop)",
        cfg.hot_iters, cfg.hot_secs, gate["summary_sims_per_sec"], summary_speedup,
    );
    let _ = writeln!(
        summary,
        "trace: {} events in {:.1} ms -> {:.0} events/s",
        trace.events,
        trace_us as f64 / 1e3,
        gate["trace_events_per_sec"],
    );
    let _ = writeln!(
        summary,
        "optgap: {} rows in {:.2} s -> {:.1} rows/s",
        optgap.rows.len(),
        optgap_us as f64 / 1e6,
        gate["optgap_rows_per_sec"],
    );

    BenchReport {
        json,
        gate,
        summary,
    }
}

/// The next free `BENCH_<n>.json` index in `dir` (1 when none exist;
/// `BENCH_latest.json` never counts).
pub fn next_index(dir: &Path) -> u32 {
    let mut max = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(n) = name
                .to_string_lossy()
                .strip_prefix("BENCH_")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                max = max.max(n);
            }
        }
    }
    max + 1
}

impl BenchReport {
    /// Writes `BENCH_<n>.json` (next free `n`) and `BENCH_latest.json`
    /// under `dir`, returning both paths.
    pub fn save(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let numbered = dir.join(format!("BENCH_{}.json", next_index(dir)));
        std::fs::write(&numbered, &self.json)?;
        let latest = dir.join("BENCH_latest.json");
        std::fs::write(&latest, &self.json)?;
        Ok((numbered, latest))
    }
}

/// Extracts the flat `"gate"` object from a `BENCH_*.json` document.
/// Returns `None` when there is no well-formed gate — the caller
/// treats that as a comparison failure, not a pass.
pub fn parse_gate(json: &str) -> Option<BTreeMap<String, f64>> {
    let at = json.find("\"gate\"")?;
    let rest = &json[at..];
    let open = rest.find('{')?;
    let close = rest.find('}')?;
    let body = rest.get(open + 1..close)?;
    let mut gate = BTreeMap::new();
    for pair in body.split(',') {
        let (key, value) = pair.split_once(':')?;
        let key = key.trim().trim_matches('"');
        gate.insert(key.to_string(), value.trim().parse::<f64>().ok()?);
    }
    Some(gate)
}

/// Compares a current gate against a baseline gate. A metric fails
/// when it drops more than `tolerance_pct` percent below the
/// baseline; baseline metrics missing from the current report fail
/// too (a silently vanished number is not a pass). Metrics only in
/// the current report are ignored, so gates can grow. Returns one
/// message per failure; empty means the gate holds.
pub fn compare(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    tolerance_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (metric, &base) in baseline {
        let floor = base * (1.0 - tolerance_pct / 100.0);
        match current.get(metric) {
            None => failures.push(format!("{metric}: missing (baseline {base:.2})")),
            Some(&now) if now < floor => failures.push(format!(
                "{metric}: {now:.2} < {floor:.2} (baseline {base:.2} - {tolerance_pct}%)"
            )),
            Some(_) => {}
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            hot_iters: 2,
            hot_secs: 1,
            hot_rounds: 1,
            trace_secs: 1,
            optgap_secs: 1,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn report_carries_every_section_and_a_positive_gate() {
        let report = run(&tiny());
        for section in [
            "\"host\"",
            "\"cpu_model\"",
            "\"cores\"",
            "\"kernel\"",
            "\"hot_loop\"",
            "\"trace_export\"",
            "\"optgap\"",
            "\"gate\"",
            "\"summary_sims_per_sec\"",
            "\"summary_speedup_vs_reference\"",
        ] {
            assert!(report.json.contains(section), "missing {section}");
        }
        assert_eq!(report.gate.len(), 4);
        assert!(report.gate.contains_key("summary_sims_per_sec"));
        for (metric, &value) in &report.gate {
            assert!(value > 0.0, "{metric} = {value}");
        }
        // The document round-trips through the baseline parser...
        let reread = parse_gate(&report.json).expect("gate parses back");
        assert_eq!(reread, report.gate);
        // ...and a report always passes against itself.
        assert!(compare(&report.gate, &reread, 0.0).is_empty());
    }

    #[test]
    fn checked_in_baseline_gates_exactly_what_the_harness_reports() {
        // `compare` ignores report metrics the baseline lacks, so a new
        // phase would otherwise ship ungated, and a stale baseline key
        // would only fail in CI.
        let baseline = parse_gate(include_str!("../../../BENCH_baseline.json"))
            .expect("BENCH_baseline.json has a well-formed gate");
        let report = run(&tiny());
        assert_eq!(
            baseline.keys().collect::<Vec<_>>(),
            report.gate.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn median_round_runs_every_round_and_iter() {
        let mut calls = 0u32;
        let _us = median_round_us(3, 4, || calls += 1);
        assert_eq!(calls, 12, "3 rounds x 4 iters");
        // Degenerate inputs clamp instead of panicking.
        let mut calls = 0u32;
        let _us = median_round_us(0, 1, || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn compare_flags_regressions_and_missing_metrics() {
        let base: BTreeMap<String, f64> = [
            ("hot_sims_per_sec".to_string(), 100.0),
            ("gone_metric".to_string(), 5.0),
        ]
        .into();
        let current: BTreeMap<String, f64> = [
            ("hot_sims_per_sec".to_string(), 65.0),
            ("brand_new_metric".to_string(), 1.0),
        ]
        .into();
        // 65 is a 35 % drop: outside 30 %, inside 40 %.
        let fails = compare(&current, &base, 30.0);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("hot_sims_per_sec")));
        assert!(fails.iter().any(|f| f.contains("gone_metric")));
        assert_eq!(compare(&current, &base, 40.0).len(), 1);
    }

    #[test]
    fn parse_gate_reads_a_flat_object() {
        let gate = parse_gate(
            "{\n  \"other\": 1,\n  \"gate\": {\n    \"a\": 1.5,\n    \"b\": 2\n  }\n}\n",
        )
        .expect("well-formed");
        assert_eq!(gate.len(), 2);
        assert_eq!(gate["a"], 1.5);
        assert!(parse_gate("{}").is_none());
        assert!(parse_gate("{\"gate\": {\"a\": \"oops\"}}").is_none());
    }

    #[test]
    fn bench_files_number_sequentially() {
        let dir = std::env::temp_dir().join(format!("bench-number-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_index(&dir), 1);
        std::fs::write(dir.join("BENCH_3.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_latest.json"), "{}").unwrap();
        assert_eq!(next_index(&dir), 4);
        let report = BenchReport {
            json: "{\"gate\": {\"x\": 1}}\n".to_string(),
            gate: BTreeMap::new(),
            summary: String::new(),
        };
        let (numbered, latest) = report.save(&dir).unwrap();
        assert!(numbered.ends_with("BENCH_4.json"));
        assert_eq!(
            std::fs::read_to_string(&latest).unwrap(),
            report.json,
            "latest mirrors the numbered file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
