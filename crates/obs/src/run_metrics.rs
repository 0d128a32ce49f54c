//! The per-batch metrics summary written as `metrics.json`.
//!
//! [`RunMetrics`] is the operator-facing rollup the engine derives from
//! a run's merged tally (the same counts its live `/metrics` page
//! sums): how much work the batch did, how much the cache absorbed,
//! and how the simulated machines behaved (transition counts, dropped
//! scheduler records).
//!
//! The JSON is hand-rolled like every other serializer in this
//! workspace (there is no `serde` dependency). Derived
//! rates carry fixed six-digit precision so the file is byte-stable for
//! a given set of inputs; wall-clock fields (`wall_us`, `jobs_per_sec`,
//! `sim_per_wall`) are *not* deterministic across runs, which is why CI
//! excludes `metrics.json` from its byte-identity diffs.

use std::fmt::Write as _;

/// Wall-clock time attributed to one profiler stage (span name).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageMetrics {
    /// Span name ("simulate", "cache_probe", …).
    pub stage: String,
    /// Self time summed across all spans with this name, µs.
    pub total_us: u64,
    /// `total_us` over the sum of all stages' self time.
    pub share: f64,
}

/// Simulated-machine counts attributed to one policy label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyMetrics {
    /// The policy's display label.
    pub policy: String,
    /// Grid cells run under this policy.
    pub cells: u64,
    /// Clock-step transitions summed over the policy's cells.
    pub clock_switches: u64,
    /// Voltage transitions summed over the policy's cells.
    pub voltage_switches: u64,
}

/// One batch's aggregated metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Batch label (the results subdirectory name).
    pub batch: String,
    /// Cells requested.
    pub total: u64,
    /// Cells actually simulated this run.
    pub executed: u64,
    /// Cells served from the result cache.
    pub cache_hits: u64,
    /// Cells recovered from the journal on resume.
    pub journal_hits: u64,
    /// Cells that exhausted their retry budget.
    pub failed: u64,
    /// Failure records dropped once the stream's bounded retention
    /// filled — `failed` still counts them; only their details are
    /// gone.
    pub failures_dropped: u64,
    /// Damaged cache entries quarantined.
    pub quarantined: u64,
    /// Attempts beyond the first, summed over cells.
    pub retries: u64,
    /// Worker threads used.
    pub workers: u64,
    /// Scheduler log records dropped (capacity), summed over cells.
    pub sched_dropped: u64,
    /// Clock-step transitions summed over simulated cells.
    pub clock_switches: u64,
    /// Voltage transitions summed over simulated cells.
    pub voltage_switches: u64,
    /// `cache_hits / total`, 0 for an empty batch.
    pub cache_hit_rate: f64,
    /// Cells completed per wall-clock second.
    pub jobs_per_sec: f64,
    /// Simulated time over wall time (aggregate speedup).
    pub sim_per_wall: f64,
    /// Wall-clock duration of the batch, µs.
    pub wall_us: u64,
    /// Simulated time covered, summed over simulated cells, µs.
    pub sim_us: u64,
    /// Peak resident-set size of the whole process at the end of the
    /// batch, bytes (`0` where the host has no procfs). Monotone over
    /// the process, so on a multi-batch run each batch reports the
    /// max so far — the fleet memory gate runs one batch per process.
    pub peak_rss_bytes: u64,
    /// Median per-job wall latency, µs (0 when no jobs executed).
    pub job_latency_p50_us: f64,
    /// 90th-percentile per-job wall latency, µs.
    pub job_latency_p90_us: f64,
    /// 99th-percentile per-job wall latency, µs.
    pub job_latency_p99_us: f64,
    /// Worst per-job wall latency, µs.
    pub job_latency_max_us: f64,
    /// Per-stage wall-clock breakdown from the span profiler, sorted
    /// by stage name; empty when profiling was off.
    pub stages: Vec<StageMetrics>,
    /// Per-policy breakdown, sorted by label.
    pub per_policy: Vec<PolicyMetrics>,
}

impl RunMetrics {
    /// Fills the derived rate fields from the raw counts.
    pub fn finalize(&mut self) {
        self.cache_hit_rate = if self.total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.total as f64
        };
        self.jobs_per_sec = sim_core::rate_per_sec(self.total, self.wall_us);
        self.sim_per_wall = if self.wall_us > 0 {
            self.sim_us as f64 / self.wall_us as f64
        } else {
            0.0
        };
        self.per_policy.sort_by(|a, b| a.policy.cmp(&b.policy));
        self.stages.sort_by(|a, b| a.stage.cmp(&b.stage));
    }

    /// Fills the per-job latency percentile fields from a log-bucketed
    /// latency histogram (the merged workers' job latencies). An empty
    /// histogram zeroes them.
    pub fn set_job_latencies(&mut self, hist: &sim_core::LogHistogram) {
        self.job_latency_p50_us = hist.percentile(0.50).unwrap_or(0.0);
        self.job_latency_p90_us = hist.percentile(0.90).unwrap_or(0.0);
        self.job_latency_p99_us = hist.percentile(0.99).unwrap_or(0.0);
        self.job_latency_max_us = hist.max().unwrap_or(0.0);
    }

    /// Fills the per-stage breakdown from `(stage, self_ns)` totals as
    /// produced by `SpanTree::stage_self_totals`.
    pub fn set_stages<'a>(&mut self, totals: impl IntoIterator<Item = (&'a str, u64)>) {
        let stages: Vec<(String, u64)> = totals
            .into_iter()
            .map(|(name, ns)| (name.to_string(), ns / 1_000))
            .collect();
        let whole: u64 = stages.iter().map(|(_, us)| us).sum();
        self.stages = stages
            .into_iter()
            .map(|(stage, total_us)| StageMetrics {
                stage,
                total_us,
                share: if whole == 0 {
                    0.0
                } else {
                    total_us as f64 / whole as f64
                },
            })
            .collect();
        self.stages.sort_by(|a, b| a.stage.cmp(&b.stage));
    }

    /// Renders the metrics as a JSON document (trailing newline).
    ///
    /// `per_policy` comes last so that a first-occurrence scan for a
    /// top-level key (as the tests do) never picks up a per-policy
    /// field of the same name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"batch\": \"{}\",", escape(&self.batch));
        let _ = writeln!(out, "  \"total\": {},", self.total);
        let _ = writeln!(out, "  \"executed\": {},", self.executed);
        let _ = writeln!(out, "  \"cache_hits\": {},", self.cache_hits);
        let _ = writeln!(out, "  \"journal_hits\": {},", self.journal_hits);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(out, "  \"failures_dropped\": {},", self.failures_dropped);
        let _ = writeln!(out, "  \"quarantined\": {},", self.quarantined);
        let _ = writeln!(out, "  \"retries\": {},", self.retries);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"sched_dropped\": {},", self.sched_dropped);
        let _ = writeln!(out, "  \"clock_switches\": {},", self.clock_switches);
        let _ = writeln!(out, "  \"voltage_switches\": {},", self.voltage_switches);
        let _ = writeln!(out, "  \"cache_hit_rate\": {:.6},", self.cache_hit_rate);
        let _ = writeln!(out, "  \"jobs_per_sec\": {:.6},", self.jobs_per_sec);
        let _ = writeln!(out, "  \"sim_per_wall\": {:.6},", self.sim_per_wall);
        let _ = writeln!(out, "  \"wall_us\": {},", self.wall_us);
        let _ = writeln!(out, "  \"sim_us\": {},", self.sim_us);
        let _ = writeln!(out, "  \"peak_rss_bytes\": {},", self.peak_rss_bytes);
        let _ = writeln!(
            out,
            "  \"job_latency_p50_us\": {:.6},",
            self.job_latency_p50_us
        );
        let _ = writeln!(
            out,
            "  \"job_latency_p90_us\": {:.6},",
            self.job_latency_p90_us
        );
        let _ = writeln!(
            out,
            "  \"job_latency_p99_us\": {:.6},",
            self.job_latency_p99_us
        );
        let _ = writeln!(
            out,
            "  \"job_latency_max_us\": {:.6},",
            self.job_latency_max_us
        );
        out.push_str("  \"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"stage\": \"{}\", \"total_us\": {}, \"share\": {:.6}}}",
                escape(&s.stage),
                s.total_us,
                s.share
            );
        }
        if !self.stages.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"per_policy\": [");
        for (i, p) in self.per_policy.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"policy\": \"{}\", \"cells\": {}, \"clock_switches\": {}, \
                 \"voltage_switches\": {}}}",
                escape(&p.policy),
                p.cells,
                p.clock_switches,
                p.voltage_switches
            );
        }
        if !self.per_policy.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// One-line human summary for the end of a `repro` batch.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "metrics: {} cells, {:.0}% cache hit, {:.1} jobs/s, {:.0}x sim/wall, \
             {} clock + {} voltage switches, {} retries, {} sched drops",
            self.total,
            self.cache_hit_rate * 100.0,
            self.jobs_per_sec,
            self.sim_per_wall,
            self.clock_switches,
            self.voltage_switches,
            self.retries,
            self.sched_dropped
        );
        if self.failures_dropped > 0 {
            let _ = write!(line, ", {} failure records dropped", self.failures_dropped);
        }
        line
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        let mut m = RunMetrics {
            batch: "sweep".to_string(),
            total: 50,
            executed: 40,
            cache_hits: 10,
            journal_hits: 0,
            failed: 0,
            quarantined: 1,
            retries: 2,
            workers: 4,
            sched_dropped: 0,
            clock_switches: 123,
            voltage_switches: 45,
            wall_us: 2_000_000,
            sim_us: 100_000_000,
            per_policy: vec![
                PolicyMetrics {
                    policy: "zz".to_string(),
                    cells: 25,
                    clock_switches: 100,
                    voltage_switches: 40,
                },
                PolicyMetrics {
                    policy: "aa".to_string(),
                    cells: 25,
                    clock_switches: 23,
                    voltage_switches: 5,
                },
            ],
            ..RunMetrics::default()
        };
        m.finalize();
        m
    }

    #[test]
    fn finalize_computes_rates_and_sorts_policies() {
        let m = sample();
        assert!((m.cache_hit_rate - 0.2).abs() < 1e-9);
        assert!((m.jobs_per_sec - 25.0).abs() < 1e-9);
        assert!((m.sim_per_wall - 50.0).abs() < 1e-9);
        assert_eq!(m.per_policy[0].policy, "aa");
        assert_eq!(m.per_policy[1].policy, "zz");
    }

    #[test]
    fn finalize_handles_empty_batch() {
        let mut m = RunMetrics::default();
        m.finalize();
        assert_eq!(m.cache_hit_rate, 0.0);
        assert_eq!(m.jobs_per_sec, 0.0);
        assert_eq!(m.sim_per_wall, 0.0);
    }

    #[test]
    fn json_puts_per_policy_last_and_is_well_formed() {
        let m = sample();
        let json = m.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("]\n}\n"));
        let top = json.find("\"clock_switches\": 123").expect("top-level");
        let nested = json.find("\"per_policy\"").expect("breakdown");
        assert!(top < nested, "top-level keys precede per_policy");
        assert!(json.contains("\"cache_hit_rate\": 0.200000"));
        assert!(json.contains(
            "{\"policy\": \"aa\", \"cells\": 25, \"clock_switches\": 23, \"voltage_switches\": 5}"
        ));
    }

    #[test]
    fn json_escapes_policy_labels() {
        let mut m = RunMetrics {
            batch: "b".to_string(),
            per_policy: vec![PolicyMetrics {
                policy: "Thresholds: >98%/\"peg\"".to_string(),
                cells: 1,
                clock_switches: 0,
                voltage_switches: 0,
            }],
            ..RunMetrics::default()
        };
        m.finalize();
        assert!(m.to_json().contains("\\\"peg\\\""));
    }

    #[test]
    fn latency_fields_fill_from_log_histogram_and_render() {
        let mut h = sim_core::LogHistogram::new();
        for v in [100.0, 200.0, 400.0, 800.0, 100_000.0] {
            h.record(v);
        }
        let mut m = sample();
        m.set_job_latencies(&h);
        assert!(m.job_latency_p50_us > 0.0);
        assert!(m.job_latency_p50_us <= m.job_latency_p90_us);
        assert!(m.job_latency_p90_us <= m.job_latency_p99_us);
        assert!(m.job_latency_p99_us <= m.job_latency_max_us);
        assert_eq!(m.job_latency_max_us, 100_000.0);
        let json = m.to_json();
        assert!(json.contains("\"job_latency_p50_us\": "));
        assert!(json.contains("\"job_latency_max_us\": 100000.000000"));
        m.set_job_latencies(&sim_core::LogHistogram::new());
        assert_eq!(m.job_latency_max_us, 0.0);
    }

    #[test]
    fn stages_sort_and_share_sums_to_one() {
        let mut m = sample();
        m.set_stages([("simulate", 3_000_000u64), ("cache_probe", 1_000_000u64)]);
        assert_eq!(m.stages[0].stage, "cache_probe");
        assert_eq!(m.stages[0].total_us, 1_000);
        assert_eq!(m.stages[1].stage, "simulate");
        let share_sum: f64 = m.stages.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        let json = m.to_json();
        let stages_at = json.find("\"stages\"").expect("stages key");
        let per_policy_at = json.find("\"per_policy\"").expect("per_policy key");
        assert!(stages_at < per_policy_at, "stages precede per_policy");
        assert!(json.contains("{\"stage\": \"simulate\", \"total_us\": 3000, \"share\": 0.750000}"));
    }

    #[test]
    fn empty_stages_render_as_empty_array() {
        let json = sample().to_json();
        assert!(json.contains("\"stages\": [],"));
    }

    #[test]
    fn summary_line_mentions_key_numbers() {
        let line = sample().summary_line();
        assert!(line.contains("50 cells"));
        assert!(line.contains("20% cache hit"));
        assert!(line.contains("123 clock"));
        assert!(!line.contains("failure records dropped"));
    }

    #[test]
    fn dropped_failures_surface_in_json_and_summary() {
        let mut m = sample();
        m.failures_dropped = 18;
        let json = m.to_json();
        let failed_at = json.find("\"failed\": 0,").expect("failed key");
        let dropped_at = json
            .find("\"failures_dropped\": 18,")
            .expect("failures_dropped key");
        assert!(failed_at < dropped_at, "dropped count follows failed");
        assert!(m.summary_line().contains("18 failure records dropped"));
    }
}
