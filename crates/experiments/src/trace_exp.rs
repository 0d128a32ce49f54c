//! Deterministic trace export: `repro trace`.
//!
//! Exports the simulator's structured event stream for a scenario as
//! CSV and Chrome `trace_event` JSON. The export is a pure function of
//! the scenario and seed:
//!
//! - every run simulates fresh through [`JobSpec::execute_traced`] —
//!   the cache and journal are never consulted, so a cold and a warm
//!   results directory produce identical bytes;
//! - runs execute in parallel but the merge orders events by
//!   `(sim_time, run label, emission index)` — wall-clock never enters
//!   the stream, so `--jobs` cannot reorder it.
//!
//! Scenarios:
//!
//! | id | contents |
//! |----|----------|
//! | `fig3` | the four workloads pinned at 206.4 MHz (Figure 3's window) |
//! | `fig8` | MPEG under PAST, peg-peg, >98 %/<93 % (Figure 8) |
//! | `avgn` | the 9/1 square wave under AVG_3 one-one (Figure 7's input) |

use std::io;
use std::path::PathBuf;

use engine::{JobSpec, WorkloadSpec};
use obs::{export_chrome_json_with_spans, export_csv, merge_traces, Trace};
use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange};
use workloads::Benchmark;

use crate::report;

/// Scenario identifiers `repro trace` accepts.
pub const SCENARIOS: &[&str] = &["fig3", "fig8", "avgn"];

/// A scenario's exported event stream.
pub struct TraceExport {
    /// Scenario id (`fig3`, `fig8`, `avgn`).
    pub scenario: String,
    /// Merged stream as CSV (`time_us,run,seq,event,detail`).
    pub csv: String,
    /// Merged stream as Chrome `trace_event` JSON.
    pub chrome_json: String,
    /// Number of events across all runs.
    pub events: usize,
    /// Number of runs merged.
    pub runs: usize,
}

/// The labelled jobs a scenario traces. `secs` overrides each run's
/// simulated length (the default is the figure's own window).
pub fn specs(scenario: &str, seed: u64, secs: Option<u64>) -> Option<Vec<(String, JobSpec)>> {
    match scenario {
        "fig3" => Some(
            Benchmark::ALL
                .iter()
                .map(|&b| {
                    let run_secs = secs.unwrap_or_else(|| {
                        crate::fig3::WINDOW_SECS.min(b.nominal_duration().as_micros() / 1_000_000)
                    });
                    let spec = JobSpec::new(
                        WorkloadSpec::Benchmark(b),
                        PolicyDesc::constant_top(),
                        run_secs,
                        seed,
                    );
                    (b.name().to_lowercase(), spec)
                })
                .collect(),
        ),
        "fig8" => Some(vec![(
            "mpeg".to_string(),
            JobSpec::new(
                WorkloadSpec::Benchmark(Benchmark::Mpeg),
                PolicyDesc::best_from_paper(),
                secs.unwrap_or(30),
                seed,
            ),
        )]),
        // AVG_3 on the 9-busy/1-idle square wave swings between ~0.75
        // (right after the idle quantum) and 1.0; the paper's best
        // thresholds (>98 %/<93 %) sit inside that band, so the policy
        // keeps issuing speed changes in both directions — Figure 7's
        // "can not settle" claim, observable in the event stream.
        "avgn" => Some(vec![(
            "square".to_string(),
            JobSpec::new(
                WorkloadSpec::SquareWave { busy: 9, idle: 1 },
                PolicyDesc::interval(
                    PredictorDesc::AvgN(3),
                    Hysteresis::BEST,
                    SpeedChange::One,
                    SpeedChange::One,
                ),
                secs.unwrap_or(5),
                seed,
            ),
        )]),
        _ => None,
    }
}

/// Runs a scenario and exports its merged event stream. Returns `None`
/// for an unknown scenario id.
///
/// Runs simulate concurrently (one thread per run; the grids are
/// small) but the output is ordered purely by simulated time, so the
/// bytes do not depend on scheduling.
pub fn export(scenario: &str, seed: u64, secs: Option<u64>) -> Option<TraceExport> {
    let specs = specs(scenario, seed, secs)?;
    // Each run thread hands back its span buffer alongside the trace;
    // with profiling off (the default, and what CI byte-diffs) the
    // buffers are empty and the export is unchanged.
    let runs: Vec<((String, Trace), obs::ThreadSpans)> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .iter()
            .map(|(label, spec)| {
                s.spawn(move || {
                    let run = {
                        let _span = obs::span::enter("trace_run");
                        let (_, trace) = spec.execute_traced();
                        (label.clone(), trace)
                    };
                    (run, obs::span::drain())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trace run panicked"))
            .collect()
    });
    let mut profile = obs::Profile::default();
    let mut traces: Vec<(String, Trace)> = Vec::with_capacity(runs.len());
    for (run, spans) in runs {
        if !spans.is_empty() {
            profile.threads.push((format!("trace-{}", run.0), spans));
        }
        traces.push(run);
    }
    let merged = {
        let _span = obs::span::enter("merge_traces");
        merge_traces(&traces)
    };
    let _render_span = obs::span::enter("render_export");
    Some(TraceExport {
        scenario: scenario.to_string(),
        csv: export_csv(&merged),
        chrome_json: export_chrome_json_with_spans(&merged, &profile),
        events: merged.len(),
        runs: traces.len(),
    })
}

impl TraceExport {
    /// Writes the CSV and Chrome JSON under `results/trace/`, returning
    /// the two paths.
    pub fn save(&self) -> io::Result<(PathBuf, PathBuf)> {
        let dir = report::results_dir().join("trace");
        std::fs::create_dir_all(&dir)?;
        let csv_path = dir.join(format!("{}.csv", self.scenario));
        std::fs::write(&csv_path, &self.csv)?;
        let json_path = dir.join(format!("{}.trace.json", self.scenario));
        std::fs::write(&json_path, &self.chrome_json)?;
        Ok((csv_path, json_path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_is_none() {
        assert!(specs("nope", 1, None).is_none());
        assert!(export("nope", 1, None).is_none());
    }

    #[test]
    fn fig3_traces_all_four_workloads() {
        let specs = specs("fig3", 1, Some(2)).expect("known scenario");
        assert_eq!(specs.len(), 4);
        let labels: Vec<&str> = specs.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"mpeg") && labels.contains(&"web"));
    }

    #[test]
    fn profiling_adds_a_wall_clock_span_track() {
        obs::span::set_enabled(true);
        let profiled = export("avgn", 1, Some(2)).expect("known scenario");
        obs::span::set_enabled(false);
        assert!(
            profiled.chrome_json.contains("\"wall-clock (profiler)\""),
            "span track missing from profiled export"
        );
        assert!(
            profiled.chrome_json.contains("\"ph\":\"X\""),
            "no complete events in span track"
        );
        assert!(
            profiled.chrome_json.contains("\"trace-square\""),
            "per-run thread label missing"
        );
        // Sim-time events are still there, and the document is intact.
        assert!(profiled.chrome_json.contains("\"ph\":\"C\""));
        assert!(profiled.chrome_json.trim_end().ends_with("]}"));
    }

    #[test]
    fn avgn_square_wave_oscillates_the_predictor() {
        let out = export("avgn", 1, Some(2)).expect("known scenario");
        assert!(out.events > 0);
        assert!(out.csv.starts_with("time_us,run,seq,event,detail\n"));
        // The 9/1 wave drives AVG_3 up and down: decisions in both
        // directions must appear.
        assert!(out.csv.contains(",policy,"), "no policy decisions:\n");
        assert!(out.chrome_json.starts_with("{\"traceEvents\":["));
    }
}
