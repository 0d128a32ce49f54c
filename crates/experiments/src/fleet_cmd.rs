//! `repro fleet`: population simulation over the streaming engine.
//!
//! A thin CLI shim over [`fleet::run()`]: builds the population from
//! `--devices`/`--seed`/`--device-secs`, streams it through the
//! engine, prints the sketch digest, and persists the population
//! summary under `results/fleet/`.
//!
//! The saved `population_summary.txt` is the [`sim_core::FleetSummary`]
//! canonical encoding — the file CI byte-diffs across `--jobs` counts
//! to prove the aggregation is partition-independent. `fleet.csv` is a
//! friendlier per-metric table (count/mean/percentiles) for plotting,
//! and `fleet_timeline.csv` unrolls the windowed timeline — one row per
//! (window, metric) — so energy, deadline misses and battery drain can
//! be plotted over simulated time. All three are pure functions of the
//! merged sketches, hence byte-identical at any `--jobs`.

use std::io;
use std::path::{Path, PathBuf};

use engine::Engine;
use fleet::{FleetAccum, FleetOutcome, PopulationConfig};
use sim_core::FleetSummary;

use crate::report;

/// What `repro fleet` leaves on disk.
pub struct FleetArtifacts {
    /// The run itself (summary, stats, failures, metrics).
    pub outcome: FleetOutcome,
    /// Canonical summary bytes (`population_summary.txt`).
    pub summary_path: PathBuf,
    /// Per-metric digest table (`fleet.csv`).
    pub csv_path: PathBuf,
    /// Windowed timeline table (`fleet_timeline.csv`).
    pub timeline_path: PathBuf,
}

/// Runs the population and writes the artifacts under
/// `results/fleet/` (honoring `REPRO_RESULTS_DIR`).
pub fn run_with(engine: &Engine, population: &PopulationConfig) -> io::Result<FleetArtifacts> {
    let outcome = fleet::run(engine, "fleet", population);
    let dir = report::results_dir().join("fleet");
    let (summary_path, csv_path, timeline_path) = save(&dir, &outcome.acc)?;
    Ok(FleetArtifacts {
        outcome,
        summary_path,
        csv_path,
        timeline_path,
    })
}

/// Writes `population_summary.txt` (canonical bytes), `fleet.csv`
/// (per-metric digest) and `fleet_timeline.csv` (windowed timeline)
/// into `dir`, returning the three paths.
pub fn save(dir: &Path, acc: &FleetAccum) -> io::Result<(PathBuf, PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let summary_path = dir.join("population_summary.txt");
    std::fs::write(&summary_path, acc.summary.encode())?;
    let csv_path = dir.join("fleet.csv");
    std::fs::write(&csv_path, csv(&acc.summary))?;
    let timeline_path = dir.join("fleet_timeline.csv");
    std::fs::write(&timeline_path, timeline_csv(acc))?;
    Ok((summary_path, csv_path, timeline_path))
}

/// Renders the per-metric digest table as CSV.
pub fn csv(summary: &FleetSummary) -> String {
    let mut out = String::from("metric,count,mean,min,p50,p90,p99,max\n");
    for name in summary.metric_names() {
        let h = summary.metric(name).expect("listed metric exists");
        out.push_str(&format!(
            "{name},{},{},{},{},{},{},{}\n",
            h.count(),
            h.mean().unwrap_or(0.0),
            h.min().unwrap_or(0.0),
            h.percentile(0.5).unwrap_or(0.0),
            h.percentile(0.9).unwrap_or(0.0),
            h.percentile(0.99).unwrap_or(0.0),
            h.max().unwrap_or(0.0),
        ));
    }
    out
}

/// Renders the windowed timeline as CSV: one row per (window, metric),
/// with the same stats columns as `fleet.csv` plus the window's
/// sim-time bounds. Empty (header-only) when the run had no timeline.
pub fn timeline_csv(acc: &FleetAccum) -> String {
    let mut out = String::from("window,start_us,end_us,metric,count,mean,min,p50,p90,p99,max\n");
    for (i, win) in acc.windows.iter().enumerate() {
        for name in win.summary.metric_names() {
            let h = win.summary.metric(name).expect("listed metric exists");
            out.push_str(&format!(
                "{i},{},{},{name},{},{},{},{},{},{},{}\n",
                win.start_us,
                win.end_us,
                h.count(),
                h.mean().unwrap_or(0.0),
                h.min().unwrap_or(0.0),
                h.percentile(0.5).unwrap_or(0.0),
                h.percentile(0.9).unwrap_or(0.0),
                h.percentile(0.99).unwrap_or(0.0),
                h.max().unwrap_or(0.0),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::EngineConfig;

    fn run_outcome(windows: u32) -> FleetOutcome {
        let engine = Engine::new(EngineConfig {
            timeline_windows: windows,
            ..EngineConfig::hermetic()
        });
        let population = PopulationConfig::new(6, 11);
        fleet::run(&engine, "fleet-cmd-test", &population)
    }

    #[test]
    fn saved_summary_round_trips_and_csv_covers_every_metric() {
        let outcome = run_outcome(0);

        let dir = std::env::temp_dir().join(format!("fleet-cmd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (summary_path, csv_path, timeline_path) =
            save(&dir, &outcome.acc).expect("save artifacts");

        let bytes = std::fs::read_to_string(&summary_path).expect("summary written");
        let decoded = FleetSummary::decode(&bytes).expect("canonical bytes decode");
        assert_eq!(decoded, outcome.acc.summary, "file round-trips the summary");

        let table = std::fs::read_to_string(&csv_path).expect("csv written");
        assert!(table.starts_with("metric,count,"));
        for name in outcome.acc.summary.metric_names() {
            assert!(table.contains(name), "csv missing {name}");
        }

        // Without a timeline the CSV still exists, header-only.
        let timeline = std::fs::read_to_string(&timeline_path).expect("timeline written");
        assert_eq!(timeline.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeline_csv_lists_every_window_and_metric() {
        let outcome = run_outcome(fleet::TIMELINE_WINDOWS);
        let table = timeline_csv(&outcome.acc);
        assert!(table.starts_with("window,start_us,end_us,metric,"));
        let rows = table.lines().count() - 1;
        let per_window: usize = outcome.acc.windows[0].summary.metric_names().count();
        assert_eq!(rows, fleet::TIMELINE_WINDOWS as usize * per_window);
        for needle in ["energy_j", "misses", "utilization", "battery_drain_pct"] {
            assert!(table.contains(needle), "timeline missing {needle}");
        }
        // The timeline, like every fleet artifact, is jobs-independent.
        let four = {
            let engine = Engine::new(EngineConfig {
                jobs: 4,
                timeline_windows: fleet::TIMELINE_WINDOWS,
                ..EngineConfig::hermetic()
            });
            fleet::run(&engine, "fleet-cmd-test", &PopulationConfig::new(6, 11))
        };
        assert_eq!(table, timeline_csv(&four.acc), "jobs=1 vs jobs=4");
    }
}
