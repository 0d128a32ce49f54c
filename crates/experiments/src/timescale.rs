//! Workload time-scales, measured — the §5.1 commentary quantified.
//!
//! "The MPEG application renders at 15 frames/sec ... Each frame is
//! rendered in 67ms or just under 7 scheduling quanta. Any scheduling
//! mechanism attempting to use information from a single frame (as
//! opposed to a single quanta) would need to examine at least 7
//! quanta." And: "when the Java system is 'idle,' there is a constant
//! polling action every 30ms".
//!
//! Autocorrelation of the per-quantum utilization makes both claims
//! measurable: MPEG's dominant period is the frame time (~7 quanta),
//! the bare Kaffe poller's is the 30 ms poll (3 quanta). The
//! utilization histogram quantifies "usually either completely idle or
//! completely busy".

use core::fmt;

use analysis::{autocorrelation, dominant_period};
use itsy_hw::DeviceSet;
use kernel_sim::{Kernel, KernelConfig, Machine};
use sim_core::{Histogram, SimDuration};
use workloads::{Benchmark, JavaPoller};

use crate::report;
use crate::runner::{run_benchmark, RunSpec};

/// Per-workload time-scale measurements.
#[derive(Debug, Clone)]
pub struct TimescaleRow {
    /// Workload label.
    pub workload: String,
    /// Dominant utilization period in 10 ms quanta, if any.
    pub period_quanta: Option<usize>,
    /// Autocorrelation at that period.
    pub period_strength: f64,
    /// Fraction of quanta that are ≤5 % or ≥95 % busy.
    pub edge_mass: f64,
    /// Median per-quantum utilization.
    pub p50: f64,
}

/// The measurement set.
pub struct Timescale {
    /// One row per workload (the four benchmarks plus the bare poller).
    pub rows: Vec<TimescaleRow>,
}

fn analyse(label: &str, utilization: &[f64]) -> TimescaleRow {
    let period = dominant_period(utilization, 100, 0.2);
    let strength = period
        .map(|p| autocorrelation(utilization, p)[p])
        .unwrap_or(0.0);
    let mut hist = Histogram::unit();
    hist.record_all(utilization);
    TimescaleRow {
        workload: label.to_string(),
        period_quanta: period,
        period_strength: strength,
        edge_mass: hist.mass_in(0.0, 0.05) + hist.mass_in(0.95, 1.0),
        p50: hist.percentile(0.5).unwrap_or(0.0),
    }
}

/// Runs the measurements at 206.4 MHz.
pub fn run(seed: u64) -> Timescale {
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let r = run_benchmark(&RunSpec::new(b, 10).for_secs(30).with_seed(seed), None);
        rows.push(analyse(b.name(), &r.utilization.values()));
    }
    // The bare Kaffe poller, to isolate the 30 ms ripple.
    let mut kernel = Kernel::new(
        Machine::itsy(10, DeviceSet::NONE),
        KernelConfig {
            duration: SimDuration::from_secs(30),
            ..KernelConfig::default()
        },
    );
    kernel.spawn(Box::new(JavaPoller::new()));
    let r = kernel.run();
    rows.push(analyse("Kaffe poller (idle Java)", &r.utilization.values()));
    Timescale { rows }
}

impl Timescale {
    /// Row by workload label.
    pub fn row(&self, label: &str) -> &TimescaleRow {
        self.rows
            .iter()
            .find(|r| r.workload == label)
            .expect("workload present")
    }

    /// Writes the rows as CSV.
    pub fn save(&self) -> std::io::Result<()> {
        let doc = report::csv_doc(
            &["workload", "period_quanta", "strength", "edge_mass", "p50"],
            &self
                .rows
                .iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.period_quanta.map_or("-".into(), |p| p.to_string()),
                        format!("{:.3}", r.period_strength),
                        format!("{:.3}", r.edge_mass),
                        format!("{:.3}", r.p50),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        report::save_csv("timescale", "dominant_periods", &doc).map(|_| ())
    }
}

impl fmt::Display for Timescale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Workload time-scales @ 206.4 MHz (10 ms quanta)")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.clone(),
                    match r.period_quanta {
                        Some(p) => format!("{p} quanta ({} ms)", p * 10),
                        None => "aperiodic".into(),
                    },
                    format!("{:.2}", r.period_strength),
                    format!("{:.0}%", r.edge_mass * 100.0),
                    format!("{:.2}", r.p50),
                ]
            })
            .collect();
        f.write_str(&report::render_table(
            &[
                "workload",
                "dominant period",
                "strength",
                "extreme quanta",
                "median util",
            ],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts() -> &'static Timescale {
        use std::sync::OnceLock;
        static CELL: OnceLock<Timescale> = OnceLock::new();
        CELL.get_or_init(|| run(1))
    }

    #[test]
    fn mpeg_period_is_frame_scale() {
        // "just under 7 scheduling quanta" — the fundamental peak lands
        // on the frame time, or on the 3-frame super-period (20 quanta
        // = exactly 200 ms) when the 66.67 ms frames beat against the
        // 10 ms quanta.
        let t = ts();
        let p = t.row("MPEG").period_quanta.expect("MPEG is periodic");
        assert!(
            (6..=8).contains(&p) || (13..=14).contains(&p) || (20..=21).contains(&p),
            "MPEG period = {p} quanta"
        );
    }

    #[test]
    fn bare_poller_period_is_30ms() {
        let t = ts();
        let p = t
            .row("Kaffe poller (idle Java)")
            .period_quanta
            .expect("poller is periodic");
        assert_eq!(p, 3, "30 ms poll = 3 quanta");
    }

    #[test]
    fn utilization_is_bimodal_for_heavy_workloads() {
        let t = ts();
        for name in ["MPEG", "Chess"] {
            let r = t.row(name);
            assert!(r.edge_mass > 0.5, "{name}: edge mass {:.2}", r.edge_mass);
        }
    }

    #[test]
    fn java_polling_dominates_the_interactive_workloads() {
        // The paper's §3/§5.3 point, quantified: "the Java
        // implementation uses a 30ms polling loop to check for I/O
        // events. This periodic polling adds additional variation to
        // the clock setting algorithms" — in the mostly-idle Web and
        // Chess traces, the strongest short-range periodicity IS the
        // 3-quanta poll.
        let t = ts();
        for name in ["Web", "Chess"] {
            let r = t.row(name);
            assert_eq!(
                r.period_quanta,
                Some(3),
                "{name}: expected the 30 ms poll to dominate, got {:?}",
                r.period_quanta
            );
        }
    }
}
