//! Table 2: summary of performance of the best clock scaling
//! algorithms — MPEG energy under five configurations, with 95 %
//! confidence intervals.
//!
//! The paper's rows (Joules, 60 s of playback):
//!
//! | configuration | paper 95 % CI |
//! |---|---|
//! | Constant 206.4 MHz, 1.5 V | 85.59 – 86.49 |
//! | Constant 132.7 MHz, 1.5 V | 79.59 – 80.94 |
//! | Constant 132.7 MHz, 1.23 V | 73.76 – 74.41 |
//! | PAST, peg-peg, >98 %/<93 %, 1.5 V | 85.03 – 85.47 |
//! | PAST, peg-peg + voltage scaling @162.2 MHz | 84.60 – 85.45 |
//!
//! Shape targets: the orderings (132.7/1.23 < 132.7/1.5 < both PAST
//! configurations < 206.4/1.5), a small-but-significant saving for the
//! PAST policy over the constant top speed, *no* significant additional
//! saving from voltage scaling under the policy, and zero deadline
//! misses everywhere.

use core::fmt;

use itsy_hw::clock::{V_HIGH, V_LOW};
use itsy_hw::ClockTable;
use policies::{IntervalScheduler, VoltageRule};
use sim_core::ConfidenceInterval;
use workloads::Benchmark;

use crate::report;
use crate::runner::{measure_energy, RunSpec, TOLERANCE};

/// One table row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Configuration label (paper style).
    pub label: String,
    /// Energy 95 % CI over the runs, joules.
    pub energy: ConfidenceInterval,
    /// Total deadline misses across runs (must be 0 for a "best"
    /// policy).
    pub misses: usize,
    /// Clock switches in the last run.
    pub clock_switches: u64,
}

/// The reproduced table.
pub struct Table2 {
    /// The five rows, in the paper's order.
    pub rows: Vec<Table2Row>,
    /// The paper's CIs for side-by-side comparison.
    pub paper: [(f64, f64); 5],
}

/// Seconds of MPEG playback per run.
pub const RUN_SECS: u64 = 60;

/// Runs per configuration (the paper measured "multiple runs").
pub const RUNS: u32 = 5;

/// Runs all five configurations.
pub fn run(seed: u64) -> Table2 {
    let table = ClockTable::sa1100();
    let mut rows = Vec::new();

    let mut push =
        |label: String,
         spec: RunSpec,
         policy: Box<dyn Fn() -> Option<Box<dyn policies::ClockPolicy>>>| {
            let (stats, misses, last) = measure_energy(spec, &*policy, RUNS, TOLERANCE);
            rows.push(Table2Row {
                label,
                energy: stats.ci95().expect("multiple runs"),
                misses,
                clock_switches: last.clock_switches,
            });
        };

    push(
        "Constant Speed @ 206.4 MHz, 1.5 Volts".into(),
        RunSpec::new(Benchmark::Mpeg, 10)
            .for_secs(RUN_SECS)
            .with_seed(seed),
        Box::new(|| None),
    );
    push(
        "Constant Speed @ 132.7 MHz, 1.5 Volts".into(),
        RunSpec::new(Benchmark::Mpeg, 5)
            .for_secs(RUN_SECS)
            .with_seed(seed),
        Box::new(|| None),
    );
    push(
        "Constant Speed @ 132.7 MHz, 1.23 Volts".into(),
        RunSpec::new(Benchmark::Mpeg, 5)
            .for_secs(RUN_SECS)
            .with_seed(seed)
            .at_low_voltage(),
        Box::new(|| None),
    );
    let t1 = table.clone();
    push(
        "PAST, Peg - Peg, >98% up / <93% down, 1.5 Volts".into(),
        RunSpec::new(Benchmark::Mpeg, 10)
            .for_secs(RUN_SECS)
            .with_seed(seed),
        Box::new(move || Some(Box::new(IntervalScheduler::best_from_paper(t1.clone())))),
    );
    let t2 = table.clone();
    push(
        "PAST, Peg - Peg, Voltage Scaling @ 162.2 MHz".into(),
        RunSpec::new(Benchmark::Mpeg, 10)
            .for_secs(RUN_SECS)
            .with_seed(seed),
        Box::new(move || {
            Some(Box::new(
                IntervalScheduler::best_from_paper(t2.clone())
                    .with_voltage_rule(VoltageRule::default()),
            ))
        }),
    );

    // Silence unused-import warnings for the voltage constants used in
    // documentation and assertions.
    let _ = (V_HIGH, V_LOW);

    Table2 {
        rows,
        paper: [
            (85.59, 86.49),
            (79.59, 80.94),
            (73.76, 74.41),
            (85.03, 85.47),
            (84.60, 85.45),
        ],
    }
}

impl Table2 {
    /// Energy mean of a row.
    pub fn mean(&self, row: usize) -> f64 {
        self.rows[row].energy.mean
    }

    /// Writes the table as CSV.
    pub fn save(&self) -> std::io::Result<()> {
        let doc = report::csv_doc(
            &[
                "config",
                "energy_lo_j",
                "energy_hi_j",
                "paper_lo_j",
                "paper_hi_j",
                "misses",
                "clock_switches",
            ],
            &self
                .rows
                .iter()
                .zip(self.paper.iter())
                .map(|(r, p)| {
                    vec![
                        r.label.replace(',', ";"),
                        format!("{:.2}", r.energy.lo),
                        format!("{:.2}", r.energy.hi),
                        format!("{}", p.0),
                        format!("{}", p.1),
                        r.misses.to_string(),
                        r.clock_switches.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        report::save_csv("table2", "energy", &doc).map(|_| ())
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: MPEG energy over {RUN_SECS}s, {RUNS} runs each (95% CI)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .zip(self.paper.iter())
            .map(|(r, p)| {
                vec![
                    r.label.clone(),
                    format!("{}", r.energy),
                    format!("{:.2} - {:.2}", p.0, p.1),
                    r.misses.to_string(),
                ]
            })
            .collect();
        f.write_str(&report::render_table(
            &["Algorithm", "Energy (model)", "Energy (paper)", "misses"],
            &rows,
        ))
    }
}

/// The §5.4 voltage-scaling decomposition: running MPEG at 132.7 MHz,
/// how much does the 1.23 V rail cut core energy vs system energy?
///
/// The paper: "A\[n\] 8% energy reduction occurs when we drop the
/// processor voltage to 1.23V — this is less than the 15% maximum
/// reduction we measured because the application uses resources (e.g.
/// audio) that are not affected by voltage scaling."
pub fn voltage_decomposition(seed: u64) -> (f64, f64) {
    let hi = crate::runner::run_benchmark(
        &RunSpec::new(Benchmark::Mpeg, 5)
            .for_secs(30)
            .with_seed(seed),
        None,
    );
    let lo = crate::runner::run_benchmark(
        &RunSpec::new(Benchmark::Mpeg, 5)
            .for_secs(30)
            .with_seed(seed)
            .at_low_voltage(),
        None,
    );
    let core_cut = 1.0 - lo.core_energy.as_joules() / hi.core_energy.as_joules();
    let system_cut = 1.0 - lo.energy.as_joules() / hi.energy.as_joules();
    (core_cut, system_cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> &'static Table2 {
        use std::sync::OnceLock;
        static CELL: OnceLock<Table2> = OnceLock::new();
        CELL.get_or_init(|| run(1))
    }

    #[test]
    fn ordering_matches_the_paper() {
        let t = table();
        let e: Vec<f64> = (0..5).map(|i| t.mean(i)).collect();
        // 132.7/1.23 < 132.7/1.5 < PAST variants < 206.4/1.5.
        assert!(e[2] < e[1], "voltage drop must save energy: {e:?}");
        assert!(e[1] < e[4] && e[1] < e[3], "132.7 beats the policy: {e:?}");
        assert!(
            e[3] < e[0],
            "the policy must beat constant top speed: {e:?}"
        );
        assert!(
            e[4] <= e[3] + 0.5,
            "voltage scaling must not cost energy: {e:?}"
        );
    }

    #[test]
    fn past_policy_saving_is_statistically_significant() {
        let t = table();
        assert!(
            t.rows[3]
                .energy
                .significantly_different_from(&t.rows[0].energy),
            "PAST {} vs constant {}",
            t.rows[3].energy,
            t.rows[0].energy
        );
    }

    #[test]
    fn voltage_scaling_adds_no_significant_saving() {
        // The paper: "Allowing the processor to scale the voltage when
        // the clock speed drops below 162.2MHz results in no
        // statistical decrease."
        let t = table();
        let gap = t.mean(3) - t.mean(4);
        let significant = t.rows[4]
            .energy
            .significantly_different_from(&t.rows[3].energy);
        assert!(
            !significant || gap < 1.5,
            "voltage scaling saved {gap:.2}J significantly — too strong"
        );
    }

    #[test]
    fn no_configuration_misses_deadlines() {
        let t = table();
        for r in &t.rows {
            assert_eq!(r.misses, 0, "{} missed deadlines", r.label);
        }
    }

    #[test]
    fn magnitudes_are_in_the_papers_range() {
        // Absolute numbers need not match, but the model is calibrated
        // to land in the same tens-of-joules regime.
        let t = table();
        for (r, p) in t.rows.iter().zip(t.paper.iter()) {
            let rel = (r.energy.mean - (p.0 + p.1) / 2.0).abs() / ((p.0 + p.1) / 2.0);
            assert!(rel < 0.25, "{}: {} vs paper {:?}", r.label, r.energy, p);
        }
    }

    #[test]
    fn repeatability_matches_papers_criterion() {
        // 95% CI well under 0.7% of the mean.
        let t = table();
        for r in &t.rows {
            assert!(
                r.energy.relative_half_width() < 0.007,
                "{}: CI {:.3}%",
                r.label,
                r.energy.relative_half_width() * 100.0
            );
        }
    }

    #[test]
    fn voltage_cut_is_large_on_the_core_small_on_the_system() {
        // Core power drops ~15-18%; the system sees roughly half that,
        // "because the application uses resources that are not affected
        // by voltage scaling".
        let (core_cut, system_cut) = voltage_decomposition(1);
        assert!(
            (0.12..=0.22).contains(&core_cut),
            "core reduction = {:.1}%",
            core_cut * 100.0
        );
        assert!(
            system_cut < core_cut / 1.5,
            "system {:.1}% vs core {:.1}%",
            system_cut * 100.0,
            core_cut * 100.0
        );
        assert!(system_cut > 0.02);
    }

    #[test]
    fn policy_switches_frequently_constants_never() {
        let t = table();
        assert_eq!(t.rows[0].clock_switches, 0);
        assert_eq!(t.rows[1].clock_switches, 0);
        assert!(t.rows[3].clock_switches > 50);
    }
}
