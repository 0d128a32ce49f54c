//! An lmbench-style memory-latency probe, run *inside* the simulation.
//!
//! Table 3 was measured on the Itsy by timing loops that read
//! individual words and full cache lines. This experiment does the
//! same against the simulated machine: a task issues a known number of
//! memory references, the kernel reports the busy time, and dividing by
//! the reference count and the clock period recovers the per-reference
//! cycle cost — which must round back to the Table 3 entries. It
//! end-to-end validates the work-execution path (work splitting across
//! quanta, rounding, accounting) rather than just the lookup table.

use core::fmt;

use itsy_hw::{ClockTable, DeviceSet, MemoryTiming, Work};
use kernel_sim::{task::FnBehavior, Kernel, KernelConfig, Machine, TaskAction};
use sim_core::SimDuration;

use crate::report;

/// Probe outcome for one clock step.
#[derive(Debug, Clone, Copy)]
pub struct ProbePoint {
    /// Clock step.
    pub step: usize,
    /// Frequency, MHz.
    pub mhz: f64,
    /// Measured cycles per individual word read.
    pub word_cycles: f64,
    /// Measured cycles per cache-line read.
    pub line_cycles: f64,
    /// The Table 3 ground truth.
    pub expect: (u32, u32),
}

/// The probe sweep.
pub struct MemProbe {
    /// One point per clock step.
    pub points: Vec<ProbePoint>,
}

/// References issued per probe run (enough to amortise rounding).
pub const REFS: f64 = 2_000_000.0;

fn measure(step: usize, work: Work) -> f64 {
    let mut kernel = Kernel::new(
        Machine::itsy(step, DeviceSet::NONE),
        KernelConfig {
            duration: SimDuration::from_secs(60),
            record: false,
            ..KernelConfig::default()
        },
    );
    let mut issued = false;
    kernel.spawn(Box::new(FnBehavior::new("memprobe", move |_ctx| {
        if issued {
            TaskAction::Exit
        } else {
            issued = true;
            TaskAction::Compute(work)
        }
    })));
    let r = kernel.run();
    assert!(
        r.busy < SimDuration::from_secs(60),
        "probe did not finish; raise the run length"
    );
    r.busy.as_secs_f64()
}

/// Probes every clock step.
pub fn run() -> MemProbe {
    let table = ClockTable::sa1100();
    let truth = MemoryTiming::sa1100_edo();
    let points = (0..table.len())
        .map(|step| {
            let hz = table.freq(step).as_hz() as f64;
            // Word-read loop: REFS individual references, no other work.
            let t_words = measure(step, Work::new(0.0, REFS, 0.0));
            // Cache-line loop.
            let t_lines = measure(step, Work::new(0.0, 0.0, REFS));
            ProbePoint {
                step,
                mhz: table.freq(step).as_mhz_f64(),
                word_cycles: t_words * hz / REFS,
                line_cycles: t_lines * hz / REFS,
                expect: (truth.word_cycles(step), truth.line_cycles(step)),
            }
        })
        .collect();
    MemProbe { points }
}

impl MemProbe {
    /// The largest relative error of any measurement vs Table 3.
    pub fn worst_error(&self) -> f64 {
        self.points
            .iter()
            .flat_map(|p| {
                [
                    (p.word_cycles - p.expect.0 as f64).abs() / p.expect.0 as f64,
                    (p.line_cycles - p.expect.1 as f64).abs() / p.expect.1 as f64,
                ]
            })
            .fold(0.0, f64::max)
    }

    /// Writes the probe results as CSV.
    pub fn save(&self) -> std::io::Result<()> {
        let doc = report::csv_doc(
            &[
                "step",
                "mhz",
                "word_cycles",
                "line_cycles",
                "expect_word",
                "expect_line",
            ],
            &self
                .points
                .iter()
                .map(|p| {
                    vec![
                        p.step.to_string(),
                        format!("{}", p.mhz),
                        format!("{:.3}", p.word_cycles),
                        format!("{:.3}", p.line_cycles),
                        p.expect.0.to_string(),
                        p.expect.1.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        report::save_csv("memprobe", "measured_cycles", &doc).map(|_| ())
    }
}

impl fmt::Display for MemProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Memory probe: measured access cycles vs Table 3 ({} refs per point)",
            REFS as u64
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.1}", p.mhz),
                    format!("{:.2} (expect {})", p.word_cycles, p.expect.0),
                    format!("{:.2} (expect {})", p.line_cycles, p.expect.1),
                ]
            })
            .collect();
        f.write_str(&report::render_table(
            &["MHz", "cycles/word", "cycles/line"],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_recovers_table3_within_a_cycle_fraction() {
        let p = run();
        assert!(
            p.worst_error() < 0.01,
            "worst relative error = {:.4}",
            p.worst_error()
        );
        for point in &p.points {
            assert!(
                (point.word_cycles - point.expect.0 as f64).abs() < 0.2,
                "step {}: {} vs {}",
                point.step,
                point.word_cycles,
                point.expect.0
            );
        }
    }

    #[test]
    fn probe_sees_the_162_to_177_jump() {
        let p = run();
        let jump = p.points[8].word_cycles - p.points[7].word_cycles;
        assert!((jump - 3.0).abs() < 0.1, "jump = {jump}");
    }
}
