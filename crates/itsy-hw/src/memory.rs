//! EDO DRAM timing: memory-access cost in core cycles per clock step.
//!
//! Table 3 of the paper reports, for each of the eleven SA-1100 clock
//! steps, how many *core* cycles it takes to read an individual word and
//! a full cache line from the Itsy's EDO DRAM. The DRAM itself runs at a
//! fixed speed, so raising the core clock raises the number of core
//! cycles spent stalled — and because the memory controller's wait states
//! are programmed per frequency band, the growth is stepped rather than
//! smooth. The paper identifies the jump between 162.2 MHz (15/50
//! cycles) and 176.9 MHz (18/60 cycles) as the likely cause of the
//! utilization plateau in Figure 9.
//!
//! [`MemoryTiming::sa1100_edo`] is the published table verbatim;
//! [`MemoryTiming::from_latency_ns`] is an idealized fixed-nanosecond
//! model used by the ablation benches to show what the plateau looks
//! like without the wait-state quantization; and
//! [`MemoryTiming::ideal`] charges a frequency-independent cycle count
//! (turning the machine into the "perfect scaling" model earlier
//! trace-driven studies assumed).

use sim_core::Frequency;

use crate::clock::{ClockTable, StepIndex};

/// Per-clock-step memory access costs in core cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryTiming {
    /// `(cycles per word read, cycles per cache-line read)` per step.
    costs: Vec<(u32, u32)>,
}

impl MemoryTiming {
    /// The paper's Table 3: measured EDO DRAM access times on the Itsy,
    /// indexed by SA-1100 clock step.
    pub fn sa1100_edo() -> Self {
        MemoryTiming {
            costs: vec![
                (11, 39), // 59.0 MHz
                (11, 39), // 73.7 MHz
                (11, 39), // 88.5 MHz
                (11, 39), // 103.2 MHz
                (13, 41), // 118.0 MHz
                (14, 42), // 132.7 MHz
                (14, 49), // 147.5 MHz
                (15, 50), // 162.2 MHz
                (18, 60), // 176.9 MHz
                (19, 61), // 191.7 MHz
                (20, 69), // 206.4 MHz
            ],
        }
    }

    /// An idealized model that charges a fixed wall-clock latency,
    /// converted to core cycles per step (`ceil(latency * f)`), with no
    /// wait-state quantization.
    ///
    /// # Panics
    ///
    /// Panics if either latency is not positive and finite.
    pub fn from_latency_ns(table: &ClockTable, word_ns: f64, line_ns: f64) -> Self {
        assert!(word_ns.is_finite() && word_ns > 0.0, "bad word latency");
        assert!(line_ns.is_finite() && line_ns > 0.0, "bad line latency");
        let costs = table
            .iter()
            .map(|(_, f)| {
                let hz = f.as_hz() as f64;
                (
                    (word_ns * 1e-9 * hz).ceil() as u32,
                    (line_ns * 1e-9 * hz).ceil() as u32,
                )
            })
            .collect();
        MemoryTiming { costs }
    }

    /// A frequency-independent model: every step pays the same cycle
    /// counts, i.e. execution time scales perfectly with 1/f. This is
    /// the (implicit) machine model of the earlier trace-driven studies
    /// the paper critiques.
    pub fn ideal(table: &ClockTable, word_cycles: u32, line_cycles: u32) -> Self {
        MemoryTiming {
            costs: vec![(word_cycles, line_cycles); table.len()],
        }
    }

    /// Number of steps covered.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Core cycles to read one word at clock step `idx`.
    pub fn word_cycles(&self, idx: StepIndex) -> u32 {
        self.costs[idx].0
    }

    /// Core cycles to read one cache line at clock step `idx`.
    pub fn line_cycles(&self, idx: StepIndex) -> u32 {
        self.costs[idx].1
    }

    /// Effective wall-clock latency of a word read at step `idx` given
    /// the step's frequency (reporting helper).
    pub fn word_latency_ns(&self, idx: StepIndex, f: Frequency) -> f64 {
        self.costs[idx].0 as f64 / f.as_hz() as f64 * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_values_exact() {
        let m = MemoryTiming::sa1100_edo();
        let expected = [
            (11, 39),
            (11, 39),
            (11, 39),
            (11, 39),
            (13, 41),
            (14, 42),
            (14, 49),
            (15, 50),
            (18, 60),
            (19, 61),
            (20, 69),
        ];
        assert_eq!(m.len(), 11);
        for (i, &(w, l)) in expected.iter().enumerate() {
            assert_eq!(m.word_cycles(i), w, "word cycles at step {i}");
            assert_eq!(m.line_cycles(i), l, "line cycles at step {i}");
        }
    }

    #[test]
    fn costs_nondecreasing_with_frequency() {
        let m = MemoryTiming::sa1100_edo();
        for i in 1..m.len() {
            assert!(m.word_cycles(i) >= m.word_cycles(i - 1));
            assert!(m.line_cycles(i) >= m.line_cycles(i - 1));
        }
    }

    #[test]
    fn paper_notes_the_162_to_177_jump() {
        // "there is an obvious non-linear increase between 162MHz and
        // 176.9MHz": the word cost jumps by 3 cycles there, more than at
        // any other adjacent step pair.
        let m = MemoryTiming::sa1100_edo();
        let jumps: Vec<u32> = (1..m.len())
            .map(|i| m.word_cycles(i) - m.word_cycles(i - 1))
            .collect();
        let max = *jumps.iter().max().unwrap();
        assert_eq!(max, 3);
        assert_eq!(jumps[8 - 1], 3); // step 7 (162.2) -> step 8 (176.9)
    }

    #[test]
    fn latency_model_rounds_up() {
        let t = ClockTable::sa1100();
        let m = MemoryTiming::from_latency_ns(&t, 100.0, 300.0);
        // 100 ns at 59.0 MHz = 5.9 cycles -> 6.
        assert_eq!(m.word_cycles(0), 6);
        // 100 ns at 206.4 MHz = 20.64 cycles -> 21.
        assert_eq!(m.word_cycles(10), 21);
        assert_eq!(m.line_cycles(10), 62); // 61.92 -> 62
    }

    #[test]
    fn ideal_model_is_flat() {
        let t = ClockTable::sa1100();
        let m = MemoryTiming::ideal(&t, 10, 30);
        for i in 0..t.len() {
            assert_eq!(m.word_cycles(i), 10);
            assert_eq!(m.line_cycles(i), 30);
        }
    }

    #[test]
    fn wall_clock_latency_reported() {
        let t = ClockTable::sa1100();
        let m = MemoryTiming::sa1100_edo();
        // 11 cycles at 59 MHz is ~186 ns.
        let ns = m.word_latency_ns(0, t.freq(0));
        assert!((ns - 186.4).abs() < 0.1, "{ns}");
    }
}
