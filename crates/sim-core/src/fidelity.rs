//! Simulation fidelity: what a run is obligated to record.
//!
//! Every simulation computes the same *physics* — task execution, policy
//! decisions, clock/voltage switches, battery drain — but consumers
//! differ in what they read back. Figure-producing experiments consume
//! per-tick [`crate::TimeSeries`] samples; the fleet path folds each
//! device into integer-exact sketches and discards the per-tick data
//! unread. [`SimFidelity`] names that contract so the kernel can skip
//! work whose output nobody will observe.
//!
//! The two modes share one invariant: **integer accounting and policy
//! decision sequences are bit-identical**. Only floating-point
//! *derived* observables (series samples, and therefore series-derived
//! means plus the energy summation order) may differ; see
//! `DESIGN.md` §9 for the proof obligations and the per-span energy
//! error bound.

use core::fmt;

/// How much of a simulation's per-tick state must be materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimFidelity {
    /// Record everything: per-tick utilization / frequency /
    /// work-fraction / power series, the scheduler log, power-change
    /// events. This is the historical behavior and the default — every
    /// golden output and SIM_VERSION ≤ 3 cache key was produced in
    /// this mode.
    #[default]
    Full,
    /// Record only run summaries: integer mode accounting, switch and
    /// deadline counters, closed-form means, compensated energy
    /// totals. No `TimeSeries` is emitted, and a uniform span commits
    /// its energy as one term instead of one per segment; the policy
    /// still observes every tick. Specs carrying this mode key under
    /// the engine's `SUMMARY_SIM_VERSION`.
    Summary,
}

impl SimFidelity {
    /// True when per-tick series/log emission is skipped.
    pub fn is_summary(self) -> bool {
        matches!(self, SimFidelity::Summary)
    }

    /// Canonical lower-case tag used in content keys and CLI flags.
    pub fn tag(self) -> &'static str {
        match self {
            SimFidelity::Full => "full",
            SimFidelity::Summary => "summary",
        }
    }

    /// Parses the canonical tag (as accepted by `--fidelity`).
    pub fn parse(s: &str) -> Option<SimFidelity> {
        match s {
            "full" => Some(SimFidelity::Full),
            "summary" => Some(SimFidelity::Summary),
            _ => None,
        }
    }
}

impl fmt::Display for SimFidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full() {
        assert_eq!(SimFidelity::default(), SimFidelity::Full);
        assert!(!SimFidelity::default().is_summary());
    }

    #[test]
    fn tags_round_trip() {
        for f in [SimFidelity::Full, SimFidelity::Summary] {
            assert_eq!(SimFidelity::parse(f.tag()), Some(f));
            assert_eq!(format!("{f}"), f.tag());
        }
        assert_eq!(SimFidelity::parse("FULL"), None);
        assert_eq!(SimFidelity::parse(""), None);
    }
}
