//! Simulation fidelity: how a run accumulates its results.
//!
//! Every simulation computes the same *physics* — task execution, policy
//! decisions, clock/voltage switches, battery drain. Full fidelity
//! integrates energy segment by segment and folds each tick's
//! utilization and frequency samples into `f64` running sums; Summary
//! fidelity commits provably uniform spans in closed form, with exact
//! integer accumulators and one energy term per span. Whether a run
//! also keeps its per-tick samples as [`crate::TimeSeries`] is not the
//! fidelity but the kernel's own `record` switch, honoured at Full
//! only: the figure experiments record, the engine never does.
//!
//! The two modes share one invariant: **integer accounting and policy
//! decision sequences are bit-identical**. Only floating-point
//! *derived* observables (the two means and the energy summation order)
//! may differ; see `DESIGN.md` §9 for the proof obligations and the
//! per-span energy error bound.

use core::fmt;

/// How a simulation accumulates its per-tick state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimFidelity {
    /// Tick by tick: energy per segment and `f64` running sums of the
    /// per-tick samples. This is the historical arithmetic and the
    /// default — every golden output and SIM_VERSION ≤ 3 cache key was
    /// produced in this mode. What such a run records is the kernel's
    /// `record` switch, not the fidelity.
    #[default]
    Full,
    /// Closed-form run summaries: integer mode accounting, switch and
    /// deadline counters, integer-exact means, compensated energy
    /// totals. Nothing is recorded, and a uniform span commits its
    /// energy as one term instead of one per segment; the policy still
    /// observes every tick. Specs carrying this mode key under the
    /// engine's `SUMMARY_SIM_VERSION`.
    Summary,
}

impl SimFidelity {
    /// True for [`SimFidelity::Summary`].
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
