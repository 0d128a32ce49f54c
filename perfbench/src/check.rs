//! Output digests and the stored references they are checked against.
//!
//! The digest is FNV-1a 64 over the program's own output encodings,
//! written here rather than borrowed from the engine so that a change
//! to the engine's hashing cannot silently move the reference. The
//! reference tables live in `refs/`, one `<seed> <digest-hex>` line per
//! seed, and are compiled into the harness.

use std::cell::Cell;

/// Incremental FNV-1a 64.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Fleet references: `FleetSummary::encode` plus every timeline
/// window's bounds and encoding, for `PopulationConfig::new(20_000, seed)`.
pub const FLEET_REFS: &str = include_str!("../refs/fleet.txt");

/// Sweep references: `JobResult::encode` of every cell of the full grid
/// at 300-s cells, in grid order. `sweep_cold` and `sweep_warm` share
/// them: a warm cache must serve exactly what the cold run stored.
pub const SWEEP_REFS: &str = include_str!("../refs/sweep.txt");

/// The stored digest for `seed`, if the table has one.
pub fn reference(table: &str, seed: u64) -> Option<u64> {
    table
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(s, _)| s.parse() == Ok(seed))
        .and_then(|(_, d)| u64::from_str_radix(d.trim(), 16).ok())
}

/// Tracks one workload's output check across every batch of a run:
/// each batch must reproduce the stored reference (or, for a seed
/// without one, the run's first batch).
#[derive(Debug)]
pub struct Checker {
    expected: Cell<Option<u64>>,
    stored: bool,
    mismatches: Cell<u64>,
}

impl Checker {
    /// A checker for `seed` against `table`.
    pub fn new(table: &str, seed: u64) -> Self {
        let expected = reference(table, seed);
        if expected.is_none() {
            eprintln!(
                "perfbench: no stored reference for seed {seed}; checking that \
                 every batch, at 1 and at all workers, agrees with the first"
            );
        }
        Checker {
            expected: Cell::new(expected),
            stored: expected.is_some(),
            mismatches: Cell::new(0),
        }
    }

    /// Batches whose digest disagreed so far.
    pub fn mismatches(&self) -> u64 {
        self.mismatches.get()
    }

    /// Checks one batch's digest; `true` when it matches.
    pub fn check(&self, digest: u64) -> bool {
        let expected = self.expected.get().unwrap_or(digest);
        self.expected.set(Some(expected));
        if digest != expected {
            self.mismatches.set(self.mismatches.get() + 1);
            eprintln!(
                "perfbench: output digest {digest:016x} != {} {expected:016x}",
                if self.stored {
                    "reference"
                } else {
                    "first batch"
                }
            );
        }
        digest == expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::default();
        d.update(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn reference_lookup() {
        let table = "# comment\n1 00000000000000ff\n22 0a\n";
        assert_eq!(reference(table, 1), Some(255));
        assert_eq!(reference(table, 22), Some(10));
        assert_eq!(reference(table, 2), None);
    }

    #[test]
    fn stored_tables_parse() {
        for table in [FLEET_REFS, SWEEP_REFS] {
            assert!(
                reference(table, 1).is_some(),
                "default seed has a reference"
            );
        }
    }

    #[test]
    fn checker_counts_mismatches() {
        let c = Checker::new("5 10\n", 5);
        assert!(c.check(0x10));
        assert!(!c.check(0x11));
        let fresh = Checker::new("", 9);
        assert!(fresh.check(3) && fresh.check(3) && !fresh.check(4));
        assert_eq!((c.mismatches(), fresh.mismatches()), (1, 1));
    }
}
