//! Property tests for the journal's crash-safety contract: whatever
//! sequence of records is written, and wherever a crash truncates the
//! file, replay parses a valid prefix of what was durably written —
//! and never panics, and never invents or mutates a record — and the
//! next record after the cut replays too.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use engine::{ContentKey, JobResult, Journal};

/// A fresh state directory per case (cases run in one process).
fn temp_state() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "engine-journal-proptest-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// splitmix64-style bit mixer for deriving field values from one seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// An arbitrary result derived from one seed. Floats come straight
/// from raw bits — including NaNs and infinities — because the journal
/// stores `to_bits()` and must round-trip any of them; comparisons go
/// through `encode()` so NaN != NaN cannot produce a false failure.
fn result_from(seed: u64) -> JobResult {
    let f = |i: u64| f64::from_bits(mix(seed ^ i));
    let u = |i: u64| mix(seed ^ i);
    JobResult {
        energy_j: f(1),
        core_energy_j: f(2),
        mean_freq_mhz: f(3),
        mean_utilization: f(4),
        misses: u(5),
        max_lateness_us: u(6),
        clock_switches: u(7),
        voltage_switches: u(8),
        final_step: u(9),
        frames_shown: u(10),
        frames_dropped: u(11),
        sched_dropped: u(12),
        battery_remaining: f(13),
    }
}

/// The key a seed's record is filed under.
fn key_from(seed: u64) -> ContentKey {
    ContentKey((mix(seed) as u128) << 64 | mix(seed ^ 0xabcd) as u128)
}

/// Writes `seeds` as journal records; returns them in written order.
fn write_records(dir: &Path, seeds: &[u64]) -> Vec<(ContentKey, JobResult)> {
    let mut j = Journal::open(dir, "prop").expect("open journal");
    let records: Vec<(ContentKey, JobResult)> = seeds
        .iter()
        .map(|&s| (key_from(s), result_from(s)))
        .collect();
    for (k, r) in &records {
        j.record(*k, r).expect("record");
    }
    records
}

/// What an intact journal must replay to: last write per key wins
/// (replay is a map, and a resumed batch may re-record a key).
fn expected_map(records: &[(ContentKey, JobResult)]) -> HashMap<ContentKey, String> {
    records.iter().map(|(k, r)| (*k, r.encode())).collect()
}

proptest! {
    /// Intact round trip: every written record replays bit-exactly,
    /// whatever the payload bytes look like.
    #[test]
    fn arbitrary_records_round_trip(seeds in proptest::collection::vec(any::<u64>(), 0..20)) {
        let dir = temp_state();
        let records = write_records(&dir, &seeds);
        let replayed = Journal::replay(&dir, "prop");
        let expected = expected_map(&records);
        prop_assert_eq!(replayed.len(), expected.len());
        for (k, r) in &replayed {
            prop_assert_eq!(Some(&r.encode()), expected.get(k), "key {} mutated", k);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash safety: truncating the journal at *any* byte position
    /// must still replay cleanly — every record whose bytes all lie
    /// before the cut survives, nothing after it leaks through as a
    /// bogus record, and parsing never panics. A resumed run's next
    /// record then replays too, and takes no earlier record with it.
    #[test]
    fn any_truncation_replays_a_valid_prefix(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        cut in any::<u64>(),
    ) {
        // One record per key: a key's last record wins, so a torn
        // second record would hide a whole first one.
        let mut seeds = seeds.clone();
        seeds.sort_unstable();
        seeds.dedup();
        let dir = temp_state();
        let records = write_records(&dir, &seeds);
        let path = Journal::path_for(&dir, "prop");
        let bytes = std::fs::read(&path).expect("read journal");
        let cut = (cut as usize) % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        let replayed = Journal::replay(&dir, "prop");

        // Records are lines in written order; one survives the cut when
        // its last byte before the newline does. A record cut just
        // before its newline is whole, so its CRC passes and it replays.
        let ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        prop_assert_eq!(ends.len(), records.len());
        let mut expected: HashMap<ContentKey, String> = records
            .iter()
            .zip(&ends)
            .filter(|(_, &end)| end <= cut)
            .map(|((k, r), _)| (*k, r.encode()))
            .collect();

        prop_assert_eq!(
            replayed.len(),
            expected.len(),
            "cut at {} of {} bytes: replayed {} records, expected {}",
            cut,
            bytes.len(),
            replayed.len(),
            expected.len()
        );
        for (k, r) in &replayed {
            prop_assert_eq!(Some(&r.encode()), expected.get(k), "key {} wrong after cut", k);
        }

        // A resumed run appends one more record after the cut.
        let extra = (0..).find(|s| !seeds.contains(s)).expect("a free seed");
        let mut j = Journal::open(&dir, "prop").expect("reopen journal");
        j.record(key_from(extra), &result_from(extra)).expect("record after the cut");
        drop(j);
        expected.insert(key_from(extra), result_from(extra).encode());
        let replayed: HashMap<ContentKey, String> = Journal::replay(&dir, "prop")
            .into_iter()
            .map(|(k, r)| (k, r.encode()))
            .collect();
        prop_assert_eq!(
            replayed,
            expected,
            "record after a cut at {} of {} bytes",
            cut,
            bytes.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary garbage appended after a valid journal never panics
    /// and never changes what the valid lines replay to.
    #[test]
    fn trailing_garbage_is_ignored(
        seeds in proptest::collection::vec(any::<u64>(), 0..8),
        garbage in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let dir = temp_state();
        let records = write_records(&dir, &seeds);
        let path = Journal::path_for(&dir, "prop");
        // The first record creates the journal, so no seeds means no file.
        let mut bytes = std::fs::read(&path).unwrap_or_default();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&path, &bytes).expect("append garbage");

        let replayed = Journal::replay(&dir, "prop");
        let expected = expected_map(&records);
        for (k, r) in &replayed {
            if let Some(want) = expected.get(k) {
                prop_assert_eq!(&r.encode(), want, "key {} mutated by garbage", k);
            }
            // A key not in `expected` could only appear if the garbage
            // happened to be a CRC-valid record — vanishingly unlikely
            // and not wrong, so no assertion on it.
        }
        // All valid records still replay (garbage can only merge with
        // a line if the file did not end in '\n', and ours always do —
        // it can't damage complete earlier lines).
        prop_assert!(replayed.len() >= expected.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
