//! Property test for the cache log's crash-safety contract: wherever a
//! writer killed mid-append cuts the log, a fresh cache serves every
//! record written wholly before the cut, bit for bit, serves nothing
//! else and never panics, and the next store after the cut is served by
//! the next open.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use engine::{JobResult, JobSpec, ResultCache, WorkloadSpec};
use policies::PolicyDesc;
use workloads::Benchmark;

/// A fresh cache directory per case (cases run in one process).
fn temp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "engine-cache-proptest-{}-{}",
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

/// An arbitrary result derived from one seed, floats from raw bits
/// (NaNs and infinities included); compared through `encode()`.
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

/// One spec per seed; `secs` keeps the extra store's spec apart.
fn spec(seed: u64, secs: u64) -> JobSpec {
    JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Web),
        PolicyDesc::best_from_paper(),
        secs,
        seed,
    )
}

proptest! {
    #[test]
    fn any_truncation_serves_exactly_the_whole_records(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        cut in any::<u64>(),
    ) {
        let mut seeds = seeds.clone();
        seeds.sort_unstable();
        seeds.dedup();
        let dir = temp_dir();
        let cache = ResultCache::new(&dir);
        for &s in &seeds {
            cache.store(&spec(s, 5), &result_from(s)).expect("store");
        }
        let path = cache.log_path();
        drop(cache);
        let bytes = std::fs::read(&path).expect("read log");
        let cut = (cut as usize) % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        // Records are lines in written order; one lies wholly before the
        // cut when its last byte before the newline does.
        let ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
        prop_assert_eq!(ends.len(), seeds.len());
        let expected: Vec<Option<String>> = seeds
            .iter()
            .zip(&ends)
            .map(|(&s, &end)| (end <= cut).then(|| result_from(s).encode()))
            .collect();
        let served = |cache: &ResultCache| -> Vec<Option<String>> {
            seeds.iter().map(|&s| cache.load(&spec(s, 5)).map(|r| r.encode())).collect()
        };

        let reopened = ResultCache::new(&dir);
        prop_assert_eq!(
            served(&reopened),
            expected.clone(),
            "cut at {} of {} bytes",
            cut,
            bytes.len()
        );

        // The next store after the cut is served by the next open, and
        // takes no earlier record with it.
        let extra = result_from(u64::MAX);
        reopened.store(&spec(0, 6), &extra).expect("store after the cut");
        drop(reopened);
        let next = ResultCache::new(&dir);
        prop_assert_eq!(
            next.load(&spec(0, 6)).map(|r| r.encode()),
            Some(extra.encode()),
            "store after a cut at {} of {} bytes lost",
            cut,
            bytes.len()
        );
        prop_assert_eq!(served(&next), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
