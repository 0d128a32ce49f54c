//! On-disk result cache, keyed by job content address.
//!
//! Layout: one record log per cache directory, `<dir>/v3.log`, in the
//! framing, index and torn-tail repair the journal shares (`frame.rs`).
//! The format version lives in the file name, so no single damaged line
//! can poison the log. Each stored result is one record:
//!
//! ```text
//! <key-hex> <crc-hex> <canonical spec>\t<JobResult::encode() output>
//! ```
//!
//! A canonical spec never contains a tab. On first use a
//! [`ResultCache`] opens the log, which indexes each key's *last*
//! record, so a later store for a key supersedes every earlier one. An
//! [`Engine`](crate::Engine) holds its cache, index included, from one
//! batch to the next; each batch first catches the index up with the
//! file, which costs one `stat` when no other writer appended.
//!
//! **Probe.** A lookup is a hash lookup plus a read of the record, copied
//! out of a reader's read-ahead window while probes move forward through
//! the file and one positioned read otherwise. The record is validated
//! before it is served: its CRC, checked over the bytes as read, then a
//! byte-for-byte match of the stored canonical spec against the
//! requesting one, and the decode. A record
//! for a different spec (a hash collision) is a plain miss. A record
//! that fails its CRC, is not UTF-8 or does not decode is
//! **quarantined**: its bytes are copied to
//! `<dir>/quarantine/<key>.entry` for forensics, the key leaves the
//! index, and [`CacheProbe::Quarantined`] tells the engine to recompute
//! the cell. The recomputed result's record then supersedes the damaged
//! one. The read and the validation need only a shared log, so the
//! engine's probing threads run them at once, each through its own
//! reader, and its calling thread quarantines afterwards, in cell order.
//!
//! **Store.** One append of one record to the log, which each
//! `ResultCache` opens once; the first store creates the directory and
//! the log.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::fault::FaultInjector;
use crate::frame::{self, Log, Reader};
use crate::job::{JobResult, JobSpec, ENCODED_CAPACITY};
use crate::key::ContentKey;

/// The log's file name; the version is the format fence.
const LOG: &str = "v3.log";

/// What a cache lookup found.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheProbe {
    /// A healthy record for exactly this spec.
    Hit(JobResult),
    /// No record (including unreadable ones and key collisions).
    Miss,
    /// A record existed but failed validation; it has been copied to
    /// the quarantine directory and the cell must be recomputed.
    Quarantined,
}

impl CacheProbe {
    /// The result, if this was a hit.
    pub fn hit(self) -> Option<JobResult> {
        match self {
            CacheProbe::Hit(r) => Some(r),
            _ => None,
        }
    }
}

/// A content-addressed store of job results.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// The open log and its index, read on first use, and the reader the
    /// cache's own probes read it through.
    log: Mutex<Option<(Log, Reader)>>,
}

impl ResultCache {
    /// Opens (without touching the filesystem) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: dir.into(),
            log: Mutex::new(None),
        }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The log every record is appended to.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG)
    }

    /// Where damaged records are copied.
    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Runs `f` on the log and the cache's reader under the cache's
    /// lock, reading the log's index on first use. Every step of an
    /// update leaves the log consistent (a record enters the index only
    /// after its write, and a torn tail errs towards a spare newline), so
    /// a lock poisoned by a panicking caller is recovered.
    pub(crate) fn with_log<T>(&self, f: impl FnOnce(&mut Log, &mut Reader) -> T) -> T {
        let mut held = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let (log, reader) =
            held.get_or_insert_with(|| (Log::open(self.log_path()), Reader::default()));
        f(log, reader)
    }

    /// Brings an open log's index up to its file, so that it files
    /// every record any writer appended since it last looked; a log not
    /// yet open reads the whole file on first use anyway.
    pub(crate) fn catch_up(&self) {
        let mut held = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((log, reader)) = held.as_mut() {
            log.catch_up();
            reader.clear();
        }
    }

    /// Looks up a spec. Returns `None` on missing, damaged, or
    /// spec-mismatched records — never an error; a broken record is
    /// quarantined and the cell recomputed.
    pub fn load(&self, spec: &JobSpec) -> Option<JobResult> {
        self.probe(spec, &FaultInjector::inert()).hit()
    }

    /// [`load`](Self::load) with full diagnostics and a fault injector
    /// whose cache-read faults are applied to the bytes before
    /// validation — the validation path cannot tell injected damage
    /// from real disk damage, which is the point.
    pub fn probe(&self, spec: &JobSpec, faults: &FaultInjector) -> CacheProbe {
        let canonical = spec.canonical();
        self.probe_keyed(ContentKey::of(&canonical), &canonical, faults)
    }

    /// [`probe`](Self::probe) for a spec whose canonical string and key
    /// the caller already holds.
    pub(crate) fn probe_keyed(
        &self,
        key: ContentKey,
        canonical: &str,
        faults: &FaultInjector,
    ) -> CacheProbe {
        self.with_log(
            |log, reader| match read_checked(log, reader, key, canonical, faults) {
                None => CacheProbe::Miss,
                Some(Ok(result)) => CacheProbe::Hit(result),
                Some(Err(damaged)) => {
                    self.quarantine_in(log, key, damaged);
                    CacheProbe::Quarantined
                }
            },
        )
    }

    /// Quarantines `key`'s damaged record, whose bytes a
    /// [`read_checked`] returned, unless the key has left the index since
    /// (an earlier quarantine of it); whether it did.
    pub(crate) fn quarantine(&self, key: ContentKey, bytes: &[u8]) -> bool {
        self.with_log(|log, _| self.quarantine_in(log, key, bytes))
    }

    /// Takes `key` out of `log`'s index and, if it was there, keeps the
    /// damaged record's bytes for forensics. The copy is best effort: the
    /// record is never served again by this cache either way.
    fn quarantine_in(&self, log: &mut Log, key: ContentKey, bytes: &[u8]) -> bool {
        if log.index.remove(&key).is_none() {
            return false;
        }
        let qdir = self.quarantine_dir();
        let _ = fs::create_dir_all(&qdir)
            .and_then(|()| fs::write(qdir.join(format!("{key}.entry")), bytes));
        true
    }

    /// Whether the log holds a record for `key` (damaged records count
    /// until a probe quarantines them).
    pub(crate) fn contains(&self, key: ContentKey) -> bool {
        self.with_log(|log, _| log.index.contains_key(&key))
    }

    /// Appends a result's record to the log.
    pub fn store(&self, spec: &JobSpec, result: &JobResult) -> io::Result<()> {
        self.store_with(spec, result, &FaultInjector::inert())
    }

    /// [`store`](Self::store) under a fault injector that may fail the
    /// write with an I/O error before anything lands on disk.
    pub fn store_with(
        &self,
        spec: &JobSpec,
        result: &JobResult,
        faults: &FaultInjector,
    ) -> io::Result<()> {
        let canonical = spec.canonical();
        self.store_keyed(ContentKey::of(&canonical), &canonical, result, faults)
    }

    /// [`store_with`](Self::store_with) for a spec whose canonical
    /// string and key the caller already holds.
    pub(crate) fn store_keyed(
        &self,
        key: ContentKey,
        canonical: &str,
        result: &JobResult,
        faults: &FaultInjector,
    ) -> io::Result<()> {
        if let Some(e) = faults.cache_write_error(key) {
            return Err(e);
        }
        let mut payload = String::with_capacity(canonical.len() + 1 + ENCODED_CAPACITY);
        payload.push_str(canonical);
        payload.push('\t');
        result.write_encoded(&mut payload);
        let record = frame::frame(key, &payload);
        self.with_log(|log, _| log.append(key, record, |_| None))
    }

    /// Number of keys the log holds a record for (damaged records count
    /// until a probe quarantines them).
    pub fn len(&self) -> usize {
        self.with_log(|log, _| log.index.len())
    }

    /// Whether the cache holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of quarantined (damaged, never-served) records.
    pub fn quarantined_len(&self) -> usize {
        fs::read_dir(self.quarantine_dir())
            .map(|d| d.flatten().count())
            .unwrap_or(0)
    }
}

/// Reads `key`'s record of `log` through `reader` and validates it
/// against the requesting spec's `canonical` string, under `faults`'
/// read-error, corrupt and truncate sites: `None` for a miss (no record,
/// a failed read, or a healthy record of another spec), a hit, or the
/// bytes of a damaged record, which the caller quarantines. A key with
/// no record draws no fault. The log is only read, so threads that each
/// own a reader may check records of one log at once.
pub(crate) fn read_checked<'r>(
    log: &Log,
    reader: &'r mut Reader,
    key: ContentKey,
    canonical: &str,
    faults: &FaultInjector,
) -> Option<Result<JobResult, &'r [u8]>> {
    let &at = log.index.get(&key)?;
    if faults.cache_read_error(key) {
        // The read "failed"; indistinguishable from no record.
        return None;
    }
    let bytes = reader.read(log, at).ok()?;
    faults.damage_cache_bytes(key, bytes);
    match parse(bytes, canonical) {
        Some(CacheProbe::Hit(result)) => Some(Ok(result)),
        Some(_) => None,
        None => Some(Err(bytes)),
    }
}

/// Validates a record's bytes against a requesting spec: a hit, a miss
/// for a healthy record of a different spec (a key collision), or `None`
/// for a damaged record.
fn parse(bytes: &[u8], canonical: &str) -> Option<CacheProbe> {
    // The CRC is checked over the raw bytes, so a damaged record need
    // not be UTF-8 (a flipped bit can land in a continuation byte); one
    // whose CRC passes but that is not UTF-8 is damaged too.
    let (_, payload) = frame::unframe(bytes)?;
    // The stored spec is compared where it lies. Only a mismatch looks
    // for the tab, to tell a healthy record for another spec (a miss)
    // from a record without one (damaged).
    match payload
        .strip_prefix(canonical)
        .and_then(|p| p.strip_prefix('\t'))
    {
        // A record whose CRC passes but that does not decode is a writer
        // bug or a format change: quarantined, not served.
        Some(encoded) => JobResult::decode(encoded).map(CacheProbe::Hit),
        None => payload.contains('\t').then_some(CacheProbe::Miss),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::job::WorkloadSpec;
    use policies::PolicyDesc;
    use workloads::Benchmark;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("engine-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::new(dir)
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Web),
            PolicyDesc::best_from_paper(),
            5,
            seed,
        )
    }

    fn result(x: f64) -> JobResult {
        JobResult {
            energy_j: x,
            core_energy_j: x / 3.0,
            mean_freq_mhz: 100.0,
            mean_utilization: 0.5,
            misses: 1,
            max_lateness_us: 2,
            clock_switches: 3,
            voltage_switches: 4,
            final_step: 5,
            frames_shown: 6,
            frames_dropped: 7,
            sched_dropped: 8,
            battery_remaining: -1.0,
        }
    }

    /// Rewrites every line of `cache`'s log through `damage`, which gets
    /// the line's key and text and returns its replacement.
    fn rewrite_log(cache: &ResultCache, damage: impl Fn(ContentKey, &str) -> String) {
        let text = fs::read_to_string(cache.log_path()).expect("read log");
        let lines: Vec<String> = text
            .lines()
            .map(|line| damage(frame::key_of(line.as_bytes()).expect("key"), line))
            .collect();
        fs::write(cache.log_path(), lines.join("\n") + "\n").expect("rewrite log");
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = temp_cache("roundtrip");
        assert!(cache.is_empty());
        assert_eq!(cache.load(&spec(1)), None);
        cache.store(&spec(1), &result(0.1)).expect("store");
        assert_eq!(cache.load(&spec(1)), Some(result(0.1)));
        assert_eq!(cache.load(&spec(2)), None, "other specs unaffected");
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// One stored record's bytes, written out: a fixed spec and result
    /// in a fresh log. A rewrite of the store, the canonical string, the
    /// result codec or the framing that still round-trips with itself
    /// must reproduce them exactly, or it orphans every existing log.
    const RECORD: &str = "c817180d981397b0e1014d02373a10a6 c1ace2d4a7918a46 \
        v3;wl=bench:Web;policy=interval;pred=past;up_th=3fef5c28f5c28f5c;\
        down_th=3fedc28f5c28f5c3;up=peg;down=peg;vrule=none;dur_us=5000000;\
        quantum_us=0;step=10;seed=1;tol_us=100000;hw=1000000,1000000,0,100\t\
        energy_j=3fb999999999999a;core_energy_j=3fa1111111111111;\
        mean_freq_mhz=4059000000000000;mean_utilization=3fe0000000000000;\
        misses=1;max_lateness_us=2;clock_switches=3;voltage_switches=4;\
        final_step=5;frames_shown=6;frames_dropped=7;sched_dropped=8;\
        battery_remaining=bff0000000000000";

    #[test]
    fn a_stored_record_is_the_pinned_line() {
        let cache = temp_cache("pinned");
        cache.store(&spec(1), &result(0.1)).expect("store");
        let log = fs::read_to_string(cache.log_path()).expect("read log");
        assert_eq!(log, format!("{RECORD}\n"));
        let (key, payload) = frame::unframe(RECORD.as_ref()).expect("unframes");
        assert_eq!(key, spec(1).key());
        let (stored_spec, encoded) = payload.split_once('\t').expect("spec, tab, result");
        assert_eq!(stored_spec, spec(1).canonical());
        assert_eq!(encoded, result(0.1).encode());
        assert_eq!(
            ResultCache::new(cache.dir()).load(&spec(1)),
            Some(result(0.1))
        );
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_fresh_cache_serves_each_keys_last_record_from_one_file() {
        let cache = temp_cache("reopen");
        cache.store(&spec(1), &result(0.1)).expect("store");
        cache.store(&spec(2), &result(0.2)).expect("store");
        cache.store(&spec(1), &result(0.3)).expect("supersede");
        assert_eq!(cache.load(&spec(1)), Some(result(0.3)));

        let reopened = ResultCache::new(cache.dir());
        assert_eq!(reopened.load(&spec(1)), Some(result(0.3)), "last wins");
        assert_eq!(reopened.load(&spec(2)), Some(result(0.2)));
        assert_eq!(reopened.len(), 2);
        let files: Vec<_> = fs::read_dir(cache.dir()).expect("dir").flatten().collect();
        assert_eq!(files.len(), 1, "one log, no per-entry files");
        assert_eq!(files[0].path(), cache.log_path());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_served() {
        let cache = temp_cache("corrupt");
        cache.store(&spec(1), &result(0.1)).expect("store");

        // Flip one bit of the stored result payload.
        let mut bytes = fs::read(cache.log_path()).expect("read log");
        let pos = bytes.iter().position(|&b| b == b'\t').expect("has result");
        bytes[pos + 10] ^= 0x04;
        fs::write(cache.log_path(), &bytes).expect("corrupt it");

        assert_eq!(
            cache.probe(&spec(1), &FaultInjector::inert()),
            CacheProbe::Quarantined
        );
        assert_eq!(cache.quarantined_len(), 1, "damaged record kept aside");
        assert_eq!(cache.len(), 0, "and no longer counted live");
        assert_eq!(cache.load(&spec(1)), None, "second probe is a plain miss");

        // And it can be healed by a fresh store.
        cache.store(&spec(1), &result(0.2)).expect("re-store");
        assert_eq!(cache.load(&spec(1)), Some(result(0.2)));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_and_garbage_entries_are_quarantined() {
        let cache = temp_cache("truncate");
        for i in 0..3 {
            cache.store(&spec(i), &result(0.1)).expect("store");
        }
        // A record cut short, a key followed by garbage, a bare key.
        rewrite_log(&cache, |key, line| match key {
            k if k == spec(0).key() => line[..line.len() / 2].to_string(),
            k if k == spec(1).key() => format!("{k} not an entry at all"),
            k => k.to_string(),
        });
        let cache = ResultCache::new(cache.dir());
        for i in 0..3 {
            assert_eq!(
                cache.probe(&spec(i), &FaultInjector::inert()),
                CacheProbe::Quarantined,
                "damage case {i}"
            );
        }
        assert_eq!(cache.quarantined_len(), 3);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_v1_entries_are_quarantined() {
        let cache = temp_cache("v1");
        let s = spec(1);
        cache.store(&s, &result(0.1)).expect("store");
        // Re-write the record with the old v1 entry's text as its
        // payload, framed with a valid CRC: only the layout is foreign.
        let v1 = format!(
            "itsy-dvs engine cache v1 spec={} result={}",
            s.canonical(),
            result(0.1).encode()
        );
        rewrite_log(&cache, |key, _| frame::frame(key, &v1));
        let cache = ResultCache::new(cache.dir());
        assert_eq!(cache.load(&s), None, "v1 entries are not trusted");
        assert_eq!(cache.quarantined_len(), 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn spec_mismatch_is_rejected_but_not_quarantined() {
        // Simulate a key collision: a *healthy* record exists under the
        // right key but records a different canonical spec. The record
        // must not be served, and — being undamaged — not quarantined.
        let cache = temp_cache("mismatch");
        let s = spec(1);
        cache.store(&s, &result(0.1)).expect("store");
        let forged_spec = s.canonical().replace("seed=1", "seed=999");
        let payload = format!("{forged_spec}\t{}", result(0.1).encode());
        rewrite_log(&cache, |key, _| frame::frame(key, &payload));
        let cache = ResultCache::new(cache.dir());
        assert_eq!(cache.probe(&s, &FaultInjector::inert()), CacheProbe::Miss);
        assert_eq!(cache.quarantined_len(), 0);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn injected_read_faults_never_serve_bad_bytes() {
        let cache = temp_cache("faulty");
        let faults = FaultInjector::new(Some(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::default()
        }));
        let s = spec(1);
        cache.store(&s, &result(0.1)).expect("store");
        match cache.probe(&s, &faults) {
            // A flipped bit is overwhelmingly caught by the checksum;
            // the only other legal outcome is a collision-style miss
            // (flip landed in the spec making it mismatch while the
            // crc... — impossible: the crc covers the spec too).
            CacheProbe::Quarantined => {}
            other => panic!("damaged record must be quarantined, got {other:?}"),
        }
        assert_eq!(faults.stats().corruptions, 1);
        let _ = fs::remove_dir_all(cache.dir());
    }
}
