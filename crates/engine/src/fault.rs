//! Deterministic fault injection for the execution engine.
//!
//! A [`FaultPlan`] describes *which* failure modes to inject and how
//! often; a [`FaultInjector`] built from it makes the actual per-event
//! decisions. Every decision is a pure function of
//! `(plan seed, fault site, job content key, occurrence number)` — no
//! wall clock, no thread-local RNG — so a failing chaos run replays
//! exactly from its plan string, independent of worker count or
//! scheduling order. The occurrence number is the one input an order
//! could move, and none does: a batch under an active plan probes its
//! cache on one thread, in cell order, however many workers it has (a
//! key probed twice on two threads would take its occurrences in
//! completion order); its backfills and quarantines run on the calling
//! thread in cell order; a job's panics are numbered by its attempts;
//! and the writes of two cells with one key are the same events
//! whichever finishes first.
//!
//! Injection sites, one per hardened failure path:
//!
//! | plan key    | site                | what fires                          |
//! |-------------|---------------------|-------------------------------------|
//! | `read_err`  | cache record read   | the read is dropped (acts like EIO) |
//! | `corrupt`   | cache record read   | one bit of the record is flipped    |
//! | `truncate`  | cache record read   | the record is cut short             |
//! | `write_err` | cache record write  | the write fails with an I/O error   |
//! | `torn`      | journal append      | a prefix of the line lands, no `\n` |
//! | `panic`     | job execution       | the worker panics mid-job           |
//! | `stall`     | job execution       | the worker sleeps `stall_ms` mid-job|
//!
//! A `torn` append leaves the journal as a writer killed mid-`write(2)`
//! would, and the record log treats both alike: the next append ends
//! the torn line first, so a tear costs only its own record.
//!
//! `stall` is the odd one out: it injects *wall-clock* latency only, so
//! every deterministic artifact is unchanged — its purpose is to give
//! the heartbeat watchdog (`obs::watchdog`) a live failure to detect.
//!
//! The textual form (`FaultPlan::parse` / `Display`) is what the
//! `repro` binary accepts via `--fault-plan`:
//!
//! ```text
//! seed=7,read_err=0.15,corrupt=0.25,truncate=0.15,write_err=0.15,torn=0.25,panic=0.25,max_panics=2,stall=0,stall_ms=100
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::Mutex;

use crate::key::{fnv64, ContentKey};

/// Which failure modes to inject, and how often.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// P(cache record read is dropped as if the disk returned EIO).
    pub read_err: f64,
    /// P(one bit of a cache record flips on read).
    pub corrupt: f64,
    /// P(a cache record is truncated on read).
    pub truncate: f64,
    /// P(a cache record write fails).
    pub write_err: f64,
    /// P(a journal append lands only partially).
    pub torn: f64,
    /// P(a job execution attempt panics).
    pub panic: f64,
    /// Panics are only injected into a job's first `max_panics`
    /// attempts, so any job completes within `max_panics` retries.
    pub max_panics: u32,
    /// P(a job execution attempt stalls for `stall_ms` of wall clock
    /// before running). Wall-clock only — results are unchanged.
    pub stall: f64,
    /// How long an injected stall sleeps, milliseconds.
    pub stall_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            read_err: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            write_err: 0.0,
            torn: 0.0,
            panic: 0.0,
            max_panics: 2,
            stall: 0.0,
            stall_ms: 100,
        }
    }
}

impl FaultPlan {
    /// A plan exercising every failure mode at once — what the chaos
    /// suite and the CI `chaos-smoke` job run under.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_err: 0.15,
            corrupt: 0.25,
            truncate: 0.15,
            write_err: 0.15,
            torn: 0.25,
            panic: 0.25,
            max_panics: 2,
            stall: 0.0,
            stall_ms: 100,
        }
    }

    /// Whether the plan can ever fire.
    pub fn is_inert(&self) -> bool {
        self.read_err <= 0.0
            && self.corrupt <= 0.0
            && self.truncate <= 0.0
            && self.write_err <= 0.0
            && self.torn <= 0.0
            && self.panic <= 0.0
            && self.stall <= 0.0
    }

    /// Parses the `key=value,key=value` form produced by `Display`.
    /// Unknown keys and out-of-range probabilities are errors so a
    /// typo'd plan cannot silently run fault-free.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}`: expected key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|e| format!("`{k}={v}`: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("`{k}={v}`: probability outside [0, 1]"));
                }
                Ok(p)
            };
            match k.trim() {
                "seed" => plan.seed = v.parse().map_err(|e| format!("`{k}={v}`: {e}"))?,
                "read_err" => plan.read_err = prob(v)?,
                "corrupt" => plan.corrupt = prob(v)?,
                "truncate" => plan.truncate = prob(v)?,
                "write_err" => plan.write_err = prob(v)?,
                "torn" => plan.torn = prob(v)?,
                "panic" => plan.panic = prob(v)?,
                "max_panics" => {
                    plan.max_panics = v.parse().map_err(|e| format!("`{k}={v}`: {e}"))?
                }
                "stall" => plan.stall = prob(v)?,
                "stall_ms" => plan.stall_ms = v.parse().map_err(|e| format!("`{k}={v}`: {e}"))?,
                other => {
                    return Err(format!(
                        "unknown fault key `{other}` (known: seed, read_err, corrupt, \
                         truncate, write_err, torn, panic, max_panics, stall, stall_ms)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},read_err={},corrupt={},truncate={},write_err={},torn={},panic={},max_panics={},stall={},stall_ms={}",
            self.seed,
            self.read_err,
            self.corrupt,
            self.truncate,
            self.write_err,
            self.torn,
            self.panic,
            self.max_panics,
            self.stall,
            self.stall_ms,
        )
    }
}

/// How many faults of each kind actually fired during a batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Cache reads dropped as I/O errors.
    pub read_errors: u64,
    /// Cache records bit-flipped on read.
    pub corruptions: u64,
    /// Cache records truncated on read.
    pub truncations: u64,
    /// Cache writes failed.
    pub write_errors: u64,
    /// Journal appends torn.
    pub torn_writes: u64,
    /// Job execution attempts panicked.
    pub panics: u64,
    /// Job execution attempts stalled (wall-clock sleep).
    pub stalls: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.read_errors
            + self.corruptions
            + self.truncations
            + self.write_errors
            + self.torn_writes
            + self.panics
            + self.stalls
    }
}

/// Site discriminants mixed into decision hashes. The values are part
/// of replay determinism — append, never renumber.
#[derive(Debug, Clone, Copy)]
enum Site {
    ReadErr = 1,
    Corrupt = 2,
    Truncate = 3,
    WriteErr = 4,
    Torn = 5,
    Panic = 6,
    Stall = 7,
}

/// The per-batch decision maker built from a [`FaultPlan`].
///
/// Shared by reference between the collector thread (cache/journal
/// sites) and the workers (panic site); all interior state is behind
/// mutexes. An injector built from `None` (or an inert plan) never
/// fires and never locks.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    inert: bool,
    /// Per-(site, key) occurrence counters, so repeated events at the
    /// same site draw fresh — but still deterministic — decisions.
    counters: Mutex<HashMap<(u8, u128), u32>>,
    stats: Mutex<FaultStats>,
}

impl FaultInjector {
    /// An injector for a plan; `None` yields an inert injector.
    pub fn new(plan: Option<FaultPlan>) -> Self {
        let plan = plan.unwrap_or_default();
        FaultInjector {
            inert: plan.is_inert(),
            plan,
            counters: Mutex::new(HashMap::new()),
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// An injector that never fires.
    pub fn inert() -> Self {
        Self::new(None)
    }

    /// Whether this injector can fire at all.
    pub fn is_active(&self) -> bool {
        !self.inert
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults fired so far.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock().expect("fault stats lock")
    }

    /// Deterministic 64-bit draw for one decision.
    fn draw(&self, site: Site, key: ContentKey, occurrence: u32) -> u64 {
        let mut bytes = [0u8; 8 + 1 + 16 + 4];
        bytes[..8].copy_from_slice(&self.plan.seed.to_le_bytes());
        bytes[8] = site as u8;
        bytes[9..25].copy_from_slice(&key.0.to_le_bytes());
        bytes[25..].copy_from_slice(&occurrence.to_le_bytes());
        fnv64(&bytes)
    }

    /// Whether a fault with probability `p` fires for this decision.
    fn fires(&self, site: Site, key: ContentKey, occurrence: u32, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let unit = (self.draw(site, key, occurrence) >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    /// Next occurrence number for a (site, key) event stream.
    fn bump(&self, site: Site, key: ContentKey) -> u32 {
        let mut counters = self.counters.lock().expect("fault counters lock");
        let n = counters.entry((site as u8, key.0)).or_insert(0);
        *n += 1;
        *n
    }

    fn count(&self, f: impl FnOnce(&mut FaultStats)) {
        f(&mut self.stats.lock().expect("fault stats lock"));
    }

    /// Cache-read site: whether to drop this read as an I/O error.
    pub fn cache_read_error(&self, key: ContentKey) -> bool {
        if self.inert {
            return false;
        }
        let n = self.bump(Site::ReadErr, key);
        let fired = self.fires(Site::ReadErr, key, n, self.plan.read_err);
        if fired {
            self.count(|s| s.read_errors += 1);
        }
        fired
    }

    /// Cache-read site: maybe flip a bit and/or truncate the record
    /// bytes in place. Returns true if the bytes were damaged.
    pub fn damage_cache_bytes(&self, key: ContentKey, bytes: &mut Vec<u8>) -> bool {
        if self.inert || bytes.is_empty() {
            return false;
        }
        let mut damaged = false;
        let n = self.bump(Site::Corrupt, key);
        if self.fires(Site::Corrupt, key, n, self.plan.corrupt) {
            let draw = self.draw(Site::Corrupt, key, n.wrapping_add(0x8000_0000));
            let pos = (draw as usize) % bytes.len();
            bytes[pos] ^= 1 << ((draw >> 32) % 8);
            self.count(|s| s.corruptions += 1);
            damaged = true;
        }
        let n = self.bump(Site::Truncate, key);
        if self.fires(Site::Truncate, key, n, self.plan.truncate) {
            let draw = self.draw(Site::Truncate, key, n.wrapping_add(0x8000_0000));
            bytes.truncate((draw as usize) % bytes.len());
            self.count(|s| s.truncations += 1);
            damaged = true;
        }
        damaged
    }

    /// Cache-write site: the error to fail this write with, if any.
    pub fn cache_write_error(&self, key: ContentKey) -> Option<io::Error> {
        if self.inert {
            return None;
        }
        let n = self.bump(Site::WriteErr, key);
        if self.fires(Site::WriteErr, key, n, self.plan.write_err) {
            self.count(|s| s.write_errors += 1);
            Some(io::Error::other(format!(
                "injected cache write error (key {key}, occurrence {n})"
            )))
        } else {
            None
        }
    }

    /// Journal-append site: how many bytes of a `len`-byte line (the
    /// record and its newline) to actually write, if this append should
    /// tear.
    pub fn journal_tear(&self, key: ContentKey, len: usize) -> Option<usize> {
        if self.inert || len == 0 {
            return None;
        }
        let n = self.bump(Site::Torn, key);
        if self.fires(Site::Torn, key, n, self.plan.torn) {
            self.count(|s| s.torn_writes += 1);
            let draw = self.draw(Site::Torn, key, n.wrapping_add(0x8000_0000));
            // Keep at least one byte and lose at least one, so a tear
            // is never a no-op and never a clean skip.
            Some(1 + (draw as usize) % (len - 1).max(1))
        } else {
            None
        }
    }

    /// Execution site: whether this attempt of a job should panic.
    /// Attempts are numbered from 1; attempts beyond the plan's
    /// `max_panics` never panic, bounding injected failures per job.
    pub fn worker_panic(&self, key: ContentKey, attempt: u32) -> bool {
        if self.inert || attempt > self.plan.max_panics {
            return false;
        }
        let fired = self.fires(Site::Panic, key, attempt, self.plan.panic);
        if fired {
            self.count(|s| s.panics += 1);
        }
        fired
    }

    /// Execution site: how long this job's execution should stall
    /// (wall-clock sleep before the work runs), if at all. Purely a
    /// latency fault — the job's result is untouched — so it is the
    /// one site that feeds the watchdog rather than the retry path.
    pub fn worker_stall(&self, key: ContentKey) -> Option<std::time::Duration> {
        if self.inert {
            return None;
        }
        let n = self.bump(Site::Stall, key);
        if self.fires(Site::Stall, key, n, self.plan.stall) {
            self.count(|s| s.stalls += 1);
            Some(std::time::Duration::from_millis(self.plan.stall_ms))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_display_parse_roundtrips() {
        let plan = FaultPlan::chaos(7);
        let parsed = FaultPlan::parse(&plan.to_string()).expect("parses");
        assert_eq!(plan, parsed);
        // Partial plans default the rest.
        let partial = FaultPlan::parse("seed=3,panic=1").expect("parses");
        assert_eq!(partial.seed, 3);
        assert_eq!(partial.panic, 1.0);
        assert_eq!(partial.corrupt, 0.0);
        assert_eq!(partial.max_panics, 2);
        assert_eq!(
            FaultPlan::parse("").expect("empty ok"),
            FaultPlan::default()
        );
    }

    #[test]
    fn plan_parse_rejects_nonsense() {
        assert!(FaultPlan::parse("panic=1.5").is_err(), "p > 1");
        assert!(FaultPlan::parse("panic=-0.1").is_err(), "p < 0");
        assert!(FaultPlan::parse("warp_core=0.5").is_err(), "unknown key");
        assert!(FaultPlan::parse("panic").is_err(), "missing value");
        assert!(FaultPlan::parse("seed=abc").is_err(), "bad integer");
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let key = ContentKey::of("some job");
        let a = FaultInjector::new(Some(FaultPlan {
            panic: 0.5,
            ..FaultPlan::chaos(1)
        }));
        let b = FaultInjector::new(Some(FaultPlan {
            panic: 0.5,
            ..FaultPlan::chaos(1)
        }));
        let decisions_a: Vec<bool> = (1..=64).map(|n| a.worker_panic(key, n)).collect();
        let decisions_b: Vec<bool> = (1..=64).map(|n| b.worker_panic(key, n)).collect();
        assert_eq!(decisions_a, decisions_b, "same plan, same decisions");

        let c = FaultInjector::new(Some(FaultPlan {
            panic: 0.5,
            max_panics: u32::MAX,
            ..FaultPlan::chaos(2)
        }));
        let decisions_c: Vec<bool> = (1..=64).map(|n| c.worker_panic(key, n)).collect();
        assert_ne!(decisions_a, decisions_c, "different seed, different stream");
    }

    #[test]
    fn max_panics_bounds_injection_per_job() {
        let inj = FaultInjector::new(Some(FaultPlan {
            panic: 1.0,
            max_panics: 2,
            ..FaultPlan::default()
        }));
        let key = ContentKey::of("job");
        assert!(inj.worker_panic(key, 1));
        assert!(inj.worker_panic(key, 2));
        assert!(!inj.worker_panic(key, 3), "attempt 3 must run clean");
        assert_eq!(inj.stats().panics, 2);
    }

    #[test]
    fn inert_injector_never_fires() {
        let inj = FaultInjector::inert();
        assert!(!inj.is_active());
        let key = ContentKey::of("job");
        let mut bytes = b"payload".to_vec();
        assert!(!inj.cache_read_error(key));
        assert!(!inj.damage_cache_bytes(key, &mut bytes));
        assert_eq!(bytes, b"payload");
        assert!(inj.cache_write_error(key).is_none());
        assert!(inj.journal_tear(key, 100).is_none());
        assert!(!inj.worker_panic(key, 1));
        assert!(inj.worker_stall(key).is_none());
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn stall_site_fires_with_the_planned_duration() {
        let inj = FaultInjector::new(Some(FaultPlan {
            stall: 1.0,
            stall_ms: 7,
            ..FaultPlan::default()
        }));
        let key = ContentKey::of("job");
        assert_eq!(
            inj.worker_stall(key),
            Some(std::time::Duration::from_millis(7))
        );
        assert_eq!(inj.stats().stalls, 1);
        assert_eq!(inj.stats().total(), 1);

        let never = FaultInjector::new(Some(FaultPlan {
            stall: 0.0,
            panic: 1.0, // plan is active, stall site still silent
            ..FaultPlan::default()
        }));
        assert!(never.worker_stall(key).is_none());
        assert_eq!(never.stats().stalls, 0);
    }

    #[test]
    fn damage_actually_damages() {
        let inj = FaultInjector::new(Some(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::default()
        }));
        let key = ContentKey::of("job");
        let original = b"a perfectly healthy cache entry".to_vec();
        let mut bytes = original.clone();
        assert!(inj.damage_cache_bytes(key, &mut bytes));
        assert_ne!(bytes, original, "a flipped bit must change the bytes");
        assert_eq!(bytes.len(), original.len(), "corruption is not truncation");

        let trunc = FaultInjector::new(Some(FaultPlan {
            truncate: 1.0,
            ..FaultPlan::default()
        }));
        let mut bytes = original.clone();
        assert!(trunc.damage_cache_bytes(key, &mut bytes));
        assert!(bytes.len() < original.len(), "truncation must shorten");
        assert_eq!(trunc.stats().truncations, 1);
    }

    #[test]
    fn tear_keeps_a_strict_prefix() {
        let inj = FaultInjector::new(Some(FaultPlan {
            torn: 1.0,
            ..FaultPlan::default()
        }));
        let key = ContentKey::of("job");
        for len in [2usize, 10, 1000] {
            let keep = inj.journal_tear(key, len).expect("tears at p=1");
            assert!(keep >= 1 && keep < len, "keep {keep} of {len}");
        }
        assert_eq!(inj.stats().torn_writes, 3);
    }
}
