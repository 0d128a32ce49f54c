//! Per-worker heartbeats and the stall watchdog.
//!
//! A streaming fleet run is only as observable as its slowest worker:
//! a worker wedged inside one pathological device looks, from the
//! outside, exactly like a healthy run that is merely slow. Heartbeats
//! make the difference visible. Each engine worker registers a
//! [`Heartbeat`] slot, stamps it when a job starts, and marks it idle
//! when its batch or stream runs dry; the watchdog (driven by the telemetry
//! snapshot thread) scans the slots and emits one structured `obs`
//! warning — worker id, the in-flight `JobSpec` key, stalled duration —
//! per stall onset. This is the chaos/fault harness's first *live*
//! failure signal: a `--fault-plan` stall shows up in stderr while the
//! run is still going, not in a post-mortem.
//!
//! Everything here is wall-clock side channel: heartbeats never touch
//! simulation state, and with the plane inactive ([`set_active`]) a
//! heartbeat stamp is one relaxed atomic load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Whether heartbeat recording is on. The exporter turns it on; tests
/// drive the watchdog without one.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Stall onsets [`patrol`] has reported in this process.
static STALLS: AtomicU64 = AtomicU64::new(0);

/// Turns heartbeat recording on or off process-wide.
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Whether heartbeats are being recorded.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Milliseconds since the process's first call into this module — the
/// monotonic clock heartbeats are stamped with.
pub fn now_ms() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// One worker's liveness slot.
#[derive(Debug)]
pub struct Heartbeat {
    worker: usize,
    /// Last stamp, ms since [`now_ms`]'s origin.
    beat_ms: AtomicU64,
    /// True from job start until the worker goes idle.
    busy: AtomicBool,
    /// True once the watchdog has warned about the current beat, so a
    /// stall warns once at onset rather than once per scan.
    warned: AtomicBool,
    /// Content key of the in-flight job.
    job: Mutex<String>,
}

impl Heartbeat {
    /// Stamps the start of a job.
    pub fn start(&self, job_key: &str) {
        if !active() {
            return;
        }
        *self.job.lock().expect("heartbeat job lock") = job_key.to_string();
        self.beat_ms.store(now_ms(), Ordering::Relaxed);
        self.warned.store(false, Ordering::Relaxed);
        self.busy.store(true, Ordering::Relaxed);
    }

    /// Marks the worker idle (between jobs or at stream end).
    pub fn idle(&self) {
        if !active() {
            return;
        }
        self.busy.store(false, Ordering::Relaxed);
        self.warned.store(false, Ordering::Relaxed);
    }
}

fn slots() -> &'static Mutex<Vec<Arc<Heartbeat>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<Heartbeat>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a heartbeat slot for `worker`. Slots live for the process
/// (engine runs — batches and streams — are few per process, one slot
/// per worker each); a re-registered worker id simply adds a new slot —
/// stale ones sit idle and never trip the scan.
pub fn register(worker: usize) -> Arc<Heartbeat> {
    let hb = Arc::new(Heartbeat {
        worker,
        beat_ms: AtomicU64::new(now_ms()),
        busy: AtomicBool::new(false),
        warned: AtomicBool::new(false),
        job: Mutex::new(String::new()),
    });
    slots()
        .lock()
        .expect("heartbeat slots lock")
        .push(Arc::clone(&hb));
    hb
}

/// One detected stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stall {
    /// The stalled worker's id.
    pub worker: usize,
    /// Content key of the job it is stuck in.
    pub job: String,
    /// How long since its last heartbeat, ms.
    pub stalled_ms: u64,
}

/// Scans every registered heartbeat and returns workers that have been
/// busy without a beat for more than `threshold_ms` as of `now`.
/// Each stall is reported once per onset: a worker already flagged
/// stays silent until it beats again.
///
/// Pure in its inputs (time is a parameter) so tests drive it without
/// sleeping.
pub fn scan(now: u64, threshold_ms: u64) -> Vec<Stall> {
    let slots = slots().lock().expect("heartbeat slots lock");
    let mut stalls = Vec::new();
    for hb in slots.iter() {
        if !hb.busy.load(Ordering::Relaxed) {
            continue;
        }
        let stalled_ms = now.saturating_sub(hb.beat_ms.load(Ordering::Relaxed));
        if stalled_ms <= threshold_ms {
            continue;
        }
        if hb.warned.swap(true, Ordering::Relaxed) {
            continue; // already reported this onset
        }
        stalls.push(Stall {
            worker: hb.worker,
            job: hb.job.lock().expect("heartbeat job lock").clone(),
            stalled_ms,
        });
    }
    stalls
}

/// One watchdog patrol: scan, then log each fresh stall as a
/// structured warning and count it. Returns the stalls found so
/// callers (and tests) can observe them directly.
pub fn patrol(threshold_ms: u64) -> Vec<Stall> {
    let stalls = scan(now_ms(), threshold_ms);
    for s in &stalls {
        crate::warn!(
            "obs: worker_stalled worker={} key={} stalled_ms={}",
            s.worker,
            s.job,
            s.stalled_ms
        );
    }
    STALLS.fetch_add(stalls.len() as u64, Ordering::Relaxed);
    stalls
}

/// Stall onsets reported so far in this process.
pub fn stalls() -> u64 {
    STALLS.load(Ordering::Relaxed)
}

/// Serializes tests that flip the process-global [`set_active`] switch
/// (shared with the exporter's tests, which arm it too).
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_serial as serial;

    #[test]
    fn inactive_heartbeats_never_stall() {
        let _guard = serial();
        set_active(false);
        let hb = register(90);
        hb.start("job-a");
        // start() was a no-op: the slot stays idle.
        assert!(scan(now_ms() + 1_000_000, 1).is_empty());
        hb.idle();
    }

    #[test]
    fn stall_is_detected_once_per_onset_and_clears_on_beat() {
        let _guard = serial();
        set_active(true);
        let hb = register(91);
        hb.start("0123abcd");
        let t = now_ms();
        // Within threshold: quiet.
        assert!(scan(t, 60_000).iter().all(|s| s.worker != 91));
        // Past threshold: exactly one report.
        let stalls = scan(t + 120_000, 60_000);
        let mine: Vec<_> = stalls.iter().filter(|s| s.worker == 91).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].job, "0123abcd");
        assert!(mine[0].stalled_ms >= 120_000 - 60_000);
        // Same onset again: silent.
        assert!(scan(t + 240_000, 60_000).iter().all(|s| s.worker != 91));
        // A fresh job re-arms detection.
        hb.start("4567ef01");
        let stalls = scan(now_ms() + 120_000, 60_000);
        let mine: Vec<_> = stalls.iter().filter(|s| s.worker == 91).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].job, "4567ef01");
        // Idle workers never stall.
        hb.idle();
        assert!(scan(now_ms() + 1_000_000, 1).iter().all(|s| s.worker != 91));
        set_active(false);
    }
}
