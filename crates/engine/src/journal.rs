//! Append-only checkpoint journal for `--resume`.
//!
//! The cache already deduplicates work *across* invocations, but it can
//! be disabled (`--no-cache`) and it says nothing about which batch a
//! result belonged to. The journal is the per-batch record: one record
//! log per named batch, `state/<batch>.journal`, in the framing, index
//! and torn-tail repair the cache log shares (`frame.rs`), with one
//! record per completed job —
//!
//! ```text
//! <key-hex> <crc-hex> <JobResult::encode() output>
//! ```
//!
//! Records are appended as jobs finish (single writer: the collector
//! thread), and the file appears with the first of them. A killed run
//! leaves a valid prefix and at most one torn record, which fails its
//! CRC; the next run's first append ends it with a newline, so it costs
//! only its own recomputation, as does a tear a fault plan injects.
//!
//! On `--resume` the journal is replayed: each key's last record that
//! passes its CRC and decodes serves its job without re-simulation,
//! independently of the cache. A batch that runs to completion deletes
//! its journal; a leftover journal therefore always means "interrupted
//! run".

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::fault::FaultInjector;
use crate::frame::{self, Log};
use crate::job::JobResult;
use crate::key::ContentKey;

/// Journal of completed jobs for one named batch.
#[derive(Debug)]
pub struct Journal {
    log: Log,
}

impl Journal {
    /// Journal file path for a batch name under a state directory.
    pub fn path_for(state_dir: &Path, batch: &str) -> PathBuf {
        // Batch names are short identifiers ("sweep", "govil"), but
        // sanitize anyway so a weird name can't escape the directory.
        let safe: String = batch
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        state_dir.join(format!("{safe}.journal"))
    }

    /// Opens the journal for appending, creating the state directory;
    /// the file itself is created by the first record.
    pub fn open(state_dir: &Path, batch: &str) -> io::Result<Self> {
        fs::create_dir_all(state_dir)?;
        Ok(Journal {
            log: Log::open(Self::path_for(state_dir, batch)),
        })
    }

    /// Replays an existing journal into a key → result map: each key's
    /// last record, if it passes its CRC and decodes. A damaged record —
    /// a torn tail from a killed run, a torn append, any CRC mismatch —
    /// is skipped; everything served was fully written.
    pub fn replay(state_dir: &Path, batch: &str) -> HashMap<ContentKey, JobResult> {
        let log = Log::open(Self::path_for(state_dir, batch));
        log.index
            .iter()
            .filter_map(|(&key, &at)| {
                let bytes = log.read(at).ok()?;
                Some((key, JobResult::decode(frame::unframe(&bytes)?.1)?))
            })
            .collect()
    }

    /// Appends one completed job with one unbuffered write, so the
    /// record survives a kill immediately after.
    pub fn record(&mut self, key: ContentKey, result: &JobResult) -> io::Result<()> {
        self.record_with(key, result, &FaultInjector::inert())
    }

    /// [`record`](Self::record) under a fault injector that may tear
    /// the write: only a prefix of the framed line lands on disk, and
    /// — as with a real torn write — the caller is *not* told.
    pub fn record_with(
        &mut self,
        key: ContentKey,
        result: &JobResult,
        faults: &FaultInjector,
    ) -> io::Result<()> {
        let record = frame::frame(key, &result.encode());
        self.log
            .append(key, record, |len| faults.journal_tear(key, len))
    }

    /// Marks the batch complete: deletes the journal, if a record ever
    /// created it, and closes it.
    pub fn finish(self) -> io::Result<()> {
        match fs::remove_file(self.log.path()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn temp_state(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("engine-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn result(x: f64) -> JobResult {
        JobResult {
            energy_j: x,
            core_energy_j: 0.0,
            mean_freq_mhz: 0.0,
            mean_utilization: 0.0,
            misses: 0,
            max_lateness_us: 0,
            clock_switches: 0,
            voltage_switches: 0,
            final_step: 0,
            frames_shown: 0,
            frames_dropped: 0,
            sched_dropped: 0,
            battery_remaining: -1.0,
        }
    }

    /// One journal record's bytes, written out: the key of the spec
    /// `cache::tests` pins (Web, best policy from the paper, 5 s, seed 1)
    /// and `result(0.1)`. A rewrite of the journal, the result codec or
    /// the framing that still round-trips with itself must reproduce
    /// them exactly, or a resumed run orphans the journal it resumes.
    const RECORD: &str = "c817180d981397b0e1014d02373a10a6 aa6bc9b5f7687f45 \
        energy_j=3fb999999999999a;core_energy_j=0000000000000000;\
        mean_freq_mhz=0000000000000000;mean_utilization=0000000000000000;\
        misses=0;max_lateness_us=0;clock_switches=0;voltage_switches=0;\
        final_step=0;frames_shown=0;frames_dropped=0;sched_dropped=0;\
        battery_remaining=bff0000000000000";

    #[test]
    fn a_recorded_result_is_the_pinned_line() {
        let dir = temp_state("pinned");
        let key = crate::job::JobSpec::new(
            crate::job::WorkloadSpec::Benchmark(workloads::Benchmark::Web),
            policies::PolicyDesc::best_from_paper(),
            5,
            1,
        )
        .key();
        let mut j = Journal::open(&dir, "sweep").expect("open");
        j.record(key, &result(0.1)).expect("record");
        drop(j);
        let text = fs::read_to_string(Journal::path_for(&dir, "sweep")).expect("read");
        assert_eq!(text, format!("{RECORD}\n"));
        assert_eq!(
            Journal::replay(&dir, "sweep"),
            HashMap::from([(key, result(0.1))])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_replay_finish() {
        let dir = temp_state("basic");
        let mut j = Journal::open(&dir, "sweep").expect("open");
        j.record(ContentKey(1), &result(1.0)).expect("record");
        j.record(ContentKey(2), &result(2.0)).expect("record");
        drop(j); // simulate a killed run: journal left behind

        let replayed = Journal::replay(&dir, "sweep");
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[&ContentKey(1)], result(1.0));
        assert_eq!(replayed[&ContentKey(2)], result(2.0));
        assert!(Journal::replay(&dir, "other").is_empty());

        // Reopen (a resumed run appends), then finish: journal gone.
        let j = Journal::open(&dir, "sweep").expect("reopen");
        j.finish().expect("finish");
        assert!(Journal::replay(&dir, "sweep").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let dir = temp_state("torn");
        let mut j = Journal::open(&dir, "sweep").expect("open");
        j.record(ContentKey(7), &result(7.0)).expect("record");
        drop(j);
        // Append garbage half-line as if the process died mid-write.
        let path = Journal::path_for(&dir, "sweep");
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "deadbeef").expect("tear");
        let replayed = Journal::replay(&dir, "sweep");
        assert_eq!(replayed.len(), 1);
        assert!(replayed.contains_key(&ContentKey(7)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_after_a_torn_tail_replays() {
        // A writer killed mid-line leaves half a record and no newline.
        // The resumed run's first record must not be glued onto it.
        let dir = temp_state("resume");
        fs::create_dir_all(&dir).expect("state dir");
        let torn = frame::frame(ContentKey(1), &result(1.0).encode());
        let path = Journal::path_for(&dir, "sweep");
        fs::write(&path, &torn[..torn.len() / 2]).expect("tear");
        let mut j = Journal::open(&dir, "sweep").expect("open");
        j.record(ContentKey(2), &result(2.0)).expect("record");
        drop(j);
        assert_eq!(
            Journal::replay(&dir, "sweep"),
            HashMap::from([(ContentKey(2), result(2.0))])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_cut_only_at_its_newline_replays() {
        // A kill between a record's last byte and its newline leaves the
        // record whole: its CRC passes, so it replays.
        let dir = temp_state("newline");
        let mut j = Journal::open(&dir, "sweep").expect("open");
        j.record(ContentKey(1), &result(1.0)).expect("record");
        j.record(ContentKey(2), &result(2.0)).expect("record");
        drop(j);
        let path = Journal::path_for(&dir, "sweep");
        let bytes = fs::read(&path).expect("read");
        assert_eq!(bytes.last(), Some(&b'\n'));
        fs::write(&path, &bytes[..bytes.len() - 1]).expect("cut the newline");
        let replayed = Journal::replay(&dir, "sweep");
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[&ContentKey(1)], result(1.0));
        assert_eq!(replayed[&ContentKey(2)], result(2.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_fails_crc_and_is_skipped() {
        let dir = temp_state("crc");
        let mut j = Journal::open(&dir, "sweep").expect("open");
        j.record(ContentKey(1), &result(1.0)).expect("record");
        j.record(ContentKey(2), &result(2.0)).expect("record");
        drop(j);
        // Flip one payload bit of the first record; the CRC framing
        // must reject it while the second record survives.
        let path = Journal::path_for(&dir, "sweep");
        let mut bytes = fs::read(&path).expect("read");
        let hit = bytes.iter().position(|&b| b == b'=').expect("payload");
        bytes[hit + 1] ^= 0x01;
        fs::write(&path, &bytes).expect("corrupt");
        let replayed = Journal::replay(&dir, "sweep");
        assert_eq!(replayed.len(), 1);
        assert!(replayed.contains_key(&ContentKey(2)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_tear_loses_records_but_never_misparses() {
        let dir = temp_state("inject");
        let tear_second = FaultInjector::new(Some(FaultPlan {
            torn: 1.0,
            ..FaultPlan::default()
        }));
        let mut j = Journal::open(&dir, "sweep").expect("open");
        j.record(ContentKey(1), &result(1.0)).expect("record");
        // This record tears: only a prefix lands, no newline.
        j.record_with(ContentKey(2), &result(2.0), &tear_second)
            .expect("torn record still reports ok, like a real torn write");
        // The next record ends the torn line first, so the tear costs
        // only its own record's recomputation, never bad data.
        j.record(ContentKey(3), &result(3.0)).expect("record");
        j.record(ContentKey(4), &result(4.0)).expect("record");
        drop(j);

        assert_eq!(tear_second.stats().torn_writes, 1);
        let replayed = Journal::replay(&dir, "sweep");
        assert_eq!(
            replayed
                .keys()
                .map(|k| k.0)
                .collect::<std::collections::BTreeSet<_>>(),
            [1u128, 3, 4].into_iter().collect(),
            "the torn record is skipped; the rest replay"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
