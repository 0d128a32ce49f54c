//! Append-only checkpoint journal for `--resume`.
//!
//! The cache already deduplicates work *across* invocations, but it can
//! be disabled (`--no-cache`) and it says nothing about which batch a
//! result belonged to. The journal is the per-batch record: one file
//! per named batch, one CRC-framed line per completed job —
//!
//! ```text
//! <key-hex> <crc-hex> <JobResult::encode() output>
//! ```
//!
//! where `crc` is FNV-1a 64 over `"<key-hex> <payload>"`, the framing
//! the cache log's records use too ([`crate::cache`]). Lines are
//! appended as jobs finish (single writer: the collector thread), so a
//! killed run leaves a valid prefix; the CRC is what makes that safe
//! to rely on. A torn final write — or a record merged with a torn
//! predecessor after the process was killed mid-`write(2)` — fails its
//! CRC and is *skipped* on replay rather than misparsed into a wrong
//! result; the affected cells are simply recomputed.
//!
//! On `--resume` the journal is replayed and any job whose key appears
//! is served from it without re-simulation — independently of the
//! cache. A batch that runs to completion deletes its journal; a
//! leftover journal therefore always means "interrupted run".

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::fault::FaultInjector;
use crate::frame;
use crate::job::JobResult;
use crate::key::ContentKey;

/// Journal of completed jobs for one named batch.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
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

    /// Opens the journal for appending, creating parent dirs as needed.
    pub fn open(state_dir: &Path, batch: &str) -> io::Result<Self> {
        fs::create_dir_all(state_dir)?;
        let path = Self::path_for(state_dir, batch);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            path,
            writer: Some(BufWriter::new(file)),
        })
    }

    /// Replays an existing journal into a key → result map. Damaged
    /// lines — a torn tail from a killed run, a record merged with a
    /// torn predecessor, any CRC mismatch — are skipped; everything
    /// that passes is a record that was durably and fully written.
    pub fn replay(state_dir: &Path, batch: &str) -> HashMap<ContentKey, JobResult> {
        let path = Self::path_for(state_dir, batch);
        let Ok(bytes) = fs::read(&path) else {
            return HashMap::new();
        };
        String::from_utf8_lossy(&bytes)
            .lines()
            .filter_map(|line| {
                let (key, payload) = frame::unframe(line.as_bytes())?;
                Some((key, JobResult::decode(payload)?))
            })
            .collect()
    }

    /// Appends one completed job and flushes, so the line survives a
    /// kill immediately after.
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
        let w = self.writer.as_mut().expect("journal open");
        let mut line = frame::frame(key, &result.encode());
        line.push('\n');
        match faults.journal_tear(key, line.len()) {
            Some(keep) => w.write_all(&line.as_bytes()[..keep])?,
            None => w.write_all(line.as_bytes())?,
        }
        w.flush()
    }

    /// Marks the batch complete: closes and deletes the journal.
    pub fn finish(mut self) -> io::Result<()> {
        drop(self.writer.take());
        match fs::remove_file(&self.path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

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
        // The next record appends onto the torn line and is lost with
        // it — the cost of a tear is recomputation, never bad data.
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
            [1u128, 4].into_iter().collect(),
            "torn record and its merge victim are skipped; the rest replay"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
