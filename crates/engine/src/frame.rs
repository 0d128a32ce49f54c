//! The record log that the result cache and the resume journal share:
//! an append-only file of CRC-framed records, indexed by key.
//!
//! A record is one line:
//!
//! ```text
//! <key-hex> <crc-hex> <payload>
//! ```
//!
//! where `crc` is FNV-1a 64 over `"<key-hex> <payload>"`. Payloads never
//! contain a newline, so a file of records splits on `\n`, and a record
//! cut short by a killed writer fails its CRC instead of parsing into a
//! wrong value.
//!
//! A [`Log`] reads its file once when it opens and maps each key to the
//! offset and length of that key's *last* record, so a later record for
//! a key supersedes every earlier one (last record wins). The index
//! holds offsets, never record bytes, and skips a line whose key does
//! not parse. A record is read back with one positioned read (`pread`)
//! and checked by the log's user. An append is one `write_all` of one
//! line, and the first one creates the file. A writer killed mid-append,
//! or a torn append injected by a fault plan, leaves the file mid-line;
//! the next append writes a `\n` before its record, so the torn record
//! fails its CRC alone and takes no later record with it. Every record
//! is a pure function of its key, so a lost one costs only its
//! recomputation. The log is not fsynced and never compacted.

use core::fmt::Write as _;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::key::{fnv64, fnv64_extend, ContentKey};

/// One record's line, without the trailing newline; its capacity leaves
/// room for the newline the caller appends.
pub(crate) fn frame(key: ContentKey, payload: &str) -> String {
    let mut line = String::with_capacity(32 + 1 + 16 + 1 + payload.len() + 1);
    let _ = write!(line, "{key} ");
    let crc = fnv64_extend(fnv64(line.as_bytes()), payload.as_bytes());
    let _ = write!(line, "{crc:016x} ");
    line.push_str(payload);
    line
}

/// Splits and checks one line; `None` for anything damaged. The CRC is
/// checked over the line's bytes where they lie, before the key or the
/// payload is read, so a damaged line need not be UTF-8; the payload
/// must be once its CRC passes.
pub(crate) fn unframe(line: &[u8]) -> Option<(ContentKey, &str)> {
    let mut parts = line.splitn(3, |&b| b == b' ');
    let key_hex = parts.next()?;
    let crc_hex = parts.next()?;
    let payload = parts.next()?;
    let crc = u64::from_str_radix(std::str::from_utf8(crc_hex).ok()?, 16).ok()?;
    if crc != fnv64_extend(fnv64_extend(fnv64(key_hex), b" "), payload) {
        return None;
    }
    let key = ContentKey::parse(std::str::from_utf8(key_hex).ok()?)?;
    Some((key, std::str::from_utf8(payload).ok()?))
}

/// The key a line is filed under — its text up to the first space —
/// without checking the rest of the line.
pub(crate) fn key_of(line: &[u8]) -> Option<ContentKey> {
    let end = line.iter().position(|&b| b == b' ').unwrap_or(line.len());
    ContentKey::parse(std::str::from_utf8(&line[..end]).ok()?)
}

/// An open record log: its file and the index of its records.
#[derive(Debug)]
pub(crate) struct Log {
    path: PathBuf,
    /// `None` until the file exists.
    file: Option<File>,
    /// Each key's last record: its offset, and its length without the
    /// newline. A user may drop a key, so that its records are not found
    /// again.
    pub(crate) index: HashMap<ContentKey, (u64, usize)>,
    /// Whether the file ends mid-line.
    torn: bool,
}

impl Log {
    /// Opens and indexes the log at `path`; an absent or unreadable file
    /// is an empty log.
    pub(crate) fn open(path: PathBuf) -> Log {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .or_else(|_| File::open(&path))
            .ok();
        let (mut index, mut torn, mut at) = (HashMap::new(), false, 0u64);
        if let Some(file) = &file {
            let (mut reader, mut line) = (BufReader::new(file), Vec::new());
            while let Ok(n @ 1..) = reader.read_until(b'\n', &mut line) {
                torn = !line.ends_with(b"\n");
                let len = n - usize::from(!torn);
                if let Some(key) = key_of(&line[..len]) {
                    index.insert(key, (at, len));
                }
                at += n as u64;
                line.clear();
            }
        }
        Log {
            path,
            file,
            index,
            torn,
        }
    }

    /// The log's file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// The record at `at` of `len` bytes, in one positioned read that
    /// leaves the file's offset alone.
    pub(crate) fn read(&self, (at, len): (u64, usize)) -> io::Result<Vec<u8>> {
        let file = self.file.as_ref().ok_or(io::ErrorKind::NotFound)?;
        let mut bytes = vec![0; len];
        file.read_exact_at(&mut bytes, at)?;
        Ok(bytes)
    }

    /// Appends `key`'s framed `record` as one line with one `write_all`,
    /// creating the file on first use, and files it in the index.
    /// `tear` is given the line's length, its newline included; if it
    /// returns a smaller count, only that many bytes land. The log is
    /// then torn, as if its writer had been killed mid-append, and, as
    /// with a real torn write, the caller is not told.
    pub(crate) fn append(
        &mut self,
        key: ContentKey,
        record: String,
        tear: impl FnOnce(usize) -> Option<usize>,
    ) -> io::Result<()> {
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                if let Some(dir) = self.path.parent() {
                    fs::create_dir_all(dir)?;
                }
                self.file.insert(
                    OpenOptions::new()
                        .create(true)
                        .read(true)
                        .append(true)
                        .open(&self.path)?,
                )
            }
        };
        let len = record.len();
        let mut line = record;
        line.push('\n');
        let keep = tear(line.len()).unwrap_or(line.len());
        let repair = usize::from(self.torn);
        if self.torn {
            // End the torn record first, so it fails its CRC alone
            // instead of swallowing this one.
            line.insert(0, '\n');
        }
        // Until the write is known to have landed whole.
        self.torn = true;
        file.write_all(&line.as_bytes()[..repair + keep])?;
        if keep <= len {
            return Ok(());
        }
        self.torn = false;
        // Appends land at the end, so the position after the write is
        // the end of this record's line.
        let end = file.stream_position()?;
        self.index.insert(key, (end - 1 - len as u64, len));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: ContentKey = ContentKey(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
    const PAYLOAD: &str = "wl=bench:MPEG;seed=1\tenergy_j=3ff0000000000000;misses=0";

    /// The framed line's bytes, written out: every journal and cache log
    /// on disk is a file of these, so a rewrite of `frame` that still
    /// round-trips with `unframe` must reproduce them exactly.
    const LINE: &str = "0123456789abcdeffedcba9876543210 832411ed3e07fc96 \
                        wl=bench:MPEG;seed=1\tenergy_j=3ff0000000000000;misses=0";

    #[test]
    fn frame_writes_the_pinned_line_and_unframe_reads_it() {
        assert_eq!(frame(KEY, PAYLOAD), LINE);
        assert_eq!(unframe(LINE.as_ref()), Some((KEY, PAYLOAD)));
        assert_eq!(key_of(LINE.as_bytes()), Some(KEY));
        // One flipped payload byte fails the CRC.
        let damaged = LINE.replace("seed=1", "seed=2");
        assert_eq!(unframe(damaged.as_ref()), None);
    }
}
