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
//! A [`Log`] opened to read scans its file once, through a 16 KiB
//! buffer, and maps each key to the offset and length of that key's
//! *last* record, so a later record for a key supersedes every earlier
//! one (last record wins). The index holds offsets, never record bytes,
//! and skips a line whose key does not parse; the key is parsed where it
//! lies, and the map does not hash it again ([`KeyMap`]). A record is
//! read back into a buffer the log reuses and checked by the log's user.
//! While reads move forward through the file they are copied out of one
//! read-ahead window of at most 16 KiB, which reuses the scan's buffer
//! and is refilled from the offset of any forward read it does not hold;
//! a read backwards is one positioned read (`pread`). The file only
//! grows, so the window always holds the file's bytes. A 64 KiB window
//! read no faster over the paper's grid and held about 0.08 MB more at a
//! warm batch's peak.
//!
//! A log can be held open while other writers append to its file: a
//! catch-up ([`Log::catch_up`]) costs one `stat` when nothing changed
//! and scans only the new bytes when the file grew, so the index files
//! every record any writer appended before it, as a fresh open would.
//!
//! An append is one `write_all` of one line, and the first one creates
//! the file. A log opened only to append (a journal's writer) reads
//! nothing but its file's last byte and files nothing, so its append is
//! that one write. A writer killed mid-append, or a torn append injected
//! by a fault plan, leaves the file mid-line; the next append writes a
//! `\n` before its record, so the torn record fails its CRC alone and
//! takes no later record with it. A log opened to read also `fstat`s its
//! file before each append: a length it has not seen means another
//! writer came since its last look, and the file's last byte then says
//! whether that writer left it mid-line. Every record is a pure function
//! of its key, so a lost one costs only its recomputation. The log is
//! not fsynced and never compacted.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};

use sim_core::digits::push_hex16;

use crate::key::{fnv64, fnv64_extend, ContentKey, KeyMap};

/// Bytes in the read-ahead window, and in the buffer an open scans the
/// file through.
const WINDOW: usize = 16 * 1024;

/// One record's line, without the trailing newline; its capacity leaves
/// room for the newline the caller appends.
pub(crate) fn frame(key: ContentKey, payload: &str) -> String {
    let mut line = String::with_capacity(32 + 1 + 16 + 1 + payload.len() + 1);
    push_hex16(&mut line, (key.0 >> 64) as u64);
    push_hex16(&mut line, key.0 as u64);
    line.push(' ');
    let crc = fnv64_extend(fnv64(line.as_bytes()), payload.as_bytes());
    push_hex16(&mut line, crc);
    line.push(' ');
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
    let key = ContentKey::from_hex(key_hex)?;
    Some((key, std::str::from_utf8(payload).ok()?))
}

/// The key a line is filed under — its text up to the first space —
/// without checking the rest of the line.
pub(crate) fn key_of(line: &[u8]) -> Option<ContentKey> {
    let (hex, rest) = line.split_at_checked(32)?;
    match rest.first() {
        None | Some(b' ') => ContentKey::from_hex(hex),
        Some(_) => None,
    }
}

/// The position of the first `\n` in `bytes`. Whole 32-byte blocks are
/// tested as four words at a time: XORed with `\n`s, a word holds a
/// newline exactly when it holds a zero byte, which sets that byte's top
/// bit in `(w - 0x01…) & !w`. The first block that holds one is searched
/// byte by byte.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let zero_bytes = |at: &[u8]| {
        let w = u64::from_ne_bytes(at[..8].try_into().expect("eight bytes")) ^ NEWLINES;
        w.wrapping_sub(ONES) & !w
    };
    let clear = (bytes.chunks_exact(32))
        .take_while(|b| {
            let any =
                zero_bytes(b) | zero_bytes(&b[8..]) | zero_bytes(&b[16..]) | zero_bytes(&b[24..]);
            any & ONES << 7 == 0
        })
        .count();
    let start = 32 * clear;
    let found = bytes[start..].iter().position(|&b| b == b'\n');
    found.map(|i| start + i)
}

/// Reads `file` from `at` until `buf` is full or the file ends, and
/// returns the count read. An interrupted read is retried; any other
/// error ends the read as the file's end would.
fn fill_at(file: &File, buf: &mut [u8], at: u64) -> usize {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read_at(&mut buf[filled..], at + filled as u64) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    filled
}

/// Whether `file` ends mid-line, from its last byte alone. A last byte
/// that cannot be read counts as mid-line: the spare newline that costs
/// is an empty line, which no reader files.
fn ends_mid_line(file: &File) -> bool {
    let mut last = [b'\n'];
    file.metadata().map_or(true, |m| {
        m.len() > 0 && (file.read_exact_at(&mut last, m.len() - 1).is_err() || last != [b'\n'])
    })
}

/// A file's device and inode.
fn file_id(file: &File) -> (u64, u64) {
    file.metadata().map_or((0, 0), |m| (m.dev(), m.ino()))
}

/// An open record log: its file and the index of its records.
#[derive(Debug)]
pub(crate) struct Log {
    path: PathBuf,
    /// `None` until the file exists.
    file: Option<File>,
    /// The open file's device and inode, which tell it from a file that
    /// has since replaced it at `path`.
    id: (u64, u64),
    /// Each key's last record: its offset, and its length without the
    /// newline. A user may drop a key, so that its records are not found
    /// again. Empty, and never filled, in a log opened only to append.
    pub(crate) index: KeyMap<(u64, usize)>,
    /// Whether appends file their records in the index.
    indexed: bool,
    /// Whether the file ends mid-line.
    torn: bool,
    /// The file's length when the index last took in all of it; `None`
    /// once the log's own append has filed a record past bytes it has
    /// not taken in, so that the next catch-up opens the file afresh.
    len: Option<u64>,
    /// The end of the file's last whole line at that time: a catch-up
    /// scans from here.
    scanned: u64,
    /// The file's bytes from offset `window_at` on, read ahead.
    window: Vec<u8>,
    window_at: u64,
    /// The last record read, lent to the reader.
    record: Vec<u8>,
    /// Reads served by a `pread` rather than the window.
    #[cfg(test)]
    preads: u64,
}

impl Log {
    /// A log of `path` with no file, an empty index and no window.
    fn new(path: PathBuf, indexed: bool) -> Log {
        Log {
            path,
            file: None,
            id: (0, 0),
            index: KeyMap::default(),
            indexed,
            torn: false,
            len: Some(0),
            scanned: 0,
            window: Vec::new(),
            window_at: 0,
            record: Vec::new(),
            #[cfg(test)]
            preads: 0,
        }
    }

    /// Opens and indexes the log at `path`; an absent or unreadable file
    /// is an empty log.
    pub(crate) fn open(path: PathBuf) -> Log {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .or_else(|_| File::open(&path))
            .ok();
        let mut log = Log::new(path, true);
        if let Some(file) = file {
            log.id = file_id(&file);
            log.file = Some(file);
            log.scan();
        }
        log
    }

    /// Opens the log at `path` only to append to it. Nothing but the
    /// file's last byte is read, to learn whether it ends mid-line; the
    /// index stays empty, and appends file nothing.
    pub(crate) fn open_append(path: PathBuf) -> Log {
        let file = OpenOptions::new().read(true).append(true).open(&path).ok();
        Log {
            torn: file.as_ref().is_some_and(ends_mid_line),
            file,
            ..Log::new(path, false)
        }
    }

    /// Brings the index up to the file at its path with one `stat`, so
    /// that it files every record appended since the log last looked,
    /// by any writer. A file that grew after a whole line has only its
    /// new bytes scanned. A file that is gone, is not the one the log
    /// holds (by device and inode), is shorter than the log has seen it,
    /// has appeared since, or grew while the log saw it end mid-line
    /// (a writer that did not end the torn line may have changed its
    /// key) is opened and indexed afresh, as is one the log appended to
    /// after another writer. A key a user dropped stays dropped unless
    /// the scanned bytes file it again. The window is emptied, so that
    /// the reads after a catch-up move forward from the first one.
    pub(crate) fn catch_up(&mut self) {
        self.window.clear();
        self.window_at = 0;
        let same = |m: &fs::Metadata| (m.dev(), m.ino()) == self.id;
        match (fs::metadata(&self.path), &self.file, self.len) {
            (Err(_), None, _) => {}
            (Ok(m), Some(_), Some(len)) if same(&m) && m.len() == len => {}
            (Ok(m), Some(_), Some(len)) if same(&m) && m.len() > len && self.scanned == len => {
                self.scan()
            }
            _ => *self = Log::open(std::mem::take(&mut self.path)),
        }
    }

    /// Indexes the file's lines from `scanned` on, read through the
    /// window's buffer without copying a line out: each key is parsed
    /// where it lies, and only the unfinished line at a buffer's end
    /// moves to its front. A line longer than the buffer grows it. A
    /// last line without a newline is filed too and leaves the log torn,
    /// and a read error ends the scan as if the file ended there. The
    /// window holds nothing afterwards.
    fn scan(&mut self) {
        let Some(file) = self.file.take() else { return };
        let mut buf = std::mem::take(&mut self.window);
        buf.resize(WINDOW, 0);
        let (mut filled, mut buf_at) = (0, self.scanned);
        while let n @ 1.. = fill_at(&file, &mut buf[filled..], buf_at + filled as u64) {
            filled += n;
            let mut start = 0;
            while let Some(end) = find_newline(&buf[start..filled]).map(|i| start + i) {
                self.file_line(&buf[start..end], buf_at + start as u64);
                start = end + 1;
            }
            buf.copy_within(start..filled, 0);
            (filled, buf_at) = (filled - start, buf_at + start as u64);
            if filled == buf.len() {
                buf.resize(2 * buf.len(), 0);
            }
        }
        if filled > 0 {
            self.file_line(&buf[..filled], buf_at);
        }
        (self.scanned, self.len, self.torn) = (buf_at, Some(buf_at + filled as u64), filled > 0);
        buf.clear();
        self.window = buf;
        self.file = Some(file);
    }

    /// Files a line at `at` under its key, if it has one.
    fn file_line(&mut self, line: &[u8], at: u64) {
        if let Some(key) = key_of(line) {
            self.index.insert(key, (at, line.len()));
        }
    }

    /// The log's file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// The record at `at` of `len` bytes, in a buffer the log lends
    /// until the next read; the bytes are those one `pread` would return.
    /// A read that starts at or after the window's start, is not in the
    /// window and fits in one first refills the window from `at`; a read
    /// the window then holds is copied out of it, and any other (a read
    /// backwards, or a record longer than the window) is one `pread`.
    pub(crate) fn read(&mut self, (at, len): (u64, usize)) -> io::Result<&mut Vec<u8>> {
        let file = self.file.as_ref().ok_or(io::ErrorKind::NotFound)?;
        let end = at + len as u64;
        if !self.in_window(at, end) && at >= self.window_at && len <= WINDOW {
            self.window.resize(WINDOW, 0);
            let filled = fill_at(file, &mut self.window, at);
            self.window.truncate(filled);
            self.window_at = at;
        }
        self.record.clear();
        if self.in_window(at, end) {
            let from = (at - self.window_at) as usize;
            self.record
                .extend_from_slice(&self.window[from..from + len]);
        } else {
            #[cfg(test)]
            {
                self.preads += 1;
            }
            self.record.resize(len, 0);
            file.read_exact_at(&mut self.record, at)?;
        }
        Ok(&mut self.record)
    }

    /// Whether the window holds the bytes from `at` to `end`.
    fn in_window(&self, at: u64, end: u64) -> bool {
        self.window_at <= at && end <= self.window_at + self.window.len() as u64
    }

    /// Appends `key`'s framed `record` as one line with one `write_all`,
    /// creating the file on first use, and, in a log opened to read,
    /// files it in the index. A log opened to read first checks the
    /// file's length, and its last byte if another writer changed it.
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
        let file = match self.file {
            Some(ref mut file) => file,
            None => {
                if let Some(dir) = self.path.parent() {
                    fs::create_dir_all(dir)?;
                }
                let file = OpenOptions::new()
                    .create(true)
                    .read(true)
                    .append(true)
                    .open(&self.path)?;
                self.id = file_id(&file);
                self.file.insert(file)
            }
        };
        // Another writer may have torn the file since the log last looked.
        if self.indexed && file.metadata().map_or(true, |m| Some(m.len()) != self.len) {
            self.torn = ends_mid_line(file);
        }
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
        if self.indexed {
            // Appends land at the end, so the position after the write
            // is the end of this record's line. If the line began where
            // the log last saw the file end, no other writer came between,
            // and the index holds every line up to here. Otherwise it
            // lacks what came between, and a later cut back to the old
            // length would go unseen, so the next catch-up reopens.
            let end = file.stream_position()?;
            self.index.insert(key, (end - 1 - len as u64, len));
            if Some(end - line.len() as u64) == self.len {
                (self.scanned, self.len) = (end, Some(end));
            } else {
                self.len = None;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// A fresh log path per case (cases run in one process).
    fn temp_log() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "engine-log-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir.join("records.log")
    }

    /// splitmix64, for deriving a record from one seed.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    /// A framed record under one of eight keys, so later records
    /// supersede earlier ones. One in eight is within 4,000 bytes of the
    /// window's length, on either side of it.
    fn record(seed: u64) -> (ContentKey, String) {
        let key = ContentKey(u128::from(mix(seed) % 8));
        let len = match mix(seed ^ 1) % 8 {
            0 => WINDOW + (mix(seed ^ 2) % 8_000) as usize - 4_000,
            _ => (mix(seed ^ 2) % 1_500) as usize,
        };
        let text = "0123456789abcdef".repeat(len / 16 + 2);
        let start = (seed % 16) as usize;
        (key, frame(key, &text[start..start + len]))
    }

    /// A log file of records and garbage lines, ending in a torn record
    /// when `torn` is set; no file at all when both are empty.
    fn write_log(path: &Path, lines: &[u64], torn: bool) {
        let mut bytes = Vec::new();
        for &seed in lines {
            match mix(seed) % 6 {
                0 => bytes.extend((0..seed % 200).map(|i| match mix(seed ^ i) as u8 {
                    b'\n' => b'.',
                    b => b,
                })),
                _ => bytes.extend_from_slice(record(seed).1.as_bytes()),
            }
            bytes.push(b'\n');
        }
        if torn {
            let line = record(lines.len() as u64).1;
            bytes.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
        }
        if !bytes.is_empty() {
            fs::create_dir_all(path.parent().expect("in a directory")).expect("log dir");
            fs::write(path, bytes).expect("write log");
        }
    }

    /// What one `pread` on a freshly opened file returns.
    fn fresh_pread(path: &Path, at: u64, len: usize) -> Option<Vec<u8>> {
        let mut bytes = vec![0; len];
        File::open(path)
            .and_then(|f| f.read_exact_at(&mut bytes, at))
            .ok()
            .map(|()| bytes)
    }

    proptest! {
        #[test]
        fn every_read_returns_what_a_fresh_pread_returns(
            lines in proptest::collection::vec(any::<u64>(), 0..40),
            torn in any::<bool>(),
            ops in proptest::collection::vec(any::<u64>(), 1..12),
        ) {
            let path = temp_log();
            write_log(&path, &lines, torn);
            let mut log = Log::open(path.clone());
            // The scan files what splitting the whole file would.
            let bytes = fs::read(&path).unwrap_or_default();
            let mut want = HashMap::new();
            let mut at = 0;
            for line in bytes.split(|&b| b == b'\n') {
                if let Some(key) = key_of(line) {
                    want.insert(key, (at, line.len()));
                }
                at += line.len() as u64 + 1;
            }
            prop_assert_eq!(log.index.iter().map(|(&k, &v)| (k, v)).collect::<HashMap<_, _>>(), want);
            for &op in &ops {
                let (key, line) = record(op);
                match op % 5 {
                    0 => log.append(key, line, |_| None).expect("append"),
                    1 => log
                        .append(key, line, |len| Some(mix(op) as usize % len))
                        .expect("torn append"),
                    _ => {
                        let mut reads: Vec<(u64, usize)> = log.index.values().copied().collect();
                        reads.sort_unstable();
                        match (op >> 8) % 4 {
                            0 => {}
                            1 => reads.reverse(),
                            2 => reads.sort_by_key(|&(at, _)| mix(op ^ at)),
                            _ => reads = reads.iter().flat_map(|&r| [r, r, r]).collect(),
                        }
                        // And ranges no record bounds: across lines, at
                        // and past the end of the file.
                        let size = fs::metadata(&path).map_or(0, |m| m.len());
                        for i in 0..3 {
                            let at = mix(op ^ i) % (size + 64);
                            reads.push((at, (mix(op ^ i ^ 7) % 3_000) as usize));
                        }
                        for (at, len) in reads {
                            let got = log.read((at, len)).ok().cloned();
                            prop_assert!(
                                got == fresh_pread(&path, at, len),
                                "read of {} bytes at {} differs from a pread",
                                len,
                                at
                            );
                        }
                    }
                }
            }
            let _ = fs::remove_dir_all(path.parent().expect("in a directory"));
        }
    }

    /// The index a fresh open of `path` builds.
    fn fresh_index(path: &Path) -> HashMap<ContentKey, (u64, usize)> {
        Log::open(path.to_path_buf()).index.into_iter().collect()
    }

    proptest! {
        /// Other writers append, tear, replace, cut and delete the file
        /// between the held log's catch-ups, as other caches and
        /// processes do between an engine's batches; the held log's own
        /// appends follow a catch-up, as a batch's do, and another
        /// writer may tear the file in between. After every catch-up
        /// the held index is the one a fresh open builds.
        #[test]
        fn a_caught_up_log_indexes_what_a_fresh_open_does(
            lines in proptest::collection::vec(any::<u64>(), 0..30),
            torn in any::<bool>(),
            ops in proptest::collection::vec(any::<u64>(), 1..16),
        ) {
            let path = temp_log();
            write_log(&path, &lines, torn);
            let mut held = Log::open(path.clone());
            for &op in &ops {
                let (key, line) = record(op);
                let tear = |len: usize| Some(mix(op) as usize % len);
                match op % 10 {
                    // The held log's own appends, whole and torn.
                    0 | 1 => {
                        held.catch_up();
                        let tear = |len| if op % 10 == 1 { tear(len) } else { None };
                        held.append(key, line, tear).expect("append");
                    }
                    // Another writer's, whole and torn, through its own log.
                    2 => Log::open_append(path.clone()).append(key, line, |_| None).expect("append"),
                    3 => Log::open_append(path.clone()).append(key, line, tear).expect("torn append"),
                    // A writer killed mid-line that writes no repair newline.
                    4 => {
                        fs::create_dir_all(path.parent().expect("in a directory")).expect("log dir");
                        let mut file = OpenOptions::new().create(true).append(true).open(&path).expect("open");
                        file.write_all(&line.as_bytes()[..line.len() / 3]).expect("write");
                    }
                    // A new file in the log's place.
                    5 => {
                        let fresh = path.with_extension("new");
                        write_log(&fresh, &[op, op ^ 1], op & 256 != 0);
                        let _ = fs::rename(&fresh, &path);
                    }
                    // The file cut shorter, and caught up with at once: a
                    // cut that regrows past its old end before a catch-up
                    // cannot be told from an append.
                    6 => {
                        if let Ok(m) = fs::metadata(&path) {
                            let file = OpenOptions::new().write(true).open(&path).expect("open");
                            file.set_len(mix(op) % (m.len() + 1)).expect("truncate");
                        }
                        held.catch_up();
                    }
                    7 => {
                        let _ = fs::remove_file(&path);
                    }
                    8 => held.catch_up(),
                    // Another process tears the file between the held
                    // log's catch-up and its append: the append must end
                    // the torn line, so that a fresh open serves it.
                    _ => {
                        held.catch_up();
                        let (other, torn) = record(mix(op));
                        let part = |len: usize| Some(1 + mix(op) as usize % (len - 1));
                        Log::open_append(path.clone()).append(other, torn, part).expect("torn append");
                        held.append(key, line.clone(), |_| None).expect("append");
                        let mut fresh = Log::open(path.clone());
                        let at = fresh.index.get(&key).copied();
                        let got = at.and_then(|at| fresh.read(at).ok().cloned());
                        prop_assert!(
                            got.as_deref() == Some(line.as_bytes()),
                            "the record after a tear is lost"
                        );
                    }
                }
                if matches!(op % 10, 6 | 8) {
                    let index: HashMap<_, _> = held.index.iter().map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(index, fresh_index(&path));
                }
            }
            held.catch_up();
            let index: HashMap<_, _> = held.index.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&index, &fresh_index(&path));
            // A held log may count a tear that landed no byte as torn:
            // that costs a spare newline, while a missed tear would cost
            // the next record.
            prop_assert!(held.torn || !Log::open(path.clone()).torn, "missed a torn tail");
            for (_, at) in index {
                let got = held.read(at).ok().cloned();
                prop_assert!(got == fresh_pread(&path, at.0, at.1), "read at {} differs", at.0);
            }
            let _ = fs::remove_dir_all(path.parent().expect("in a directory"));
        }
    }

    #[test]
    fn a_forward_read_past_the_window_refills_it() {
        let path = temp_log();
        let mut writer = Log::open(path.clone());
        for i in 0..3 {
            let key = ContentKey(i);
            writer
                .append(key, frame(key, &"x".repeat(6_000)), |_| None)
                .expect("append");
        }
        let mut log = Log::open(path.clone());
        let at = |i| log.index[&ContentKey(i)];
        let (first, second, third) = (at(0), at(1), at(2));
        for (at, preads) in [(first, 0), (third, 0), (second, 1)] {
            // The third record straddles the end of the window the first
            // read filled, and skipping the second does not make it a
            // `pread`; the second is then behind the window.
            let got = log.read(at).expect("read").clone();
            assert_eq!(Some(got), fresh_pread(&path, at.0, at.1));
            assert_eq!(log.preads, preads, "reads up to offset {}", at.0);
        }
        let _ = fs::remove_dir_all(path.parent().expect("in a directory"));
    }

    #[test]
    fn an_append_only_log_reads_one_byte_and_files_nothing() {
        let path = temp_log();
        let (key, line) = record(1);
        for (existing, want) in [
            ("", format!("{line}\n")),
            ("whole\n", format!("whole\n{line}\n")),
            ("torn", format!("torn\n{line}\n")),
        ] {
            write_log(&path, &[], false);
            fs::create_dir_all(path.parent().expect("in a directory")).expect("log dir");
            if existing.is_empty() {
                let _ = fs::remove_file(&path);
            } else {
                fs::write(&path, existing).expect("write log");
            }
            let mut log = Log::open_append(path.clone());
            log.append(key, line.clone(), |_| None).expect("append");
            assert!(log.index.is_empty(), "a writer files nothing");
            assert_eq!(fs::read_to_string(&path).expect("read log"), want);
            assert_eq!(Log::open(path.clone()).index.len(), 1);
        }
        let _ = fs::remove_dir_all(path.parent().expect("in a directory"));
    }
}
