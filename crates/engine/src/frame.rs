//! The CRC framing shared by the journal and the cache log.
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

use core::fmt::Write;

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
