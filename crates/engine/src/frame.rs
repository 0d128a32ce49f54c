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

use crate::key::{fnv64, ContentKey};

/// One record's line, without the trailing newline.
pub(crate) fn frame(key: ContentKey, payload: &str) -> String {
    let body = format!("{key} {payload}");
    let crc = fnv64(body.as_bytes());
    format!("{key} {crc:016x} {payload}")
}

/// Splits and checks one line; `None` for anything damaged.
pub(crate) fn unframe(line: &str) -> Option<(ContentKey, &str)> {
    let mut parts = line.splitn(3, ' ');
    let key_hex = parts.next()?;
    let crc_hex = parts.next()?;
    let payload = parts.next()?;
    let key = ContentKey::parse(key_hex)?;
    let crc = u64::from_str_radix(crc_hex, 16).ok()?;
    (crc == fnv64(format!("{key_hex} {payload}").as_bytes())).then_some((key, payload))
}

/// The key a line is filed under — its text up to the first space —
/// without checking the rest of the line.
pub(crate) fn key_of(line: &[u8]) -> Option<ContentKey> {
    let end = line.iter().position(|&b| b == b' ').unwrap_or(line.len());
    ContentKey::parse(std::str::from_utf8(&line[..end]).ok()?)
}
