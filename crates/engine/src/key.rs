//! Stable content addressing for job specs.
//!
//! A [`ContentKey`] is a 128-bit FNV-1a hash of a job's canonical text
//! encoding. FNV is used instead of a cryptographic hash because the
//! threat model is accidental collision between a few thousand sweep
//! cells, not adversarial input — and the canonical string itself is
//! stored in each cache record, so even a collision is detected
//! rather than silently served.
//!
//! The hash is defined over bytes of a canonical string (not Rust
//! `Hash`), so keys are stable across compiler versions, platforms and
//! process runs — the property the on-disk cache depends on.

use core::fmt;
use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x00000100000001b3;

/// FNV-1a 64 over raw bytes: the payload checksum of cache and
/// journal records. Like [`ContentKey`], it is defined over bytes so
/// checksums are stable across platforms and runs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_OFFSET, bytes)
}

/// Continues an FNV-1a 64 hash whose state after the bytes before
/// `bytes` is `h`, so a checksum over pieces equals [`fnv64`] over
/// their concatenation without building it.
pub(crate) fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// A stable 128-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey(pub u128);

impl ContentKey {
    /// Hashes a canonical description string.
    pub fn of(canonical: &str) -> Self {
        let mut h = FNV_OFFSET;
        for b in canonical.bytes() {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        ContentKey(h)
    }

    /// Parses the hex form produced by `Display`.
    pub fn parse(s: &str) -> Option<Self> {
        Self::from_hex(s.as_bytes())
    }

    /// Parses 32 bytes of hex where they lie, accepting exactly what
    /// `u128::from_str_radix(_, 16)` accepts at that length: hex digits
    /// of either case, the first of which may be a `+` instead.
    pub(crate) fn from_hex(hex: &[u8]) -> Option<Self> {
        if hex.len() != 32 {
            return None;
        }
        let digits = hex.strip_prefix(b"+").unwrap_or(hex);
        digits
            .iter()
            .try_fold(0u128, |key, &b| {
                Some(key << 4 | u128::from(char::from(b).to_digit(16)?))
            })
            .map(ContentKey)
    }
}

/// A map keyed by content key under [`KeyHasher`].
pub(crate) type KeyMap<V> = HashMap<ContentKey, V, BuildHasherDefault<KeyHasher>>;

/// Hashes a [`ContentKey`] to its low 64 bits. The key is already an
/// FNV-1a hash of a string the program wrote, so hashing it again would
/// only spend time; on the paper's 796-cell grid its low bits fill a
/// map's buckets as evenly as random ones.
#[derive(Debug, Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write_u128(&mut self, key: u128) {
        self.0 = key as u64;
    }

    /// Bytes other than one key's (which `ContentKey`'s `Hash` never
    /// writes) fold in by FNV-1a 64.
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv64_extend(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a 128 of the empty string is the offset basis.
        assert_eq!(ContentKey::of("").0, FNV_OFFSET);
        // Single-byte avalanche: nearby inputs diverge.
        assert_ne!(ContentKey::of("a"), ContentKey::of("b"));
    }

    #[test]
    fn display_roundtrips() {
        let k = ContentKey::of("benchmark=MPEG;n=3;up=peg");
        let s = k.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(ContentKey::parse(&s), Some(k));
        assert_eq!(ContentKey::parse("nonsense"), None);
    }

    #[test]
    fn parse_accepts_what_from_str_radix_accepts() {
        let hex = "0123456789abcdefFEDCBA9876543210";
        let cases = [
            hex.to_string(),
            hex.to_lowercase(),
            format!("+{}", &hex[1..]),
            format!("-{}", &hex[1..]),
            format!("++{}", &hex[2..]),
            format!("{}+", &hex[..31]),
            format!("{}g", &hex[..31]),
            format!("{} ", &hex[..31]),
            format!("{}\u{e9}", &hex[..30]),
            hex[..31].to_string(),
            format!("{hex}0"),
            String::new(),
        ];
        for s in cases {
            let want = (s.len() == 32)
                .then(|| u128::from_str_radix(&s, 16).ok())
                .flatten();
            assert_eq!(ContentKey::parse(&s), want.map(ContentKey), "{s:?}");
        }
    }

    #[test]
    fn a_key_hashes_to_its_low_bits() {
        let mut h = KeyHasher::default();
        core::hash::Hash::hash(&ContentKey(0xdead_beef << 64 | 0x1234), &mut h);
        assert_eq!(h.finish(), 0x1234);
    }

    #[test]
    fn fnv64_known_vectors() {
        // FNV-1a 64 of the empty input is the offset basis; a pinned
        // non-trivial vector guards against accidental edits — drift
        // here silently invalidates every checksummed cache record.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
        assert_eq!(
            fnv64_extend(fnv64_extend(fnv64(b"key"), b" "), b"payload"),
            fnv64(b"key payload")
        );
    }

    #[test]
    fn stable_across_runs() {
        // Pinned value: if this changes, every on-disk cache is
        // silently invalidated — bump CACHE_FORMAT_VERSION instead.
        assert_eq!(
            ContentKey::of("x").to_string(),
            "d228cb69781a8caf78912b704e4a9477"
        );
    }
}
