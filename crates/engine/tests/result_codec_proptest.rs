//! Property tests for the result codec, each against the code it
//! replaced, kept here as the oracle:
//!
//! - `JobResult::encode` writes what its `format!` spelling wrote, for
//!   arbitrary `f64` bit patterns and `u64` values;
//! - `JobResult::decode` accepts exactly the strings the `split`-based
//!   decoder accepted, with the same values: valid encodings of
//!   arbitrary results, and their one-byte edits, deletions, insertions
//!   and truncations.

use proptest::prelude::*;

use engine::JobResult;

/// The `format!` spelling `encode` replaced.
fn format_encode(r: &JobResult) -> String {
    format!(
        "energy_j={:016x};core_energy_j={:016x};mean_freq_mhz={:016x};\
         mean_utilization={:016x};misses={};max_lateness_us={};clock_switches={};\
         voltage_switches={};final_step={};frames_shown={};frames_dropped={};\
         sched_dropped={};battery_remaining={:016x}",
        r.energy_j.to_bits(),
        r.core_energy_j.to_bits(),
        r.mean_freq_mhz.to_bits(),
        r.mean_utilization.to_bits(),
        r.misses,
        r.max_lateness_us,
        r.clock_switches,
        r.voltage_switches,
        r.final_step,
        r.frames_shown,
        r.frames_dropped,
        r.sched_dropped,
        r.battery_remaining.to_bits(),
    )
}

/// The `split`-based decoder `decode` replaced.
fn split_decode(s: &str) -> Option<JobResult> {
    let mut fields = s.split(';');
    let mut field = |name: &str| fields.next()?.strip_prefix(name)?.strip_prefix('=');
    let result = JobResult {
        energy_j: float_bits(field("energy_j")?)?,
        core_energy_j: float_bits(field("core_energy_j")?)?,
        mean_freq_mhz: float_bits(field("mean_freq_mhz")?)?,
        mean_utilization: float_bits(field("mean_utilization")?)?,
        misses: decimal(field("misses")?)?,
        max_lateness_us: decimal(field("max_lateness_us")?)?,
        clock_switches: decimal(field("clock_switches")?)?,
        voltage_switches: decimal(field("voltage_switches")?)?,
        final_step: decimal(field("final_step")?)?,
        frames_shown: decimal(field("frames_shown")?)?,
        frames_dropped: decimal(field("frames_dropped")?)?,
        sched_dropped: decimal(field("sched_dropped")?)?,
        battery_remaining: float_bits(field("battery_remaining")?)?,
    };
    fields.next().is_none().then_some(result)
}

fn float_bits(v: &str) -> Option<f64> {
    if v.len() != 16 {
        return None;
    }
    let bits = v.bytes().try_fold(0u64, |bits, b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(bits << 4 | u64::from(digit))
    })?;
    Some(f64::from_bits(bits))
}

fn decimal(v: &str) -> Option<u64> {
    if v.is_empty() || (v.starts_with('0') && v != "0") {
        return None;
    }
    v.bytes().try_fold(0u64, |n, b| {
        let digit = b.is_ascii_digit().then(|| u64::from(b - b'0'))?;
        n.checked_mul(10)?.checked_add(digit)
    })
}

/// A result from raw words: floats from arbitrary bit patterns (NaNs,
/// infinities and subnormals included), integers shifted right by
/// `shifts` so that every length of decimal occurs.
fn result_from(words: &[u64], shifts: &[u32]) -> JobResult {
    let f = |i: usize| f64::from_bits(words[i]);
    let u = |i: usize| words[i] >> shifts[i];
    JobResult {
        energy_j: f(0),
        core_energy_j: f(1),
        mean_freq_mhz: f(2),
        mean_utilization: f(3),
        misses: u(4),
        max_lateness_us: u(5),
        clock_switches: u(6),
        voltage_switches: u(7),
        final_step: u(8),
        frames_shown: u(9),
        frames_dropped: u(10),
        sched_dropped: u(11),
        battery_remaining: f(12),
    }
}

/// A decode's outcome, comparable although a NaN is not equal to
/// itself: the result in the old spelling.
fn outcome(r: Option<JobResult>) -> Option<String> {
    r.as_ref().map(format_encode)
}

/// Bytes an edit or an insertion writes: the grammar's own (digits,
/// both cases of hex, separators, name letters) and a few foreign ones.
const ALPHABET: &[u8] = b"0123456789abcdefABCDEF;=_ejmnrstuy+- \n\t";

proptest! {
    #[test]
    fn encode_writes_the_format_spelling(
        words in proptest::collection::vec(any::<u64>(), 13),
        shifts in proptest::collection::vec(0u32..64, 13),
    ) {
        let r = result_from(&words, &shifts);
        let encoded = r.encode();
        prop_assert_eq!(&encoded, &format_encode(&r));
        prop_assert_eq!(outcome(JobResult::decode(&encoded)), Some(encoded));
    }

    #[test]
    fn decode_accepts_what_the_split_decoder_accepted(
        words in proptest::collection::vec(any::<u64>(), 13),
        shifts in proptest::collection::vec(0u32..64, 13),
        edits in proptest::collection::vec((0u8..4, any::<u64>(), any::<u8>()), 1..12),
    ) {
        let good = format_encode(&result_from(&words, &shifts));
        let mut cases = vec![good.clone()];
        for &(kind, at, byte) in &edits {
            let mut bytes = good.clone().into_bytes();
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            let byte = ALPHABET[usize::from(byte) % ALPHABET.len()];
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 => bytes.insert(at, byte),
                _ => bytes.truncate(at),
            }
            cases.push(String::from_utf8(bytes).expect("ASCII edits"));
        }
        for case in cases {
            prop_assert_eq!(
                outcome(JobResult::decode(&case)),
                outcome(split_decode(&case)),
                "decoders disagree on {:?}",
                case
            );
        }
    }
}
