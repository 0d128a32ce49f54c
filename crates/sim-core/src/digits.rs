//! Integers appended to a `String` as text without `core::fmt`.
//!
//! Content keys hash a job's canonical string, and a warm cache hit
//! builds that string for every cell it serves, so its integers and
//! float bit patterns are written here digit by digit rather than
//! through `write!`, whose argument and formatter machinery costs more
//! than the digits themselves. Each helper writes exactly what its
//! `format!` spelling does; `engine`'s `canonical_proptest` holds every
//! canonical encoder built on them to its `write!` original.

/// Appends `n` in decimal, as `{}` writes it.
pub fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends `n` as 16 lowercase hex digits, as `{:016x}` writes it.
pub fn push_hex16(out: &mut String, n: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.extend(
        (0..16)
            .rev()
            .map(|i| char::from(HEX[(n >> (4 * i)) as usize & 0xf])),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_match_their_format_spelling() {
        let edge = [
            0,
            1,
            9,
            10,
            99,
            100,
            1_000_000,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mixed = (0..64).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1) >> (i % 64));
        for n in edge.into_iter().chain(mixed) {
            let mut out = String::from("x=");
            push_decimal(&mut out, n);
            push_hex16(&mut out, n);
            assert_eq!(out, format!("x={n}{n:016x}"));
        }
    }
}
