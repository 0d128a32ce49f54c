//! Exact float → integer rounding without the libm call.
//!
//! On the baseline x86-64 target `f64::floor`, `ceil` and `round` are
//! out-of-line software routines, and a float → `i128` cast is another
//! call. The helpers here compute the same integers from a truncating
//! cast (one instruction) and a compare. Below 2⁵² every `f64` with a
//! fractional part is exactly `trunc(x) + frac` with both parts
//! representable, so the result is exact there; NaN, ±∞ and larger
//! magnitudes (which are integers already) fall back to std. A
//! proptest in `tests/properties.rs` pins each helper bit for bit
//! against its std expression.

/// Magnitudes below this take the integer path.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `x.floor() as i32`, bit for bit.
#[inline]
pub fn floor_i32(x: f64) -> i32 {
    if x.abs() < TWO_52 {
        let t = x as i64;
        let f = if (t as f64) > x { t - 1 } else { t };
        f.clamp(i32::MIN.into(), i32::MAX.into()) as i32
    } else {
        x.floor() as i32
    }
}

/// `x.round() as i128` (halves away from zero), bit for bit.
#[inline]
pub fn round_i128(x: f64) -> i128 {
    if x.abs() < TWO_52 {
        let t = x as i64;
        // Exact: `t` is `x` truncated, so the difference is `x`'s
        // fractional part.
        let frac = x - t as f64;
        let r = if frac >= 0.5 {
            t + 1
        } else if frac <= -0.5 {
            t - 1
        } else {
            t
        };
        r.into()
    } else {
        x.round() as i128
    }
}

/// `x.ceil() as u64`, bit for bit.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    if x.abs() < TWO_52 {
        let t = x as i64;
        let c = if (t as f64) < x { t + 1 } else { t };
        c.max(0) as u64
    } else {
        x.ceil() as u64
    }
}
