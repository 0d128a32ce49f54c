//! Property-based tests of the simulation substrate.

use proptest::prelude::*;

use sim_core::round::{ceil_u64, floor_i32, round_i128};
use sim_core::{mean, Rng, RunStats, SimDuration, SimTime, TimeSeries};

proptest! {
    /// Time arithmetic: (t + a) + b == (t + b) + a and subtraction
    /// round-trips.
    #[test]
    fn time_arithmetic_commutes(t in 0u64..1u64<<40, a in 0u64..1u64<<30, b in 0u64..1u64<<30) {
        let t = SimTime::from_micros(t);
        let a = SimDuration::from_micros(a);
        let b = SimDuration::from_micros(b);
        prop_assert_eq!((t + a) + b, (t + b) + a);
        prop_assert_eq!((t + a) - a, t);
        prop_assert_eq!((t + a).duration_since(t), a);
    }

    /// Frequency cycle arithmetic: time_for_cycles rounds up, so
    /// cycles_in(time_for_cycles(c)) >= c, within one extra period.
    #[test]
    fn cycles_round_trip(khz in 1u32..1_000_000, cycles in 0u64..1u64<<40) {
        let f = sim_core::Frequency::from_khz(khz);
        let t = f.time_for_cycles(cycles);
        let back = f.cycles_in(t);
        prop_assert!(back >= cycles, "{back} < {cycles}");
        // No more than one microsecond's worth of slack.
        prop_assert!(back - cycles <= khz as u64 / 1_000 + 1);
    }

    /// Uniform draws respect their range for arbitrary seeds and
    /// bounds.
    #[test]
    fn uniform_range_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, span in 0.0f64..1e6) {
        let mut rng = Rng::new(seed);
        let hi = lo + span;
        for _ in 0..100 {
            let x = rng.uniform_range(lo, hi);
            prop_assert!(x >= lo && (x < hi || span == 0.0));
        }
    }

    /// below(n) is always < n and, for small n, hits every residue.
    #[test]
    fn below_is_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// The 95% CI always contains the sample mean, and widens as the
    /// spread grows.
    #[test]
    fn ci_contains_mean(samples in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
        let mut rs = RunStats::new();
        for &s in &samples {
            rs.record(s);
        }
        let ci = rs.ci95().unwrap();
        let m = mean(&samples).unwrap();
        prop_assert!(ci.lo <= m + 1e-9 && m <= ci.hi + 1e-9);
    }

    /// TimeSeries windowing never invents points and respects bounds.
    #[test]
    fn series_window_subset(n in 1usize..200, cut_a in 0u64..2_000, cut_b in 0u64..2_000) {
        let mut s = TimeSeries::new("w");
        for i in 0..n {
            s.push(SimTime::from_micros(i as u64 * 10), i as f64);
        }
        let (lo, hi) = if cut_a <= cut_b { (cut_a, cut_b) } else { (cut_b, cut_a) };
        let w = s.window(SimTime::from_micros(lo), SimTime::from_micros(hi));
        prop_assert!(w.len() <= s.len());
        for (t, _) in w.iter() {
            prop_assert!(t.as_micros() >= lo && t.as_micros() < hi);
        }
    }
}

/// The t-based CI covers the true mean at roughly the nominal rate for
/// Gaussian data (sanity of the whole stats pipeline).
#[test]
fn ci_coverage_is_near_nominal() {
    let mut covered = 0;
    let trials = 400;
    let true_mean = 10.0;
    let mut rng = Rng::new(12345);
    for _ in 0..trials {
        let mut rs = RunStats::new();
        for _ in 0..8 {
            rs.record(rng.normal(true_mean, 2.0));
        }
        let ci = rs.ci95().unwrap();
        if ci.lo <= true_mean && true_mean <= ci.hi {
            covered += 1;
        }
    }
    let rate = covered as f64 / trials as f64;
    assert!(
        (0.90..=0.99).contains(&rate),
        "95% CI covered the true mean {:.1}% of the time",
        rate * 100.0
    );
}

/// Each integer rounding helper against the std expression it
/// replaces, bit for bit.
fn check_rounding(x: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(floor_i32(x), x.floor() as i32, "floor_i32({:e})", x);
    prop_assert_eq!(round_i128(x), x.round() as i128, "round_i128({:e})", x);
    prop_assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil_u64({:e})", x);
    Ok(())
}

proptest! {
    /// Arbitrary bit patterns (every exponent, subnormals, NaN, ±∞),
    /// the same mantissas scaled into the integer path's range, and
    /// the halfway points and their neighbours.
    #[test]
    fn integer_rounding_is_exact(
        bits in proptest::collection::vec(any::<u64>(), 1..64),
        scales in proptest::collection::vec(0i32..60, 1..64),
    ) {
        for (&b, &k) in bits.iter().zip(scales.iter().cycle()) {
            let x = f64::from_bits(b);
            check_rounding(x)?;
            // A value of magnitude below 2^k, both signs.
            let small = (b as i64) as f64 / 2f64.powi(63) * 2f64.powi(k);
            check_rounding(small)?;
            // n + 0.5 and its neighbours.
            let half = (b >> (64 - k.max(1))) as f64 + 0.5;
            for v in [half, half.next_up(), half.next_down()] {
                check_rounding(v)?;
                check_rounding(-v)?;
            }
        }
    }
}

#[test]
fn integer_rounding_is_exact_at_the_edges() {
    let two_52 = 4_503_599_627_370_496.0_f64;
    let mut edges = vec![
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE.next_down(),
        0.5,
        0.5f64.next_up(),
        0.5f64.next_down(),
        1.5,
        2.5,
        two_52 - 1.0,
        two_52 - 0.5,
        two_52,
        two_52 + 1.0,
        two_52.next_down(),
        2f64.powi(31),
        2f64.powi(31) - 0.5,
        2f64.powi(63),
        2f64.powi(64),
        2f64.powi(127),
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
    ];
    for n in [0.0_f64, 1.0, 2.0, 1e6, 1e15] {
        let half = n + 0.5;
        edges.extend([half, half.next_up(), half.next_down()]);
    }
    for x in edges {
        check_rounding(x).unwrap();
        check_rounding(-x).unwrap();
    }
}
