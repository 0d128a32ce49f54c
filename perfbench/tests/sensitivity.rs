//! Sensitivity self-check: a harness-side delay of 10 % of
//! `fleet.fold_result_us`, busy-waited in the fold closure passed to
//! `run_stream`, must be flagged on `fleet` `jobs_per_s`, and the same
//! comparison must leave `sweep_cold` and `sweep_warm` — whose paths
//! have no fold closure for the delay to sit in — unflagged.
//!
//! It is a timing test on a shared host, so it is not part of a plain
//! `cargo test`; run it with
//! `cargo test --release -- --ignored --nocapture`.

use std::time::Duration;

use perfbench::check::{Checker, FLEET_REFS, SWEEP_REFS};
use perfbench::fleet_wl::{Fleet, TraceSink};
use perfbench::stats::{median, regressed};
use perfbench::sweep_wl::{cold_setup, Warm};
use perfbench::{nproc, BatchStat};

/// Paired comparisons per workload; the flagging rule needs nine of
/// ten.
const PAIRS: usize = 10;

const SEED: u64 = 1;

/// Relative `jobs_per_s` differences `(change − base) / base` of
/// [`PAIRS`] pairs. A pair is `batches` adjacent base/change batch
/// pairs, each ordered the other way round from the last, so both arms
/// see the same host conditions; the pair's difference is their median.
fn paired(
    batches: usize,
    mut base: impl FnMut() -> BatchStat,
    mut change: impl FnMut() -> BatchStat,
) -> Vec<f64> {
    (0..PAIRS)
        .map(|pair| {
            let diffs: Vec<f64> = (0..batches)
                .map(|i| {
                    let (b, c) = if (pair + i) % 2 == 0 {
                        let b = base();
                        (b, change())
                    } else {
                        let c = change();
                        (base(), c)
                    };
                    c.jobs_per_s() / b.jobs_per_s() - 1.0
                })
                .collect();
            median(&diffs)
        })
        .collect()
}

fn report(workload: &str, diffs: &[f64]) -> bool {
    let flagged = regressed(diffs, true);
    let pct: Vec<String> = diffs
        .iter()
        .map(|d| format!("{:+.2}%", d * 100.0))
        .collect();
    eprintln!("{workload}: jobs_per_s change per pair {}", pct.join(" "));
    eprintln!("{workload}: flagged = {flagged}");
    flagged
}

#[test]
#[ignore = "timing test, several minutes; run with --release -- --ignored"]
fn ten_percent_fold_delay_is_flagged_on_fleet_only() {
    let fleet = Fleet::setup(SEED);
    let fleet_check = Checker::new(FLEET_REFS, SEED);
    let sink = TraceSink::default();
    for _ in 0..3 {
        fleet.traced_batch(&fleet_check, &sink);
    }
    let fold_p50_us = sink.into_state().timings["fleet.fold_result_us"].percentile_us(0.5);
    let delay = Duration::from_secs_f64(0.1 * fold_p50_us * 1e-6);
    eprintln!("fleet.fold_result_us.p50 = {fold_p50_us:.3} us; injected delay = {delay:?}");

    let plain = Duration::ZERO;
    let fleet_pairs = paired(
        20,
        || fleet.batch(&fleet.engine, plain, &fleet_check),
        || fleet.batch(&fleet.engine, delay, &fleet_check),
    );

    let sweep_check = Checker::new(SWEEP_REFS, SEED);
    let grid = cold_setup(SEED);
    let cold_pairs = paired(
        3,
        || grid.cold_batch(nproc(), &sweep_check),
        || grid.cold_batch(nproc(), &sweep_check),
    );
    let warm = Warm::setup(SEED, &sweep_check);
    let warm_pairs = paired(
        50,
        || warm.batch(&warm.engine, &sweep_check),
        || warm.batch(&warm.engine, &sweep_check),
    );

    let flagged = [
        report("fleet", &fleet_pairs),
        report("sweep_cold", &cold_pairs),
        report("sweep_warm", &warm_pairs),
    ];
    assert_eq!(fleet_check.mismatches() + sweep_check.mismatches(), 0);
    assert_eq!(flagged, [true, false, false], "flagged on fleet only");
}
