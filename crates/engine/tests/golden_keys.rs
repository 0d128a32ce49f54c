//! Golden snapshots of `JobSpec` content keys and of the results they
//! address.
//!
//! Every cached result and journal record is addressed by the FNV-1a
//! 128 hash of a spec's canonical string. If that hash drifts — a
//! canonicalisation change, a field rename, a hashing tweak — every
//! existing cache entry silently misses and every interrupted run
//! loses its journal. That may be an *intended* consequence (bump
//! `SIM_VERSION` when simulator semantics change), but it must never
//! be an accident: this test pins the keys of a representative spec
//! grid against a committed fixture so drift fails CI loudly.
//!
//! The converse drift is worse: if a result moves while its key stays
//! put, every warm cache keeps serving the old bytes and nothing fails.
//! So the encoded `JobResult` of every grid spec is pinned too, at both
//! fidelities; a change that moves one must bump `SIM_VERSION` (Full)
//! or `SUMMARY_SIM_VERSION` (Summary) along with the fixture.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN_KEYS=1 cargo test -p engine --test golden_keys
//! UPDATE_GOLDEN_RESULTS=1 cargo test -p engine --test golden_keys
//! ```

use engine::{JobSpec, WorkloadSpec};
use policies::{Hysteresis, PolicyDesc, PredictorDesc, SpeedChange, VoltageRule};
use sim_core::{SimDuration, SimFidelity};
use workloads::Benchmark;

/// A fixed grid crossing every workload kind, predictor family member,
/// rule pair, threshold set and spec option the engine can address.
/// Append new specs at the end; never reorder or remove — the fixture
/// is a contract with every cache directory in existence.
fn golden_grid() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for b in Benchmark::ALL {
        specs.push(JobSpec::new(
            WorkloadSpec::Benchmark(b),
            PolicyDesc::constant_top(),
            30,
            1,
        ));
    }
    for p in [
        PredictorDesc::Past,
        PredictorDesc::AvgN(3),
        PredictorDesc::AvgN(9),
        PredictorDesc::Flat(0.7),
        PredictorDesc::LongShort,
        PredictorDesc::Aged(0.9),
        PredictorDesc::Cycle,
        PredictorDesc::Pattern,
        PredictorDesc::Peak,
    ] {
        specs.push(JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Mpeg),
            PolicyDesc::interval(p, Hysteresis::BEST, SpeedChange::Peg, SpeedChange::Peg),
            20,
            1,
        ));
    }
    for up in [SpeedChange::One, SpeedChange::Double, SpeedChange::Peg] {
        for th in [Hysteresis::PERING, Hysteresis::BEST] {
            specs.push(JobSpec::new(
                WorkloadSpec::Benchmark(Benchmark::Web),
                PolicyDesc::interval(PredictorDesc::AvgN(5), th, up, SpeedChange::Peg),
                15,
                7,
            ));
        }
    }
    for poller in [false, true] {
        specs.push(JobSpec::new(
            WorkloadSpec::WebBrowse { poller },
            PolicyDesc::interval(
                PredictorDesc::AvgN(3),
                Hysteresis::BEST,
                SpeedChange::One,
                SpeedChange::One,
            ),
            60,
            1,
        ));
    }
    specs.push(JobSpec::new(
        WorkloadSpec::MpegElastic,
        PolicyDesc::best_from_paper(),
        30,
        1,
    ));
    specs.push(
        JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Mpeg),
            PolicyDesc::best_from_paper(),
            30,
            1,
        )
        .with_quantum(SimDuration::from_millis(50)),
    );
    specs.push(JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Mpeg),
        PolicyDesc::best_from_paper().with_voltage_rule(VoltageRule { low_at_or_below: 5 }),
        30,
        1,
    ));
    // Seed sensitivity: same cell as the grid above, different seed.
    specs.push(JobSpec::new(
        WorkloadSpec::Benchmark(Benchmark::Web),
        PolicyDesc::interval(
            PredictorDesc::AvgN(5),
            Hysteresis::BEST,
            SpeedChange::One,
            SpeedChange::Peg,
        ),
        15,
        8,
    ));
    specs
}

/// Compares `actual` with `tests/fixtures/<file>` line by line and
/// fails with `drift` at the first difference. With `update_var` set in
/// the environment it rewrites the fixture instead.
fn assert_matches_fixture(file: &str, update_var: &str, actual: &str, drift: &str) {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os(update_var).is_some() {
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing tests/fixtures/{file} ({e}) — regenerate with \
             {update_var}=1 cargo test -p engine --test golden_keys"
        )
    });
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "\n{drift} (fixture line {})\n", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "fixture and golden grid disagree on line count — regenerate \
         the fixture with {update_var}=1 after appending specs"
    );
}

#[test]
fn content_keys_match_committed_fixture() {
    // One line per spec: `<key> <canonical>`.
    let actual: String = golden_grid()
        .iter()
        .map(|s| format!("{} {}\n", s.key(), s.canonical()))
        .collect();
    assert_matches_fixture(
        "golden_keys.txt",
        "UPDATE_GOLDEN_KEYS",
        &actual,
        "content key drift. Every existing cache entry and journal would \
         be orphaned by this change. If the simulator's semantics changed, \
         bump SIM_VERSION (crates/engine/src/job.rs) and regenerate the \
         fixture with UPDATE_GOLDEN_KEYS=1; if not, the canonicalisation \
         or hash changed by accident — fix that instead.",
    );
}

#[test]
fn results_match_committed_fixture() {
    // One line per spec and fidelity: `<fidelity> <grid index>
    // <encoded result>`. The index, not the key, names the spec, so a
    // version bump that moves no result leaves this fixture alone.
    let mut actual = String::new();
    for fidelity in [SimFidelity::Full, SimFidelity::Summary] {
        for (i, spec) in golden_grid().into_iter().enumerate() {
            let result = spec.with_fidelity(fidelity).execute();
            actual.push_str(&format!("{fidelity} {i:02} {}\n", result.encode()));
        }
    }
    assert_matches_fixture(
        "golden_results.txt",
        "UPDATE_GOLDEN_RESULTS",
        &actual,
        "results moved: bump SIM_VERSION / SUMMARY_SIM_VERSION \
         (crates/engine/src/job.rs), or fix the regression",
    );
}

#[test]
fn golden_grid_keys_are_unique() {
    let specs = golden_grid();
    let mut keys: Vec<_> = specs.iter().map(|s| s.key()).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), specs.len(), "key collision inside the grid");
}
