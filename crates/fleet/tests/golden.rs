//! Golden snapshot of fleet output bytes.
//!
//! `population_summary.txt`, `fleet.csv` and `fleet_timeline.csv` are
//! all rendered from a [`FleetAccum`]: the whole-run
//! [`FleetSummary::encode`](sim_core::FleetSummary::encode) plus each
//! timeline window's bounds and encoding. This test pins that state for
//! two fixed populations — 400 devices at Summary fidelity and 50 at
//! Full fidelity, both with the `repro fleet` timeline — against a
//! committed fixture, in the same layout the benchmark digests. A
//! change to the sketches, the fold or the kernel that moves a single
//! byte fails here, in `cargo test`, rather than only in CI's smoke
//! runs.
//!
//! On a mismatch the actual bytes are written next to the test binary
//! (the path is in the failure message). If the move is intended,
//! bump `SIM_VERSION`/`SUMMARY_SIM_VERSION` and copy that file over
//! `tests/fixtures/golden_fleet.txt`.

use engine::{Engine, EngineConfig};
use fleet::{FleetAccum, PopulationConfig, TIMELINE_WINDOWS};
use sim_core::SimFidelity;

/// The populations the fixture pins, in fixture order.
fn populations() -> [(&'static str, PopulationConfig); 2] {
    [
        ("summary", PopulationConfig::new(400, 7)),
        (
            "full",
            PopulationConfig::new(50, 7).with_fidelity(SimFidelity::Full),
        ),
    ]
}

/// The whole-run encoding, then each window's bounds and encoding.
fn render(acc: &FleetAccum) -> String {
    let mut out = acc.summary.encode();
    for w in &acc.windows {
        out.push_str(&format!("{} {}\n", w.start_us, w.end_us));
        out.push_str(&w.summary.encode());
    }
    out
}

fn actual() -> String {
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        timeline_windows: TIMELINE_WINDOWS,
        ..EngineConfig::hermetic()
    });
    let mut out = String::new();
    for (name, population) in populations() {
        let outcome = fleet::run(&engine, "fleet-golden", &population);
        assert_eq!(outcome.stats.failed, 0, "{name}: every device simulates");
        out.push_str(&format!(
            "# population {name}: devices={} seed={} windows={TIMELINE_WINDOWS}\n",
            population.devices, population.seed
        ));
        out.push_str(&render(&outcome.acc));
    }
    out
}

#[test]
fn fleet_bytes_match_committed_fixture() {
    let expected = include_str!("fixtures/golden_fleet.txt");
    let actual = actual();
    if actual == expected {
        return;
    }
    let dump = concat!(env!("CARGO_TARGET_TMPDIR"), "/golden_fleet.actual.txt");
    std::fs::write(dump, &actual).expect("write actual fleet bytes");
    let line = expected
        .lines()
        .zip(actual.lines())
        .position(|(want, got)| want != got)
        .map_or_else(|| "the end".to_string(), |i| format!("line {}", i + 1));
    panic!(
        "fleet bytes moved: fix the regression, or bump \
         SIM_VERSION/SUMMARY_SIM_VERSION and regenerate \
         (first difference at {line} of tests/fixtures/golden_fleet.txt; \
         actual bytes written to {dump})"
    );
}
