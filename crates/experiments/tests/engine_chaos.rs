//! Chaos suite: real sweep grids under seeded fault plans.
//!
//! The engine's crash-safety contract, stated as an invariant: under
//! *any* fault plan the injector can produce — cache read errors,
//! bit-flipped and truncated records, cache write errors, torn journal
//! writes, up to `max_panics` worker panics per job — a sweep
//! completes and its final CSV is **byte-identical** to a fault-free
//! run. Faults may cost recomputation; they may never cost
//! correctness. Every test here also asserts faults actually fired,
//! so a regression in the injector can't make the suite vacuously
//! green.

use engine::{Engine, EngineConfig, FaultPlan, ResultCache};
use experiments::sweep::{self, SweepConfig};
use workloads::Benchmark;

/// 2 baselines + 2x2x2x2x1 = 18 short cells: big enough to give every
/// fault site real traffic, small enough for CI.
fn grid() -> SweepConfig {
    SweepConfig {
        benchmarks: vec![Benchmark::Mpeg, Benchmark::Web],
        ns: vec![0, 3],
        rules: vec![policies::SpeedChange::One, policies::SpeedChange::Peg],
        thresholds: vec![policies::Hysteresis::BEST],
        secs: 3,
    }
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "experiments-chaos-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fault-free answer the chaotic runs must reproduce exactly.
fn reference_csv() -> String {
    let (s, stats, _) = sweep::run_with(&Engine::new(EngineConfig::hermetic()), &grid(), 1);
    assert_eq!(stats.failed, 0);
    assert!(s.failed.is_empty());
    s.csv()
}

#[test]
fn chaos_plans_never_change_the_csv() {
    let reference = reference_csv();
    for plan_seed in [1u64, 7, 1234] {
        let root = temp_root(&format!("plan{plan_seed}"));
        let config = EngineConfig {
            jobs: 4,
            use_cache: true,
            state_root: Some(root.clone()),
            faults: Some(FaultPlan::chaos(plan_seed)),
            ..EngineConfig::hermetic()
        };
        // Cold: write errors, torn journal writes and panics fire.
        let (cold, cold_stats, _) = sweep::run_with(&Engine::new(config.clone()), &grid(), 1);
        assert_eq!(
            cold_stats.failed, 0,
            "plan {plan_seed}: retries must absorb panics"
        );
        assert!(cold.failed.is_empty());
        assert_eq!(
            cold.csv(),
            reference,
            "plan {plan_seed}: cold chaotic run diverged from fault-free CSV"
        );
        // Warm: read errors, corruption and truncation now hit the
        // records the cold run managed to store.
        let (warm, warm_stats, _) = sweep::run_with(&Engine::new(config), &grid(), 1);
        assert_eq!(warm_stats.failed, 0);
        assert_eq!(
            warm.csv(),
            reference,
            "plan {plan_seed}: warm chaotic run diverged from fault-free CSV"
        );
        assert_eq!(cold_stats.total, warm_stats.total, "same grid both rounds");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn chaos_plans_actually_inject_and_stay_deterministic() {
    // Drive run_batch directly so the injector's own accounting is
    // visible, and pin the two replay guarantees: the same plan fires
    // the same faults whatever the worker count, and the results stay
    // bit-identical to a fault-free batch either way.
    let specs = sweep::specs(&grid(), 1);
    let clean = Engine::new(EngineConfig::hermetic()).run_batch("chaos", &specs);

    let run = |jobs: usize| {
        Engine::new(EngineConfig {
            jobs,
            faults: Some(FaultPlan::chaos(42)),
            ..EngineConfig::hermetic()
        })
        .run_batch("chaos", &specs)
    };
    let serial = run(1);
    let parallel = run(8);

    assert!(
        serial.faults.total() > 0,
        "chaos plan injected nothing — the suite is vacuous"
    );
    assert!(serial.faults.panics > 0, "panic site never exercised");
    assert_eq!(
        serial.faults, parallel.faults,
        "1 and 8 workers must draw the identical fault sequence"
    );
    assert_eq!(serial.results, clean.results);
    assert_eq!(parallel.results, clean.results);
    assert_eq!(serial.stats.failed, 0);
}

#[test]
fn corrupted_cache_entries_are_quarantined_and_recomputed() {
    let root = temp_root("quarantine");
    let config = EngineConfig {
        jobs: 2,
        use_cache: true,
        state_root: Some(root.clone()),
        ..EngineConfig::hermetic()
    };
    let (cold, cold_stats, _) = sweep::run_with(&Engine::new(config.clone()), &grid(), 1);
    assert_eq!(cold_stats.executed, cold_stats.total);

    // Flip one byte in the payload of every stored record — real
    // on-disk damage, not injected: the shape of a failing disk or an
    // interrupted write.
    let log = ResultCache::new(root.join("cache")).log_path();
    let mut bytes = std::fs::read(&log).expect("read cache log");
    let mut damaged = 0usize;
    for record in bytes.split_mut(|&b| b == b'\n').filter(|r| !r.is_empty()) {
        // `<key> <crc> <payload>`: the payload follows the second space.
        let (second_space, _) = (record.iter().enumerate())
            .filter(|&(_, &b)| b == b' ')
            .nth(1)
            .expect("framed record");
        let mid = second_space + 1 + (record.len() - second_space - 1) / 2;
        record[mid] ^= 0x10;
        damaged += 1;
    }
    std::fs::write(&log, &bytes).expect("write damage");
    assert_eq!(damaged, cold_stats.total, "one record per cell");

    // Warm run: every probe sees a damaged record → quarantine and
    // recompute, never serve bad bytes, never crash.
    let (warm, warm_stats, _) = sweep::run_with(&Engine::new(config.clone()), &grid(), 1);
    assert_eq!(
        warm_stats.quarantined, damaged,
        "every damaged record caught"
    );
    assert_eq!(warm_stats.cache_hits, 0);
    assert_eq!(warm_stats.executed, warm_stats.total, "all recomputed");
    assert_eq!(
        warm.csv(),
        cold.csv(),
        "recomputed bits match the originals"
    );

    // Recomputation healed the cache: a third run is pure hits.
    let (_, healed_stats, _) = sweep::run_with(&Engine::new(config), &grid(), 1);
    assert_eq!(healed_stats.cache_hits, healed_stats.total);
    assert_eq!(healed_stats.quarantined, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn hostile_plan_fails_cells_without_killing_the_sweep() {
    // A plan harsher than the retry budget: cells fail, but run_with
    // still returns, names every casualty, and keeps the survivors.
    let root = temp_root("hostile");
    let (s, stats, _) = sweep::run_with(
        &Engine::new(EngineConfig {
            jobs: 4,
            max_retries: 0,
            state_root: Some(root.clone()),
            faults: Some(FaultPlan {
                seed: 5,
                panic: 0.3,
                max_panics: 1,
                ..FaultPlan::default()
            }),
            ..EngineConfig::hermetic()
        }),
        &grid(),
        1,
    );
    assert!(
        stats.failed > 0,
        "a 30% one-panic plan with no retries must fail cells"
    );
    assert_eq!(stats.failed + stats.executed, stats.total);
    assert!(!s.failed.is_empty());
    // The survivors' rows still render (unless a baseline died, which
    // drops its workload's rows — also a graceful outcome).
    assert!(s.cells.len() <= stats.executed);
    let _ = std::fs::remove_dir_all(&root);
}
