//! CLI smoke tests for the `repro` binary.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn results_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("itsy-dvs-repro-test-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fast_experiments_run_and_write_csv() {
    let dir = results_dir("fast");
    let out = repro()
        .env("REPRO_RESULTS_DIR", &dir)
        .args(["table3", "sa2", "fig5", "table1", "fig6"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 3"));
    assert!(text.contains("Scheduling Actions for the AVG_9 Policy"));
    // CSVs landed where REPRO_RESULTS_DIR pointed.
    assert!(dir.join("table3").join("memory_cycles.csv").exists());
    assert!(dir.join("fig5").join("going_idle.csv").exists());
}

#[test]
fn seed_flag_changes_stochastic_outputs() {
    let run = |seed: &str, tag: &str| {
        let dir = results_dir(tag);
        let out = repro()
            .env("REPRO_RESULTS_DIR", &dir)
            .args(["--seed", seed, "fig8"])
            .output()
            .unwrap();
        assert!(out.status.success());
        std::fs::read_to_string(dir.join("fig8").join("freq_mhz.csv")).unwrap()
    };
    let a = run("1", "seed1");
    let b = run("1", "seed1b");
    let c = run("2", "seed2");
    assert_eq!(a, b, "same seed must reproduce bit-identically");
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn unknown_experiment_exits_nonzero() {
    let out = repro().arg("nosuchexperiment").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
    // A bad argument anywhere in the list is caught before the first
    // experiment runs, `all` included, and so is a flag repro lacks.
    let dir = std::env::temp_dir().join("itsy-dvs-repro-test-unknown");
    for (args, named) in [
        (
            &["table3", "nosuchexperiment"][..],
            "unknown experiment: nosuchexperiment",
        ),
        (&["all", "--bogus"][..], "unknown option: --bogus"),
        (&["trace", "--profile"][..], "unknown option: --profile"),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let out = repro()
            .env("REPRO_RESULTS_DIR", &dir)
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!dir.exists(), "{args:?} wrote results");
    }
}

#[test]
fn a_bad_flag_value_exits_2_naming_the_flag() {
    for flag in ["--jobs", "--seed"] {
        let out = repro().args([flag, "x", "fig5"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("bad {flag} value: ")), "{stderr}");
    }
    // One second more than the simulated clock's microseconds can hold:
    // rejected before anything runs, never wrapped into a short run.
    let dir = results_dir("overflow");
    let _ = std::fs::remove_dir_all(dir.join("sweep"));
    for flag in [
        "--sweep-secs",
        "--trace-secs",
        "--optgap-secs",
        "--device-secs",
    ] {
        let out = repro()
            .env("REPRO_RESULTS_DIR", &dir)
            .args(["--no-cache", flag, "18446744073710", "sweep"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("bad {flag} value: ")), "{stderr}");
        assert!(stderr.contains("18446744073709 s"), "{stderr}");
        assert!(!dir.join("sweep").exists(), "{flag} wrote a sweep");
    }
}

/// Reads the first top-level occurrence of `"key": value` from a
/// metrics.json document (per-policy entries come last by design).
fn json_u64(doc: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {doc}"));
    doc[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("{key} not numeric: {e}"))
}

#[test]
fn metrics_json_tracks_cold_and_warm_cache_runs() {
    let dir = results_dir("metrics");
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let out = repro()
            .env("REPRO_RESULTS_DIR", &dir)
            .args(["--seed", "1", "--sweep-secs", "1", "sweep"])
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    let cold_stdout = run();
    assert!(
        cold_stdout.contains("metrics:"),
        "summary line missing:\n{cold_stdout}"
    );
    let cold = std::fs::read_to_string(dir.join("sweep").join("metrics.json")).unwrap();
    let total = json_u64(&cold, "total");
    assert!(total > 0);
    assert_eq!(json_u64(&cold, "executed"), total, "cold run simulates all");
    assert_eq!(json_u64(&cold, "cache_hits"), 0);

    let _ = run();
    let warm = std::fs::read_to_string(dir.join("sweep").join("metrics.json")).unwrap();
    assert_eq!(json_u64(&warm, "executed"), 0, "warm run simulates nothing");
    assert_eq!(
        json_u64(&warm, "cache_hits"),
        total,
        "every cell served from cache:\n{warm}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_export_is_identical_across_jobs_and_cache_state() {
    let dir = results_dir("trace");
    let _ = std::fs::remove_dir_all(&dir);
    let run = |jobs: &str| {
        let out = repro()
            .env("REPRO_RESULTS_DIR", &dir)
            .args(["--seed", "1", "--jobs", jobs, "--trace-secs", "1", "trace"])
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace_dir = dir.join("trace");
        (
            std::fs::read(trace_dir.join("fig3.csv")).unwrap(),
            std::fs::read(trace_dir.join("fig3.trace.json")).unwrap(),
        )
    };
    // First run lands on an empty results dir, second and third run
    // against whatever state the previous ones left behind, with a
    // different worker count: all three must produce identical bytes.
    let cold = run("1");
    let warm = run("4");
    assert_eq!(cold, warm, "trace must not depend on cache state or jobs");
    let again = run("2");
    assert_eq!(cold, again);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiet_flag_silences_engine_chatter() {
    let dir = results_dir("quiet");
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro()
        .env("REPRO_RESULTS_DIR", &dir)
        .args(["--seed", "1", "--sweep-secs", "1", "--quiet", "sweep"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("[sweep]"),
        "--quiet must silence progress lines, got:\n{stderr}"
    );
    // stdout tables and stats are unaffected by verbosity.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("engine:"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
