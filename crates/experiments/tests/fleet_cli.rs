//! End-to-end tests for `repro fleet`: summary-byte determinism across
//! worker counts, cache state and injected chaos, plus the
//! flat-memory claim measured over a 10x population growth.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn results_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itsy-dvs-fleet-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro fleet --devices <devices>` with the given extra args;
/// returns the canonical summary bytes and the run's `metrics.json`.
fn run_fleet(tag: &str, devices: &str, extra: &[&str]) -> (String, String) {
    let dir = results_dir(tag);
    let out = repro()
        .env("REPRO_RESULTS_DIR", &dir)
        .args(["--quiet", "--seed", "7", "fleet", "--devices", devices])
        .args(extra)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro fleet failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = std::fs::read_to_string(dir.join("fleet").join("population_summary.txt"))
        .expect("summary written");
    let metrics =
        std::fs::read_to_string(dir.join("fleet").join("metrics.json")).expect("metrics written");
    let _ = std::fs::remove_dir_all(&dir);
    (summary, metrics)
}

#[test]
fn summary_bytes_are_identical_across_worker_counts() {
    let (one, metrics) = run_fleet("jobs1", "40", &["--jobs", "1"]);
    assert!(one.starts_with("fleet-summary v1 devices=40 failed=0\n"));
    assert!(
        metrics.contains("\"peak_rss_bytes\""),
        "metrics.json missing RSS probe:\n{metrics}"
    );
    for jobs in ["4", "8"] {
        let (many, _) = run_fleet(&format!("jobs{jobs}"), "40", &["--jobs", jobs]);
        assert_eq!(one, many, "summary bytes differ at --jobs {jobs}");
    }
}

#[test]
fn summary_bytes_survive_cache_state_and_chaos() {
    // Streaming never touches the cache, so hit/miss state cannot leak
    // in — but prove it end-to-end: a run with the cache disabled and a
    // run right after a cache-populating sweep must both match.
    let (plain, _) = run_fleet("plain", "40", &[]);
    let (no_cache, _) = run_fleet("nocache", "40", &["--no-cache"]);
    assert_eq!(plain, no_cache, "cache flag must not change the bytes");

    // Injected worker panics with retries enabled: same bytes.
    // max_panics=2 matches the engine's default retry budget, so every
    // job is *guaranteed* to complete within its retries — the test
    // must hold for any job-key set, not just a lucky seed.
    let (chaotic, _) = run_fleet(
        "chaos",
        "40",
        &[
            "--jobs",
            "4",
            "--fault-plan",
            "seed=3,panic=0.5,max_panics=2",
        ],
    );
    assert_eq!(plain, chaotic, "chaos with retries must not change bytes");
}

/// `metrics.json` carries the fleet's true switch totals: its clock
/// switches equal what `fleet.csv` implies (devices × mean switches per
/// second × seconds per device), and `per_policy` covers every device.
#[test]
fn metrics_totals_match_the_fleet_csv() {
    let dir = results_dir("totals");
    let out = repro()
        .env("REPRO_RESULTS_DIR", &dir)
        .args(["--quiet", "--seed", "7", "fleet", "--devices", "40"])
        .args(["--device-secs", "2", "--jobs", "2"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro fleet failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| std::fs::read_to_string(dir.join("fleet").join(name)).unwrap();
    let (csv, metrics) = (read("fleet.csv"), read("metrics.json"));
    let _ = std::fs::remove_dir_all(&dir);

    let row: Vec<f64> = csv
        .lines()
        .find_map(|l| l.strip_prefix("clock_switches_per_sec,"))
        .expect("fleet.csv has a clock_switches_per_sec row")
        .split(',')
        .map(|v| v.parse().expect("numeric column"))
        .collect();
    let (count, mean) = (row[0], row[1]);
    let implied = (count * mean * 2.0).round() as u64;
    // The first occurrence of a key is the top-level one: per_policy
    // comes last.
    let field = |json: &str, key: &str| -> u64 {
        json.split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|rest| rest.split(&[',', '\n', '}'][..]).next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {key} in:\n{json}"))
    };
    assert!(implied > 0, "the fleet switches its clock:\n{csv}");
    assert_eq!(field(&metrics, "clock_switches"), implied, "{metrics}");
    let per_policy = metrics
        .split("\"per_policy\": [")
        .nth(1)
        .expect("per_policy array");
    assert_eq!(per_policy.matches("\"policy\": ").count(), 1, "{metrics}");
    assert_eq!(field(per_policy, "cells"), 40, "{metrics}");
}

#[test]
fn seed_and_size_change_the_population() {
    let (base, _) = run_fleet("base", "40", &[]);
    let dir = results_dir("seed9");
    let out = repro()
        .env("REPRO_RESULTS_DIR", &dir)
        .args(["--quiet", "--seed", "9", "fleet", "--devices", "40"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let reseeded =
        std::fs::read_to_string(dir.join("fleet").join("population_summary.txt")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_ne!(base, reseeded, "a different seed is a different fleet");

    let (smaller, _) = run_fleet("small", "12", &[]);
    assert!(smaller.starts_with("fleet-summary v1 devices=12 "));
}

/// `peak_rss_bytes` from a run's `metrics.json`.
fn peak_rss(metrics: &str) -> u64 {
    let rss = metrics
        .split("\"peak_rss_bytes\": ")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '\n'][..]).next())
        .and_then(|v| v.trim().parse().ok())
        .expect("metrics.json records peak_rss_bytes");
    assert!(rss > 0, "the RSS probe must read VmHWM:\n{metrics}");
    rss
}

/// Neither fidelity keeps per-tick series in the engine, so a device's
/// memory does not grow with its simulated length at either one. With
/// per-device horizons long enough that series would dominate, a
/// full-fidelity fleet must peak within 10 % of the same fleet at
/// summary fidelity. Each fidelity runs in its own `repro` subprocess:
/// the VmHWM probe is a process-wide high-water mark, so two runs in
/// one process would alias to the larger.
#[test]
fn fidelity_does_not_change_fleet_peak_rss() {
    let rss_of = |fidelity: &str| {
        let args = [
            "--device-secs",
            "240",
            "--fidelity",
            fidelity,
            "--jobs",
            "1",
        ];
        peak_rss(&run_fleet(&format!("rss-{fidelity}"), "40", &args).1)
    };
    let (full, summary) = (rss_of("full"), rss_of("summary"));
    assert!(
        full as f64 <= summary as f64 * 1.1,
        "full fidelity out-peaks summary: {full} vs {summary} bytes"
    );
}

/// The bounded-memory claim: peak RSS after streaming 10x the devices
/// must stay within a small constant factor. Each population runs in
/// its own `repro` subprocess and reads its own high-water mark, so
/// nothing else in this test binary (another test's panic backtrace,
/// say) can inflate either number.
#[test]
fn peak_rss_is_flat_in_device_count() {
    let rss_of = |devices: &str| {
        peak_rss(&run_fleet(&format!("rss-{devices}"), devices, &["--jobs", "2"]).1)
    };
    let (small, large) = (rss_of("10000"), rss_of("100000"));
    let ratio = large as f64 / small as f64;
    assert!(
        ratio < 1.5,
        "peak RSS grew {ratio:.2}x over a 10x population \
         ({small} -> {large} bytes); streaming must stay flat"
    );
}
