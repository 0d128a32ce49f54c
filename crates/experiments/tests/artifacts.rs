//! Every deterministic artifact `repro` writes, pinned by digest.
//!
//! The test runs `repro --no-cache all`, `repro trace` and a
//! 2,000-device `repro fleet` at each fidelity into temporary results
//! directories, hashes every file they write and compares the list with
//! `tests/fixtures/artifacts.txt`: one `<path> <FNV-1a 64 hex>` line
//! per file, sorted by path. A byte that moves anywhere in the tree
//! fails the test and names the file.
//!
//! A `metrics.json` is hashed with each value that measures wall-clock
//! time, the host or its memory replaced by `_` ([`VOLATILE`]): its keys,
//! their order and every count it reports stay pinned, while a run's
//! timing does not move the digest.
//!
//! The digest is written here rather than borrowed from the engine, so
//! that a change to the engine's hashing cannot move the fixture. To
//! regenerate after an intentional change (which must come with a
//! `SIM_VERSION` / `SUMMARY_SIM_VERSION` bump when results move):
//!
//! ```text
//! UPDATE_ARTIFACTS=1 cargo test -p experiments --test artifacts
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The runs, each into its own results directory named by the tag.
const RUNS: [(&str, &[&str]); 4] = [
    ("all", &["--no-cache", "all"]),
    ("trace", &["trace"]),
    ("fleet-summary", &["fleet", "--devices", "2000"]),
    (
        "fleet-full",
        &["fleet", "--devices", "2000", "--fidelity", "full"],
    ),
];

/// `metrics.json` keys whose values are wall-clock time (rates, latencies,
/// profiler stages) or the host's memory, and so move run to run.
const VOLATILE: [&str; 10] = [
    "jobs_per_sec",
    "sim_per_wall",
    "wall_us",
    "peak_rss_bytes",
    "job_latency_p50_us",
    "job_latency_p90_us",
    "job_latency_p99_us",
    "job_latency_max_us",
    "total_us",
    "share",
];

/// `json` with the value of every [`VOLATILE`] key replaced by `_`; keys,
/// their order and every other value are kept as written. A string
/// runs to its first unescaped quote, and a masked value to the next
/// `,`, `}` or line end.
fn mask_volatile(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(open) = rest.find('"') {
        let body = &rest[open + 1..];
        let mut escaped = false;
        let close = body
            .find(|c| {
                let end = c == '"' && !escaped;
                escaped = c == '\\' && !escaped;
                end
            })
            .expect("every string in metrics.json is closed");
        let (string, tail) = rest.split_at(open + close + 2);
        out.push_str(string);
        rest = tail;
        let key = &body[..close];
        if let Some(value) = tail.strip_prefix(": ").filter(|_| VOLATILE.contains(&key)) {
            out.push_str(": _");
            rest = &value[value.find([',', '}', '\n']).unwrap_or(value.len())..];
        }
    }
    out.push_str(rest);
    out
}

/// FNV-1a 64.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every file under `dir`, as paths relative to `root`.
fn files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("results directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files(root, &path, out);
        } else {
            out.push(path.strip_prefix(root).expect("under root").to_path_buf());
        }
    }
}

/// `path -> digest` over every artifact the runs write.
fn digests() -> BTreeMap<String, String> {
    let root = std::env::temp_dir().join(format!("itsy-dvs-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (tag, args) in RUNS {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .env("REPRO_RESULTS_DIR", root.join(tag))
            .args(["--quiet", "--jobs", "2"])
            .args(args)
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "repro {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut paths = Vec::new();
    files(&root, &root, &mut paths);
    let digests = paths
        .into_iter()
        .map(|p| {
            let mut bytes = std::fs::read(root.join(&p)).expect("artifact is readable");
            if p.file_name().is_some_and(|n| n == "metrics.json") {
                let json = String::from_utf8(bytes).expect("metrics.json is UTF-8");
                bytes = mask_volatile(&json).into_bytes();
            }
            let name = p.to_str().expect("UTF-8 path").replace('\\', "/");
            (name, format!("{:016x}", fnv1a64(&bytes)))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    digests
}

#[test]
fn masking_keeps_keys_and_counts_but_not_timings() {
    let json = "{\n  \"batch\": \"sweep\",\n  \"total\": 50,\n  \"wall_us\": 9136,\n  \
                \"job_latency_p50_us\": 155.551662,\n  \"stages\": [\n    \
                {\"stage\": \"a \\\"b\\\"\", \"total_us\": 12, \"share\": 0.500000}\n  ],\n  \
                \"per_policy\": [\n    {\"policy\": \"PAST\", \"cells\": 2}\n  ]\n}\n";
    let masked = mask_volatile(json);
    assert_eq!(
        masked,
        "{\n  \"batch\": \"sweep\",\n  \"total\": 50,\n  \"wall_us\": _,\n  \
         \"job_latency_p50_us\": _,\n  \"stages\": [\n    \
         {\"stage\": \"a \\\"b\\\"\", \"total_us\": _, \"share\": _}\n  ],\n  \
         \"per_policy\": [\n    {\"policy\": \"PAST\", \"cells\": 2}\n  ]\n}\n"
    );
    let retimed = json.replace("9136", "77").replace("155.551662", "1.0");
    assert_eq!(mask_volatile(&retimed), masked, "a timing moves no digest");
    let recounted = json.replace("\"cells\": 2", "\"cells\": 3");
    assert_ne!(mask_volatile(&recounted), masked, "a count does");
    let reordered = json.replace(
        "\"batch\": \"sweep\",\n  \"total\": 50,",
        "\"total\": 50,\n  \"batch\": \"sweep\",",
    );
    assert_ne!(mask_volatile(&reordered), masked, "and so does key order");
}

#[test]
fn artifact_tree_matches_committed_digests() {
    let actual = digests();
    let fixture = format!(
        "{}/tests/fixtures/artifacts.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_ARTIFACTS").is_some() {
        let text: String = actual.iter().map(|(p, d)| format!("{p} {d}\n")).collect();
        std::fs::write(&fixture, text).expect("write fixture");
        return;
    }
    let text = std::fs::read_to_string(&fixture).unwrap_or_else(|e| {
        panic!("missing {fixture} ({e}); regenerate it with UPDATE_ARTIFACTS=1")
    });
    let expected: BTreeMap<String, String> = text
        .lines()
        .map(|l| {
            let (p, d) = l.split_once(' ').expect("`<path> <digest>` line");
            (p.to_string(), d.to_string())
        })
        .collect();
    let mut problems = Vec::new();
    for (path, want) in &expected {
        match actual.get(path) {
            None => problems.push(format!("missing: {path}")),
            Some(got) if got != want => problems.push(format!("moved:   {path}")),
            Some(_) => {}
        }
    }
    for path in actual.keys().filter(|p| !expected.contains_key(*p)) {
        problems.push(format!("extra:   {path}"));
    }
    assert!(
        problems.is_empty(),
        "{} artifact(s) differ from tests/fixtures/artifacts.txt:\n  {}\n\
         bump SIM_VERSION / SUMMARY_SIM_VERSION, or fix the regression \
         (regenerate with UPDATE_ARTIFACTS=1)",
        problems.len(),
        problems.join("\n  ")
    );
}
