//! Every deterministic artifact `repro` writes, pinned by digest.
//!
//! The test runs `repro --no-cache all`, `repro trace` and a
//! 2,000-device `repro fleet` at each fidelity into temporary results
//! directories, hashes every file they write except `metrics.json`
//! (its wall-clock fields move run to run) and compares the list with
//! `tests/fixtures/artifacts.txt`: one `<path> <FNV-1a 64 hex>` line
//! per file, sorted by path. A byte that moves anywhere in the tree
//! fails the test and names the file.
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
        .filter(|p| p.file_name().is_some_and(|n| n != "metrics.json"))
        .map(|p| {
            let bytes = std::fs::read(root.join(&p)).expect("artifact is readable");
            let name = p.to_str().expect("UTF-8 path").replace('\\', "/");
            (name, format!("{:016x}", fnv1a64(&bytes)))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    digests
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
