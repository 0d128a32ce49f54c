//! An engine job's memory stays flat in its simulated length: the
//! kernel keeps deadline counters, not records, for a job, so one MPEG
//! job under the paper's best policy peaks within 1 MB at 36,000 s of
//! its peak at 300 s.
//!
//! Each job runs alone in a child process of this test binary, which
//! reports its own peak resident set (`VmHWM`): a sibling test's panic
//! in a shared process would raise the high-water mark on its own.

use std::process::Command;

use engine::{JobSpec, WorkloadSpec};
use policies::PolicyDesc;
use workloads::Benchmark;

/// Set in a child to the simulated seconds of the job it runs.
const CHILD_SECS: &str = "ENGINE_JOB_MEMORY_SECS";

/// This process's peak resident set, kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = (status.lines())
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("VmHWM line");
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM in kB")
}

/// Runs one MPEG job of `secs` in a child and returns the frames it
/// showed and the child's peak resident set, kB.
fn child_peak(secs: u64) -> (u64, u64) {
    let out = Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", "an_mpeg_jobs_peak_is_flat_in_its_length"])
        .args(["--nocapture", "--test-threads=1"])
        .env(CHILD_SECS, secs.to_string())
        .env_remove("RUST_BACKTRACE")
        .output()
        .expect("run the child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child at {secs} s failed: {stdout}");
    let line = (stdout.lines())
        .find_map(|l| l.split_once("job-memory ").map(|(_, report)| report))
        .unwrap_or_else(|| panic!("no report from the child at {secs} s: {stdout}"));
    let mut fields = line.split(' ').map(|f| f.parse().expect("a count"));
    (fields.next().expect("frames"), fields.next().expect("peak"))
}

#[test]
fn an_mpeg_jobs_peak_is_flat_in_its_length() {
    if let Ok(secs) = std::env::var(CHILD_SECS) {
        let secs = secs.parse().expect("seconds");
        let spec = JobSpec::new(
            WorkloadSpec::Benchmark(Benchmark::Mpeg),
            PolicyDesc::best_from_paper(),
            secs,
            1,
        );
        let result = spec.execute();
        println!("job-memory {} {}", result.frames_shown, vm_hwm_kb());
        return;
    }
    let (short_frames, short_kb) = child_peak(300);
    let (long_frames, long_kb) = child_peak(36_000);
    assert!(
        long_frames >= 100 * short_frames,
        "the long job showed {long_frames} frames, the short one {short_frames}"
    );
    assert!(
        long_kb <= short_kb + 1024,
        "an MPEG job peaked at {long_kb} kB at 36,000 s against {short_kb} kB at 300 s"
    );
}
