//! A long-lived daemon's memory does not grow with the number of jobs it
//! has run: the job table keeps live jobs plus a fixed number of recent
//! terminal records, and older jobs answer from their manifests. So the
//! peak RSS after 3,000 small jobs stays within 1 MiB of the peak after
//! 300.
//!
//! The test re-executes its own binary as a child, selected by the
//! [`CHILD_ENV`] variable, so the peak RSS (`VmHWM`) it reads belongs to
//! the daemon's jobs alone.
#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use nexsort_server::{JobInput, JobSpec, JobState, Server, ServerConfig};

/// Set in the child: the job directory to run the jobs in.
const CHILD_ENV: &str = "NEXSORT_JOB_TABLE_MEMORY_CHILD";
const TEST_NAME: &str = "daemon_peak_rss_does_not_grow_with_jobs_run";
/// Jobs run before the first reading, and in all.
const WARM_JOBS: usize = 300;
const ALL_JOBS: usize = 3_000;
/// Allowed growth of the peak between the two readings.
const SLACK_KIB: u64 = 1024;

fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmHWM value")
}

/// A scratch directory removed when the test ends, passing or not.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Job `i`'s document: a few elements in an order that depends on `i`.
fn doc(i: usize) -> Vec<u8> {
    let mut xml = String::from("<r>");
    for j in 0..8 {
        xml.push_str(&format!("<x k=\"{}\">v{j}</x>", (i * 7 + j * 5) % 8));
    }
    xml.push_str("</r>");
    xml.into_bytes()
}

/// Submit, wait for and fetch one job, as a client would.
fn run_job(server: &Server, i: usize) {
    let spec = JobSpec {
        input: JobInput::Inline(doc(i)),
        default_rule: Some("@k".into()),
        block_size: 512,
        mem_frames: 8,
        ..JobSpec::default()
    };
    let id = server.submit(spec).unwrap_or_else(|e| panic!("job {i} refused: {e}"));
    let st = server.wait(id, Duration::from_secs(60)).expect("job exists");
    assert_eq!(st.state, JobState::Done, "job {i}: {:?}", st.error);
    let (chunk, total, eof) = server.fetch_output_chunk(id, 0, 1 << 16).expect("fetch");
    assert!(eof && chunk.len() as u64 == total && chunk.starts_with(b"<r>"));
}

#[test]
fn daemon_peak_rss_does_not_grow_with_jobs_run() {
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        let server = Server::start(ServerConfig::new(2, dir)).expect("start the daemon");
        for i in 0..WARM_JOBS {
            run_job(&server, i);
        }
        let warm = peak_rss_kib();
        for i in WARM_JOBS..ALL_JOBS {
            run_job(&server, i);
        }
        let all = peak_rss_kib();
        assert_eq!(server.stats().done, ALL_JOBS);
        server.shutdown();
        // On a line of its own: the harness has already printed "test NAME ...".
        println!("\npeak-rss-kib {warm} {all}");
        return;
    }
    let dir = ScratchDir(
        std::env::temp_dir().join(format!("nexsort-job-table-memory-{}", std::process::id())),
    );
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", TEST_NAME, "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, &dir.0)
        .output()
        .expect("spawn the child daemon");
    let stdout = String::from_utf8_lossy(&child.stdout);
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "child daemon failed: {stdout}\n{stderr}");
    let peaks: Vec<u64> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak-rss-kib "))
        .map(|kib| kib.split_whitespace().filter_map(|k| k.parse().ok()).collect())
        .unwrap_or_default();
    let [warm, all] = peaks[..] else {
        panic!("no peak-rss-kib line in the child's output: {stdout}");
    };
    eprintln!(
        "job table memory: peak RSS {warm} KiB after {WARM_JOBS} jobs, {all} KiB after {ALL_JOBS}"
    );
    assert!(
        all <= warm + SLACK_KIB,
        "peak RSS grew from {warm} KiB after {WARM_JOBS} jobs to {all} KiB after {ALL_JOBS} \
         (more than {SLACK_KIB} KiB)"
    );
}
