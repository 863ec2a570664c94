//! The memory budget bounds the real process: `xsort sort --device F --mem
//! 1M` over a generated document of about 15 MB must peak below the budget
//! plus a fixed constant, because staging, sorting and output all stream
//! the document instead of holding it.
//!
//! The test re-executes its own binary as a child, selected by the
//! [`CHILD_ENV`] variable, so the peak RSS (`VmHWM`) it reads belongs to one
//! sort alone.
#![cfg(target_os = "linux")]

use std::path::{Path, PathBuf};
use std::process::Command;

use nexsort_cli::app::{parse_args, run_code};

/// Set in the child: the `xsort` arguments, separated by newlines.
const CHILD_ENV: &str = "NEXSORT_MEMORY_BOUND_CHILD";
const TEST_NAME: &str = "sort_peak_rss_stays_within_mem_plus_a_constant";
/// The sort's `--mem` budget, in MiB.
const MEM_MIB: u64 = 1;
/// Everything besides the budget: the process image and test harness,
/// allocator slack, block buffers, and the records of a subtree sorted in
/// memory. The whole-document copies this test guards against cost
/// several times the input size (about 97 MiB for this input).
const FIXED_MIB: u64 = 24;

fn xsort(args: &[&str]) {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| panic!("bad arguments {args:?}: {e}"));
    if let Err(e) = run_code(&cli) {
        panic!("xsort {args:?} failed: {}", e.message);
    }
}

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

fn len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap_or_else(|e| panic!("{path:?}: {e}")).len()
}

#[test]
fn sort_peak_rss_stays_within_mem_plus_a_constant() {
    if let Ok(args) = std::env::var(CHILD_ENV) {
        xsort(&args.lines().collect::<Vec<_>>());
        // On a line of its own: the harness has already printed "test NAME ...".
        println!("\npeak-rss-kib {}", peak_rss_kib());
        return;
    }
    let dir = ScratchDir(
        std::env::temp_dir().join(format!("nexsort-memory-bound-{}", std::process::id())),
    );
    std::fs::create_dir_all(&dir.0).unwrap();
    let (input, output, device) = (dir.0.join("in.xml"), dir.0.join("out.xml"), dir.0.join("dev"));
    let (input_s, output_s, device_s) =
        (input.to_str().unwrap(), output.to_str().unwrap(), device.to_str().unwrap());
    xsort(&["gen", "exact:70,70,20", "--seed", "1", "-o", input_s]);
    assert!(len(&input) >= 12_000_000, "input is {} bytes", len(&input));

    let mem = format!("{MEM_MIB}M");
    let sort = ["sort", input_s, "-o", output_s, "--default", "@k", "--device", device_s, "--mem"];
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", TEST_NAME, "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, [&sort[..], &[mem.as_str()]].concat().join("\n"))
        .output()
        .expect("spawn the child sort");
    let stdout = String::from_utf8_lossy(&child.stdout);
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "child sort failed: {stdout}\n{stderr}");
    let peak_kib: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak-rss-kib "))
        .and_then(|kib| kib.trim().parse().ok())
        .unwrap_or_else(|| panic!("no peak-rss-kib line in the child's output: {stdout}"));
    // A sort permutes the document, so the compact output is as long as
    // the input.
    assert_eq!(len(&output), len(&input));

    let bound_kib = (MEM_MIB + FIXED_MIB) * 1024;
    eprintln!("memory bound: peak RSS {peak_kib} KiB, bound {bound_kib} KiB");
    assert!(
        peak_kib < bound_kib,
        "peak RSS {peak_kib} KiB exceeds --mem {MEM_MIB} MiB + {FIXED_MIB} MiB = {bound_kib} KiB"
    );
}
