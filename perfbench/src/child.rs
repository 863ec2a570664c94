//! Child processes: the benchmark re-runs its own executable in a child
//! mode that calls `nexsort_cli::app::run_code` (exactly what `xsort` does),
//! so every measured sort and every daemon is a fresh process whose peak
//! RSS is its own.

use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use nexsort_cli::app::{parse_args, run_code};

/// Child mode: run `xsort ARGS...` in this process.
pub const XSORT: &str = "__xsort";
/// Child mode: run the traced one-shot sort of `xsort sort ARGS...`.
pub const TRACED_SORT: &str = "__traced-sort";

/// Line a sort child prints when its output file is closed, followed by
/// its peak RSS in KiB.
pub const DONE: &str = "done";

/// A running child that is killed and reaped if dropped unfinished.
pub struct Proc {
    child: Child,
}

impl Proc {
    /// Start this executable in child `mode` with `args`; stdout is piped,
    /// stderr goes to `stderr_file`.
    pub fn start(mode: &str, args: &[String], stderr_file: &Path) -> Result<Proc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let err = std::fs::File::create(stderr_file)
            .map_err(|e| format!("cannot create {stderr_file:?}: {e}"))?;
        let child = Command::new(exe)
            .arg(mode)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn() // xlint::allow(R13): the benchmark's measured child process.
            .map_err(|e| format!("cannot start child: {e}"))?;
        Ok(Proc { child })
    }

    /// The child's process id.
    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// The child's stdout, once.
    pub fn stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.stdout.take()
    }

    /// Wait up to `limit` for the child to exit; kill it after that.
    pub fn finish(mut self, limit: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("child did not exit within {limit:?}; killed"));
                }
                Err(e) => return Err(format!("waiting for child: {e}")),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` (peak resident set) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Child mode [`XSORT`]: `xsort ARGS...`, then the [`DONE`] line.
pub fn xsort_main(args: &[String]) -> i32 {
    let cli = match parse_args(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    match run_code(&cli) {
        Ok(()) => match peak_rss_kib("self") {
            Ok(kib) => {
                println!("{DONE} {kib}");
                0
            }
            Err(e) => {
                eprintln!("{e}");
                1
            }
        },
        Err(e) => {
            eprintln!("xsort: {}", e.message);
            i32::from(e.code)
        }
    }
}

/// Run `xsort ARGS...` inside this process (corpus generation in set-up).
pub fn xsort_here(args: &[&str]) -> Result<(), String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let cli = parse_args(&args)?;
    run_code(&cli).map_err(|e| format!("xsort {}: {}", args.join(" "), e.message))
}
