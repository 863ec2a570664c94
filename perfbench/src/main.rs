//! perfbench: the wall-clock benchmark of `xsort`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli-deep|cli-flat|daemon-inline --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Run from the repository root. Prints a summary on stderr and, as the
//! last line of stdout, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`, which are the `end_to_end` metrics of `BENCHMARK.json`
//! (`--trace 0`) or its `per_layer` metrics (`--trace 1`). Exits non-zero
//! when an output check fails. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod check;
mod child;
mod cliwork;
mod daemon;
mod oneshot;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use nexsort_server::json::{self, b, n, obj, s, Value};

use stats::Report;

/// Attribute the generated documents are sorted by (`--default @k`).
pub const KEY_ATTR: &[u8] = b"k";
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Where runs keep their files, relative to the repository root.
const WORK_ROOT: &str = ".perfbench_work";
/// Digests and logical I/O recorded for the default seed.
const EXPECTED: &str = "perfbench/expected.json";
const DEFAULT_SEED: u64 = 1;

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measuring loop runs.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, to check the harness itself quickly.
    pub smoke: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                opts.seconds = Duration::from_secs_f64(secs.max(0.0));
            }
            "--trace" => opts.trace = value()? == "1",
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(child::XSORT) => return ExitCode::from(child::xsort_main(&args[1..]) as u8),
        Some(child::TRACED_SORT) => {
            return match cliwork::traced_sort_main(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: traced sort: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload and print its result; `Ok(false)` when an output
/// check failed.
fn run(opts: &Opts) -> Result<bool, String> {
    let declared = declared_metrics(opts.trace)?;
    let work = Path::new(WORK_ROOT).join(format!("{}-{}", opts.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {work:?}: {e}"))?;
    let result = match cliwork::shape(&opts.workload, opts.smoke) {
        Some(shape) => cliwork::run(&shape, opts, &work),
        None if opts.workload == "daemon-inline" => daemon::run(opts, &work),
        None => {
            Err(format!("unknown workload {:?} (cli-deep, cli-flat, daemon-inline)", opts.workload))
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut report = result?;

    if opts.seed == DEFAULT_SEED && !opts.smoke {
        check_expected(&opts.workload, &mut report)?;
    }
    if opts.trace {
        let path = PathBuf::from(WORK_ROOT)
            .join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        let spans = Value::Arr(std::mem::take(&mut report.spans));
        std::fs::write(&path, spans.to_json())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    if !opts.trace {
        report.set("success_ratio", report.success_ratio());
    }
    let mut metrics = Vec::new();
    for (name, unit) in &declared {
        // A per-layer metric of a layer this workload never calls reads 0.
        let value = match report.metrics.remove(name) {
            Some(v) => v,
            None if opts.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        metrics.push((name.clone(), obj(vec![("value", Value::Num(value)), ("unit", s(unit))])));
    }
    if let Some(extra) = report.metrics.keys().next() {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    for p in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    eprintln!(
        "perfbench: {} seed {}: {} attempted, {} failed, output digest {:016x}, logical I/O {}",
        opts.workload, opts.seed, report.attempted, report.failed, report.digest, report.logical_io
    );
    let line = obj(vec![
        ("correct", b(correct)),
        ("attempted", n(report.attempted)),
        ("failed", n(report.failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    Ok(correct)
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let bench = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = bench.get(key).and_then(Value::as_arr).ok_or(format!("BENCHMARK.json: no {key}"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).map(String::from);
            field("name").zip(field("unit")).ok_or(format!("BENCHMARK.json: bad {key} entry"))
        })
        .collect()
}

/// Compare the default-seed output digest and logical I/O with the values
/// recorded in `perfbench/expected.json`; a difference is a failed check.
fn check_expected(workload: &str, report: &mut Report) -> Result<(), String> {
    let text =
        std::fs::read_to_string(EXPECTED).map_err(|e| format!("cannot read {EXPECTED}: {e}"))?;
    let expected = json::parse(&text).map_err(|e| format!("{EXPECTED}: {e}"))?;
    let Some(want) = expected.get(workload) else {
        return Err(format!("{EXPECTED} records nothing for {workload}"));
    };
    let digest = format!("{:016x}", report.digest);
    if want.get("digest").and_then(Value::as_str) != Some(digest.as_str()) {
        report.problems.push(format!(
            "output digest {digest} differs from the recorded {}",
            want.get("digest").map(Value::to_json).unwrap_or_default()
        ));
    }
    if want.get("logical_io").and_then(Value::as_u64) != Some(report.logical_io) {
        report.problems.push(format!(
            "logical I/O {} differs from the recorded {}",
            report.logical_io,
            want.get("logical_io").map(Value::to_json).unwrap_or_default()
        ));
    }
    Ok(())
}
