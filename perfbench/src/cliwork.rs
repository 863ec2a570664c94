//! The `cli-deep` and `cli-flat` workloads: one generated document sorted
//! again and again by fresh `xsort sort` processes on fresh device files.
//! Each sort is timed from process start to the moment its output file is
//! closed, and each output is checked.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::time::{Duration, Instant};

use nexsort_server::json::{self, n, obj, Value};

use crate::check::{self, Summary};
use crate::child::{self, Proc, DONE, TRACED_SORT, XSORT};
use crate::oneshot;
use crate::stats::{median, quantile, Report};
use crate::trace::{Span, Tracer};
use crate::{Opts, KEY_ATTR, SETUP_REPS};

/// A CLI workload: what to generate and how to sort it.
pub struct CliShape {
    /// `xsort gen` shape.
    pub gen: &'static str,
    /// Geometry flags of `xsort sort` (empty: the CLI defaults).
    pub geometry: &'static [&'static str],
}

/// The shape of `workload`, or `None` if it is not a CLI workload.
pub fn shape(workload: &str, smoke: bool) -> Option<CliShape> {
    let (gen, geometry): (&str, &[&str]) = match (workload, smoke) {
        // ~30 MB, fan-out 100, height 4: 7x the 4 MB memory, but each of
        // the 101 sibling subtrees fits in it.
        ("cli-deep", false) => ("exact:100,100,20", &[]),
        ("cli-deep", true) => ("exact:10,10,5", &["--block", "4K", "--mem", "32K"]),
        // ~29 MB, one node with fan-out 200k: a single subtree ~450x the
        // 256 KB memory, sorted externally with merge passes.
        ("cli-flat", false) => ("exact:200000", &["--block", "4K", "--mem", "256K"]),
        ("cli-flat", true) => ("exact:3000", &["--block", "4K", "--mem", "32K"]),
        _ => return None,
    };
    Some(CliShape { gen, geometry })
}

/// One measured sort.
struct Sample {
    wall: f64,
    peak_kib: u64,
    logical_io: u64,
    /// The check scan of the output, or why it could not be read.
    output: Result<Summary, String>,
    /// Spans and counters of a traced sort.
    traced: Option<Traced>,
}

/// What a traced sort child reports besides its output.
struct Traced {
    spans: Vec<Span>,
    counters: Vec<(String, f64)>,
}

/// Run the workload for `opts.seconds` and report its metrics.
pub fn run(shape: &CliShape, opts: &Opts, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let input = work.join("input.xml");
    let input_str = input.to_string_lossy().into_owned();
    let seed = opts.seed.to_string();

    // Set-up: generate the corpus and scan it for the output check.
    let mut setup = Vec::new();
    let mut summary: Option<Summary> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        child::xsort_here(&["gen", shape.gen, "--seed", &seed, "-o", &input_str])?;
        let bytes = std::fs::read(&input).map_err(|e| format!("cannot read {input:?}: {e}"))?;
        let scanned = check::scan(&bytes, KEY_ATTR)?;
        setup.push(t.elapsed().as_secs_f64());
        if summary.as_ref().is_some_and(|prev| *prev != scanned) {
            return Err(format!("`xsort gen {}` is not deterministic", shape.gen));
        }
        summary = Some(scanned);
    }
    let summary = summary.expect("SETUP_REPS > 0");
    let input_mb = std::fs::metadata(&input).map_err(|e| e.to_string())?.len() as f64 / 1e6;

    let out = work.join("out.xml");
    let dev = work.join("device.bin");
    let mut args: Vec<String> = ["sort", &input_str, "-o"].iter().map(|a| a.to_string()).collect();
    args.push(out.to_string_lossy().into_owned());
    args.extend(["--default", "@k", "--device"].iter().map(|a| a.to_string()));
    args.push(dev.to_string_lossy().into_owned());
    args.extend(shape.geometry.iter().map(|a| a.to_string()));
    args.push("--stats".into());

    // Measure: untraced sorts only, or (tracing) traced and untraced sorts
    // alternately, so the traced run also yields the tracing overhead.
    let min_samples = if opts.trace { 4 } else { 3 };
    let mut tr = Tracer::new();
    let mut samples: Vec<Sample> = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i < min_samples || start.elapsed() < opts.seconds {
        let traced = opts.trace && i % 2 == 1;
        i += 1;
        report.attempted += 1;
        let _ = std::fs::remove_file(&dev);
        let _ = std::fs::remove_file(&out);
        match sort_once(&args, &out, traced, &tr, i, work) {
            Ok(sample) => {
                eprintln!(
                    "perfbench: sort {i}{}: {:.3} s",
                    if traced { " (traced)" } else { "" },
                    sample.wall
                );
                match &sample.output {
                    Ok(got) => {
                        if let Some(why) = got.mismatch(&summary) {
                            report.problems.push(format!("sort {i}: {why}"));
                        }
                    }
                    Err(e) => report.problems.push(format!("sort {i}: unreadable output: {e}")),
                }
                samples.push(sample);
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("perfbench: sort {i} failed: {e}");
            }
        }
        if report.failed > 3 {
            break;
        }
    }
    let _ = std::fs::remove_file(&dev);

    // Every sort of one input must give the same bytes and the same I/O.
    let first = samples.first().ok_or("no sort succeeded")?;
    let digest = |sm: &Sample| sm.output.as_ref().map_or(0, |s| s.digest);
    report.digest = digest(first);
    report.logical_io = first.logical_io;
    for sm in &samples {
        if digest(sm) != report.digest {
            report.problems.push("two sorts of one input gave different bytes".into());
        }
        if sm.logical_io != first.logical_io {
            report.problems.push(format!(
                "two sorts of one input did {} and {} logical I/Os",
                first.logical_io, sm.logical_io
            ));
        }
    }

    let plain: Vec<&Sample> = samples.iter().filter(|sm| sm.traced.is_none()).collect();
    let walls: Vec<f64> = plain.iter().map(|sm| sm.wall).collect();
    let p50 = median(&walls);
    if opts.trace {
        let traced: Vec<&Sample> = samples.iter().filter(|sm| sm.traced.is_some()).collect();
        let traced_walls: Vec<f64> = traced.iter().map(|sm| sm.wall).collect();
        for sm in &traced {
            let spans = &sm.traced.as_ref().expect("filtered on traced").spans;
            let base = tr.spans.len();
            tr.spans.extend(spans.iter().cloned().map(|mut sp| {
                sp.parent = sp.parent.map(|p| p + base);
                sp
            }));
        }
        oneshot::layer_metrics(&tr, &mut report);
        if let Some(first) = traced.first().and_then(|sm| sm.traced.as_ref()) {
            for (name, v) in &first.counters {
                report.set(name, *v);
            }
        }
        report.set("bench.samples", traced.len() as f64);
        report.set("trace.overhead_pct", (median(&traced_walls) - p50) / p50 * 100.0);
        report.spans = tr.spans.iter().map(Span::to_value).collect();
    } else {
        report.set("setup_s", median(&setup));
        report.set("mb_per_s", input_mb / p50);
        report.set("jobs_per_s", 1.0 / p50);
        report.set("job_p50_ms", p50 * 1e3);
        report.set("job_p75_ms", quantile(&walls, 0.75) * 1e3);
        let peaks: Vec<f64> = plain.iter().map(|sm| sm.peak_kib as f64).collect();
        report.set("peak_rss_mb", median(&peaks) / 1024.0);
        report.set("logical_io", report.logical_io as f64);
    }
    eprintln!(
        "perfbench: {} sorts of {input_mb:.1} MB ({} traced), median {:.3} s",
        samples.len(),
        samples.len() - plain.len(),
        p50
    );
    Ok(report)
}

/// One `xsort sort` child writing `out`: wall time to its `done` line,
/// peak RSS, logical I/O, the output's check scan, and (traced) its spans
/// re-based onto `tr`'s clock.
fn sort_once(
    args: &[String],
    out: &Path,
    traced: bool,
    tr: &Tracer,
    job: u64,
    work: &Path,
) -> Result<Sample, String> {
    let err_file = work.join("sort.stderr");
    let t0 = Instant::now();
    let mut proc = Proc::start(if traced { TRACED_SORT } else { XSORT }, args, &err_file)?;
    let stdout = proc.stdout().ok_or("child stdout not piped")?;
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next().transpose().map_err(|e| e.to_string())?.unwrap_or_default();
    let wall = t0.elapsed().as_secs_f64();
    let done_at = tr.now();
    let rest: Vec<String> = lines.collect::<Result<_, _>>().map_err(|e| e.to_string())?;
    let status = proc.finish(Duration::from_secs(120))?;
    let stderr = std::fs::read_to_string(&err_file).unwrap_or_default();
    if !status.success() {
        return Err(format!("{status}: {}", stderr.trim()));
    }
    let peak_kib = first
        .strip_prefix(DONE)
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("unexpected first line {first:?}"))?;
    let output = std::fs::read(out)
        .map_err(|e| format!("cannot read {out:?}: {e}"))
        .and_then(|bytes| check::scan(&bytes, KEY_ATTR));
    if !traced {
        // `--stats` prints the sort's I/O table; its TOTAL row is the
        // logical block transfer count.
        let logical_io = stderr
            .lines()
            .find_map(|l| l.strip_prefix("TOTAL"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("no TOTAL row in --stats output: {stderr}"))?;
        return Ok(Sample { wall, peak_kib, logical_io, output, traced: None });
    }
    let line = rest.last().ok_or("traced child printed no trace")?;
    let v = json::parse(line)?;
    let logical_io = v.get("logical_io").and_then(Value::as_u64).ok_or("no logical_io")?;
    let raw = v.get("spans").and_then(Value::as_arr).ok_or("no spans")?;
    let mut spans: Vec<Span> =
        raw.iter().map(|sp| Span::from_value(sp, job)).collect::<Option<_>>().ok_or("bad span")?;
    // The child's clock starts at its own start: shift it so the root span
    // ends where this process saw the `done` line.
    let root_end = spans.iter().find(|sp| sp.name == "cli.sort").map_or(0.0, |sp| sp.end);
    for sp in &mut spans {
        sp.start += done_at - root_end;
        sp.end += done_at - root_end;
    }
    let counters = match v.get("counters") {
        Some(Value::Obj(pairs)) => {
            pairs.iter().map(|(k, c)| (k.clone(), c.as_f64().unwrap_or(0.0))).collect()
        }
        _ => return Err("no counters".into()),
    };
    Ok(Sample { wall, peak_kib, logical_io, output, traced: Some(Traced { spans, counters }) })
}

/// Child mode [`TRACED_SORT`]: the one-shot sort with spans, the `done`
/// line, then the side spans and one JSON line of spans and counters.
pub fn traced_sort_main(args: &[String]) -> Result<(), String> {
    let mut tr = Tracer::new();
    let shot = oneshot::sort(args, &mut tr, 0)?;
    println!("{DONE} {}", child::peak_rss_kib("self")?);
    shot.side_spans(&mut tr, 0)?;
    let counters =
        Value::Obj(shot.counters().into_iter().map(|(k, v)| (k, Value::Num(v))).collect());
    let line = obj(vec![
        ("spans", tr.to_value()),
        ("logical_io", n(shot.logical_io())),
        ("counters", counters),
    ]);
    println!("{}", line.to_json());
    Ok(())
}
