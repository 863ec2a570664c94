//! The `daemon-inline` workload: an `xsort serve` child process with two
//! workers on a Unix socket, driven in a closed loop by two client threads
//! through the calls `xsort client` makes: `request_submit` with the
//! document inline, `wait`, then `request_fetch_chunked` in 64 KiB chunks.
//! A job's latency runs from the start of its submit to its last chunk.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nexsort_server::json::{self, n, obj, s, Value};
use nexsort_server::{request, request_fetch_chunked, request_submit, submit_value};
use nexsort_server::{JobInput, JobSpec, Server, ServerConfig};

use crate::check;
use crate::child::{self, Proc, XSORT};
use crate::oneshot;
use crate::stats::{median, quantile, Report};
use crate::trace::{Span, Tracer};
use crate::{Opts, KEY_ATTR, SETUP_REPS};

/// Client threads (closed loop: each sends its next job only after the
/// previous one's output arrived) and daemon workers.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// `fetch_chunk` length.
const CHUNK: u64 = 64 * 1024;

/// Document sizes and job counts.
struct Sizes {
    /// Shape of every job's document (size S).
    doc: &'static str,
    /// A shape of about 2S, for the JSON parse-growth side span.
    double: &'static str,
    /// Distinct documents, cycled through by the jobs.
    docs: u64,
    /// Jobs the loop completes at least, whatever `--seconds` says.
    min_jobs: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes { doc: "exact:3,3,2", double: "exact:6,3,2", docs: 4, min_jobs: 4 }
    } else {
        // ~88 KB: 611 elements. exact:20,10,5 has 1221 elements, 2.0x.
        Sizes { doc: "exact:10,10,5", double: "exact:20,10,5", docs: 16, min_jobs: 40 }
    }
}

/// The job spec every client submits: default block and memory, parity
/// groups of 8 and a 16-frame write-back pool.
fn job_spec(doc: &[u8]) -> JobSpec {
    JobSpec {
        input: JobInput::Inline(doc.to_vec()),
        default_rule: Some("@k".into()),
        parity_group: 8,
        cache_frames: 16,
        write_back: true,
        ..JobSpec::default()
    }
}

/// One generated document and the output the daemon must return for it.
struct Doc {
    xml: Vec<u8>,
    reference: Vec<u8>,
}

/// One job as a client saw it.
#[derive(Default)]
struct Job {
    doc: usize,
    latency: f64,
    traced: bool,
    /// Client-side spans (traced jobs only).
    spans: Vec<Span>,
    /// From the `wait` reply: `latency_ms - elapsed_ms` and `elapsed_ms`.
    queue_ms: f64,
    sort_ms: f64,
    logical_io: u64,
    /// Why the output is wrong, if it is: the run is then incorrect.
    wrong: Option<String>,
}

/// The daemon child and its address.
struct Daemon {
    proc: Proc,
    addr: String,
}

impl Daemon {
    /// Start `xsort serve` and wait until it answers a ping.
    fn start(work: &Path, tag: usize) -> Result<Daemon, String> {
        let sock = work.join(format!("d{tag}.sock"));
        let jobs = work.join(format!("jobs{tag}"));
        let args: Vec<String> = vec![
            "serve".into(),
            "--listen".into(),
            format!("unix:{}", sock.display()),
            "--workers".into(),
            WORKERS.to_string(),
            "--job-dir".into(),
            jobs.display().to_string(),
        ];
        let proc = Proc::start(XSORT, &args, &work.join(format!("serve{tag}.stderr")))?;
        let addr = format!("unix:{}", sock.display());
        let ping = obj(vec![("op", s("ping"))]);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(v) = request(&addr, &ping) {
                if v.get("ok").and_then(Value::as_bool) == Some(true) {
                    return Ok(Daemon { proc, addr });
                }
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer a ping within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Ask the daemon to stop and reap it.
    fn stop(self) -> Result<(), String> {
        request(&self.addr, &obj(vec![("op", s("shutdown"))]))?;
        let status = self.proc.finish(Duration::from_secs(30))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

/// Run the workload for `opts.seconds` and report its metrics.
pub fn run(opts: &Opts, work: &Path) -> Result<Report, String> {
    let sz = sizes(opts.smoke);
    let mut report = Report::default();
    let mut ref_tracer = Tracer::new();

    // Set-up: generate the documents, sort each once in-process for its
    // reference output (checked independently), start the daemon.
    let mut setup = Vec::new();
    let mut docs: Vec<Doc> = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t = Instant::now();
        let mut tr = Tracer::new();
        docs = (0..sz.docs)
            .map(|j| make_doc(sz.doc, doc_seed(opts.seed, j), work, &mut tr, opts.trace, j))
            .collect::<Result<_, _>>()?;
        daemon = Some(Daemon::start(work, rep)?);
        setup.push(t.elapsed().as_secs_f64());
        ref_tracer = tr;
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let doc_bytes: usize = docs.iter().map(|d| d.xml.len()).sum();
    let doc_mb = doc_bytes as f64 / docs.len() as f64 / 1e6;

    // Measure: CLIENTS closed-loop clients; client c sends documents
    // c, c + CLIENTS, ... in turn. Tracing records spans on every other job.
    let deadline = Instant::now() + opts.seconds;
    let per_client = sz.min_jobs.div_ceil(CLIENTS).max(docs.len().div_ceil(CLIENTS));
    let epoch = Instant::now();
    let results: Vec<(Vec<Job>, Vec<String>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, docs) = (&daemon.addr, &docs);
                // xlint::allow(R13): the benchmark's two client threads.
                scope.spawn(move || client(c, addr, docs, opts.trace, per_client, deadline, epoch))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let loop_secs = results.iter().map(|r| r.2).fold(0.0, f64::max);

    let stats = request(&daemon.addr, &obj(vec![("op", s("stats"))]))?;
    let stat = |k: &str| {
        stats.get("stats").and_then(|st| st.get(k)).and_then(Value::as_f64).unwrap_or(0.0)
    };
    let peak_kib = child::peak_rss_kib(&daemon.proc.id().to_string())?;
    let (requests, high_water, waiters) =
        (stat("requests"), stat("budget_high_water"), stat("budget_waiters"));
    daemon.stop()?;

    let mut jobs = Vec::new();
    for (ok, errs, _) in results {
        jobs.extend(ok);
        report.attempted += errs.len() as u64;
        report.failed += errs.len() as u64;
        for msg in errs {
            eprintln!("perfbench: job failed: {msg}");
        }
    }
    report.problems.extend(jobs.iter().filter_map(|j| j.wrong.clone()));
    report.attempted += jobs.len() as u64;
    if jobs.is_empty() {
        return Err("no daemon job succeeded".into());
    }

    // Each document's jobs must all do the same logical I/O; the workload's
    // count is the sum over the documents.
    let mut per_doc: Vec<Option<u64>> = vec![None; docs.len()];
    for job in &jobs {
        match per_doc[job.doc] {
            None => per_doc[job.doc] = Some(job.logical_io),
            Some(io) if io != job.logical_io => report.problems.push(format!(
                "two jobs on document {} did {io} and {} logical I/Os",
                job.doc, job.logical_io
            )),
            Some(_) => {}
        }
    }
    if per_doc.iter().any(Option::is_none) {
        report.problems.push("some document never completed a job".into());
    }
    report.logical_io = per_doc.iter().flatten().sum();
    report.digest = check::hash(
        &docs.iter().flat_map(|d| check::hash(&d.reference).to_le_bytes()).collect::<Vec<u8>>(),
    );

    let plain: Vec<f64> = jobs.iter().filter(|j| !j.traced).map(|j| j.latency).collect();
    let p50 = median(&plain);
    if opts.trace {
        let traced: Vec<&Job> = jobs.iter().filter(|j| j.traced).collect();
        let mut tr = Tracer::since(epoch);
        for job in &traced {
            tr.spans.extend(job.spans.iter().cloned());
        }
        let span_ms = |name: &str| median(&tr.durations(name)) * 1e3;
        report.set("server.submit_ms", span_ms("server.submit"));
        report.set("server.wait_ms", span_ms("server.wait"));
        report.set("server.fetch_ms", span_ms("server.fetch"));
        report
            .set("server.queue_ms", median(&traced.iter().map(|j| j.queue_ms).collect::<Vec<_>>()));
        report
            .set("core.job_sort_ms", median(&traced.iter().map(|j| j.sort_ms).collect::<Vec<_>>()));
        report.set("server.requests", requests);
        report.set("server.budget_high_water", high_water);
        report.set("server.budget_waiters", waiters);
        let traced_lat: Vec<f64> = traced.iter().map(|j| j.latency).collect();
        report.set("bench.samples", traced.len() as f64);
        report.set("trace.overhead_pct", (median(&traced_lat) - p50) / p50 * 100.0);

        // The reference sorts ran the CLI's layers in-process: report them.
        oneshot::layer_metrics(&ref_tracer, &mut report);
        side_spans(&sz, opts, work, &docs[0], &mut tr, &mut report)?;
        tr.spans.extend(ref_tracer.spans.iter().cloned());
        report.spans = tr.spans.iter().map(Span::to_value).collect();
    } else {
        let jobs_per_s = jobs.len() as f64 / loop_secs;
        report.set("setup_s", median(&setup));
        report.set("jobs_per_s", jobs_per_s);
        report.set("mb_per_s", jobs_per_s * doc_mb);
        report.set("job_p50_ms", p50 * 1e3);
        report.set("job_p75_ms", quantile(&plain, 0.75) * 1e3);
        report.set("peak_rss_mb", peak_kib as f64 / 1024.0);
        report.set("logical_io", report.logical_io as f64);
    }
    eprintln!(
        "perfbench: {} jobs in {loop_secs:.2} s ({} untraced latency samples, p75 has {} beyond it), {CLIENTS} closed-loop clients",
        jobs.len(),
        plain.len(),
        plain.len() - (plain.len() as f64 * 0.75).ceil() as usize,
    );
    Ok(report)
}

/// Seed of job document `j` of a run seeded `seed`.
fn doc_seed(seed: u64, j: u64) -> u64 {
    check::mix(seed.wrapping_mul(0x1_0000).wrapping_add(j))
}

/// Generate document `j` and sort it in-process for its reference output,
/// which must pass the independent check. `side` adds the side spans.
fn make_doc(
    shape: &str,
    seed: u64,
    work: &Path,
    tr: &mut Tracer,
    side: bool,
    j: u64,
) -> Result<Doc, String> {
    let path = work.join(format!("doc{j}.xml"));
    let p = path.to_string_lossy().into_owned();
    child::xsort_here(&["gen", shape, "--seed", &seed.to_string(), "-o", &p])?;
    let args: Vec<String> =
        ["sort", &p, "--default", "@k", "--block", "4K", "--mem", "128K"].map(String::from).into();
    let shot = oneshot::sort(&args, tr, j)?;
    if side {
        shot.side_spans(tr, j)?;
    }
    let xml = std::fs::read(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let want = check::scan(&xml, KEY_ATTR)?;
    let got = check::scan(&shot.output, KEY_ATTR)?;
    if let Some(why) = got.mismatch(&want) {
        return Err(format!("reference sort of document {j}: {why}"));
    }
    Ok(Doc { xml, reference: shot.output })
}

/// One closed-loop client: returns its jobs, its failures, and when it
/// finished (seconds since `epoch`).
fn client(
    c: usize,
    addr: &str,
    docs: &[Doc],
    trace: bool,
    min_jobs: usize,
    deadline: Instant,
    epoch: Instant,
) -> (Vec<Job>, Vec<String>, f64) {
    let mut tr = Tracer::since(epoch);
    let (mut ok, mut errs) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < min_jobs || Instant::now() < deadline {
        let doc = (c + i * CLIENTS) % docs.len();
        let traced = trace && i % 2 == 0;
        i += 1;
        match one_job(addr, &docs[doc], traced.then_some(&mut tr)) {
            Ok(mut job) => {
                job.doc = doc;
                job.traced = traced;
                job.spans = std::mem::take(&mut tr.spans);
                ok.push(job);
            }
            Err(e) => {
                tr.spans.clear();
                errs.push(e);
                if errs.len() > 3 {
                    break;
                }
            }
        }
    }
    (ok, errs, epoch.elapsed().as_secs_f64())
}

/// Submit, wait for and fetch one job, then check its bytes. An error is a
/// job refused, failed or unreachable. With a tracer, each call is a span
/// under a root span `server.job`.
fn one_job(addr: &str, doc: &Doc, mut tr: Option<&mut Tracer>) -> Result<Job, String> {
    let failed = |what: &str, e: String| format!("{what}: {e}");
    let t0 = Instant::now();
    let root = tr.as_mut().map(|t| t.enter("server.job", 0, None));
    let spec = job_spec(&doc.xml);
    let resp = timed(&mut tr, "server.submit", root, || request_submit(addr, &spec))
        .map_err(|e| failed("submit", e))?;
    let id = resp.get("id").and_then(Value::as_u64).ok_or_else(|| {
        // A `busy` refusal lands here too: it counts as failed.
        format!("submit refused: {}", resp.to_json())
    })?;
    let wait = obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(120_000))]);
    let status = timed(&mut tr, "server.wait", root, || request(addr, &wait))
        .map_err(|e| failed("wait", e))?;
    let job = status.get("job").ok_or_else(|| failed("wait", status.to_json()))?;
    if job.get("state").and_then(Value::as_str) != Some("done") {
        return Err(failed("job", job.to_json()));
    }
    let out = timed(&mut tr, "server.fetch", root, || request_fetch_chunked(addr, id, CHUNK))
        .map_err(|e| failed("fetch", e))?;
    let latency = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(root)) = (tr, root) {
        t.exit(root);
        for sp in &mut t.spans[root..] {
            sp.job = id;
        }
    }
    let wrong = (out.as_bytes() != doc.reference.as_slice()).then(|| {
        format!(
            "job {id}: daemon output ({} bytes) differs from the one-shot sort ({} bytes)",
            out.len(),
            doc.reference.len()
        )
    });
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    let rep = job.get("report");
    let sort_ms = num(rep.and_then(|r| r.get("elapsed_ms")));
    let logical = num(rep.and_then(|r| r.get("logical_reads")))
        + num(rep.and_then(|r| r.get("logical_writes")));
    Ok(Job {
        latency,
        queue_ms: num(job.get("latency_ms")) - sort_ms,
        sort_ms,
        logical_io: logical as u64,
        wrong,
        ..Job::default()
    })
}

/// `f`, timed as span `name` when there is a tracer.
fn timed<T>(
    tr: &mut Option<&mut Tracer>,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.time(name, 0, parent, f),
        None => f(),
    }
}

/// Traced-run side spans: `json` encode and parse of one submit line at
/// sizes S and 2S, and one in-process job for the extmem layer counters.
fn side_spans(
    sz: &Sizes,
    opts: &Opts,
    work: &Path,
    doc: &Doc,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let job = u64::MAX;
    let line =
        tr.time("server.json.encode", job, None, || submit_value(&job_spec(&doc.xml)).to_json());
    tr.time("server.json.parse", job, None, || json::parse(&line))?;
    let encode = tr.durations("server.json.encode")[0];
    let parse = tr.durations("server.json.parse")[0];
    let double = work.join("double.xml");
    let p = double.to_string_lossy().into_owned();
    child::xsort_here(&["gen", sz.double, "--seed", &opts.seed.to_string(), "-o", &p])?;
    let bytes = std::fs::read(&double).map_err(|e| e.to_string())?;
    let line2 = submit_value(&job_spec(&bytes)).to_json();
    tr.time("server.json.parse_2s", job, None, || json::parse(&line2))?;
    let parse2 = tr.durations("server.json.parse_2s")[0];
    report.set("server.json.encode_ms", encode * 1e3);
    report.set("server.json.parse_ms", parse * 1e3);
    // Parse time ratio at size 2S vs S, normalised to an exact 2x input.
    let size_ratio = line2.len() as f64 / line.len() as f64;
    report.set("server.json.parse_growth", (parse2 / parse).powf(2f64.ln() / size_ratio.ln()));

    // The daemon's layer counters for one job, from an in-process server
    // running the same spec (the socket protocol reports only totals).
    let dir: PathBuf = work.join("inproc-jobs");
    let server = Server::start(ServerConfig::new(1, &dir))?;
    let id = server.submit(job_spec(&doc.xml)).map_err(|e| format!("{e:?}"))?;
    let st = server.wait(id, Duration::from_secs(120)).ok_or("in-process job vanished")?;
    server.shutdown();
    let rep = st.report.ok_or_else(|| format!("in-process job ended {:?}", st.state))?;
    for (name, v) in oneshot::counters(&rep, &rep.io) {
        report.set(&name, v);
    }
    Ok(())
}
