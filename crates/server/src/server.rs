//! The sort daemon: a bounded worker pool running journaled, resumable sort
//! jobs under one globally-arbitrated memory budget.
//!
//! # Job lifecycle
//!
//! ```text
//! submit -> queued -> running -> done
//!              |         |-----> failed        (unrecoverable fault)
//!              |         `-----> interrupted   (device froze mid-sort)
//!              `-> canceled                    (cancel before a worker)
//! interrupted/queued/running --[restart: Server::open]--> queued -> ...
//! ```
//!
//! Admission control happens at `submit`: a job whose frame demand exceeds
//! the global budget is rejected outright (it could never run), and a full
//! queue pushes back with a busy error instead of queueing unboundedly.
//! Once accepted, a job is durable: its input copy and manifest (and, once
//! it runs, its device file) live in the server's job directory, so a
//! killed daemon reopened with [`Server::open`] re-queues every unfinished
//! job and resumes it from its on-device journal (PR-5 crash consistency)
//! -- committed merge passes are never redone. A done job keeps only its
//! manifest and its output.
//!
//! A job runs from one record: the table holds its [`Manifest`], the
//! worker takes a copy, stores it as `job.json` at each durable fact
//! (accepted, staged, settled) and hands it back when the job settles.
//!
//! # Threading
//!
//! The sorting substrate is deliberately single-threaded (`Rc`/`Cell`), so
//! each job's entire device stack is built, used, and dropped on one worker
//! thread. The only cross-thread pieces are plain-data [`JobSpec`]s, the
//! job table, and the [`BudgetArbiter`]: a worker leases its job's frames
//! (sort memory + private page cache) before building the stack and
//! releases them when the job leaves the thread, so concurrent jobs share
//! one machine-wide budget with strict-FIFO fairness.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nexsort::{Nexsort, NexsortOptions, SortReport};
use nexsort_baseline::{stage_reader, write_output_file};
use nexsort_extmem::locksan::{self, TrackedCondvar, TrackedGuard, TrackedMutex};
use nexsort_extmem::{BudgetArbiter, CrashPlan, Disk, DiskBuilder, DiskStack, ExtError, Extent};
use nexsort_xml::{build_spec, XmlError};

use crate::job::{JobInput, JobOp, JobSpec, JobState, Manifest};

/// Configuration of a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (concurrent jobs).
    pub workers: usize,
    /// Maximum jobs waiting in the queue before `submit` pushes back.
    pub queue_depth: usize,
    /// Global memory budget in frames, shared by all concurrent jobs.
    pub budget_frames: usize,
    /// Max budget leases any single tenant may hold at once (0 = no cap).
    /// See `BudgetArbiter::set_tenant_cap` for the fairness model.
    pub tenant_cap: usize,
    /// Directory owning every job's input copy, device file, and manifest.
    pub job_dir: PathBuf,
}

impl ServerConfig {
    /// A config with `workers` threads and proportionate defaults, rooted
    /// at `job_dir`.
    pub fn new(workers: usize, job_dir: impl Into<PathBuf>) -> Self {
        Self {
            workers: workers.max(1),
            queue_depth: 16,
            budget_frames: 4096,
            tenant_cap: 0,
            job_dir: job_dir.into(),
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full; retry later (backpressure, not failure).
    Busy(String),
    /// The job can never run as specified.
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy(msg) => write!(f, "busy: {msg}"),
            SubmitError::Invalid(msg) => write!(f, "invalid job: {msg}"),
        }
    }
}

/// A queryable snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Error message of a failed job.
    pub error: Option<String>,
    /// Where the output landed (or will land).
    pub output: PathBuf,
    /// True when the job was resumed from its journal at least once.
    pub resumed: bool,
    /// The sort's full report, once the job is done; `None` again after
    /// its record ages out of the table or across a restart.
    pub report: Option<SortReport>,
    /// Submit-to-finish latency, once the job is terminal (same lifetime
    /// as `report`).
    pub latency: Option<Duration>,
}

/// Aggregate server counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Worker threads.
    pub workers: usize,
    /// Queue capacity.
    pub queue_depth: usize,
    /// Jobs currently waiting for a worker.
    pub queued: usize,
    /// Jobs currently on a worker.
    pub running: usize,
    /// Jobs completed byte-exact.
    pub done: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Jobs canceled before running.
    pub canceled: usize,
    /// Jobs frozen mid-sort, awaiting a restart.
    pub interrupted: usize,
    /// Jobs accepted over this instance's lifetime (including re-queued
    /// jobs adopted by [`Server::open`]).
    pub submitted: u64,
    /// Jobs that went through journal resume.
    pub resumed: u64,
    /// Global budget: total frames.
    pub budget_total: usize,
    /// Global budget: frames currently leased.
    pub budget_used: usize,
    /// Global budget: high-water mark of simultaneous leases.
    pub budget_high_water: usize,
    /// Requests parked in the budget's FIFO waiter queue.
    pub budget_waiters: usize,
    /// Mutex-poisoning recoveries performed (process-wide) by the audited
    /// `locksan::recover_poison` helper: each one means a thread panicked
    /// while holding a lock and the guard was recovered rather than
    /// silently swallowed.
    pub lock_recoveries: u64,
    /// Violations recorded (process-wide) by the `NEXSORT_LOCKSAN=1`
    /// lock-discipline sanitizer; always 0 when the sanitizer is off.
    pub locksan_violations: u64,
    /// True while the server is draining: admissions get lame-duck busy
    /// replies and workers exit once no job is running.
    pub draining: bool,
    /// Drains initiated over this instance's lifetime.
    pub drains: u64,
    /// Submits deduplicated by idempotency token: each one is a retried
    /// `submit` that adopted its existing job instead of sorting twice.
    pub duplicate_submits: u64,
    /// Connections the socket front end accepted.
    pub conns_accepted: u64,
    /// Connections closed by a read deadline (idle or mid-request).
    pub conns_timed_out: u64,
    /// Responses hit by an injected network fault (chaos testing).
    pub conns_faulted: u64,
    /// Requests dispatched by the socket front end.
    pub requests: u64,
    /// Requests rejected for exceeding the frame length cap.
    pub lines_too_long: u64,
    /// Retries performed (process-wide) by this process's
    /// `request_with_retry` clients; observable here so in-process chaos
    /// tests can assert the retry path actually ran.
    pub client_retries: u64,
}

/// Counters the socket front end (`net::serve`) bumps per connection and
/// per request. Plain atomics: they sit outside every lock order.
#[derive(Debug, Default)]
pub(crate) struct NetStats {
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_timed_out: AtomicU64,
    pub(crate) conns_faulted: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) lines_too_long: AtomicU64,
}

/// One job's record in the in-memory table.
struct JobRecord {
    /// The job's durable fields. A worker runs from a copy and hands it
    /// back when the job settles; until then `state` and `resumed` here
    /// may run ahead of `job.json`, for transitions no restart needs (an
    /// adopted job re-queued, a popped one running).
    m: Manifest,
    /// Resume from the journal, or redo a pq script that already started
    /// (set for unfinished jobs adopted from manifests).
    resume: bool,
    report: Option<SortReport>,
    output: PathBuf,
    submitted: Instant,
    latency: Option<Duration>,
}

impl JobRecord {
    fn new(cfg: &ServerConfig, m: Manifest, resume: bool) -> Self {
        let output = resolve_output(cfg, m.id, &m.spec);
        Self { m, resume, report: None, output, submitted: Instant::now(), latency: None }
    }
}

/// Terminal job records kept in memory: enough for a client to `wait` for
/// and fetch the job it just ran. An older terminal job answers from its
/// manifest, with no report and no latency -- the view a job adopted at
/// restart gives -- so the table stays bounded however many jobs the
/// daemon runs.
const RETAINED_TERMINAL_JOBS: usize = 64;

struct Core {
    queue: VecDeque<u64>,
    /// Every live job, plus the [`RETAINED_TERMINAL_JOBS`] most recent
    /// terminal ones.
    jobs: BTreeMap<u64, JobRecord>,
    /// The terminal jobs still in `jobs`, oldest first.
    retained: VecDeque<u64>,
    /// Idempotency token -> job id, covering every job ever accepted by
    /// this directory (terminal ones included): a retried submit must adopt
    /// its job no matter how far the job got in the meantime.
    idem: BTreeMap<String, u64>,
    next_id: u64,
    submitted: u64,
    resumed_total: u64,
    /// Terminal jobs of the job directory by state, adopted ones included:
    /// counted once each, so they outlive the records' eviction.
    done: usize,
    failed: usize,
    canceled: usize,
    duplicate_submits: u64,
    drains: u64,
    shutdown: bool,
    draining: bool,
}

impl Core {
    /// Count job `id` as having settled terminally in `state` and retain
    /// its record among the most recent terminal ones, evicting the
    /// oldest. Its manifest must already say `state`: an evicted job is
    /// answered from it.
    fn retire(&mut self, id: u64, state: JobState) {
        match state {
            JobState::Done => self.done += 1,
            JobState::Failed => self.failed += 1,
            JobState::Canceled => self.canceled += 1,
            JobState::Queued | JobState::Running | JobState::Interrupted => return,
        }
        self.retained.push_back(id);
        while self.retained.len() > RETAINED_TERMINAL_JOBS {
            if let Some(old) = self.retained.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    arbiter: BudgetArbiter,
    core: TrackedMutex<Core>,
    cv: TrackedCondvar,
    net: NetStats,
}

impl Shared {
    /// The single acquisition choke point for the core lock: the job
    /// table, queue, and lifetime counters are only ever touched through
    /// the guard returned here, which is what lets the static checker
    /// (xlint R11-R14) and the runtime sanitizer identify core critical
    /// sections. Poisoning routes through the audited
    /// `locksan::recover_poison` helper inside `TrackedMutex::lock` and is
    /// surfaced as `ServerStats::lock_recoveries`.
    fn lock_core(&self) -> TrackedGuard<'_, Core> {
        let core = self.core.lock();
        locksan::access("server.job-table");
        core
    }
}

/// The daemon: owns the worker pool and the job table. Dropping (or
/// [`shutdown`](Server::shutdown)) stops the workers after their current
/// job; everything else is durable in the job directory.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Journal extent size for a given block size: 32 blocks, clamped so the
/// header (28 bytes of magic/count/crc plus 8 per block id) still
/// self-describes the extent within one block.
pub fn journal_blocks(block_size: usize) -> usize {
    32usize.min(((block_size.saturating_sub(28)) / 8).max(2))
}

impl Server {
    /// Start a fresh server over `cfg.job_dir` (created if missing).
    pub fn start(cfg: ServerConfig) -> Result<Self, String> {
        std::fs::create_dir_all(&cfg.job_dir)
            .map_err(|e| format!("cannot create job dir {:?}: {e}", cfg.job_dir))?;
        Ok(Self::boot(cfg, Vec::new()))
    }

    /// Open an existing job directory: adopt every persisted job, re-queue
    /// the unfinished ones (resuming from their journals), and start the
    /// workers. This is the restart path after a daemon death. Only the
    /// most recent terminal jobs get an in-memory record; older ones are
    /// answered from their manifests.
    pub fn open(cfg: ServerConfig) -> Result<Self, String> {
        std::fs::create_dir_all(&cfg.job_dir)
            .map_err(|e| format!("cannot create job dir {:?}: {e}", cfg.job_dir))?;
        let mut adopted = Vec::new();
        let entries = std::fs::read_dir(&cfg.job_dir)
            .map_err(|e| format!("cannot scan job dir {:?}: {e}", cfg.job_dir))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot scan job dir: {e}"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with("job-") {
                continue;
            }
            match Manifest::load(&entry.path())? {
                Some(m) => adopted.push(m),
                None => continue,
            }
        }
        adopted.sort_by_key(|m| m.id);
        Ok(Self::boot(cfg, adopted))
    }

    fn boot(cfg: ServerConfig, adopted: Vec<Manifest>) -> Self {
        let mut core = Core {
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            retained: VecDeque::new(),
            idem: BTreeMap::new(),
            next_id: adopted.iter().map(|m| m.id + 1).max().unwrap_or(0),
            submitted: 0,
            resumed_total: 0,
            done: 0,
            failed: 0,
            canceled: 0,
            duplicate_submits: 0,
            drains: 0,
            shutdown: false,
            draining: false,
        };
        for m in adopted {
            if let Some(tok) = &m.spec.idem {
                core.idem.insert(tok.clone(), m.id);
            }
            let (id, state) = (m.id, m.state);
            let unfinished = !state.is_terminal();
            // A job with a staged input extent has a device image (and
            // journal) worth reattaching; one without re-runs from its
            // input copy. An unfinished pq job that already started is a
            // deterministic redo: flag it so the crash hook (which models
            // the daemon death that got us here) is not re-armed.
            let resume = unfinished
                && (m.staged.is_some() || (m.spec.op == JobOp::Pq && state != JobState::Queued));
            let mut rec = JobRecord::new(&cfg, m, resume);
            if unfinished {
                rec.m.state = JobState::Queued;
                core.queue.push_back(id);
                core.submitted += 1;
            }
            core.jobs.insert(id, rec);
            core.retire(id, state);
        }
        let arbiter = BudgetArbiter::new(cfg.budget_frames);
        arbiter.set_tenant_cap(cfg.tenant_cap);
        let shared = Arc::new(Shared {
            arbiter,
            cfg,
            core: TrackedMutex::new("server.core", core),
            cv: TrackedCondvar::new(),
            net: NetStats::default(),
        });
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let sh = shared.clone();
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        Self { shared, workers }
    }

    /// The job directory this server owns.
    pub fn job_dir(&self) -> &PathBuf {
        &self.shared.cfg.job_dir
    }

    /// Submit a job. Validates the spec, copies the input into the job
    /// directory, persists the manifest, and queues the job. Backpressure:
    /// a full queue returns [`SubmitError::Busy`] without accepting.
    pub fn submit(&self, mut spec: JobSpec) -> Result<u64, SubmitError> {
        // Validation first: reject what could never run.
        build_spec(spec.default_rule.as_deref(), &spec.keys).map_err(SubmitError::Invalid)?;
        if spec.block_size < 64 {
            return Err(SubmitError::Invalid(format!(
                "block size {} is below the 64-byte minimum",
                spec.block_size
            )));
        }
        spec.mem_frames = spec.mem_frames.max(NexsortOptions::MIN_MEM_FRAMES);
        if spec.op == JobOp::TopK && spec.k == 0 {
            return Err(SubmitError::Invalid("top-k jobs need k >= 1".into()));
        }
        if spec.frames_needed() > self.shared.arbiter.total_frames() {
            return Err(SubmitError::Invalid(format!(
                "job needs {} frames ({} sort + {} cache); the global budget is {}",
                spec.frames_needed(),
                spec.mem_frames,
                spec.cache_frames,
                self.shared.arbiter.total_frames()
            )));
        }
        let is_xrec = match &spec.input {
            JobInput::Path(path) => {
                // Only the first bytes: the copy into the job directory
                // streams the rest.
                let mut head = Vec::new();
                std::fs::File::open(path)
                    .and_then(|f| f.take(8).read_to_end(&mut head))
                    .map_err(|e| SubmitError::Invalid(format!("cannot read {path:?}: {e}")))?;
                nexsort_xml::is_xrec(&head)
            }
            JobInput::Inline(bytes) => nexsort_xml::is_xrec(bytes),
        };
        if spec.op != JobOp::Pq && is_xrec {
            return Err(SubmitError::Invalid(
                "server jobs take XML text; .xrec inputs are not resumable across restarts".into(),
            ));
        }
        // Admission: reserve a queue slot (or push back) and an id. A
        // resubmit carrying a known idempotency token short-circuits to its
        // existing job -- the client's first submit was accepted but the
        // ACK never arrived, so accepting again would sort twice.
        let id = {
            let mut core = self.shared.lock_core();
            if core.shutdown {
                return Err(SubmitError::Busy("server is shutting down".into()));
            }
            if let Some(tok) = &spec.idem {
                if let Some(&existing) = core.idem.get(tok) {
                    core.duplicate_submits += 1;
                    return Ok(existing);
                }
            }
            if core.draining {
                return Err(SubmitError::Busy("server is draining; not accepting new jobs".into()));
            }
            if core.queue.len() >= self.shared.cfg.queue_depth {
                return Err(SubmitError::Busy(format!(
                    "queue full ({} job(s) waiting); retry later",
                    core.queue.len()
                )));
            }
            let id = core.next_id;
            core.next_id += 1;
            // Register the token before the lock drops: a concurrent retry
            // of the same submit must adopt this id, not race to a second.
            if let Some(tok) = &spec.idem {
                core.idem.insert(tok.clone(), id);
            }
            id
        };
        // Make the job durable before announcing it. From here on the spec
        // names the job-local copy; an inline document is written out and
        // dropped, never cloned.
        let job_dir = job_path(&self.shared.cfg, id);
        let copy = job_dir.join("input.xml");
        let input = std::mem::replace(&mut spec.input, JobInput::Path(copy.clone()));
        let m = Manifest {
            id,
            state: JobState::Queued,
            spec,
            staged: None,
            error: None,
            resumed: false,
        };
        let persist = (|| -> Result<(), String> {
            std::fs::create_dir_all(&job_dir).map_err(|e| format!("mkdir {job_dir:?}: {e}"))?;
            match &input {
                JobInput::Path(path) => std::fs::copy(path, &copy).map(drop),
                JobInput::Inline(bytes) => std::fs::write(&copy, bytes),
            }
            .map_err(|e| format!("cannot copy input: {e}"))?;
            m.store(&job_dir)
        })();
        drop(input);
        if let Err(e) = persist {
            // The job never became durable: un-register its token so a
            // genuine resubmit is not pointed at a ghost.
            if let Some(tok) = &m.spec.idem {
                let mut core = self.shared.lock_core();
                core.idem.remove(tok);
            }
            return Err(SubmitError::Invalid(e));
        }
        let rec = JobRecord::new(&self.shared.cfg, m, false);
        let mut core = self.shared.lock_core();
        core.jobs.insert(id, rec);
        core.queue.push_back(id);
        core.submitted += 1;
        drop(core);
        self.shared.cv.notify_all();
        Ok(id)
    }

    /// Status of one job: from the table, or from its manifest once its
    /// record has aged out.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let core = self.shared.lock_core();
        if let Some(rec) = core.jobs.get(&id) {
            return Some(snapshot(rec));
        }
        let known = id < core.next_id;
        drop(core);
        if known {
            self.aged_out(id)
        } else {
            None
        }
    }

    /// Status of every known job, in id order, aged-out ones included.
    pub fn list(&self) -> Vec<JobStatus> {
        let (mut live, next_id) = {
            let core = self.shared.lock_core();
            let live: BTreeMap<u64, JobStatus> =
                core.jobs.iter().map(|(&id, r)| (id, snapshot(r))).collect();
            (live, core.next_id)
        };
        (0..next_id).filter_map(|id| live.remove(&id).or_else(|| self.aged_out(id))).collect()
    }

    /// A job whose record aged out of the table, read back from its
    /// manifest: state, error and output as persisted, and no report or
    /// latency, exactly like a terminal job adopted at restart. `None`
    /// when the id never became durable.
    fn aged_out(&self, id: u64) -> Option<JobStatus> {
        let m = Manifest::load(&job_path(&self.shared.cfg, id)).ok().flatten()?;
        Some(snapshot(&JobRecord::new(&self.shared.cfg, m, false)))
    }

    /// Cancel a queued job. Returns true when the job was dequeued; a job
    /// already on a worker runs to completion (the sorting substrate is
    /// single-threaded and cannot be interrupted across threads) and
    /// cancel returns false.
    pub fn cancel(&self, id: u64) -> bool {
        let mut core = self.shared.lock_core();
        let Some(rec) = core.jobs.get_mut(&id) else { return false };
        if rec.m.state != JobState::Queued {
            return false;
        }
        rec.m.state = JobState::Canceled;
        rec.latency = Some(rec.submitted.elapsed());
        let m = rec.m.clone();
        core.queue.retain(|&q| q != id);
        drop(core);
        let _ = m.store(&job_path(&self.shared.cfg, id));
        // Only now may the record age out: the manifest answers for it.
        self.shared.lock_core().retire(id, JobState::Canceled);
        self.shared.cv.notify_all();
        true
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServerStats {
        // Lock order (xlint R11): the arbiter counters are read *before*
        // the core lock is taken — each arbiter getter briefly takes the
        // arbiter lock, and the global order is arbiter before core.
        let budget_total = self.shared.arbiter.total_frames();
        let budget_used = self.shared.arbiter.used_frames();
        let budget_high_water = self.shared.arbiter.high_water_frames();
        let budget_waiters = self.shared.arbiter.waiters();
        // Likewise read outside the core region: violation_count takes the
        // sanitizer's own bookkeeping lock, which must not nest under core.
        let lock_recoveries = locksan::poison_recoveries();
        let locksan_violations = locksan::violation_count() as u64;
        // Socket-edge counters are plain atomics outside every lock order.
        let conns_accepted = self.shared.net.conns_accepted.load(Ordering::Relaxed);
        let conns_timed_out = self.shared.net.conns_timed_out.load(Ordering::Relaxed);
        let conns_faulted = self.shared.net.conns_faulted.load(Ordering::Relaxed);
        let requests = self.shared.net.requests.load(Ordering::Relaxed);
        let lines_too_long = self.shared.net.lines_too_long.load(Ordering::Relaxed);
        let client_retries = crate::net::client_retries();
        let core = self.shared.lock_core();
        let mut st = ServerStats {
            workers: self.shared.cfg.workers,
            queue_depth: self.shared.cfg.queue_depth,
            submitted: core.submitted,
            resumed: core.resumed_total,
            budget_total,
            budget_used,
            budget_high_water,
            budget_waiters,
            lock_recoveries,
            locksan_violations,
            draining: core.draining,
            drains: core.drains,
            duplicate_submits: core.duplicate_submits,
            conns_accepted,
            conns_timed_out,
            conns_faulted,
            requests,
            lines_too_long,
            client_retries,
            done: core.done,
            failed: core.failed,
            canceled: core.canceled,
            ..ServerStats::default()
        };
        // Live jobs never age out, so the table holds all of them.
        for rec in core.jobs.values() {
            match rec.m.state {
                JobState::Queued => st.queued += 1,
                JobState::Running => st.running += 1,
                JobState::Interrupted => st.interrupted += 1,
                JobState::Done | JobState::Failed | JobState::Canceled => {}
            }
        }
        st
    }

    /// The output file of a done job.
    fn done_output(&self, id: u64) -> Result<PathBuf, String> {
        let st = self.status(id).ok_or_else(|| format!("no such job {id}"))?;
        if st.state != JobState::Done {
            return Err(format!("job {id} is {}, not done", st.state.name()));
        }
        Ok(st.output)
    }

    /// Read one bounded chunk of a done job's output: up to `len` bytes
    /// starting at byte `offset`, trimmed back to a UTF-8 character
    /// boundary so every chunk is valid text on the wire. Returns
    /// `(chunk, total_len, eof)`.
    pub fn fetch_output_chunk(
        &self,
        id: u64,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, u64, bool), String> {
        let output = self.done_output(id)?;
        let read_err = |e: std::io::Error| format!("cannot read output {output:?}: {e}");
        let mut file = std::fs::File::open(&output).map_err(read_err)?;
        let total = file.metadata().map_err(read_err)?.len();
        let start = offset.min(total);
        let mut end = (offset.saturating_add(len).min(total) - start) as usize;
        // Seek, then read the chunk plus one byte of lookahead: the byte at
        // `end` decides whether the chunk splits a character.
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(start))
            .and_then(|_| file.take(end as u64 + 1).read_to_end(&mut bytes))
            .map_err(read_err)?;
        // Never split a multi-byte character: back off while the byte at
        // `end` is a UTF-8 continuation byte (0b10xxxxxx).
        while end > 0 && end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
            end -= 1;
        }
        bytes.truncate(end);
        Ok((bytes, total, start + end as u64 >= total))
    }

    /// Block until job `id` reaches a settled state (terminal or
    /// interrupted) or `timeout` passes. Returns the final status.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobStatus> {
        // A job missing from the table has aged out (so it is terminal)
        // or does not exist: either way there is nothing to wait for.
        self.block_until(timeout, |core| {
            core.jobs
                .get(&id)
                .is_none_or(|r| r.m.state.is_terminal() || r.m.state == JobState::Interrupted)
        });
        self.status(id)
    }

    /// Block until no job is queued or running, or `timeout` passes.
    /// Returns true when the server is idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.block_until(timeout, |core| core.queue.is_empty() && !running(core))
    }

    /// Block on the core condvar until `settled` holds or `timeout`
    /// passes; every job state change signals it. Returns whether
    /// `settled` holds.
    fn block_until(&self, timeout: Duration, settled: impl Fn(&Core) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut core = self.shared.lock_core();
        loop {
            if settled(&core) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            core = self.shared.cv.wait_timeout(core, deadline - now);
        }
    }

    /// Enter lame-duck mode: new submits get a busy reply (retryable
    /// backpressure), idle workers exit, running jobs keep their workers
    /// until they settle. Queued jobs stay parked in their manifests and
    /// run on the next [`Server::open`]. Idempotent.
    pub fn begin_drain(&self) {
        {
            let mut core = self.shared.lock_core();
            if core.draining {
                return;
            }
            core.draining = true;
            core.drains += 1;
        }
        self.shared.cv.notify_all();
    }

    /// Graceful drain: [`begin_drain`](Server::begin_drain), then block
    /// until no job is running or `timeout` passes. Returns true when
    /// every running job settled in time; false means the drain deadline
    /// expired with work still on a worker (the caller may still shut
    /// down -- the journal makes that equivalent to a kill -9, and the
    /// next [`Server::open`] resumes without redoing committed passes).
    pub fn drain(&self, timeout: Duration) -> bool {
        self.begin_drain();
        self.block_until(timeout, |core| !running(core))
    }

    /// The socket front end's counters (bumped by `net::serve`).
    pub(crate) fn net_stats(&self) -> &NetStats {
        &self.shared.net
    }

    /// Stop accepting work, let running jobs finish, and join the workers.
    /// Queued jobs stay queued in their manifests and run on the next
    /// [`Server::open`].
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        {
            let mut core = self.shared.lock_core();
            core.shutdown = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Whether any job is on a worker.
fn running(core: &Core) -> bool {
    core.jobs.values().any(|r| r.m.state == JobState::Running)
}

fn snapshot(rec: &JobRecord) -> JobStatus {
    JobStatus {
        id: rec.m.id,
        state: rec.m.state,
        error: rec.m.error.clone(),
        output: rec.output.clone(),
        resumed: rec.m.resumed,
        report: rec.report.clone(),
        latency: rec.latency,
    }
}

/// Job `id`'s directory: its `job.json`, input copy, device and (unless
/// the spec names another path) output.
fn job_path(cfg: &ServerConfig, id: u64) -> PathBuf {
    cfg.job_dir.join(format!("job-{id}"))
}

/// Where a job's output lands: the requested path, or `out.xml` in the job
/// directory.
fn resolve_output(cfg: &ServerConfig, id: u64, spec: &JobSpec) -> PathBuf {
    match &spec.output {
        Some(path) => path.clone(),
        None => job_path(cfg, id).join("out.xml"),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (m, resume, output) = {
            let mut core = shared.lock_core();
            loop {
                if core.shutdown || core.draining {
                    return;
                }
                let Some(id) = core.queue.pop_front() else {
                    core = shared.cv.wait(core);
                    continue;
                };
                // Mark Running inside the same critical section as the
                // pop: a drain that observed "queue empty, none running"
                // between the two would think the job never existed and
                // declare the server idle too early.
                let Some(rec) = core.jobs.get_mut(&id) else { continue };
                let resume = rec.resume;
                rec.m.state = JobState::Running;
                rec.m.resumed |= resume;
                let job = (rec.m.clone(), resume, rec.output.clone());
                core.resumed_total += u64::from(resume);
                break job;
            }
        };
        run_job(shared, m, resume, &output);
    }
}

/// Run one job end to end on this thread, from `m`, its record's durable
/// fields. Every failure path lands in the job record and manifest; this
/// function never panics the worker.
fn run_job(shared: &Shared, mut m: Manifest, resume: bool, output: &Path) {
    let dir = job_path(&shared.cfg, m.id);
    // Lease the job's frames from the global budget (strict-FIFO with the
    // per-tenant cap; blocks until admitted) for the whole on-thread
    // lifetime of the stack.
    let outcome = match shared.arbiter.acquire_as(m.spec.frames_needed(), m.spec.tenant.as_deref())
    {
        Ok(_lease) => execute(&mut m, resume, &dir, output),
        Err(e) => Outcome::Failed(format!("budget lease: {e}")),
    };
    let report = match outcome {
        Outcome::Done(report) => {
            m.state = JobState::Done;
            report.map(|b| *b)
        }
        Outcome::Interrupted => {
            m.state = JobState::Interrupted;
            None
        }
        Outcome::Failed(msg) => {
            m.state = JobState::Failed;
            m.error = Some(msg);
            None
        }
    };
    // The settled state reaches the manifest before memory: once the job
    // is terminal in memory its record may age out, and the manifest then
    // answers for it.
    if m.store(&dir).is_ok() && m.state == JobState::Done {
        // Nothing reads a done job's device or input copy again. A failed
        // job keeps its device for `xsort scrub`, an interrupted one to
        // resume from.
        let _ = std::fs::remove_file(dir.join("device.bin"));
        let _ = std::fs::remove_file(dir.join("input.xml"));
    }
    finish(shared, m, report);
}

/// How `execute` ended; `run_job` stores it in the manifest.
enum Outcome {
    Done(Option<Box<SortReport>>),
    Interrupted,
    Failed(String),
}

/// Publish a job's settled manifest `m` (already stored) and report, and
/// wake every `wait`, `wait_idle` and `drain`.
fn finish(shared: &Shared, m: Manifest, report: Option<SortReport>) {
    let (id, state) = (m.id, m.state);
    let mut core = shared.lock_core();
    if let Some(rec) = core.jobs.get_mut(&id) {
        rec.m = m;
        rec.report = report;
        rec.latency = Some(rec.submitted.elapsed());
        core.retire(id, state);
    }
    drop(core);
    shared.cv.notify_all();
}

/// An op's run step, built on the job's device and not yet started: it
/// runs the op, writes the op's output to the writer it is handed, and
/// returns the op's report (none for pq).
type RunStep = Box<dyn FnOnce(&mut dyn Write) -> Result<Option<SortReport>, Stop>>;

/// Why a run step or the output file stopped: the message a failed job
/// reports, and the device error behind it, if any.
type Stop = (String, Option<XmlError>);

/// A failed output write, as the [`Stop`] it ends the job with.
fn output_phase(e: XmlError) -> Stop {
    (format!("output phase: {e}"), Some(e))
}

/// The single-threaded portion: device stack, staging, the op's run step
/// and its output. Everything `Rc` lives and dies inside this call. A
/// fresh job stores its manifest here once, `running` with its staged
/// extent (a pq job: that its script started), before the op can be
/// interrupted.
fn execute(m: &mut Manifest, resume: bool, dir: &Path, output: &Path) -> Outcome {
    let spec = &m.spec;
    let device = dir.join("device.bin");
    // Only a job that staged its input before a restart has a device image
    // to reattach; pq keeps no state on its device across a restart.
    let mut builder = DiskBuilder::new(spec.block_size);
    builder = if m.staged.is_some() { builder.open_file(&device) } else { builder.file(&device) };
    if !resume && spec.crash_after_ios.is_some() {
        // Created disarmed; armed only just before the run step so the
        // crash point counts I/Os of the op proper, exactly like the CLI.
        // A resumed or redone job runs without it: the hook models the
        // daemon death that got it here.
        builder = builder.crash(CrashPlan::Disarmed);
    }
    let DiskStack { disk, crash, .. } = match builder.build() {
        Ok(stack) => stack,
        Err(e) => return Outcome::Failed(e.to_string()),
    };
    let criterion = match build_spec(spec.default_rule.as_deref(), &spec.keys) {
        Ok(sp) => sp,
        Err(e) => return Outcome::Failed(format!("ordering criterion: {e}")),
    };
    let opts = NexsortOptions {
        mem_frames: spec.mem_frames,
        threshold: spec.threshold,
        depth_limit: spec.depth_limit,
        degeneration: spec.degeneration,
        cache_frames: spec.cache_frames,
        cache_write_mode: if spec.write_back {
            nexsort_extmem::WriteMode::Back
        } else {
            nexsort_extmem::WriteMode::Through
        },
        checkpoint: true,
        journal_blocks: journal_blocks(spec.block_size),
        parity_group: spec.parity_group,
        ..Default::default()
    };
    // Built before the crash hook is armed: building a sorter creates its
    // journal, and the crash point counts only the I/Os after that.
    let built: Result<RunStep, String> = match spec.op {
        JobOp::Sort => staged_input(&disk, &mut m.staged, dir).and_then(|input| {
            let sorter = Nexsort::new(disk.clone(), opts, criterion).map_err(|e| e.to_string())?;
            let pretty = spec.pretty;
            Ok(Box::new(move |w: &mut dyn Write| {
                let doc = if resume {
                    sorter.try_resume_xml_extent(&input)
                } else {
                    sorter.try_sort_xml_extent(&input)
                };
                let doc = doc.map_err(|f| (f.to_string(), Some(f.error)))?;
                doc.write_xml(w, pretty).map_err(output_phase)?;
                Ok(Some(doc.report))
            }) as RunStep)
        }),
        JobOp::TopK => staged_input(&disk, &mut m.staged, dir).and_then(|input| {
            let topk = nexsort_query::TopK::new(disk.clone(), opts, criterion, spec.k)
                .map_err(|e| e.to_string())?;
            Ok(Box::new(move |w: &mut dyn Write| {
                let doc = if resume {
                    topk.resume_xml_extent(&input)
                } else {
                    topk.topk_xml_extent(&input)
                };
                let doc = doc.map_err(|e| (e.to_string(), Some(e)))?;
                doc.write_text(w).map_err(output_phase)?;
                Ok(Some(doc.report.sort))
            }) as RunStep)
        }),
        // Not journaled: the script is deterministic, so an interrupted pq
        // job redoes the whole script from its input copy.
        JobOp::Pq => std::fs::read_to_string(dir.join("input.xml"))
            .map_err(|e| format!("cannot read pq script copy: {e}"))
            .and_then(|script| {
                let mut pq =
                    nexsort_query::ExtPq::new(disk.clone(), spec.mem_frames, spec.parity_group)
                        .map_err(|e| e.to_string())?;
                Ok(Box::new(move |w: &mut dyn Write| {
                    let out = nexsort_query::run_script(&mut pq, &script)
                        .map_err(|e| (e.to_string(), e.error))?;
                    w.write_all(out.as_bytes())
                        .map_err(|e| output_phase(ExtError::Io(e).into()))?;
                    Ok(None)
                }) as RunStep)
            }),
    };
    let run = match built {
        Ok(run) => run,
        Err(msg) => return Outcome::Failed(msg),
    };
    if !resume {
        // What a restart needs to go on (`m` says running already): the
        // extent to reattach, or that the pq script had its crash hook.
        let _ = m.store(dir);
    }
    if let (Some(ctl), Some(after)) = (&crash, m.spec.crash_after_ios) {
        ctl.arm_after(ctl.ios() + after);
    }
    // The op runs inside the output file's write: a stopped op leaves no
    // output behind.
    let done = write_output_file(output, |w| run(w))
        .unwrap_or_else(|e| Err((format!("cannot write output {output:?}: {e}"), None)));
    match done {
        Ok(mut report) => {
            // Flush write-back pages so the device image is consistent
            // until the done manifest is durable.
            let _ = disk.cache_flush_all();
            if let Some(report) = &mut report {
                report.resumed |= resume;
            }
            Outcome::Done(report.map(Box::new))
        }
        // The device froze mid-op or mid-output: the job's durable state
        // (journal, staged input, manifest) is exactly what a kill -9
        // leaves behind, so the next Server::open resumes it from the last
        // sealed phase (or redoes the pq script) and redoes the output.
        Err((_, Some(XmlError::Ext(ExtError::SimulatedCrash { .. }))))
            if crash.as_ref().is_some_and(|c| c.crashed()) =>
        {
            Outcome::Interrupted
        }
        Err((msg, _)) => Outcome::Failed(msg),
    }
}

/// A sort or top-k job's input on its device: the extent a restart
/// adopted, or the input copy staged now and recorded in `staged`.
fn staged_input(
    disk: &Rc<Disk>,
    staged: &mut Option<(Vec<u64>, u64)>,
    dir: &Path,
) -> Result<Extent, String> {
    if let Some((blocks, len)) = staged {
        return Ok(Extent::from_raw(blocks.clone(), *len));
    }
    let file = std::fs::File::open(dir.join("input.xml"))
        .map_err(|e| format!("cannot read input copy: {e}"))?;
    let ext = stage_reader(disk, file).map_err(|e| format!("staging: {e}"))?;
    *staged = Some((ext.blocks().to_vec(), ext.len()));
    Ok(ext)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_xml() -> Vec<u8> {
        let mut doc = String::from("<catalog>");
        for i in (0..40).rev() {
            doc.push_str(&format!("<item id=\"{:03}\"><name>n{}</name></item>", i, (i * 7) % 40));
        }
        doc.push_str("</catalog>");
        doc.into_bytes()
    }

    /// A done job's whole output, read back chunk by chunk.
    fn fetch(server: &Server, id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let (chunk, _, eof) = server.fetch_output_chunk(id, out.len() as u64, 1 << 16).unwrap();
            out.extend(chunk);
            if eof {
                return out;
            }
        }
    }

    /// What a one-shot in-memory sort of the same spec produces.
    fn direct_sort(xml: &[u8], spec: &JobSpec) -> Vec<u8> {
        let stack = DiskBuilder::new(spec.block_size).build().unwrap();
        let input = nexsort_baseline::stage_input(&stack.disk, xml).unwrap();
        let sortspec = build_spec(spec.default_rule.as_deref(), &spec.keys).unwrap();
        let opts = NexsortOptions { mem_frames: spec.mem_frames, ..Default::default() };
        let sorter = Nexsort::new(stack.disk.clone(), opts, sortspec).unwrap();
        sorter.sort_xml_extent(&input).unwrap().to_xml(spec.pretty).unwrap()
    }

    #[test]
    fn journal_blocks_clamps_at_the_boundaries() {
        // Nominal: 32 blocks whenever the block can describe that many.
        assert_eq!(journal_blocks(284), 32, "(284-28)/8 = 32: smallest size at the cap");
        assert_eq!(journal_blocks(1 << 20), 32, "huge blocks stay capped at 32");
        assert_eq!(journal_blocks(usize::MAX), 32, "no overflow at the extreme");
        // Small blocks: the 28-byte header eats into the self-description.
        assert_eq!(journal_blocks(64), 4, "(64-28)/8 floors to 4");
        assert_eq!(journal_blocks(52), 3);
        assert_eq!(journal_blocks(44), 2);
        // Just above the header: the floor of 2 takes over.
        assert_eq!(journal_blocks(36), 2, "(36-28)/8 = 1 is clamped up to the floor");
        assert_eq!(journal_blocks(29), 2);
        // At or below the header size the subtraction saturates; still 2.
        assert_eq!(journal_blocks(28), 2);
        assert_eq!(journal_blocks(0), 2);
    }

    #[test]
    fn stats_surface_lock_recovery_counters() {
        let st = ServerStats::default();
        assert_eq!(st.lock_recoveries, 0);
        assert_eq!(st.locksan_violations, 0);
    }

    #[test]
    fn submit_runs_to_done_bit_identical() {
        let dir = std::env::temp_dir().join(format!("nxsrv-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig::new(2, &dir)).unwrap();
        let xml = sample_xml();
        let spec = JobSpec {
            input: JobInput::Inline(xml.clone()),
            default_rule: Some("@id".into()),
            ..JobSpec::default()
        };
        let expected = direct_sort(&xml, &spec);
        let id = server.submit(spec).unwrap();
        let st = server.wait(id, Duration::from_secs(30)).unwrap();
        assert_eq!(st.state, JobState::Done, "error: {:?}", st.error);
        assert_eq!(fetch(&server, id), expected);
        let report = st.report.expect("done job carries a report");
        assert!(report.n_records >= 40, "report covers the whole document");
        assert!(st.latency.is_some());
        // The manifest on disk agrees.
        let job_dir = dir.join(format!("job-{id}"));
        let m = Manifest::load(&job_dir).unwrap().unwrap();
        assert_eq!(m.state, JobState::Done);
        assert!(m.staged.is_some());
        server.shutdown();
        // A done job leaves only its manifest and its output.
        let mut left: Vec<String> = std::fs::read_dir(&job_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["job.json", "out.xml"]);
        // That is all a restart needs to answer for it.
        let server = Server::open(ServerConfig::new(1, &dir)).unwrap();
        assert_eq!(server.status(id).unwrap().state, JobState::Done);
        assert_eq!(fetch(&server, id), expected);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_jobs_age_out_of_the_table_and_answer_from_their_manifests() {
        let dir = std::env::temp_dir().join(format!("nxsrv-unit-age-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig::new(2, &dir)).unwrap();
        let xml = sample_xml();
        let spec = JobSpec {
            input: JobInput::Inline(xml.clone()),
            default_rule: Some("@id".into()),
            ..JobSpec::default()
        };
        let expected = direct_sort(&xml, &spec);
        let jobs = RETAINED_TERMINAL_JOBS + 6;
        let ids: Vec<u64> = (0..jobs)
            .map(|_| {
                let id = server.submit(spec.clone()).unwrap();
                assert_eq!(server.wait(id, Duration::from_secs(30)).unwrap().state, JobState::Done);
                id
            })
            .collect();
        let table = |server: &Server| server.shared.lock_core().jobs.len();
        assert!(table(&server) <= RETAINED_TERMINAL_JOBS, "table holds {}", table(&server));

        // The oldest job aged out: it answers from its manifest.
        let oldest = ids[0];
        let st = server.status(oldest).expect("an aged-out job is still known");
        assert_eq!(st.state, JobState::Done);
        assert!(st.report.is_none() && st.latency.is_none(), "no report once aged out");
        let st = server.wait(oldest, Duration::from_secs(30)).unwrap();
        assert_eq!(st.state, JobState::Done);
        assert_eq!(
            server.fetch_output_chunk(oldest, 0, 1 << 20).unwrap(),
            (expected.clone(), expected.len() as u64, true)
        );
        // The newest is still in memory, report and all.
        assert!(server.status(ids[jobs - 1]).unwrap().report.is_some());
        assert!(server.status(jobs as u64).is_none(), "ids past the last job are unknown");

        // Totals and the listing still cover every job.
        assert_eq!(server.stats().done, jobs);
        let listed = server.list();
        assert_eq!(listed.iter().map(|st| st.id).collect::<Vec<_>>(), ids);
        assert!(listed.iter().all(|st| st.state == JobState::Done));
        server.shutdown();

        // A restart adopts only the most recent terminal jobs; the counts
        // and the oldest job's answers are unchanged.
        let server = Server::open(ServerConfig::new(1, &dir)).unwrap();
        assert!(table(&server) <= RETAINED_TERMINAL_JOBS, "table holds {}", table(&server));
        assert_eq!(server.stats().done, jobs);
        assert_eq!(server.status(oldest).unwrap().state, JobState::Done);
        assert_eq!(server.list().len(), jobs);
        server.shutdown();

        // A job that fails before its sort starts -- here its input copy
        // is gone -- still answers Failed, with its error, once it too has
        // aged out.
        let broken = jobs as u64;
        let broken_dir = dir.join(format!("job-{broken}"));
        std::fs::create_dir_all(&broken_dir).unwrap();
        let stored =
            JobSpec { input: JobInput::Path(broken_dir.join("input.xml")), ..spec.clone() };
        let queued = Manifest {
            id: broken,
            state: JobState::Queued,
            spec: stored,
            staged: None,
            error: None,
            resumed: false,
        };
        queued.store(&broken_dir).unwrap();
        let server = Server::open(ServerConfig::new(1, &dir)).unwrap();
        assert_eq!(server.wait(broken, Duration::from_secs(30)).unwrap().state, JobState::Failed);
        for _ in 0..RETAINED_TERMINAL_JOBS {
            let id = server.submit(spec.clone()).unwrap();
            assert_eq!(server.wait(id, Duration::from_secs(30)).unwrap().state, JobState::Done);
        }
        assert!(!server.shared.lock_core().jobs.contains_key(&broken), "the failed job aged out");
        let answers = [server.status(broken), server.wait(broken, Duration::from_secs(30))];
        for st in answers.map(Option::unwrap) {
            assert_eq!(st.state, JobState::Failed);
            let error = st.error.unwrap_or_default();
            assert!(error.contains("cannot read input copy"), "error: {error:?}");
        }
        assert_eq!(server.stats().failed, 1);
        assert_eq!(server.list().len(), jobs + 1 + RETAINED_TERMINAL_JOBS);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_striped_job_dir_from_an_older_daemon_is_refused_at_open() {
        // Its blocks live in device.bin.0..N-1; resuming it against
        // device.bin would read the wrong image, so the daemon refuses.
        let dir = std::env::temp_dir().join(format!("nxsrv-unit-str-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = dir.join("job-0");
        std::fs::create_dir_all(&job).unwrap();
        std::fs::write(
            job.join("job.json"),
            r#"{"id":0,"state":"running","spec":{"block":512,"stripe":3},"staged":null}"#,
        )
        .unwrap();
        let err = Server::open(ServerConfig::new(1, &dir)).err().expect("open must refuse");
        assert!(err.contains("job-0") && err.contains("\"stripe\" is retired"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_jobs_are_rejected_at_submit() {
        let dir = std::env::temp_dir().join(format!("nxsrv-unit-inv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServerConfig::new(1, &dir);
        cfg.budget_frames = 64;
        let server = Server::start(cfg).unwrap();
        // Bad ordering criterion.
        let bad_rule = JobSpec {
            input: JobInput::Inline(b"<a/>".to_vec()),
            default_rule: Some("::".into()),
            ..JobSpec::default()
        };
        assert!(matches!(server.submit(bad_rule), Err(SubmitError::Invalid(_))));
        // Demands more frames than the global budget will ever have.
        let too_big = JobSpec {
            input: JobInput::Inline(b"<a/>".to_vec()),
            mem_frames: 1000,
            ..JobSpec::default()
        };
        assert!(matches!(server.submit(too_big), Err(SubmitError::Invalid(_))));
        // Missing input file.
        let no_input =
            JobSpec { input: JobInput::Path(dir.join("nope.xml")), ..JobSpec::default() };
        assert!(matches!(server.submit(no_input), Err(SubmitError::Invalid(_))));
        assert_eq!(server.stats().submitted, 0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
