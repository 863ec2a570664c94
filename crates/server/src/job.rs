//! Job specifications, lifecycle state, and the persisted per-job manifest.
//!
//! Every accepted job owns a directory `job-<id>/` under the server's job
//! root. It can hold:
//!
//! * `job.json`   -- the manifest: the full spec, the lifecycle state, the
//!   error of a failed job, and (once staged) the raw input extent, i.e.
//!   everything a restarted daemon needs to reattach the device and resume
//!   the sort;
//! * `input.xml`  -- a private copy of the input document (a pq job's
//!   script), taken at accept time so a resumed job never depends on the
//!   submitter's file surviving;
//! * `device.bin` -- the job's block device, created when a worker starts
//!   the job, carrying the sort's write-ahead journal;
//! * `out.xml`    -- the output, unless the spec names another path.
//!
//! Which of them are there follows the job's state:
//!
//! ```text
//! queued                 job.json input.xml  (+ device.bin once interrupted)
//! running, interrupted   job.json input.xml device.bin
//! done                   job.json out.xml
//! failed                 job.json input.xml device.bin  (kept for `xsort scrub`;
//!                        no device when the job failed before building it)
//! canceled               job.json input.xml  (+ device.bin once interrupted)
//! ```
//!
//! The manifest is rewritten via temp-file + rename so a crash mid-update
//! leaves the previous consistent version in place. It is stored once per
//! durable fact: `queued` when the job is accepted; `running` with the
//! staged extent (for pq: that the script started) before a fresh job can
//! be interrupted; then `done`, `interrupted` or `failed` when it settles,
//! or `canceled`. The device and the input copy are deleted once `done`
//! is stored.

use std::path::{Path, PathBuf};

use crate::json::{self, b, n, obj, s, Value};

/// Where a submitted job's input bytes come from.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Read the file at accept time.
    Path(PathBuf),
    /// The document text was inlined in the submit request.
    Inline(Vec<u8>),
}

/// What kind of work a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOp {
    /// Full NEXSORT sort (the default).
    #[default]
    Sort,
    /// `ORDER BY ... LIMIT k`: sort, keep only the first `k` records.
    /// Journaled and resumable exactly like a sort.
    TopK,
    /// External priority queue: the input is a script of `push KEY` /
    /// `pop` / `peek` lines; the output records each pop/peek result.
    /// Deterministic, so an interrupted job redoes the script from its
    /// input copy.
    Pq,
}

impl JobOp {
    /// Stable wire/manifest name.
    pub fn name(self) -> &'static str {
        match self {
            JobOp::Sort => "sort",
            JobOp::TopK => "topk",
            JobOp::Pq => "pq",
        }
    }

    /// Parse a manifest/wire name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        Ok(match name {
            "sort" => JobOp::Sort,
            "topk" => JobOp::TopK,
            "pq" => JobOp::Pq,
            other => return Err(format!("unknown job op {other:?} (expected sort, topk, pq)")),
        })
    }
}

/// Everything needed to run one sort job. Plain data (`Send`): the worker
/// thread builds the actual device stack and sorter from it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to do with the input.
    pub op: JobOp,
    /// The `k` of a top-k job; ignored by other ops.
    pub k: u64,
    /// Tenant this job is billed to, for the per-tenant fairness cap.
    pub tenant: Option<String>,
    /// Client-supplied idempotency token. A resubmit carrying a token the
    /// server has already accepted adopts the existing job (same id) instead
    /// of sorting twice -- the dropped-ACK retry case. Persisted in the
    /// manifest, so deduplication survives a daemon restart.
    pub idem: Option<String>,
    /// Input document.
    pub input: JobInput,
    /// Where the sorted output lands; `out.xml` inside the job directory
    /// when absent (fetch it over the protocol).
    pub output: Option<PathBuf>,
    /// Default ordering rule (spec-string grammar); document order if absent.
    pub default_rule: Option<String>,
    /// Per-tag `TAG=RULE` overrides.
    pub keys: Vec<String>,
    /// Device block size in bytes.
    pub block_size: usize,
    /// Sort memory in frames (the model's `m`).
    pub mem_frames: usize,
    /// Sort threshold in bytes (`None` = 2 blocks).
    pub threshold: Option<u64>,
    /// Depth limit for subtree descent.
    pub depth_limit: Option<u32>,
    /// Run the graceful-degeneration variant.
    pub degeneration: bool,
    /// Page-cache frames (0 = no cache). Leased from the global budget on
    /// top of `mem_frames`.
    pub cache_frames: usize,
    /// Write-back caching instead of write-through.
    pub write_back: bool,
    /// Parity blocks per K data blocks of each sealed run (0 = none).
    pub parity_group: usize,
    /// Pretty-print the XML output.
    pub pretty: bool,
    /// Test hook: freeze the job's device after this many physical I/Os of
    /// the sort proper -- the in-process stand-in for `kill -9` mid-job.
    pub crash_after_ios: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            op: JobOp::Sort,
            k: 0,
            tenant: None,
            idem: None,
            input: JobInput::Inline(Vec::new()),
            output: None,
            default_rule: None,
            keys: Vec::new(),
            block_size: 4096,
            mem_frames: 32,
            threshold: None,
            depth_limit: None,
            degeneration: false,
            cache_frames: 0,
            write_back: false,
            parity_group: 0,
            pretty: false,
            crash_after_ios: None,
        }
    }
}

impl JobSpec {
    /// Frames this job holds from the global budget while it runs: its sort
    /// memory plus its private page cache.
    pub fn frames_needed(&self) -> usize {
        self.mem_frames + self.cache_frames
    }
}

/// Lifecycle of a job. Terminal states are `Done`, `Failed`, and
/// `Canceled`; `Interrupted` means the job's device froze mid-sort (crash
/// injection or daemon death) and the job resumes on the next restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// On a worker thread (staging, sorting, or writing output).
    Running,
    /// Output written and byte-complete.
    Done,
    /// Sort failed; see the error message.
    Failed,
    /// Dequeued by a cancel request before a worker picked it up.
    Canceled,
    /// Frozen mid-sort; will resume from the journal on restart.
    Interrupted,
}

impl JobState {
    /// Stable wire/manifest name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
            JobState::Interrupted => "interrupted",
        }
    }

    /// Parse a manifest/wire name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        Ok(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "canceled" => JobState::Canceled,
            "interrupted" => JobState::Interrupted,
            other => return Err(format!("unknown job state {other:?}")),
        })
    }

    /// True when no further work will happen on this job.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }
}

/// The persisted manifest of one job.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Job id (also names the job directory).
    pub id: u64,
    /// Lifecycle state at the last manifest write.
    pub state: JobState,
    /// The job's full specification (input is always the job-local copy).
    pub spec: JobSpec,
    /// The staged input extent `(blocks, byte_len)`, recorded before the
    /// sort starts so a restart can reattach it.
    pub staged: Option<(Vec<u64>, u64)>,
    /// Error message of a failed job.
    pub error: Option<String>,
    /// True when the job has already been resumed at least once.
    pub resumed: bool,
}

fn opt_num(v: Option<u64>) -> Value {
    match v {
        Some(x) => n(x),
        None => Value::Null,
    }
}

fn opt_str(v: &Option<String>) -> Value {
    match v {
        Some(x) => s(x.clone()),
        None => Value::Null,
    }
}

/// Serialize a spec to its JSON object form (shared by the manifest and the
/// submit protocol's echo).
pub fn spec_to_value(spec: &JobSpec) -> Value {
    obj(vec![
        ("op", s(spec.op.name())),
        ("k", n(spec.k)),
        ("tenant", opt_str(&spec.tenant)),
        ("idem", opt_str(&spec.idem)),
        ("output", spec.output.as_ref().map_or(Value::Null, |p| s(p.display().to_string()))),
        ("default", opt_str(&spec.default_rule)),
        ("keys", Value::Arr(spec.keys.iter().map(|k| s(k.clone())).collect())),
        ("block", n(spec.block_size as u64)),
        ("mem_frames", n(spec.mem_frames as u64)),
        ("threshold", opt_num(spec.threshold)),
        ("depth_limit", opt_num(spec.depth_limit.map(u64::from))),
        ("degeneration", b(spec.degeneration)),
        ("cache_frames", n(spec.cache_frames as u64)),
        ("write_back", b(spec.write_back)),
        ("parity_group", n(spec.parity_group as u64)),
        ("pretty", b(spec.pretty)),
        ("crash_after_ios", opt_num(spec.crash_after_ios)),
    ])
}

/// Whether a spec value equals a retired field's old default.
type IsOldDefault = fn(&Value) -> bool;

/// A retired spec field: its name, the test for its old default, and why
/// it was retired.
type Retired = (&'static str, IsOldDefault, &'static str);

/// Spec fields of removed features. Manifests written before a removal
/// carry the field at its old default, which is still accepted.
static RETIRED_FIELDS: [Retired; 5] = [
    ("io_workers", |x| x.as_u64() == Some(0), "the I/O scheduler was removed"),
    ("prefetch_depth", |x| x.as_u64() == Some(0), "the I/O scheduler was removed"),
    ("write_behind", |x| x.as_bool() == Some(false), "the I/O scheduler was removed"),
    ("stripe", |x| matches!(x.as_u64(), Some(0 | 1)), "device striping was removed"),
    ("cache_policy", |x| x.as_str() == Some("lru"), "the buffer pool only evicts LRU"),
];

/// The first retired field `v` sets to anything but its old default. Such
/// a spec asks for a configuration that no longer exists -- a striped job's
/// blocks live in `device.bin.0..N-1`, not `device.bin` -- so it must be
/// refused rather than run (or resumed) without it.
fn retired_entry(v: &Value) -> Option<&'static Retired> {
    RETIRED_FIELDS.iter().find(|(key, is_default, _)| {
        v.get(key).is_some_and(|x| !matches!(x, Value::Null) && !is_default(x))
    })
}

/// The name of the first retired field `v` sets to anything but its old
/// default (see [`spec_from_value`]).
pub fn retired_field(v: &Value) -> Option<&'static str> {
    retired_entry(v).map(|&(key, ..)| key)
}

/// Parse the spec fields out of a JSON object (absent fields keep their
/// defaults). The `input` field is handled by the caller: the protocol
/// accepts `input` (a path) or `xml` (inline text); the manifest always
/// uses the job-local copy. A retired field set to a non-default value
/// (see [`retired_field`]) is an error naming the field.
pub fn spec_from_value(v: &Value) -> Result<JobSpec, String> {
    if let Some((key, _, why)) = retired_entry(v) {
        return Err(format!(
            "field {key:?} is retired: {why}, so only its old default is accepted"
        ));
    }
    let mut spec = JobSpec::default();
    let get_usize = |key: &str| -> Result<Option<usize>, String> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(|u| Some(u as usize))
                .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
        }
    };
    let get_bool = |key: &str| -> Result<Option<bool>, String> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => {
                x.as_bool().map(Some).ok_or_else(|| format!("field {key:?} must be a boolean"))
            }
        }
    };
    if let Some(op) = v.get("op") {
        if let Some(name) = op.as_str() {
            spec.op = JobOp::from_name(name)?;
        }
    }
    if let Some(x) = get_usize("k")? {
        spec.k = x as u64;
    }
    if let Some(t) = v.get("tenant") {
        if let Some(name) = t.as_str() {
            spec.tenant = Some(name.to_string());
        }
    }
    if let Some(t) = v.get("idem") {
        if let Some(token) = t.as_str() {
            spec.idem = Some(token.to_string());
        }
    }
    if let Some(out) = v.get("output") {
        if let Some(path) = out.as_str() {
            spec.output = Some(PathBuf::from(path));
        }
    }
    if let Some(d) = v.get("default") {
        if let Some(rule) = d.as_str() {
            spec.default_rule = Some(rule.to_string());
        }
    }
    if let Some(keys) = v.get("keys") {
        let items = keys.as_arr().ok_or("field \"keys\" must be an array of TAG=RULE strings")?;
        for item in items {
            spec.keys.push(item.as_str().ok_or("field \"keys\" must contain strings")?.to_string());
        }
    }
    if let Some(x) = get_usize("block")? {
        spec.block_size = x;
    }
    if let Some(x) = get_usize("mem_frames")? {
        spec.mem_frames = x;
    }
    if let Some(x) = get_usize("threshold")? {
        spec.threshold = Some(x as u64);
    }
    if let Some(x) = get_usize("depth_limit")? {
        spec.depth_limit = Some(x as u32);
    }
    if let Some(x) = get_bool("degeneration")? {
        spec.degeneration = x;
    }
    if let Some(x) = get_usize("cache_frames")? {
        spec.cache_frames = x;
    }
    if let Some(x) = get_bool("write_back")? {
        spec.write_back = x;
    }
    if let Some(x) = get_usize("parity_group")? {
        spec.parity_group = x;
    }
    if let Some(x) = get_bool("pretty")? {
        spec.pretty = x;
    }
    if let Some(x) = get_usize("crash_after_ios")? {
        spec.crash_after_ios = Some(x as u64);
    }
    Ok(spec)
}

impl Manifest {
    /// Serialize to the `job.json` document.
    pub fn to_json(&self) -> String {
        let staged = match &self.staged {
            None => Value::Null,
            Some((blocks, len)) => obj(vec![
                ("blocks", Value::Arr(blocks.iter().map(|&id| n(id)).collect())),
                ("len", n(*len)),
            ]),
        };
        obj(vec![
            ("id", n(self.id)),
            ("state", s(self.state.name())),
            ("spec", spec_to_value(&self.spec)),
            ("staged", staged),
            ("error", opt_str(&self.error)),
            ("resumed", b(self.resumed)),
        ])
        .to_json()
    }

    /// Parse a `job.json` document. `job_dir` supplies the input path (the
    /// manifest never records it; the copy is always `job_dir/input.xml`).
    pub fn from_json(text: &str, job_dir: &Path) -> Result<Self, String> {
        let v = json::parse(text)?;
        let id = v.get("id").and_then(Value::as_u64).ok_or("manifest missing \"id\"")?;
        let state = JobState::from_name(
            v.get("state").and_then(Value::as_str).ok_or("manifest missing \"state\"")?,
        )?;
        let mut spec = spec_from_value(v.get("spec").ok_or("manifest missing \"spec\"")?)?;
        spec.input = JobInput::Path(job_dir.join("input.xml"));
        let staged = match v.get("staged") {
            None | Some(Value::Null) => None,
            Some(st) => {
                let blocks = st
                    .get("blocks")
                    .and_then(Value::as_arr)
                    .ok_or("manifest \"staged\" missing \"blocks\"")?
                    .iter()
                    .map(|b| b.as_u64().ok_or("staged block ids must be integers"))
                    .collect::<Result<Vec<u64>, _>>()?;
                let len = st
                    .get("len")
                    .and_then(Value::as_u64)
                    .ok_or("manifest \"staged\" missing \"len\"")?;
                Some((blocks, len))
            }
        };
        let error = v.get("error").and_then(Value::as_str).map(str::to_string);
        let resumed = v.get("resumed").and_then(Value::as_bool).unwrap_or(false);
        Ok(Self { id, state, spec, staged, error, resumed })
    }

    /// Write the manifest atomically (temp file + rename) into `job_dir`.
    pub fn store(&self, job_dir: &Path) -> Result<(), String> {
        let tmp = job_dir.join("job.json.tmp");
        let dst = job_dir.join("job.json");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("cannot write manifest {tmp:?}: {e}"))?;
        std::fs::rename(&tmp, &dst).map_err(|e| format!("cannot commit manifest {dst:?}: {e}"))
    }

    /// Load the manifest from `job_dir`, if one exists.
    pub fn load(job_dir: &Path) -> Result<Option<Self>, String> {
        let path = job_dir.join("job.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::from_json(&text, job_dir)
                .map(Some)
                .map_err(|e| format!("manifest {path:?}: {e}")),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("cannot read manifest {path:?}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifests_round_trip() {
        let spec = JobSpec {
            op: JobOp::TopK,
            k: 25,
            tenant: Some("acme".into()),
            idem: Some("retry-token-1".into()),
            output: Some(PathBuf::from("/tmp/out.xml")),
            default_rule: Some("@k:num".into()),
            keys: vec!["t=@a".into(), "u=@b:desc".into()],
            block_size: 256,
            mem_frames: 16,
            threshold: Some(512),
            depth_limit: Some(3),
            degeneration: true,
            cache_frames: 8,
            write_back: true,
            parity_group: 4,
            pretty: true,
            crash_after_ios: Some(77),
            ..JobSpec::default()
        };
        let m = Manifest {
            id: 9,
            state: JobState::Interrupted,
            spec,
            staged: Some((vec![5, 6, 7], 1234)),
            error: None,
            resumed: true,
        };
        let back = Manifest::from_json(&m.to_json(), Path::new("/jobs/job-9")).unwrap();
        assert_eq!(back.id, 9);
        assert_eq!(back.state, JobState::Interrupted);
        assert_eq!(back.staged, Some((vec![5, 6, 7], 1234)));
        assert!(back.resumed);
        assert_eq!(back.spec.block_size, 256);
        assert_eq!(back.spec.mem_frames, 16);
        assert_eq!(back.spec.threshold, Some(512));
        assert_eq!(back.spec.depth_limit, Some(3));
        assert!(back.spec.degeneration && back.spec.write_back);
        assert_eq!(back.spec.parity_group, 4);
        assert_eq!(back.spec.crash_after_ios, Some(77));
        assert_eq!(back.spec.op, JobOp::TopK);
        assert_eq!(back.spec.k, 25);
        assert_eq!(back.spec.tenant.as_deref(), Some("acme"));
        assert_eq!(back.spec.idem.as_deref(), Some("retry-token-1"));
        assert_eq!(back.spec.keys, vec!["t=@a".to_string(), "u=@b:desc".to_string()]);
        match &back.spec.input {
            JobInput::Path(p) => assert_eq!(p, Path::new("/jobs/job-9/input.xml")),
            other => panic!("expected job-local input path, got {other:?}"),
        }
    }

    #[test]
    fn retired_fields_are_refused_unless_at_their_old_default() {
        // A manifest from before the removals carries every retired field
        // at its default: it still loads.
        let old = r#"{"id":3,"state":"done","spec":{"block":512,"io_workers":0,
            "prefetch_depth":0,"write_behind":false,"stripe":1,"cache_policy":"lru"},
            "staged":null}"#;
        let m = Manifest::from_json(old, Path::new("/jobs/job-3")).unwrap();
        assert_eq!(m.spec.block_size, 512);
        // Any other value is refused with an error naming the field and
        // the reason it went, on the submit path and the manifest path alike.
        let scheduler = "the I/O scheduler was removed";
        for (key, value, why) in [
            ("io_workers", "2", scheduler),
            ("prefetch_depth", "4", scheduler),
            ("write_behind", "true", scheduler),
            ("stripe", "3", "device striping was removed"),
            ("stripe", "\"x\"", "device striping was removed"),
            ("cache_policy", "\"clock\"", "the buffer pool only evicts LRU"),
        ] {
            let spec = json::parse(&format!(r#"{{"block":512,"{key}":{value}}}"#)).unwrap();
            assert_eq!(retired_field(&spec), Some(key));
            let err = spec_from_value(&spec).unwrap_err();
            assert!(err.contains(&format!("{key:?} is retired: {why},")), "{err}");
            let manifest = format!(
                r#"{{"id":4,"state":"interrupted","spec":{},"staged":null}}"#,
                spec.to_json()
            );
            let err = Manifest::from_json(&manifest, Path::new("/jobs/job-4")).unwrap_err();
            assert!(err.contains(&format!("{key:?} is retired: {why},")), "{err}");
        }
        // A fresh manifest never writes them.
        let text = Manifest {
            id: 5,
            state: JobState::Queued,
            spec: JobSpec::default(),
            staged: None,
            error: None,
            resumed: false,
        }
        .to_json();
        for (key, ..) in RETIRED_FIELDS {
            assert!(!text.contains(key), "{key} in {text}");
        }
    }

    #[test]
    fn states_round_trip_and_classify() {
        for st in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Canceled,
            JobState::Interrupted,
        ] {
            assert_eq!(JobState::from_name(st.name()).unwrap(), st);
        }
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Interrupted.is_terminal(), "interrupted jobs resume on restart");
        assert!(JobState::from_name("zombie").is_err());
    }

    #[test]
    fn store_and_load_are_atomic_siblings() {
        let dir = std::env::temp_dir().join(format!("xjob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Manifest::load(&dir).unwrap().is_none());
        let m = Manifest {
            id: 1,
            state: JobState::Queued,
            spec: JobSpec::default(),
            staged: None,
            error: Some("boom".into()),
            resumed: false,
        };
        m.store(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap().expect("stored");
        assert_eq!(back.error.as_deref(), Some("boom"));
        assert!(!dir.join("job.json.tmp").exists(), "temp file was renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
