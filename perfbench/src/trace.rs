//! Spans recorded by the benchmark around its calls into the program's
//! layers. Spans live in memory; the run writes them out once, at the end.

use std::time::Instant;

use nexsort_server::json::{n, obj, s, Value};

/// One timed call: its layer name, the job it served, and the span that
/// caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and operation, e.g. `core.sort`.
    pub name: String,
    /// Identifier shared by every span of one job.
    pub job: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// Start, in seconds since the trace's epoch.
    pub start: f64,
    /// End, in seconds since the trace's epoch.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// As a JSON object.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("name", s(self.name.clone())),
            ("job", n(self.job)),
            ("parent", self.parent.map_or(Value::Null, |p| n(p as u64))),
            ("start", Value::Num(self.start)),
            ("end", Value::Num(self.end)),
        ])
    }

    /// From [`Span::to_value`]'s form, as a span of `job`.
    pub fn from_value(v: &Value, job: u64) -> Option<Span> {
        Some(Span {
            name: v.get("name")?.as_str()?.to_string(),
            job,
            parent: v.get("parent").and_then(Value::as_u64).map(|p| p as usize),
            start: v.get("start")?.as_f64()?,
            end: v.get("end")?.as_f64()?,
        })
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Finished and open spans, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self::since(Instant::now())
    }

    /// An empty trace whose clock starts at `epoch`.
    pub fn since(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &str, job: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span { name: name.into(), job, parent, start, end: start });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn exit(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, job, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Span `id`'s duration minus the time its direct children cover
    /// (children of one span never overlap in this benchmark).
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|sp| sp.parent == Some(id)).map(Span::secs).sum();
        self.spans[id].secs() - children
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|sp| sp.name == name).map(Span::secs).collect()
    }

    /// The whole trace as a JSON array.
    pub fn to_value(&self) -> Value {
        Value::Arr(self.spans.iter().map(Span::to_value).collect())
    }
}
