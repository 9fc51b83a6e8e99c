//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the harness around its own calls into each
//! layer (nothing inside the program is instrumented), kept in memory,
//! and written out once when the run ends.

use std::path::Path;
use std::time::{Duration, Instant};

use ds_runner::json::Json;

/// One closed span: `[start, end)` in nanoseconds since the run's
/// epoch, with the id of the span that caused it (0 for a root).
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-threaded span recorder. Threads each own one, created with
/// a distinct `id_base` so merged ids stay unique. A recorder made with
/// `keep == false` still times spans for its caller but stores none,
/// which is how the untraced run measures.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    keep: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, id_base: u64, keep: bool) -> Self {
        Recorder {
            epoch,
            next_id: id_base + 1,
            keep,
            spans: Vec::new(),
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Allocates a span id for a span whose start is `start`; close it
    /// with [`Recorder::close`].
    pub fn open(&mut self) -> (u64, Instant) {
        let id = self.next_id;
        self.next_id += 1;
        (id, Instant::now())
    }

    /// Records span `id`, started at `start`, as ending now; returns
    /// its duration.
    pub fn close(&mut self, id: u64, parent: u64, name: &str, start: Instant) -> Duration {
        let end = Instant::now();
        if !self.keep {
            return end.duration_since(start);
        }
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
        end.duration_since(start)
    }

    /// Runs `f` inside a span named `name` under `parent`; returns its
    /// result and duration.
    pub fn time<R>(&mut self, parent: u64, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
        let (id, start) = self.open();
        let result = f();
        let took = self.close(id, parent, name, start);
        (result, took)
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Writes every span plus `extra` (run description, per-task
    /// table) as one JSON document to `path`.
    pub fn write(&self, path: &Path, extra: Vec<(String, Json)>) -> Result<(), String> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Int(s.id)),
                    ("parent".into(), Json::Int(s.parent)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::Int(s.start_ns)),
                    ("end_ns".into(), Json::Int(s.end_ns)),
                ])
            })
            .collect();
        let mut fields = extra;
        fields.push(("spans".into(), Json::Arr(spans)));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, Json::Obj(fields).compact())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}
