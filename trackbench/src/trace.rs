//! The traced run's instruments: an in-memory span recorder and the
//! [`SearchBackend`] adapter that times every `issue`.
//!
//! Spans nest trial → round → {`exact_count`, `run_round` → `issue`,
//! `peek_batch`, `apply`, `checkpoint`}. The restart phase's
//! `checkpoint` and `open_persistent` spans are roots of their own: they
//! happen after the tracking loop and sit outside its wall. Every span of one trial
//! carries the trial's index as its trace id; spans stay in memory until
//! [`write_csv`] dumps them at the end of the run.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use hidden_db::budget::QueryBudget;
use hidden_db::database::HiddenDatabase;
use hidden_db::errors::IssueError;
use hidden_db::interface::QueryOutcome;
use hidden_db::query::ConjunctiveQuery;
use hidden_db::schema::Schema;
use hidden_db::session::SearchBackend;

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One whole trial: the root of the tracking tree.
    Trial,
    /// One round: ground truth, every estimator, then the update batch.
    Round,
    /// `HiddenDatabase::exact_count` (ground truth).
    ExactCount,
    /// `Estimator::run_round` of the estimator with this index.
    RunRound(usize),
    /// `HiddenDatabase::answer` served from the memo.
    IssueHit,
    /// `HiddenDatabase::answer` evaluated by the engine.
    IssueMiss,
    /// `RoundDriver::peek_batch` (the workload generator).
    PeekBatch,
    /// `HiddenDatabase::apply`.
    Apply,
    /// `HiddenDatabase::checkpoint`.
    Checkpoint,
    /// `HiddenDatabase::open_persistent` (restart phase).
    OpenPersistent,
}

impl Layer {
    /// Layer name in metric keys; all estimators share `run_round`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Trial => "trial",
            Self::Round => "round",
            Self::ExactCount => "exact_count",
            Self::RunRound(_) => "run_round",
            Self::IssueHit => "issue_hit",
            Self::IssueMiss => "issue_miss",
            Self::PeekBatch => "peek_batch",
            Self::Apply => "apply",
            Self::Checkpoint => "checkpoint",
            Self::OpenPersistent => "open_persistent",
        }
    }
}

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Trace id: the trial index.
    pub trial: u32,
    /// Span id, unique within its trial (ids start at 1).
    pub id: u32,
    /// Parent span id, 0 for a root.
    pub parent: u32,
    /// What was measured.
    pub layer: Layer,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A span that has been opened but not closed yet.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    layer: Layer,
    start: u64,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Per-trial span recorder. A disabled tracer reads no clock and keeps
/// nothing, so the untraced run pays only a branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    trial: u32,
    next: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for one trial; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant, trial: u32) -> Self {
        Self { on, epoch, trial, next: 0, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn open(&mut self, layer: Layer, parent: u32) -> Open {
        if !self.on {
            return Open { id: 0, parent, layer, start: 0 };
        }
        self.next += 1;
        Open { id: self.next, parent, layer, start: self.now() }
    }

    /// Closes `open` under the layer it was opened with.
    pub fn close(&mut self, open: Open) {
        self.close_as(open, open.layer);
    }

    /// Closes `open`, recording it under `layer` (an `issue` learns
    /// whether it hit the memo only once the answer is back).
    pub fn close_as(&mut self, open: Open, layer: Layer) {
        if self.on {
            let end = self.now();
            self.spans.push(Span {
                trial: self.trial,
                id: open.id,
                parent: open.parent,
                layer,
                start: open.start,
                end,
            });
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A per-round session that times each answer: it charges a
/// [`QueryBudget`] and calls [`HiddenDatabase::answer`] exactly as
/// `SearchSession::issue` does, and tags the span hit or miss by the
/// `InterfaceStats::cache_hits` delta.
pub struct TracedSession<'a> {
    db: &'a mut HiddenDatabase,
    budget: QueryBudget,
    tracer: &'a mut Tracer,
    parent: u32,
}

impl<'a> TracedSession<'a> {
    /// A session of `g` queries whose spans hang under `parent`.
    pub fn new(db: &'a mut HiddenDatabase, g: u64, tracer: &'a mut Tracer, parent: u32) -> Self {
        Self { db, budget: QueryBudget::new(g), tracer, parent }
    }
}

impl SearchBackend for TracedSession<'_> {
    fn schema(&self) -> &Schema {
        self.db.schema()
    }

    fn k(&self) -> usize {
        self.db.k()
    }

    fn issue(&mut self, query: &ConjunctiveQuery) -> Result<QueryOutcome, IssueError> {
        self.budget.charge()?;
        let hits = self.db.stats().cache_hits;
        let span = self.tracer.open(Layer::IssueMiss, self.parent);
        let out = self.db.answer(query);
        let layer =
            if self.db.stats().cache_hits > hits { Layer::IssueHit } else { Layer::IssueMiss };
        self.tracer.close_as(span, layer);
        Ok(out)
    }

    fn remaining(&self) -> u64 {
        self.budget.remaining()
    }

    fn spent(&self) -> u64 {
        self.budget.spent()
    }
}

/// Span totals of a traced run.
#[derive(Debug, Default)]
pub struct Profile {
    /// Self time per layer name (duration minus time covered by child
    /// spans), summed over the tracking tree.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Every span duration per layer, in recording order.
    pub durations: BTreeMap<Layer, Vec<u64>>,
    /// Per estimator: total `run_round` time and the part spent in `issue`.
    pub run_round: BTreeMap<usize, (u64, u64)>,
    /// Sum of root trial spans: the thread time the tree accounts for.
    pub trial_ns: u64,
    /// Spans whose children cover more than the span itself (must be 0:
    /// children nest inside their parent).
    pub overlapping: u64,
}

/// Folds spans into self times and duration lists. `spans` holds whole
/// trials; ids are only unique within a trial.
pub fn profile(spans: &[Span]) -> Profile {
    let mut child_ns: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry((s.trial, s.parent)).or_default() += s.ns();
    }
    let mut p = Profile::default();
    for s in spans {
        p.durations.entry(s.layer).or_default().push(s.ns());
        if s.parent == 0 && s.layer != Layer::Trial {
            continue; // restart phase, outside the tracking tree
        }
        let children = child_ns.get(&(s.trial, s.id)).copied().unwrap_or(0);
        if children > s.ns() {
            p.overlapping += 1;
        }
        *p.self_ns.entry(s.layer.name()).or_default() += s.ns().saturating_sub(children);
        match s.layer {
            Layer::Trial => p.trial_ns += s.ns(),
            Layer::RunRound(algo) => {
                let e = p.run_round.entry(algo).or_default();
                e.0 += s.ns();
                e.1 += children;
            }
            _ => {}
        }
    }
    p
}

/// Writes spans as CSV (`trial,id,parent,layer,start_ns,end_ns`).
pub fn write_csv(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "trial,id,parent,layer,start_ns,end_ns")?;
    for s in spans {
        let layer = match s.layer {
            Layer::RunRound(algo) => format!("run_round.{algo}"),
            other => other.name().to_string(),
        };
        writeln!(out, "{},{},{},{layer},{},{}", s.trial, s.id, s.parent, s.start, s.end)?;
    }
    out.flush()
}
