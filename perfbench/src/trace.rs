//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own side of each layer boundary:
//! around its calls into the crates' public functions, and between the
//! `ProgressEvent`s the explore driver (`Level`, `Batch`) and the refinement
//! engine (`Refinement`) already emit. They are kept in memory and written
//! out once the run ends. A span's layer is its name up to the first `.`.
//!
//! A *charged* span times a call the benchmark cannot reach inside another
//! one (the model builders `ipcmos::experiment_k_with` calls): the call is
//! repeated right after its parent ended and the span is charged to that
//! parent as a child, so the parent's self time and net time exclude it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use explore::{ProgressEvent, ProgressSink};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub task: usize,
    /// Measured after its parent ended; see the module docs.
    pub charged: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Counts taken from the explore driver's progress events.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventCounts {
    pub levels: u64,
    pub batches: u64,
    /// Expansions and subsumption skips of finished explorations (each
    /// exploration's last `Batch` event carries its totals).
    pub expanded: u64,
    pub subsumption_skips: u64,
}

struct Inner {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last (the traced code runs on one thread).
    stack: Vec<usize>,
    task: usize,
    /// Where the next `explore.level` span starts: the last driver event
    /// since a span opened or closed or a refinement began. Time before an
    /// exploration's first event stays with the enclosing span.
    mark: Option<Duration>,
    /// The open `core.refinement_pass` span, if any.
    pass: Option<usize>,
    last_batch: (u64, u64),
    counts: EventCounts,
    /// Total time of the charged spans so far.
    charged: Duration,
}

impl Inner {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn open(&mut self, name: &'static str, start: Duration) -> usize {
        let parent = self.stack.last().copied();
        self.open_under(name, start, parent, false)
    }

    fn open_under(
        &mut self,
        name: &'static str,
        start: Duration,
        parent: Option<usize>,
        charged: bool,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            task: self.task,
            charged,
        });
        self.stack.push(id);
        self.mark = None;
        id
    }

    fn close(&mut self, id: usize, end: Duration) {
        self.spans[id].end = end;
        if let Some(position) = self.stack.iter().rposition(|&open| open == id) {
            self.stack.truncate(position);
        }
        self.mark = None;
    }

    fn finish_exploration(&mut self) {
        let (expanded, skips) = std::mem::take(&mut self.last_batch);
        self.counts.expanded += expanded;
        self.counts.subsumption_skips += skips;
    }

    fn on_event(&mut self, event: &ProgressEvent) {
        let now = self.now();
        match *event {
            ProgressEvent::Batch {
                expanded,
                subsumption_skips,
                ..
            } => {
                self.counts.batches += 1;
                // A drop in the running counter means a new exploration began.
                if (expanded as u64) < self.last_batch.0 {
                    self.finish_exploration();
                }
                self.last_batch = (expanded as u64, subsumption_skips as u64);
                self.mark.get_or_insert(now);
            }
            ProgressEvent::Level { .. } => {
                self.counts.levels += 1;
                if let Some(start) = self.mark {
                    let id = self.open("explore.level", start);
                    self.close(id, now);
                }
                self.mark = Some(now);
            }
            ProgressEvent::Refinement { .. } => {
                self.finish_exploration();
                if let Some(pass) = self.pass.take() {
                    self.close(pass, now);
                }
                self.pass = Some(self.open("core.refinement_pass", now));
            }
            ProgressEvent::Cancelled { .. } => {}
        }
    }
}

/// A span recorder, or nothing: the untraced run holds the inert tracer and
/// pays one branch per call.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<Inner>>>);

impl Tracer {
    pub fn recording() -> Tracer {
        Tracer(Some(Arc::new(Mutex::new(Inner {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            task: 0,
            mark: None,
            pass: None,
            last_batch: (0, 0),
            counts: EventCounts::default(),
            charged: Duration::ZERO,
        }))))
    }

    fn with<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.0
            .as_ref()
            .map(|inner| f(&mut inner.lock().expect("tracer poisoned")))
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_with_id(name, f).0
    }

    /// [`span`](Self::span), also returning the span's id for
    /// [`charge`](Self::charge).
    pub fn span_with_id<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        let id = self.with(|inner| {
            let now = inner.now();
            inner.open(name, now)
        });
        (self.finish(id, f()), id)
    }

    /// Runs `f` in a span charged to the finished span `parent` (see the
    /// module docs); just runs `f` when `parent` is `None`.
    pub fn charge<R>(&self, parent: Option<usize>, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = parent.and_then(|parent| {
            self.with(|inner| {
                let now = inner.now();
                inner.open_under(name, now, Some(parent), true)
            })
        });
        let result = self.finish(id, f());
        if let Some(id) = id {
            self.with(|inner| inner.charged += inner.spans[id].duration());
        }
        result
    }

    /// Total time spent in charged spans: work a traced task repeats only
    /// to time it, which its own time should not include.
    pub fn charged_time(&self) -> Duration {
        self.with(|inner| inner.charged).unwrap_or_default()
    }

    fn finish<R>(&self, id: Option<usize>, result: R) -> R {
        if let Some(id) = id {
            self.with(|inner| {
                if let Some(pass) = inner.pass.take() {
                    let now = inner.now();
                    inner.close(pass, now);
                }
                inner.finish_exploration();
                let now = inner.now();
                inner.close(id, now);
            });
        }
        result
    }

    /// Records a span measured elsewhere (the service workload's client
    /// threads time their own round trips).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, task: usize) {
        self.with(|inner| {
            let span = Span {
                name,
                start: start.saturating_duration_since(inner.origin),
                end: end.saturating_duration_since(inner.origin),
                parent: None,
                task,
                charged: false,
            };
            inner.spans.push(span);
        });
    }

    pub fn set_task(&self, task: usize) {
        self.with(|inner| inner.task = task);
    }

    /// A progress sink that turns driver events into spans and counts, or
    /// the inert sink when tracing is off.
    pub fn sink(&self) -> ProgressSink {
        match &self.0 {
            None => ProgressSink::default(),
            Some(inner) => {
                let inner = Arc::clone(inner);
                ProgressSink::new(move |event| {
                    inner.lock().expect("tracer poisoned").on_event(event)
                })
            }
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.with(|inner| inner.spans.clone()).unwrap_or_default()
    }

    pub fn counts(&self) -> EventCounts {
        self.with(|inner| inner.counts).unwrap_or_default()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStats {
    pub count: usize,
    pub total: Duration,
}

impl NameStats {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.count as f64
        }
    }
}

/// Per-name counts and net times: a span's duration minus its charged
/// children.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut net: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for span in spans.iter().filter(|span| span.charged) {
        if let Some(parent) = span.parent {
            net[parent] = net[parent].saturating_sub(span.duration());
        }
    }
    let mut stats: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (span, net) in spans.iter().zip(net) {
        let entry = stats.entry(span.name).or_default();
        entry.count += 1;
        entry.total += net;
    }
    stats
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover (children of one parent never overlap — the traced code
/// is single-threaded — and charged children are charged in full).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration();
        }
    }
    let mut layers: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *layers.entry(span.layer()).or_default() += span.duration().saturating_sub(covered);
    }
    layers
}

/// A human-readable time breakdown by layer, largest first, ending with
/// whether the dominant layer is one of `expected` — the layers the
/// workload's purpose says should do the work.
pub fn layer_report(layers: BTreeMap<&'static str, Duration>, expected: &[&str]) -> String {
    let total: Duration = layers.values().sum();
    let mut sorted: Vec<(&'static str, Duration)> = layers.into_iter().collect();
    sorted.sort_by_key(|&(_, time)| std::cmp::Reverse(time));
    let mut text = String::new();
    for (layer, time) in &sorted {
        let _ = writeln!(
            text,
            "  {layer:<26} {:>10.1} ms  {:>5.1}%",
            time.as_secs_f64() * 1e3,
            100.0 * time.as_secs_f64() / total.as_secs_f64().max(1e-12)
        );
    }
    let dominant = sorted.first().map_or("none", |(layer, _)| layer);
    let verdict = if expected.contains(&dominant) {
        "as the workload's purpose predicts"
    } else {
        "NOT one the workload's purpose predicts"
    };
    let _ = writeln!(
        text,
        "  dominant layer: {dominant} ({verdict}: {})",
        expected.join(", ")
    );
    text
}

/// Writes the spans as tab-separated lines:
/// `id name start_us end_us parent task`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from("id\tname\tstart_us\tend_us\tparent\ttask\n");
    for (id, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{id}\t{}\t{}\t{}\t{parent}\t{}",
            span.name,
            span.start.as_micros(),
            span.end.as_micros(),
            span.task
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
