//! Structured task results: what a [`Session`](crate::Session) run returns.
//!
//! An [`Outcome`] carries the verification verdict, the exploration report
//! and the replayable trace as *data* — not pre-rendered strings — so
//! embedders can inspect them programmatically. The canonical text and JSON
//! renderings (what the CLI prints and the server serves, byte-identical
//! between the two) live in [`render`](crate::render).

use std::time::Duration;

use dbm::{path_firing_windows, FiringWindow, ZoneOutcome};
use ipcmos::{asap_run, SimEvent, SimTrace};
use stg::ReachReport;
use transyt::Verdict;
use tts::{Bound, SignalEdge, TimedTransitionSystem, TransitionSystem};

use crate::task::TaskCommand;

/// One step of a rendered timed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Name of the fired event.
    pub event: String,
    /// Name of the reached state.
    pub state: String,
    /// Absolute firing window (exact for witnesses, path-relative bounds for
    /// counterexamples), if timing information is available.
    pub window: Option<FiringWindow>,
}

/// A rendered timed trace: what `--trace` prints, in structured form so
/// tests can replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedTrace {
    /// `"counterexample"` (verification failed), `"witness"` (verified), or
    /// `"example-run"` (verdict inconclusive — the run proves nothing).
    pub kind: &'static str,
    /// Name of the start state.
    pub start: String,
    /// The steps, in firing order.
    pub steps: Vec<TraceStep>,
    /// Name of the end state (the violating state for counterexamples).
    pub end: String,
}

impl RenderedTrace {
    pub(crate) fn render(&self, out: &mut String) {
        out.push_str(&format!("{} trace:\n", self.kind));
        if self.kind == "example-run" {
            out.push_str(
                "  (verdict inconclusive — this run exercises the model but proves nothing)\n",
            );
        }
        out.push_str(&format!("  {}\n", self.start));
        for step in &self.steps {
            let window = step.window.map(|w| format!(" @ {w}")).unwrap_or_default();
            out.push_str(&format!("    --{}{window}--> {}\n", step.event, step.state));
        }
        out.push_str(&format!("  end state: {}\n", self.end));
    }

    /// Renders an ASCII waveform of the trace's signal edges (reusing the
    /// Fig. 7 renderer), or `None` when fewer than two steps carry a signal
    /// edge and a firing time.
    pub fn waveform(&self) -> Option<String> {
        let mut signals: Vec<String> = Vec::new();
        let mut events = Vec::new();
        for step in &self.steps {
            let Some(edge) = SignalEdge::parse(&step.event) else {
                continue;
            };
            let Some(window) = step.window else { continue };
            if !signals.iter().any(|s| s == edge.signal()) {
                signals.push(edge.signal().to_owned());
            }
            events.push(SimEvent {
                time: window.earliest,
                event: step.event.clone(),
            });
        }
        if events.len() < 2 {
            return None;
        }
        let trace = SimTrace::from_events(events);
        let names: Vec<&str> = signals.iter().map(String::as_str).collect();
        Some(trace.waveform(&names, &Default::default()))
    }
}

/// The trace `verify --trace` prints: the engine's counterexample when
/// verification failed (annotated with firing windows by replaying the path
/// through the zone semantics), a deterministic ASAP witness run when it
/// succeeded, and an `example-run` (explicitly *not* a witness — nothing was
/// proved) when the verdict is inconclusive.
pub fn trace_of_verdict(verdict: &Verdict, timed: &TimedTransitionSystem) -> RenderedTrace {
    let ts = timed.underlying();
    match verdict {
        Verdict::Failed { counterexample, .. } => {
            let trace = &counterexample.trace;
            let windows = path_firing_windows(timed, trace.start(), trace.steps());
            let steps = trace
                .steps()
                .iter()
                .enumerate()
                .map(|(i, &(event, target))| TraceStep {
                    event: ts.alphabet().name(event).to_owned(),
                    state: ts.state_name(target).to_owned(),
                    window: windows.as_ref().map(|w| w[i]),
                })
                .collect();
            RenderedTrace {
                kind: "counterexample",
                start: ts.state_name(trace.start()).to_owned(),
                steps,
                end: ts.state_name(trace.end_state()).to_owned(),
            }
        }
        _ => {
            let run = asap_run(timed, 40);
            let start = ts.initial_states()[0];
            let end = run.last().map_or(start, |&(_, state, _)| state);
            let steps = run
                .into_iter()
                .map(|(event, state, time)| TraceStep {
                    event: ts.alphabet().name(event).to_owned(),
                    state: ts.state_name(state).to_owned(),
                    window: Some(FiringWindow {
                        earliest: time,
                        latest: Bound::Finite(time),
                    }),
                })
                .collect();
            RenderedTrace {
                // An inconclusive verdict proved nothing: label the run so
                // neither a reader nor a JSON consumer mistakes it for a
                // certificate.
                kind: if matches!(verdict, Verdict::Verified(_)) {
                    "witness"
                } else {
                    "example-run"
                },
                start: ts.state_name(start).to_owned(),
                steps,
                end: ts.state_name(end).to_owned(),
            }
        }
    }
}

/// Checks that `ts` (the expanded model) and the verification verdict of a
/// rendered trace agree — used by the integration tests to replay what the
/// CLI printed, step by step, to the reported end state.
pub fn replay_rendered(trace: &RenderedTrace, ts: &TransitionSystem) -> Option<String> {
    // Resolve by names: walk the steps, requiring a transition with the
    // step's event name into a state with the step's state name.
    let mut current = ts.states().find(|&s| ts.state_name(s) == trace.start)?;
    for step in &trace.steps {
        let next = ts
            .transitions_from(current)
            .iter()
            .find(|&&(event, target)| {
                ts.alphabet().name(event) == step.event && ts.state_name(target) == step.state
            })
            .map(|&(_, target)| target)?;
        current = next;
    }
    let end = ts.state_name(current).to_owned();
    if end == trace.end {
        Some(end)
    } else {
        None
    }
}

/// Result of a `verify` task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// The model's declared name.
    pub model: String,
    /// One-line summary of the underlying transition system (its `Display`).
    pub system: String,
    /// `true` when the model declares no `property` directive (there was
    /// nothing to check).
    pub no_property: bool,
    /// The engine's verdict, including the report and any counterexample.
    pub verdict: Verdict,
    /// The rendered trace, when the spec asked for one.
    pub trace: Option<RenderedTrace>,
}

/// A witness firing sequence of a `reach` goal search, rendered with marking
/// names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachPath {
    /// Name of the start marking.
    pub start: String,
    /// `(transition label, reached marking name)` steps, in firing order.
    pub steps: Vec<(String, String)>,
    /// Name of the final marking.
    pub end: String,
    /// The fired transition labels, in order (what the JSON document lists).
    pub labels: Vec<String>,
}

/// The goal search of a `reach` task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachGoalOutcome {
    /// Human-readable description of the goal (e.g. ``first marking enabling
    /// `C+` ``).
    pub description: String,
    /// The witness path, or `None` when no reachable marking matches.
    pub path: Option<ReachPath>,
}

/// Result of a `reach` task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachOutcome {
    /// The model's declared name.
    pub model: String,
    /// Number of places of the net.
    pub places: usize,
    /// Number of transitions of the net.
    pub transitions: usize,
    /// The expansion report.
    pub report: ReachReport,
    /// Number of states of the expanded transition system.
    pub states: usize,
    /// The goal search, when the spec named one (`--to` or `--trace`).
    pub goal: Option<ReachGoalOutcome>,
}

/// The witness of a `zones --trace` task: a symbolic timed trace to the
/// first goal state. `entries` aligns with `trace.steps`: the fired event's
/// clock range on entry to the step's zone, pre-formatted (e.g. `[0, 4]` or
/// `[2, inf)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneWitness {
    /// The witness trace.
    pub trace: RenderedTrace,
    /// Clock-on-entry annotations, one per step.
    pub entries: Vec<String>,
}

/// Result of a `zones` task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZonesOutcome {
    /// The model's declared name.
    pub model: String,
    /// One-line summary of the underlying transition system (its `Display`).
    pub system: String,
    /// The exploration outcome (completed report, limit, or cancellation).
    pub outcome: ZoneOutcome,
    /// What the witness goal was: `"violating state"` when the model marks
    /// violations, `"deadlock state"` otherwise. Set iff a trace was asked
    /// for.
    pub goal_name: Option<&'static str>,
    /// The witness, when the spec asked for a trace and the exploration
    /// expanded a goal state; otherwise [`outcome`](Self::outcome) says why
    /// there is none (no goal state is reachable, or the search stopped
    /// before one).
    pub witness: Option<ZoneWitness>,
}

/// A task stopped by its [`TaskSpec::deadline`](crate::TaskSpec::deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedOutOutcome {
    /// The model's declared name.
    pub model: String,
    /// The command that timed out.
    pub command: TaskCommand,
    /// The deadline that expired.
    pub deadline: Duration,
    /// The partial outcome the cancelled run still produced (e.g. a `zones`
    /// report with the configurations explored so far), when it produced
    /// one.
    pub partial: Option<Box<Outcome>>,
}

/// A task stopped by one of its resource budgets
/// ([`TaskSpec::max_configs`](crate::TaskSpec::max_configs) /
/// [`TaskSpec::max_zone_bytes`](crate::TaskSpec::max_zone_bytes)).
///
/// Unlike a timeout, a budget abort is *deterministic*: the driver notices
/// the breach at a fixed point of its loop, so the partial outcome —
/// configuration counts included — is identical on every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceededOutcome {
    /// The model's declared name.
    pub model: String,
    /// The command whose budget was exhausted.
    pub command: TaskCommand,
    /// The breach the meter recorded: which resource, usage, ceiling.
    pub breach: explore::BudgetBreach,
    /// The partial outcome the cancelled run still produced (e.g. a `zones`
    /// report with the configurations explored so far), when it produced
    /// one.
    pub partial: Option<Box<Outcome>>,
}

/// A completed task served from a persistent store
/// ([`StoreHook`](crate::StoreHook)) instead of a run. The structured
/// outcome is not persisted — only the canonical renderings are — so a
/// store hit carries its saved `text` / `document` bytes verbatim in the
/// surrounding [`TaskResult`](crate::TaskResult) and this marker in place
/// of the structured data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoredOutcome {
    /// The model name (the interned name, or the content hash when the
    /// model itself is no longer loaded).
    pub model: String,
    /// The command the stored result answers.
    pub command: TaskCommand,
}

/// What one [`Session`](crate::Session) task produced: structured data, not
/// strings. Render with [`render::text`](crate::render::text) and
/// [`render::document`](crate::render::document).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A `verify` result.
    Verify(VerifyOutcome),
    /// A `reach` result.
    Reach(ReachOutcome),
    /// A `zones` result.
    Zones(ZonesOutcome),
    /// The task's deadline expired before the run finished.
    TimedOut(TimedOutOutcome),
    /// A resource budget of the task was exhausted before the run finished.
    BudgetExceeded(BudgetExceededOutcome),
    /// A completed result restored from a persistent store; the canonical
    /// renderings live in the surrounding
    /// [`TaskResult`](crate::TaskResult).
    Restored(RestoredOutcome),
}

impl Outcome {
    /// The model name the outcome describes.
    pub fn model(&self) -> &str {
        match self {
            Outcome::Verify(v) => &v.model,
            Outcome::Reach(r) => &r.model,
            Outcome::Zones(z) => &z.model,
            Outcome::TimedOut(t) => &t.model,
            Outcome::BudgetExceeded(b) => &b.model,
            Outcome::Restored(r) => &r.model,
        }
    }

    /// Returns `true` when the run was stopped by a fired cancel token (the
    /// result is a partial document, not a verdict). Used to decide whether
    /// an outcome may be memoized, and by the deadline monitor to tell a
    /// timed-out run from one that completed in the same instant.
    pub fn was_cancelled(&self) -> bool {
        match self {
            Outcome::Verify(v) => matches!(
                &v.verdict,
                Verdict::Inconclusive { reason, .. } if reason == "verification cancelled"
            ),
            Outcome::Reach(_) => false,
            Outcome::Zones(z) => matches!(z.outcome, ZoneOutcome::Cancelled { .. }),
            Outcome::TimedOut(_) => true,
            Outcome::BudgetExceeded(_) => true,
            // A store only ever holds completed runs.
            Outcome::Restored(_) => false,
        }
    }
}
