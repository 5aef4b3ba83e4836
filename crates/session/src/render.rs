//! The canonical renderings of an [`Outcome`]: the human-readable text the
//! CLI prints and the machine-readable JSON document it writes for `--json`
//! (and the verification server serves).
//!
//! Both front ends go through these functions — and through
//! [`render_document`] for the final bytes — so a document fetched from a
//! server job is **byte-identical** to the file the CLI writes for the same
//! model and options (the property the golden tests and the CI `server` and
//! `api` jobs diff for).

use dbm::ZoneOutcome;
use stg::ReachReport;
use transyt::Verdict;
use tts::Bound;

use crate::json::Value;
use crate::outcome::{Outcome, RenderedTrace, ZoneWitness};

/// Renders a document exactly as the CLI writes it to a `--json` file (and
/// as the server serves it): compact JSON plus one trailing newline.
pub fn render_document(doc: &Value) -> String {
    doc.render() + "\n"
}

/// The document of a rendered timed trace (`"trace"` field of verify / zones
/// documents).
pub fn trace_document(trace: &RenderedTrace) -> Value {
    let steps: Vec<Value> = trace
        .steps
        .iter()
        .map(|step| {
            let mut doc = Value::object()
                .field("event", step.event.as_str())
                .field("state", step.state.as_str());
            if let Some(window) = step.window {
                doc = doc
                    .field("earliest", window.earliest.as_i64().max(0) as usize)
                    .field(
                        "latest",
                        match window.latest {
                            Bound::Finite(t) => Value::UInt(t.as_i64().max(0) as u128),
                            Bound::Infinite => Value::Str("inf".to_owned()),
                        },
                    );
            }
            doc
        })
        .collect();
    Value::object()
        .field("kind", trace.kind)
        .field("start", trace.start.as_str())
        .field("end", trace.end.as_str())
        .field("steps", steps)
}

/// The document of a `transyt verify` run.
pub fn verify_document(model: &str, verdict: &Verdict, trace: Option<&RenderedTrace>) -> Value {
    let report = verdict.report();
    let constraints: Vec<Value> = report
        .constraints
        .iter()
        .map(|c| Value::Str(c.to_string()))
        .collect();
    let mut doc = Value::object()
        .field(
            "verdict",
            match verdict {
                Verdict::Verified(_) => "verified",
                Verdict::Failed { .. } => "failed",
                Verdict::Inconclusive { .. } => "inconclusive",
            },
        )
        .field("refinements", report.refinements)
        .field("explored_states", report.explored_states)
        .field("constraints", constraints)
        .field("model", model);
    if let Some(trace) = trace {
        doc = doc.field("trace", trace_document(trace));
    }
    doc
}

/// Outcome of the goal search of a `transyt reach` run, for
/// [`reach_document`].
pub enum ReachGoal {
    /// No `--to` / `--trace` goal was given.
    None,
    /// A witness path was found; the fired labels in order.
    Found(Vec<String>),
    /// No reachable marking satisfies the goal.
    NotFound,
}

/// The document of a `transyt reach` run.
pub fn reach_document(model: &str, report: &ReachReport, states: usize, goal: &ReachGoal) -> Value {
    let doc = Value::object()
        .field("model", model)
        .field("markings", report.markings)
        .field("firings", report.firings)
        .field("deadlock_markings", report.deadlock_states.len())
        .field("states", states);
    match goal {
        ReachGoal::None => doc,
        ReachGoal::Found(labels) => {
            let steps: Vec<Value> = labels.iter().map(|l| Value::Str(l.clone())).collect();
            doc.field("path_found", true).field("path", steps)
        }
        ReachGoal::NotFound => doc
            .field("path_found", false)
            .field("path", Value::Array(Vec::new())),
    }
}

/// The document of a `transyt zones` run.
pub fn zones_document(model: &str, outcome: &ZoneOutcome, trace: Option<&RenderedTrace>) -> Value {
    let mut doc = Value::object().field("model", model);
    doc = match outcome {
        ZoneOutcome::Completed(report) => doc
            .field("configurations", report.configurations)
            .field("subsumed", report.subsumed_configurations)
            .field("alu_subsumed", report.alu_subsumed)
            .field("reachable_states", report.reachable_states.len())
            .field("violating_states", report.violating_states.len())
            .field("deadlock_states", report.deadlock_states.len())
            .field("extrapolated_zones", report.extrapolated_zones)
            .field(
                "arena",
                Value::object()
                    .field("allocated", report.arena.allocated)
                    .field("reused", report.arena.reused)
                    .field("recycled", report.arena.recycled),
            )
            .field("completed", true),
        ZoneOutcome::LimitExceeded { explored, subsumed } => doc
            .field("configurations", *explored)
            .field("subsumed", *subsumed)
            .field("completed", false),
        ZoneOutcome::Cancelled { explored, subsumed } => doc
            .field("configurations", *explored)
            .field("subsumed", *subsumed)
            .field("completed", false)
            .field("cancelled", true),
    };
    if let Some(trace) = trace {
        doc = doc.field("trace", trace_document(trace));
    }
    doc
}

/// The JSON document of an [`Outcome`] — exactly the document the respective
/// CLI subcommand builds for `--json`.
pub fn document(outcome: &Outcome) -> Value {
    match outcome {
        Outcome::Verify(v) => verify_document(&v.model, &v.verdict, v.trace.as_ref()),
        Outcome::Reach(r) => {
            let goal = match &r.goal {
                None => ReachGoal::None,
                Some(goal) => match &goal.path {
                    Some(path) => ReachGoal::Found(path.labels.clone()),
                    None => ReachGoal::NotFound,
                },
            };
            reach_document(&r.model, &r.report, r.states, &goal)
        }
        Outcome::Zones(z) => zones_document(
            &z.model,
            &z.outcome,
            z.witness.as_ref().map(|witness| &witness.trace),
        ),
        Outcome::TimedOut(t) => {
            let mut doc = Value::object()
                .field("model", t.model.as_str())
                .field("command", t.command.name())
                .field("timed_out", true)
                .field("deadline_ms", t.deadline.as_millis());
            if let Some(partial) = &t.partial {
                doc = doc.field("partial", document(partial));
            }
            doc
        }
        Outcome::BudgetExceeded(b) => {
            let mut doc = Value::object()
                .field("model", b.model.as_str())
                .field("command", b.command.name())
                .field("budget_exceeded", true)
                .field("resource", b.breach.resource.name())
                .field("used", b.breach.used)
                .field("budget", b.breach.limit);
            if let Some(partial) = &b.partial {
                doc = doc.field("partial", document(partial));
            }
            doc
        }
        // A restored result's real document is the stored bytes carried in
        // its `TaskResult`; this fallback rendering only exists so the
        // `Outcome` stays total over `render`.
        Outcome::Restored(r) => Value::object()
            .field("model", r.model.as_str())
            .field("command", r.command.name())
            .field("restored", true),
    }
}

fn summarise_zone_outcome(outcome: &ZoneOutcome, text: &mut String) {
    match outcome {
        ZoneOutcome::Completed(report) => {
            text.push_str(&format!(
                "timed state space: {} configurations ({} subsumed, {} beyond convex \
                 inclusion), {} reachable states, {} violating, {} deadlocked\n",
                report.configurations,
                report.subsumed_configurations,
                report.alu_subsumed,
                report.reachable_states.len(),
                report.violating_states.len(),
                report.deadlock_states.len()
            ));
            text.push_str(&format!(
                "zone abstraction: {} zones extrapolated, arena {} allocated / {} reused\n",
                report.extrapolated_zones, report.arena.allocated, report.arena.reused
            ));
        }
        ZoneOutcome::LimitExceeded { explored, subsumed } => {
            text.push_str(&format!(
                "aborted: configuration limit exceeded after {explored} configurations \
                 ({subsumed} subsumed)\n"
            ));
        }
        ZoneOutcome::Cancelled { explored, subsumed } => {
            text.push_str(&format!(
                "cancelled after {explored} configurations ({subsumed} subsumed)\n"
            ));
        }
    }
}

/// The human-readable text of an [`Outcome`] — exactly what the respective
/// CLI subcommand prints to stdout.
pub fn text(outcome: &Outcome) -> String {
    let mut text = String::new();
    match outcome {
        Outcome::Verify(v) => {
            text.push_str(&format!("model: {} ({})\n", v.model, v.system));
            if v.no_property {
                text.push_str(
                    "note: the model declares no `property` directive; nothing to check\n",
                );
            }
            text.push_str(&format!("{}\n", v.verdict));
            text.push_str("relative-timing constraints:\n");
            text.push_str(&format!("{}\n", v.verdict.report().constraint_listing()));
            if let Some(rendered) = &v.trace {
                rendered.render(&mut text);
                if let Some(waveform) = rendered.waveform() {
                    text.push_str("waveform (earliest firing times):\n");
                    text.push_str(&waveform);
                }
            }
        }
        Outcome::Reach(r) => {
            text.push_str(&format!(
                "model: {} ({} places, {} transitions)\n",
                r.model, r.places, r.transitions
            ));
            text.push_str(&format!(
                "reachability graph: {} markings, {} firings, {} deadlock marking(s)\n",
                r.report.markings,
                r.report.firings,
                r.report.deadlock_states.len()
            ));
            if let Some(goal) = &r.goal {
                match &goal.path {
                    Some(path) => {
                        text.push_str(&format!("path to {}:\n", goal.description));
                        text.push_str(&format!("  {}\n", path.start));
                        for (label, marking) in &path.steps {
                            text.push_str(&format!("    --{label}--> {marking}\n"));
                        }
                        text.push_str(&format!("  end marking: {}\n", path.end));
                    }
                    None => {
                        text.push_str(&format!(
                            "no reachable marking matches: {}\n",
                            goal.description
                        ));
                    }
                }
            }
        }
        Outcome::Zones(z) => {
            text.push_str(&format!("model: {} ({})\n", z.model, z.system));
            summarise_zone_outcome(&z.outcome, &mut text);
            let goal_name = z.goal_name.unwrap_or("violating state");
            match &z.witness {
                Some(ZoneWitness { trace, entries }) => {
                    text.push_str(&format!("symbolic timed trace to the first {goal_name}:\n"));
                    text.push_str(&format!("  {}\n", trace.start));
                    for (step, entry) in trace.steps.iter().zip(entries) {
                        let window_text =
                            step.window.map(|w| format!(" @ {w}")).unwrap_or_default();
                        text.push_str(&format!(
                            "    --{}{window_text}--> {}  (clock of {} on entry: {entry})\n",
                            step.event, step.state, step.event,
                        ));
                    }
                    text.push_str(&format!("  end state: {}\n", trace.end));
                    if let Some(waveform) = trace.waveform() {
                        text.push_str("waveform (earliest firing times):\n");
                        text.push_str(&waveform);
                    }
                }
                // No goal state was expanded: the exploration's outcome
                // says why.
                None if z.goal_name.is_some() => text.push_str(&match &z.outcome {
                    ZoneOutcome::Completed(_) => format!("no {goal_name} is timed-reachable\n"),
                    ZoneOutcome::LimitExceeded { explored, .. } => {
                        format!("witness search aborted after {explored} configurations\n")
                    }
                    ZoneOutcome::Cancelled { explored, .. } => {
                        format!("witness search cancelled after {explored} configurations\n")
                    }
                }),
                None => {}
            }
        }
        Outcome::TimedOut(t) => {
            text.push_str(&format!(
                "TIMED OUT: `{}` on `{}` exceeded its deadline of {:?}\n",
                t.command, t.model, t.deadline
            ));
            if let Some(partial) = &t.partial {
                text.push_str("partial results at the deadline:\n");
                text.push_str(&self::text(partial));
            }
        }
        Outcome::BudgetExceeded(b) => {
            text.push_str(&format!(
                "BUDGET EXCEEDED: `{}` on `{}` used {} {} against a budget of {}\n",
                b.command, b.model, b.breach.used, b.breach.resource, b.breach.limit
            ));
            if let Some(partial) = &b.partial {
                text.push_str("partial results at the budget breach:\n");
                text.push_str(&self::text(partial));
            }
        }
        // As with `document`: the stored text in the `TaskResult` is the
        // real rendering; this arm keeps `text` total.
        Outcome::Restored(r) => {
            text.push_str(&format!(
                "restored stored result of `{}` on `{}`\n",
                r.command, r.model
            ));
        }
    }
    text
}
