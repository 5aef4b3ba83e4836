//! Task execution: lowering a [`TaskSpec`] onto the verification stack and
//! collecting the result into an [`Outcome`].
//!
//! This is the code that used to live inside `transyt_cli::commands` —
//! pulled below the rendering layer so the CLI, the server and embedders all
//! run through exactly one implementation (and therefore produce
//! byte-identical documents).

use dbm::{find_witness, FiringWindow, SymbolicTrace, WitnessGoal, ZoneExplorationOptions};
use explore::{CancelToken, ExploreSpec};
use stg::{ExpandError, Marking, Stg};
use transyt::VerifyOptions;
use tts::TimedTransitionSystem;

use crate::format::{Model, ModelSource};
use crate::outcome::{
    trace_of_verdict, Outcome, ReachGoalOutcome, ReachOutcome, ReachPath, RenderedTrace, TraceStep,
    VerifyOutcome, ZoneWitness, ZonesOutcome,
};
use crate::session::SessionError;
use crate::task::{TaskCommand, TaskSpec};

/// Runs `spec` against the parsed model (the model must be the one the
/// spec's hash names; the session guarantees that) under `explore`, the
/// spec lowered with the run's token, progress sink and budget meter.
pub(crate) fn execute(
    model: &Model,
    spec: &TaskSpec,
    explore: &ExploreSpec,
) -> Result<Outcome, SessionError> {
    match spec.command {
        TaskCommand::Verify => run_verify(model, spec, explore),
        TaskCommand::Reach => run_reach(model, spec, explore),
        TaskCommand::Zones => run_zones(model, spec, explore),
    }
}

fn run_verify(
    model: &Model,
    spec: &TaskSpec,
    explore: &ExploreSpec,
) -> Result<Outcome, SessionError> {
    let timed = timed_system(model, &explore.cancel)?;
    let property = model.property();
    let verify_options = VerifyOptions {
        spec: explore.clone(),
        ..VerifyOptions::default()
    };
    let verdict = transyt::verify(&timed, &property, &verify_options);
    let trace = spec.trace.then(|| trace_of_verdict(&verdict, &timed));
    Ok(Outcome::Verify(VerifyOutcome {
        model: model.name.clone(),
        system: timed.underlying().to_string(),
        no_property: model.property.is_empty(),
        verdict,
        trace,
    }))
}

/// The model's timed system, with the run's cancel token reaching the net
/// expansion: a deadline or a cancellation stops a long expansion instead
/// of waiting for it. The expansion's marking limit stays the default one.
fn timed_system(
    model: &Model,
    cancel: &CancelToken,
) -> Result<TimedTransitionSystem, SessionError> {
    model.timed_system_with(cancel).map_err(|e| match e {
        ExpandError::Cancelled => SessionError::Cancelled,
        e => model.expansion_error(e).into(),
    })
}

fn marking_name(net: &Stg, marking: &Marking) -> String {
    let places: Vec<&str> = marking.marked_places().map(|p| net.place_name(p)).collect();
    format!("{{{}}}", places.join(", "))
}

fn run_reach(
    model: &Model,
    spec: &TaskSpec,
    explore: &ExploreSpec,
) -> Result<Outcome, SessionError> {
    let ModelSource::Stg(net) = &model.source else {
        return Err(SessionError::Spec(
            "`reach` needs an .stg model (a .tts file already is a state graph)".to_owned(),
        ));
    };
    let cancelled_or = |context: String| {
        move |e: ExpandError| match e {
            ExpandError::Cancelled => SessionError::Cancelled,
            e => SessionError::Run(format!("{context}: {e}")),
        }
    };
    let (ts, report) = stg::expand_with_report(net, explore)
        .map_err(cancelled_or(format!("expanding `{}`", model.name)))?;
    let states = ts.state_count();

    let goal_description;
    let path = if let Some(label) = &spec.to_label {
        if spec.trace {
            return Err(SessionError::Spec(
                "--to already prints a witness path; drop either --to or --trace".to_owned(),
            ));
        }
        if !net.transitions().any(|t| net.label(t) == label) {
            return Err(SessionError::Spec(format!(
                "--to names unknown label `{label}`"
            )));
        }
        goal_description = format!("first marking enabling `{label}`");
        stg::find_marking_path(net, explore, |marking| {
            net.enabled(marking).iter().any(|&t| net.label(t) == label)
        })
    } else if spec.trace {
        goal_description = "first deadlock marking".to_owned();
        stg::find_marking_path(net, explore, |marking| net.enabled(marking).is_empty())
    } else {
        return Ok(Outcome::Reach(ReachOutcome {
            model: model.name.clone(),
            places: net.place_count(),
            transitions: net.transition_count(),
            report,
            states,
            goal: None,
        }));
    }
    .map_err(cancelled_or(format!("goal search in `{}`", model.name)))?;

    let goal = ReachGoalOutcome {
        description: goal_description,
        path: path.map(|path| ReachPath {
            start: marking_name(net, &path.start),
            steps: path
                .steps
                .iter()
                .map(|(t, marking)| (net.label(*t).to_owned(), marking_name(net, marking)))
                .collect(),
            end: marking_name(net, path.end()),
            labels: path.labels(net).into_iter().map(str::to_owned).collect(),
        }),
    };
    Ok(Outcome::Reach(ReachOutcome {
        model: model.name.clone(),
        places: net.place_count(),
        transitions: net.transition_count(),
        report,
        states,
        goal: Some(goal),
    }))
}

fn run_zones(
    model: &Model,
    spec: &TaskSpec,
    explore: &ExploreSpec,
) -> Result<Outcome, SessionError> {
    let timed = timed_system(model, &explore.cancel)?;
    let zone_options = ZoneExplorationOptions {
        spec: explore.clone(),
    };
    let ts = timed.underlying();
    let model_name = model.name.clone();
    let system = ts.to_string();

    if !spec.trace {
        let outcome = dbm::explore_timed_with(&timed, zone_options);
        return Ok(Outcome::Zones(ZonesOutcome {
            model: model_name,
            system,
            outcome,
            goal_name: None,
            witness: None,
        }));
    }

    // With --trace the one exploration also records how it discovered each
    // configuration, and the witness is read off it: the summary, the
    // budget it meets and its progress events are the untraced run's.
    let goal = if ts.has_marked_states() {
        WitnessGoal::Violation
    } else {
        WitnessGoal::Deadlock
    };
    let goal_name = match goal {
        WitnessGoal::Violation => "violating state",
        WitnessGoal::Deadlock => "deadlock state",
    };
    let (outcome, trace) = find_witness(&timed, zone_options, goal);
    Ok(Outcome::Zones(ZonesOutcome {
        model: model_name,
        system,
        outcome,
        goal_name: Some(goal_name),
        witness: trace.map(|trace| zone_witness(&timed, &trace)),
    }))
}

/// Renders a symbolic witness with its firing windows and, per step, the
/// fired event's clock range on entry to the reached zone.
fn zone_witness(timed: &TimedTransitionSystem, trace: &SymbolicTrace) -> ZoneWitness {
    let ts = timed.underlying();
    let windows = trace.firing_windows(timed).unwrap_or_default();
    let (start, _) = trace.start();
    let mut steps = Vec::new();
    let mut entries = Vec::new();
    for (i, (event, state, zone)) in trace.steps().iter().enumerate() {
        let window: Option<FiringWindow> = windows.get(i).copied();
        let clock = event.index() + 1;
        let entry_lower = zone.lower_bound(clock);
        let entry_upper = zone.upper_bound(clock);
        entries.push(match entry_upper {
            Some(u) => format!("[{entry_lower}, {u}]"),
            None => format!("[{entry_lower}, inf)"),
        });
        steps.push(TraceStep {
            event: ts.alphabet().name(*event).to_owned(),
            state: ts.state_name(*state).to_owned(),
            window,
        });
    }
    ZoneWitness {
        trace: RenderedTrace {
            kind: "witness",
            start: ts.state_name(start).to_owned(),
            steps,
            end: ts.state_name(trace.end_state()).to_owned(),
        },
        entries,
    }
}
