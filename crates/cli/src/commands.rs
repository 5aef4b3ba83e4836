//! The `transyt` subcommands: a thin rendering layer over
//! [`transyt_session::Session`].
//!
//! Every command returns a [`CommandResult`]: the human-readable text the
//! binary prints plus a machine-readable JSON document (written when the
//! user passes `--json PATH`, uploaded as a CI artifact). The actual
//! execution — and the canonical renderings — live in `transyt-session`, so
//! the one-shot CLI, the server and embedders all run through exactly one
//! implementation; these functions only intern the model, bind the
//! [`TaskSpec`] to it and unpack the shared [`TaskResult`].
//!
//! [`TaskResult`]: transyt_session::TaskResult

use std::fmt;

use transyt_session::json::Value;
use transyt_session::{
    render, Completion, ProgressSink, RunControl, Session, SessionError, TaskSpec,
};

use crate::format::Model;

/// What a subcommand produced: the text for stdout and the JSON document for
/// `--json`.
pub struct CommandResult {
    /// Human-readable output.
    pub text: String,
    /// Machine-readable document.
    pub json: Value,
}

/// Error surfaced to the user by the binary.
#[derive(Debug)]
pub enum CliError {
    /// The model file could not be parsed or instantiated.
    Model(crate::format::ModelError),
    /// The command line was malformed.
    Usage(String),
    /// A computation failed (expansion limits, experiment errors, I/O).
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Model(e) => write!(f, "model error: {e}"),
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<crate::format::ModelError> for CliError {
    fn from(e: crate::format::ModelError) -> Self {
        CliError::Model(e)
    }
}

impl From<SessionError> for CliError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::Model(e) => CliError::Model(e),
            SessionError::Spec(msg) => CliError::Usage(msg),
            SessionError::Run(msg) => CliError::Run(msg),
            SessionError::Cancelled => CliError::Run("run cancelled".to_owned()),
            SessionError::UnknownModel(hash) => {
                CliError::Run(format!("unknown model hash `{hash}`"))
            }
            SessionError::Panicked => CliError::Run("job panicked".to_owned()),
        }
    }
}

/// `transyt verify|reach|zones FILE`: interns `model` into a fresh session,
/// binds `spec` to its hash and runs it under `control` (the one-shot CLI
/// passes inert cancellation and, with `--progress`, a stderr printer).
/// `verify` runs the relative-timing engine on the model's property, `reach`
/// expands the net's reachability graph and `zones` runs the zone-based
/// timed exploration; with `--trace` each prints its witness or
/// counterexample.
pub fn cmd_task(
    model: &Model,
    spec: TaskSpec,
    control: RunControl,
) -> Result<CommandResult, CliError> {
    let session = Session::new();
    let cached = session.insert_model(model.clone());
    let spec = spec.for_model(cached.hash);
    let Completion::Finished(result) = session.run_task(&spec, control) else {
        unreachable!("a one-shot command executes its own run and never detaches");
    };
    match &result.outcome {
        Ok(outcome) => Ok(CommandResult {
            text: result.text.clone(),
            json: render::document(outcome),
        }),
        Err(error) => Err(error.clone().into()),
    }
}

/// `transyt table1`: the five Table 1 obligations of the paper (hard-wired
/// IPCMOS models), with per-experiment verdicts, refinement counts and
/// wall-clock times. Not a session task — it runs the `ipcmos` experiment
/// suite, not a model file.
pub fn cmd_table1(progress: ProgressSink) -> Result<CommandResult, CliError> {
    let verify_options = transyt::VerifyOptions {
        spec: transyt::ExploreSpec {
            progress,
            ..transyt::ExploreSpec::default()
        },
        ..transyt::VerifyOptions::default()
    };
    let report = ipcmos::table_1_with(&verify_options)
        .map_err(|e| CliError::Run(format!("table 1: {e}")))?;
    let mut text = String::new();
    text.push_str("Table 1 (DATE 2002 IPCMOS case study)\n");
    text.push_str(&format!("{report}"));
    if report.all_verified() {
        text.push_str("all five obligations verified\n");
    } else {
        text.push_str("WARNING: not all obligations verified\n");
    }
    let json = table1_document(&report);
    Ok(CommandResult { text, json })
}

/// The document of a `transyt table1` run.
fn table1_document(report: &transyt::ProofReport) -> Value {
    let experiments: Vec<Value> = report
        .steps()
        .iter()
        .map(|step| {
            let r = step.verdict.report();
            Value::object()
                .field("name", step.name.as_str())
                .field("verified", step.verdict.is_verified())
                .field("refinements", r.refinements)
                .field("constraints", r.constraints.len())
                .field("explored_states", r.explored_states)
                .field("millis", step.elapsed.as_millis())
        })
        .collect();
    Value::object()
        .field("benchmark", "table1")
        .field("all_verified", report.all_verified())
        .field("total_refinements", report.total_refinements())
        .field("experiments", experiments)
}
