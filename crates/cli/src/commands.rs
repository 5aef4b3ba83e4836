//! The `transyt` subcommands: a thin rendering layer over
//! [`transyt_session::Session`].
//!
//! Every command returns a [`CommandResult`]: the human-readable text the
//! binary prints plus a machine-readable JSON document (written when the
//! user passes `--json PATH`, uploaded as a CI artifact). The actual
//! execution — and the canonical renderings — live in `transyt-session`, so
//! the one-shot CLI, the server and embedders all run through exactly one
//! implementation; these functions only intern the model, lower [`Options`]
//! into a [`TaskSpec`] and unpack the shared [`TaskResult`].
//!
//! [`TaskResult`]: transyt_session::TaskResult

use std::fmt;
use std::time::Duration;

use transyt_session::json::Value;
use transyt_session::{
    render, Completion, RunControl, Session, SessionError, TaskCommand, TaskSpec,
};
use transyt_session::{CancelToken, ProgressSink};

use crate::format::Model;

/// Options shared by the subcommands (parsed from the command line).
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Explore the zone graph unabstracted, the exact oracle (`--exact`).
    pub exact: bool,
    /// Print a witness / counterexample trace (`--trace`).
    pub trace: bool,
    /// Exploration size limit (`--limit`, default per command).
    pub limit: Option<usize>,
    /// Target label for `reach --to LABEL`.
    pub to_label: Option<String>,
    /// Wall-clock deadline (`--timeout SECS`): when it expires the run is
    /// cancelled and reported as timed out.
    pub timeout: Option<Duration>,
    /// Configuration budget (`--max-configs N`): the run is cancelled
    /// deterministically once it expands more than `N` configurations.
    pub max_configs: Option<usize>,
    /// Zone-memory budget in arena bytes (`--max-zone-bytes N`).
    pub max_zone_bytes: Option<usize>,
    /// Cooperative cancellation of the command's explorations (the one-shot
    /// CLI leaves the inert default).
    pub cancel: CancelToken,
    /// Progress events of the command's explorations (`--progress` wires a
    /// stderr printer; default inert).
    pub progress: ProgressSink,
}

impl Options {
    /// The options of `spec`, with inert cancellation and progress.
    pub fn from_spec(spec: &TaskSpec) -> Options {
        Options {
            exact: spec.exact,
            trace: spec.trace,
            limit: spec.limit,
            to_label: spec.to_label.clone(),
            timeout: spec.deadline,
            max_configs: spec.max_configs,
            max_zone_bytes: spec.max_zone_bytes,
            cancel: CancelToken::default(),
            progress: ProgressSink::default(),
        }
    }

    /// Lowers these options into a [`TaskSpec`] for `command` against the
    /// interned model `hash`.
    pub fn to_spec(&self, command: TaskCommand, hash: &str) -> TaskSpec {
        TaskSpec {
            model: hash.to_owned(),
            command,
            exact: self.exact,
            trace: self.trace,
            limit: self.limit,
            to_label: self.to_label.clone(),
            deadline: self.timeout,
            max_configs: self.max_configs,
            max_zone_bytes: self.max_zone_bytes,
        }
    }
}

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

/// Runs one session task against `model` and unpacks the result into the
/// CLI's shape.
fn run_command(
    model: &Model,
    command: TaskCommand,
    options: &Options,
) -> Result<CommandResult, CliError> {
    let session = Session::new();
    let cached = session.insert_model(model.clone());
    let spec = options.to_spec(command, &cached.hash);
    let control = RunControl {
        cancel: options.cancel.clone(),
        progress: options.progress.clone(),
    };
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

/// `transyt verify FILE`: run the relative-timing engine on the model's
/// property and (with `--trace`) print a timed counterexample or witness.
pub fn cmd_verify(model: &Model, options: &Options) -> Result<CommandResult, CliError> {
    run_command(model, TaskCommand::Verify, options)
}

/// `transyt reach FILE`: expand the net's reachability graph; with `--to
/// LABEL` print a witness firing sequence to the first marking enabling the
/// label, with `--trace` a path to the first deadlock.
pub fn cmd_reach(model: &Model, options: &Options) -> Result<CommandResult, CliError> {
    run_command(model, TaskCommand::Reach, options)
}

/// `transyt zones FILE`: the conventional zone-based timed exploration, with
/// `--trace` a symbolic timed witness to the first violating (or, lacking
/// marked states, deadlocked) state.
pub fn cmd_zones(model: &Model, options: &Options) -> Result<CommandResult, CliError> {
    run_command(model, TaskCommand::Zones, options)
}

/// `transyt table1`: the five Table 1 obligations of the paper (hard-wired
/// IPCMOS models), with per-experiment verdicts, refinement counts and
/// wall-clock times. Not a session task — it runs the `ipcmos` experiment
/// suite, not a model file.
pub fn cmd_table1(options: &Options) -> Result<CommandResult, CliError> {
    let verify_options = transyt::VerifyOptions {
        spec: transyt::ExploreSpec {
            cancel: options.cancel.clone(),
            progress: options.progress.clone(),
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
