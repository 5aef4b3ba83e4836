//! The verification experiments of the paper (Table 1 and §4.2/§5).
//!
//! Five obligations establish the correctness of IPCMOS pipelines of any
//! length:
//!
//! 1. `A_in ∥ A_out ⊑ S` — the abstractions satisfy the specification.
//! 2. `A_in ∥ I ∥ OUT ⊑ A_in ∥ A_out` — guarantee the correctness of `A_out`
//!    (watched output: `ACK` of the left interface).
//! 3. `IN ∥ I ∥ A_out ⊑ A_in ∥ A_out` — guarantee the correctness of `A_in`
//!    abstracting the supplier plus one stage (watched output: the right
//!    `VALID`).
//! 4. `A_in ∥ I ∥ A_out ⊑ A_in ∥ A_out` — `A_in` is a behavioural fixed
//!    point: the induction step that extends the result to any `n ≥ 2`.
//! 5. `IN ∥ I ∥ OUT ⊑ S` — the transistor-level verification of a single
//!    stage between pulse-driven environments (short circuits, persistency,
//!    deadlock-freedom).

use std::time::Instant;

use cmos_circuit::CircuitModel;
use stg::ExpandError;
use transyt::{
    check_refinement, verify, ProofReport, ProofStep, RefinementObligation, SafetyProperty,
    Verdict, VerifyOptions,
};
use tts::{compose, compose_timed_all, ComposeError, TimedTransitionSystem, TransitionSystem};

use crate::env::{a_in, a_out, in_env, out_env, spec, Interface};
use crate::stage::{stage_model, StageSignals};

/// Error raised while building an experiment's model.
#[derive(Debug)]
pub enum ExperimentError {
    /// A model could not be built.
    Model(String),
    /// A composition failed.
    Compose(ComposeError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Model(msg) => write!(f, "model construction failed: {msg}"),
            ExperimentError::Compose(e) => write!(f, "composition failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ComposeError> for ExperimentError {
    fn from(e: ComposeError) -> Self {
        ExperimentError::Compose(e)
    }
}

fn model_err<E: std::fmt::Display>(e: E) -> ExperimentError {
    ExperimentError::Model(e.to_string())
}

/// The untimed abstraction of the whole pipeline: `A_in ∥ A_out` on
/// interface 0.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn abstract_pipeline() -> Result<TransitionSystem, ExperimentError> {
    Ok(compose(
        &a_in(0).map_err(model_err)?,
        &a_out(0).map_err(model_err)?,
    )?)
}

/// Experiment 1: `A_in ∥ A_out ⊑ S` (plus deadlock-freedom of the closed
/// abstract system).
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_1() -> Result<Verdict, ExperimentError> {
    experiment_1_with(&VerifyOptions::default())
}

/// [`experiment_1`] with explicit verification options (e.g. a
/// cancel token or a progress sink in [`VerifyOptions::spec`]).
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_1_with(options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    let closed = TimedTransitionSystem::new(abstract_pipeline()?);
    let observer = spec(0).map_err(model_err)?;
    let interface = Interface::new(0);
    let obligation = RefinementObligation {
        implementation: &closed,
        abstraction: &observer,
        watched: vec![interface.valid_fall.clone(), interface.ack_rise.clone()],
    };
    let containment = check_refinement(&obligation, options).map_err(model_err)?;
    if !containment.is_verified() {
        return Ok(containment);
    }
    // Deadlock-freedom of the closed abstract system (the liveness half of S).
    let deadlock = verify(
        &closed,
        &SafetyProperty::new("A_in || A_out deadlock-free").require_deadlock_freedom(),
        options,
    );
    if deadlock.is_verified() {
        Ok(containment)
    } else {
        Ok(deadlock)
    }
}

/// Experiment 2: `A_in ∥ I ∥ OUT ⊑ A_in ∥ A_out`, checking the `ACK` output
/// of the left interface against `A_out`.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_2() -> Result<Verdict, ExperimentError> {
    experiment_2_with(&VerifyOptions::default())
}

/// [`experiment_2`] with explicit verification options (e.g. a
/// cancel token or a progress sink in [`VerifyOptions::spec`]).
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_2_with(options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    row_2(&stage_1()?, options)
}

/// Experiment 3: `IN ∥ I ∥ A_out ⊑ A_in ∥ A_out`, checking the `VALID`
/// output of the right interface against `A_in`.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_3() -> Result<Verdict, ExperimentError> {
    experiment_3_with(&VerifyOptions::default())
}

/// [`experiment_3`] with explicit verification options (e.g. a
/// cancel token or a progress sink in [`VerifyOptions::spec`]).
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_3_with(options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    row_3(&stage_1()?, options)
}

/// Experiment 4: `A_in ∥ I ∥ A_out ⊑ A_in ∥ A_out` — the behavioural fixed
/// point that closes the induction over the pipeline length.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_4() -> Result<Verdict, ExperimentError> {
    experiment_4_with(&VerifyOptions::default())
}

/// [`experiment_4`] with explicit verification options (e.g. a
/// cancel token or a progress sink in [`VerifyOptions::spec`]).
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_4_with(options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    row_4(&stage_1()?, options)
}

/// Experiment 5: transistor-level verification of a 1-stage pipeline between
/// pulse-driven environments: no short circuits, persistency of the internal
/// events and deadlock-freedom.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_5() -> Result<Verdict, ExperimentError> {
    experiment_5_with(&VerifyOptions::default())
}

/// [`experiment_5`] with explicit verification options (e.g. a
/// cancel token or a progress sink in [`VerifyOptions::spec`]).
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn experiment_5_with(options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    row_5(&stage_1()?, options)
}

/// The elaborated stage 1, the implementation rows 2–5 check.
fn stage_1() -> Result<CircuitModel, ExperimentError> {
    stage_model(1).map_err(model_err)
}

/// The untimed abstraction `a` as a context of stage 1.
fn untimed(a: Result<TransitionSystem, ExpandError>) -> Result<TimedTransitionSystem, ExpandError> {
    a.map(TimedTransitionSystem::new)
}

/// Rows 2–4: stage 1 between the `left` and `right` contexts refines
/// `abstraction` on the `watched` pair of interface outputs.
fn refinement_row(
    stage: &CircuitModel,
    left: Result<TimedTransitionSystem, ExpandError>,
    right: Result<TimedTransitionSystem, ExpandError>,
    abstraction: Result<TransitionSystem, ExpandError>,
    watched: [String; 2],
    options: &VerifyOptions,
) -> Result<Verdict, ExperimentError> {
    let (left, right) = (left.map_err(model_err)?, right.map_err(model_err)?);
    let closed = compose_timed_all(&[&left, stage.timed(), &right])?;
    let obligation = RefinementObligation {
        implementation: &closed,
        abstraction: &abstraction.map_err(model_err)?,
        watched: watched.to_vec(),
    };
    check_refinement(&obligation, options).map_err(model_err)
}

/// Row 2: `A_in ∥ I ∥ OUT ⊑ A_in ∥ A_out` on `ACK0`.
fn row_2(stage: &CircuitModel, options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    let interface = Interface::new(0);
    refinement_row(
        stage,
        untimed(a_in(0)),
        out_env(1),
        a_out(0),
        [interface.ack_rise, interface.ack_fall],
        options,
    )
}

/// Row 3: `IN ∥ I ∥ A_out ⊑ A_in ∥ A_out` on `VALID1`.
fn row_3(stage: &CircuitModel, options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    let interface = Interface::new(1);
    refinement_row(
        stage,
        in_env(0),
        untimed(a_out(1)),
        a_in(1),
        [interface.valid_fall, interface.valid_rise],
        options,
    )
}

/// Row 4: `A_in ∥ I ∥ A_out ⊑ A_in ∥ A_out` on `VALID1`.
fn row_4(stage: &CircuitModel, options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    let interface = Interface::new(1);
    refinement_row(
        stage,
        untimed(a_in(0)),
        untimed(a_out(1)),
        a_in(1),
        [interface.valid_fall, interface.valid_rise],
        options,
    )
}

/// Row 5: `IN ∥ I ∥ OUT ⊨ S` at transistor level.
fn row_5(stage: &CircuitModel, options: &VerifyOptions) -> Result<Verdict, ExperimentError> {
    let left = in_env(0).map_err(model_err)?;
    let right = out_env(1).map_err(model_err)?;
    let closed = compose_timed_all(&[&left, stage.timed(), &right])?;
    let property = SafetyProperty::new("IN || I || OUT |= S (transistor level)")
        .forbid_marked_states()
        .require_deadlock_freedom()
        .require_persistency(stage.persistent_events().iter().cloned());
    Ok(verify(&closed, &property, options))
}

/// Runs the five experiments of Table 1 and returns the proof report.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn table_1() -> Result<ProofReport, ExperimentError> {
    table_1_with(&VerifyOptions::default())
}

/// [`table_1`] with explicit verification options shared by all five
/// obligations (e.g. a cancel token or a progress sink in
/// [`VerifyOptions::spec`]). Rows 2–5 share one elaboration of stage 1.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built.
pub fn table_1_with(options: &VerifyOptions) -> Result<ProofReport, ExperimentError> {
    type Row = fn(&CircuitModel, &VerifyOptions) -> Result<Verdict, ExperimentError>;
    let mut report = ProofReport::new();
    let stage = stage_1()?;
    let rows: [(&str, Row); 5] = [
        ("A_in || A_out |= S", |_, options| {
            experiment_1_with(options)
        }),
        ("A_in || I || OUT <= A_in || A_out", row_2),
        ("IN || I || A_out <= A_in || A_out", row_3),
        ("A_in || I || A_out <= A_in || A_out (fixed point)", row_4),
        ("IN || I || OUT |= S (transistor level)", row_5),
    ];
    for (name, run) in rows {
        let started = Instant::now();
        let verdict = run(&stage, options)?;
        report.push(ProofStep::new(name, verdict, started.elapsed()));
    }
    Ok(report)
}

/// The closed, timed model of a flat `n`-stage pipeline between `IN` and
/// `OUT` (no abstractions) — the workload of the scaling comparison.
///
/// # Errors
///
/// Returns [`ExperimentError`] if a model cannot be built or composed.
pub fn flat_pipeline(n: usize) -> Result<TimedTransitionSystem, ExperimentError> {
    assert!(n > 0, "a pipeline needs at least one stage");
    let mut systems: Vec<TimedTransitionSystem> = Vec::with_capacity(n + 2);
    systems.push(in_env(0).map_err(model_err)?);
    for k in 1..=n {
        systems.push(stage_model(k).map_err(model_err)?.into_timed());
    }
    systems.push(out_env(n).map_err(model_err)?);
    let refs: Vec<&TimedTransitionSystem> = systems.iter().collect();
    Ok(compose_timed_all(&refs)?)
}

/// Persistency set for a flat `n`-stage pipeline (all internal edges of all
/// stages).
pub fn flat_pipeline_persistent_events(n: usize) -> Vec<String> {
    let mut events = Vec::new();
    for k in 1..=n {
        let signals = StageSignals::new(k);
        for node in signals
            .internal
            .iter()
            .chain([&signals.ack_out, &signals.valid_out])
        {
            events.push(format!("{node}+"));
            events.push(format!("{node}-"));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abstract_pipeline_is_small_and_live() {
        let closed = abstract_pipeline().unwrap();
        assert!(closed.state_count() <= 32);
        assert!(closed.deadlock_states().is_empty());
    }

    #[test]
    fn experiment_1_verifies_without_refinement() {
        let verdict = experiment_1().unwrap();
        assert!(verdict.is_verified(), "experiment 1 failed: {verdict}");
        assert_eq!(verdict.report().refinements, 0);
    }

    #[test]
    fn experiment_4_fixed_point_holds() {
        let verdict = experiment_4().unwrap();
        assert!(verdict.is_verified(), "experiment 4 failed: {verdict}");
    }

    #[test]
    fn flat_two_stage_pipeline_composes() {
        let pipeline = flat_pipeline(2).unwrap();
        assert!(pipeline.underlying().state_count() > 100);
        assert!(!flat_pipeline_persistent_events(2).is_empty());
    }
}
