//! The relative-timing verification engine (refinement loop of Fig. 3).
//!
//! Starting from the untimed state space, the engine searches for a failure
//! trace (a marked state, a deadlock, or a persistency violation). If the
//! trace is *timing consistent* with the absolute delay bounds it is a real
//! counterexample; otherwise a causal event structure is extracted from it,
//! the max-separation analysis derives event orderings implied by the delays,
//! and the resulting relative-timing constraints are used to prune the state
//! space (laziness: the constrained event's firing is delayed, its enabling
//! is untouched). The loop repeats until no failure remains or a consistent
//! counterexample is found. The accumulated constraints are the
//! back-annotation reported to the designer (Fig. 13 of the paper).
//!
//! Constraints are applied with the *global* relative-timing semantics of
//! Stevens et al. [16]: whenever both events are pending, the constrained
//! event does not fire first. Each constraint carries the separation that
//! justifies it in the context it was discovered in; the final verdict is
//! therefore "correct under the reported constraints", which is exactly the
//! deliverable of the paper's methodology. Timing consistency is decided by
//! the `dbm` zone kernel's replay of the trace ([`dbm::path_firing_windows`]),
//! the same call that renders a counterexample's firing windows; the kernel's
//! zone-based explorer provides an independent exact check on small models.
//!
//! Each refinement pass is one breadth-first search that stores no edges
//! and is never replayed: the verdict reads the driver's report (discovered
//! count, halting state, parent links) and what the space noted on the way.

use std::cell::Cell;
use std::convert::Infallible;
use std::fmt;

use ces::{extract_ces, RelativeTimingConstraint, SeparationAnalysis};
use explore::{ExploreSpec, ProgressEvent, SearchSpace, Stop};
use tts::{EnablingTrace, EventId, StateId, TimedTransitionSystem, TransitionSystem};

use crate::property::SafetyProperty;

/// Options for [`verify`].
///
/// The shared exploration knobs live in the embedded [`ExploreSpec`] and
/// drive every exploration pass of the refinement loop: when the `cancel`
/// token fires, the current pass stops at its next check and the verdict
/// is [`Verdict::Inconclusive`] with reason
/// `"verification cancelled"`; the `progress` sink receives a
/// [`ProgressEvent::Refinement`] per pass plus the exploration's batch/level
/// events. The untimed failure search deduplicates exactly and explores
/// every state it reaches, so the spec's `exact` and `limit` fields are
/// carried inert. The loop gives up, inconclusive, after 200 refinement
/// iterations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyOptions {
    /// The shared exploration knobs.
    pub spec: ExploreSpec,
    /// Relative-timing constraints assumed up front (e.g. documented
    /// environment requirements).
    pub assumed_constraints: Vec<RelativeTimingConstraint>,
}

/// Refinement iterations after which [`verify`] gives up with an
/// inconclusive verdict.
const MAX_REFINEMENTS: usize = 200;

/// Why a failure trace is a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The trace reaches a state carrying the given violation mark.
    MarkedState {
        /// The violation message of the reached state.
        message: String,
    },
    /// The trace reaches a state with no outgoing transitions.
    Deadlock,
    /// Firing `by` disabled the pending event `disabled`, which must be
    /// persistent.
    PersistencyViolation {
        /// The event that lost its enabling.
        disabled: String,
        /// The event whose firing disabled it.
        by: String,
    },
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::MarkedState { message } => write!(f, "reaches violating state: {message}"),
            FailureKind::Deadlock => write!(f, "reaches a deadlock state"),
            FailureKind::PersistencyViolation { disabled, by } => {
                write!(f, "firing {by} disables pending event {disabled}")
            }
        }
    }
}

/// A timing-consistent failure trace: a real counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The kind of failure reached.
    pub kind: FailureKind,
    /// The event names fired along the trace, in order.
    pub events: Vec<String>,
    /// The witness run itself: the fired transitions ending at the violating
    /// (or deadlocked, or persistency-breaking) state, replayable against the
    /// underlying transition system.
    pub trace: FailureTrace,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} after [{}]", self.kind, self.events.join(", "))
    }
}

/// The run of fired transitions leading from an initial state to a failure —
/// the witness the engine reports alongside a [`Verdict::Failed`].
///
/// The trace is reconstructed from the parent links the shared exploration
/// engine records, so it is the breadth-first discovery path and every step
/// is a genuine transition of the verified system.
///
/// # Examples
///
/// ```
/// use transyt::{verify, SafetyProperty, Verdict, VerifyOptions};
/// use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};
///
/// // `slow` can overtake `fast`: the failure is timing consistent.
/// let mut b = TsBuilder::new("race");
/// let s0 = b.add_state("s0");
/// let ok = b.add_state("ok");
/// let bad = b.add_state("bad");
/// b.add_transition(s0, "fast", ok);
/// b.add_transition(s0, "slow", bad);
/// b.mark_violation(bad, "slow fired before fast");
/// b.set_initial(s0);
/// let mut timed = TimedTransitionSystem::new(b.build()?);
/// timed.set_delay_by_name("fast", DelayInterval::new(Time::new(1), Time::new(4))?);
/// timed.set_delay_by_name("slow", DelayInterval::new(Time::new(2), Time::new(9))?);
///
/// let property = SafetyProperty::new("order").forbid_marked_states();
/// let verdict = verify(&timed, &property, &VerifyOptions::default());
/// let Verdict::Failed { counterexample, .. } = verdict else {
///     panic!("expected a counterexample");
/// };
/// // The trace replays step-by-step to the reported violating state.
/// let end = counterexample.trace.replay(timed.underlying()).unwrap();
/// assert_eq!(end, bad);
/// assert_eq!(counterexample.trace.end_state(), bad);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureTrace {
    start: StateId,
    steps: Vec<(EventId, StateId)>,
}

impl FailureTrace {
    /// Builds a trace from a start state and `(event, target)` steps.
    pub fn new(start: StateId, steps: Vec<(EventId, StateId)>) -> Self {
        FailureTrace { start, steps }
    }

    /// The initial state the trace starts from.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The fired `(event, target)` transitions, in order.
    pub fn steps(&self) -> &[(EventId, StateId)] {
        &self.steps
    }

    /// Number of fired transitions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the failure holds in the start state itself.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The failing state the trace ends at.
    pub fn end_state(&self) -> StateId {
        self.steps.last().map_or(self.start, |&(_, state)| state)
    }

    /// Replays the trace against `ts`, checking every step is an existing
    /// transition. Returns the end state on success, `None` if some step
    /// does not exist in the system.
    pub fn replay(&self, ts: &TransitionSystem) -> Option<StateId> {
        let mut state = self.start;
        for &(event, target) in &self.steps {
            if !ts.successors(state, event).contains(&target) {
                return None;
            }
            state = target;
        }
        Some(state)
    }

    /// Renders the trace with state and event names from `ts`.
    pub fn display<'a>(&'a self, ts: &'a TransitionSystem) -> FailureTraceDisplay<'a> {
        FailureTraceDisplay { trace: self, ts }
    }
}

/// Helper returned by [`FailureTrace::display`].
pub struct FailureTraceDisplay<'a> {
    trace: &'a FailureTrace,
    ts: &'a TransitionSystem,
}

impl fmt::Display for FailureTraceDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ts.state_name(self.trace.start))?;
        for &(event, target) in &self.trace.steps {
            write!(
                f,
                " --{}--> {}",
                self.ts.alphabet().name(event),
                self.ts.state_name(target)
            )?;
        }
        Ok(())
    }
}

/// Statistics and back-annotation of a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationReport {
    /// Name of the verified property.
    pub property: String,
    /// Number of refinement iterations performed.
    pub refinements: usize,
    /// Relative-timing constraints accumulated (assumed + derived).
    pub constraints: Vec<RelativeTimingConstraint>,
    /// Number of states reachable in the final (refined) state space.
    pub explored_states: usize,
}

impl VerificationReport {
    /// Renders the back-annotated constraints, one per line, in the style of
    /// Fig. 13 of the paper.
    pub fn constraint_listing(&self) -> String {
        if self.constraints.is_empty() {
            return "(no relative-timing constraints required)".to_owned();
        }
        self.constraints
            .iter()
            .map(|c| format!("  {c}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Outcome of a verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds under the reported relative-timing constraints.
    Verified(VerificationReport),
    /// A timing-consistent failure trace exists.
    Failed {
        /// The counterexample.
        counterexample: Counterexample,
        /// Statistics of the run.
        report: VerificationReport,
    },
    /// The engine could neither prove nor refute the property (refinement
    /// stuck or iteration limit reached).
    Inconclusive {
        /// Why the run stopped.
        reason: String,
        /// Statistics of the run.
        report: VerificationReport,
    },
}

impl Verdict {
    /// Returns `true` for [`Verdict::Verified`].
    pub fn is_verified(&self) -> bool {
        matches!(self, Verdict::Verified(_))
    }

    /// The report of the run, whatever the outcome.
    pub fn report(&self) -> &VerificationReport {
        match self {
            Verdict::Verified(r) => r,
            Verdict::Failed { report, .. } => report,
            Verdict::Inconclusive { report, .. } => report,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Verified(r) => write!(
                f,
                "VERIFIED ({} refinements, {} constraints, {} states)",
                r.refinements,
                r.constraints.len(),
                r.explored_states
            ),
            Verdict::Failed {
                counterexample,
                report,
            } => write!(
                f,
                "FAILED after {} refinements: {counterexample}",
                report.refinements
            ),
            Verdict::Inconclusive { reason, report } => write!(
                f,
                "INCONCLUSIVE after {} refinements: {reason}",
                report.refinements
            ),
        }
    }
}

/// A failure discovered during one exploration pass.
struct Failure {
    kind: FailureKind,
    run: Vec<(EventId, StateId)>,
    start: StateId,
}

/// The constraint-pruned untimed state space of one refinement iteration:
/// configurations are discrete states, successors the transitions whose
/// firing is not blocked by an active relative-timing constraint (the lazy
/// semantics: enabling is untouched, only the firing is delayed). The space
/// halts the shared exploration engine at the first failure in breadth-first
/// order, and records during the search what the verdict needs besides the
/// driver's report: which states were discovered, and the first state the
/// constraints leave stuck. No edge is stored and no pass replays the search.
struct PrunedSpace<'a> {
    ts: &'a TransitionSystem,
    property: &'a SafetyProperty,
    /// `persistent[e]`: the property requires event `e` to be persistent.
    persistent: &'a [bool],
    /// `blockers[e]`: the `before` events of the active constraints whose
    /// `after` is `e` (other than `e` itself). While one of them is enabled,
    /// `e` may not fire.
    blockers: Vec<Vec<EventId>>,
    /// `discovered[s]`: state `s` has been stored by the search.
    discovered: Vec<Cell<bool>>,
    /// The first expanded state, in breadth-first order, that has
    /// transitions but no unblocked one.
    stuck: Cell<Option<StateId>>,
}

impl<'a> PrunedSpace<'a> {
    fn new(
        ts: &'a TransitionSystem,
        property: &'a SafetyProperty,
        persistent: &'a [bool],
        constraints: &[RelativeTimingConstraint],
    ) -> Self {
        let alphabet = ts.alphabet();
        let mut blockers = vec![Vec::new(); alphabet.len()];
        // Constraints naming events unknown to this system are kept for
        // reporting but cannot prune.
        for c in constraints {
            if let (Some(before), Some(after)) = (
                alphabet.lookup(c.before_name()),
                alphabet.lookup(c.after_name()),
            ) {
                if before != after {
                    blockers[after.index()].push(before);
                }
            }
        }
        PrunedSpace {
            ts,
            property,
            persistent,
            blockers,
            discovered: vec![Cell::new(false); ts.state_count()],
            stuck: Cell::new(None),
        }
    }

    fn blocked(&self, state: StateId, event: EventId) -> bool {
        self.blockers[event.index()]
            .iter()
            .any(|&before| self.ts.is_enabled(state, before))
    }

    /// The first persistency violation triggered by the allowed firings from
    /// `state`, if any: the pending event disabled and the index of the
    /// violating successor. The pending persistent events are listed once,
    /// in ascending id order, and checked against each successor in turn.
    fn persistency_violation(
        &self,
        state: StateId,
        successors: &[(EventId, StateId)],
    ) -> Option<(EventId, usize)> {
        let mut pending: Vec<EventId> = self
            .ts
            .transitions_from(state)
            .iter()
            .map(|&(event, _)| event)
            .filter(|event| self.persistent[event.index()])
            .collect();
        if pending.is_empty() {
            return None;
        }
        pending.sort_unstable();
        pending.dedup();
        successors
            .iter()
            .enumerate()
            .find_map(|(k, &(event, target))| {
                pending
                    .iter()
                    .find(|&&p| p != event && !self.ts.is_enabled(target, p))
                    .map(|&p| (p, k))
            })
    }
}

impl SearchSpace for PrunedSpace<'_> {
    type Config = StateId;
    type Key = StateId;
    type Edge = EventId;
    type Error = Infallible;

    fn initial(&self) -> Result<Vec<StateId>, Infallible> {
        Ok(self.ts.initial_states().to_vec())
    }

    fn key(&self, config: &StateId) -> StateId {
        *config
    }

    /// The failure run follows the breadth-first discovery tree.
    fn records_parents(&self) -> bool {
        true
    }

    fn intern(&self, state: StateId) -> StateId {
        self.discovered[state.index()].set(true);
        state
    }

    fn expand(&self, &state: &StateId) -> Result<Vec<(EventId, StateId)>, Infallible> {
        let transitions = self.ts.transitions_from(state);
        let successors: Vec<(EventId, StateId)> = transitions
            .iter()
            .copied()
            .filter(|&(event, _)| !self.blocked(state, event))
            .collect();
        if successors.is_empty() && !transitions.is_empty() && self.stuck.get().is_none() {
            self.stuck.set(Some(state));
        }
        Ok(successors)
    }

    fn should_halt(&self, &state: &StateId, successors: &[(EventId, StateId)]) -> bool {
        if self.property.checks_marked_states() && !self.ts.violations(state).is_empty() {
            return true;
        }
        if self.ts.transitions_from(state).is_empty() {
            return self.property.checks_deadlock();
        }
        self.persistency_violation(state, successors).is_some()
    }
}

/// Verifies `property` on the timed system using the iterative
/// relative-timing refinement flow.
///
/// # Examples
///
/// ```
/// use transyt::{verify, SafetyProperty, VerifyOptions};
/// use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};
///
/// // `slow` must never overtake `fast`; the delays guarantee it.
/// let mut b = TsBuilder::new("race");
/// let s0 = b.add_state("s0");
/// let ok = b.add_state("ok");
/// let bad = b.add_state("bad");
/// let done = b.add_state("done");
/// let fast = b.add_transition(s0, "fast", ok);
/// let slow = b.add_transition(s0, "slow", bad);
/// b.add_transition_by_id(ok, slow, done);
/// b.add_transition_by_id(bad, fast, done);
/// b.mark_violation(bad, "slow fired before fast");
/// b.set_initial(s0);
/// let mut timed = TimedTransitionSystem::new(b.build()?);
/// timed.set_delay_by_name("fast", DelayInterval::new(Time::new(1), Time::new(2))?);
/// timed.set_delay_by_name("slow", DelayInterval::new(Time::new(5), Time::new(9))?);
///
/// let property = SafetyProperty::new("fast wins").forbid_marked_states();
/// let verdict = verify(&timed, &property, &VerifyOptions::default());
/// assert!(verdict.is_verified());
/// assert_eq!(verdict.report().constraints.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify(
    timed: &TimedTransitionSystem,
    property: &SafetyProperty,
    options: &VerifyOptions,
) -> Verdict {
    let ts = timed.underlying();
    let alphabet = ts.alphabet();

    let mut constraints: Vec<RelativeTimingConstraint> = options.assumed_constraints.clone();
    let mut persistent = vec![false; alphabet.len()];
    for event in property
        .persistent_events()
        .iter()
        .filter_map(|name| alphabet.lookup(name))
    {
        persistent[event.index()] = true;
    }

    let make_report = |refinements: usize,
                       constraints: &[RelativeTimingConstraint],
                       explored_states: usize| VerificationReport {
        property: property.name().to_owned(),
        refinements,
        constraints: constraints.to_vec(),
        explored_states,
    };

    // Every pass explores all it reaches: the spec's limit is not applied.
    let spec = ExploreSpec {
        limit: None,
        ..options.spec.clone()
    };
    let mut refinements = 0usize;

    loop {
        // Breadth-first exploration of the pruned (lazy) state space on the
        // shared exploration engine, which halts at the first failure in
        // breadth-first order.
        let space = PrunedSpace::new(ts, property, &persistent, &constraints);
        options.spec.progress.emit(&ProgressEvent::Refinement {
            iteration: refinements,
        });
        let search = match explore::explore(&space, &spec) {
            Ok(report) => report,
            Err(infallible) => match infallible {},
        };
        match search.stopped {
            None | Some(Stop::Halted) => {}
            Some(Stop::LimitExceeded) => unreachable!("the pruned search configures no limits"),
            Some(Stop::Cancelled) => {
                return Verdict::Inconclusive {
                    reason: "verification cancelled".to_owned(),
                    report: make_report(refinements, &constraints, search.expanded),
                }
            }
        }
        let mut explored_states = search.discovered;

        // The halting node is the last one the driver recorded. The failure
        // is classified with the predicates of the space's halt condition,
        // and the run to it follows the recorded parent links: the
        // breadth-first discovery tree.
        let failure = (search.stopped == Some(Stop::Halted)).then(|| {
            let node = search.nodes.len() - 1;
            let state = search.nodes[node];
            let (root, steps) = search
                .path_to(node)
                .expect("the engine search records parents");
            let mut run: Vec<(EventId, StateId)> = steps
                .into_iter()
                .map(|(event, target)| (event, search.nodes[target]))
                .collect();
            let kind = if property.checks_marked_states() && !ts.violations(state).is_empty() {
                FailureKind::MarkedState {
                    message: ts.violations(state)[0].clone(),
                }
            } else if ts.transitions_from(state).is_empty() {
                FailureKind::Deadlock
            } else {
                let Ok(successors) = space.expand(&state);
                let (pending, k) = space
                    .persistency_violation(state, &successors)
                    .expect("the search halted on a persistency violation");
                // Targets of the firings preceding the violating one were
                // discovered before the search broke off.
                explored_states += successors[..k]
                    .iter()
                    .filter(|&&(_, target)| !space.discovered[target.index()].replace(true))
                    .count();
                let (event, target) = successors[k];
                run.push((event, target));
                FailureKind::PersistencyViolation {
                    disabled: alphabet.name(pending).to_owned(),
                    by: alphabet.name(event).to_owned(),
                }
            };
            Failure {
                kind,
                run,
                start: search.nodes[root],
            }
        });

        let Some(failure) = failure else {
            // A state whose enabled events are all blocked by constraints is
            // an over-constraining artefact: behaviours beyond it would be
            // hidden, so refuse to claim success.
            if let Some(state) = space.stuck.get() {
                return Verdict::Inconclusive {
                    reason: format!(
                        "the relative-timing constraints block every enabled event in state {} \
                         (over-constrained refinement)",
                        ts.state_name(state)
                    ),
                    report: make_report(refinements, &constraints, explored_states),
                };
            }
            return Verdict::Verified(make_report(refinements, &constraints, explored_states));
        };

        // Build the enabling trace of the failure and test timing consistency
        // by replaying the run through the zone kernel.
        let trace = match EnablingTrace::from_run(ts, failure.start, &failure.run) {
            Ok(trace) => trace,
            Err(e) => {
                return Verdict::Inconclusive {
                    reason: format!("internal error reconstructing the failure trace: {e}"),
                    report: make_report(refinements, &constraints, explored_states),
                }
            }
        };
        let events: Vec<String> = trace
            .events()
            .iter()
            .map(|&e| alphabet.name(e).to_owned())
            .collect();
        if dbm::path_firing_windows(timed, failure.start, &failure.run).is_some() {
            return Verdict::Failed {
                counterexample: Counterexample {
                    kind: failure.kind,
                    events,
                    trace: FailureTrace::new(failure.start, failure.run),
                },
                report: make_report(refinements, &constraints, explored_states),
            };
        }

        // The failure trace is timing inconsistent: derive new constraints.
        let mut new_constraints = derive_constraints(&trace, timed, &constraints);
        if matches!(failure.kind, FailureKind::PersistencyViolation { .. }) && !trace.is_empty() {
            // Also analyse the trace without its final (disabling) step so the
            // disabled occurrence appears as a pending node.
            let truncated_run = &failure.run[..failure.run.len() - 1];
            if let Ok(truncated) = EnablingTrace::from_run(ts, failure.start, truncated_run) {
                for c in derive_constraints(&truncated, timed, &constraints) {
                    if !duplicate(&new_constraints, &c) {
                        new_constraints.push(c);
                    }
                }
            }
        }
        if new_constraints.is_empty() {
            return Verdict::Inconclusive {
                reason: format!(
                    "failure trace [{}] ({}) is timing inconsistent but no relative-timing \
                     constraint could be derived to prune it",
                    events.join(", "),
                    failure.kind
                ),
                report: make_report(refinements, &constraints, explored_states),
            };
        }
        constraints.extend(new_constraints);
        refinements += 1;
        if refinements >= MAX_REFINEMENTS {
            return Verdict::Inconclusive {
                reason: format!("refinement limit of {MAX_REFINEMENTS} iterations reached"),
                report: make_report(refinements, &constraints, explored_states),
            };
        }
    }
}

fn duplicate(existing: &[RelativeTimingConstraint], candidate: &RelativeTimingConstraint) -> bool {
    existing.iter().any(|c| {
        c.before_name() == candidate.before_name() && c.after_name() == candidate.after_name()
    })
}

/// Derives relative-timing constraints that prune the given timing
/// inconsistent trace: for every step, if a pending event provably always
/// fires before the event that fired, order them.
fn derive_constraints(
    trace: &EnablingTrace,
    timed: &TimedTransitionSystem,
    existing: &[RelativeTimingConstraint],
) -> Vec<RelativeTimingConstraint> {
    let alphabet = timed.underlying().alphabet();
    let Ok(extracted) = extract_ces(trace, timed) else {
        return Vec::new();
    };
    let analysis = SeparationAnalysis::new(extracted.ces());
    let mut found: Vec<RelativeTimingConstraint> = Vec::new();
    let consider = |before: EventId,
                    before_node: ces::NodeId,
                    after: EventId,
                    after_node: ces::NodeId,
                    found: &mut Vec<RelativeTimingConstraint>| {
        let separation = analysis.max_separation(before_node, after_node);
        if let Some(constraint) = RelativeTimingConstraint::from_separation(
            before,
            alphabet.name(before),
            after,
            alphabet.name(after),
            separation,
        ) {
            if !duplicate(existing, &constraint) && !duplicate(found, &constraint) {
                found.push(constraint);
            }
        }
    };

    // For every step: can any event pending in the source state be proven to
    // always fire before the event that fired? If so, the firing was a
    // timing-inconsistent overtaking and the ordering prunes it.
    for (k, step) in trace.steps().iter().enumerate() {
        let Some(fired_node) = extracted.fired_node(k) else {
            continue;
        };
        for &pending in &step.enabled {
            if pending == step.event {
                continue;
            }
            let Some(pending_node) = extracted.node_active_at(k, pending) else {
                continue;
            };
            consider(pending, pending_node, step.event, fired_node, &mut found);
        }
    }

    // Orderings among the events still pending at the end of the trace (used
    // by persistency analyses where the disabling event has not fired in the
    // truncated trace).
    let pending_at_end = extracted.pending_nodes();
    for (i, &(a, a_node)) in pending_at_end.iter().enumerate() {
        for &(b, b_node) in pending_at_end.iter().skip(i + 1) {
            consider(a, a_node, b, b_node, &mut found);
            consider(b, b_node, a, a_node, &mut found);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts::{DelayInterval, Time, TsBuilder};

    fn d(l: i64, u: i64) -> DelayInterval {
        DelayInterval::new(Time::new(l), Time::new(u)).unwrap()
    }

    /// fast [1,2] and slow [5,9] race from s0; reaching `bad` (slow first) is
    /// a violation.
    fn race(fast_delay: DelayInterval, slow_delay: DelayInterval) -> TimedTransitionSystem {
        let mut b = TsBuilder::new("race");
        let s0 = b.add_state("s0");
        let ok = b.add_state("ok");
        let bad = b.add_state("bad");
        let done = b.add_state("done");
        let fast = b.add_transition(s0, "fast", ok);
        let slow = b.add_transition(s0, "slow", bad);
        b.add_transition_by_id(ok, slow, done);
        b.add_transition_by_id(bad, fast, done);
        b.mark_violation(bad, "slow fired before fast");
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("fast", fast_delay);
        timed.set_delay_by_name("slow", slow_delay);
        timed
    }

    #[test]
    fn timing_saves_the_race() {
        let timed = race(d(1, 2), d(5, 9));
        let property = SafetyProperty::new("order").forbid_marked_states();
        let verdict = verify(&timed, &property, &VerifyOptions::default());
        match &verdict {
            Verdict::Verified(report) => {
                assert_eq!(report.refinements, 1);
                assert_eq!(report.constraints.len(), 1);
                assert_eq!(report.constraints[0].before_name(), "fast");
                assert_eq!(report.constraints[0].after_name(), "slow");
                assert!(report.constraint_listing().contains("fast < slow"));
            }
            other => panic!("expected verified, got {other}"),
        }
    }

    #[test]
    fn overlapping_delays_yield_a_counterexample() {
        let timed = race(d(1, 4), d(2, 9));
        let property = SafetyProperty::new("order").forbid_marked_states();
        let verdict = verify(&timed, &property, &VerifyOptions::default());
        match verdict {
            Verdict::Failed { counterexample, .. } => {
                assert_eq!(counterexample.events, vec!["slow".to_owned()]);
                assert!(matches!(
                    counterexample.kind,
                    FailureKind::MarkedState { .. }
                ));
                // The witness trace replays to the reported violating state,
                // one step per counterexample event.
                assert_eq!(counterexample.trace.len(), counterexample.events.len());
                let ts = timed.underlying();
                let end = counterexample.trace.replay(ts).expect("valid trace");
                assert_eq!(end, counterexample.trace.end_state());
                assert!(!ts.violations(end).is_empty());
                assert!(counterexample
                    .trace
                    .display(ts)
                    .to_string()
                    .contains("--slow--> bad"));
            }
            other => panic!("expected failure, got {other}"),
        }
    }

    #[test]
    fn deadlock_counterexample_trace_ends_at_the_deadlock() {
        let mut b = TsBuilder::new("dead");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("stuck");
        b.add_transition(s0, "go", s1);
        b.set_initial(s0);
        let timed = TimedTransitionSystem::new(b.build().unwrap());
        let property = SafetyProperty::new("live").require_deadlock_freedom();
        let Verdict::Failed { counterexample, .. } =
            verify(&timed, &property, &VerifyOptions::default())
        else {
            panic!("expected deadlock failure");
        };
        let end = counterexample.trace.replay(timed.underlying()).unwrap();
        assert_eq!(end, s1);
        assert!(timed.underlying().transitions_from(end).is_empty());
        assert_eq!(counterexample.trace.start(), s0);
    }

    #[test]
    fn untimed_events_cannot_be_ordered() {
        // Both events unbounded: the failure cannot be pruned, and it is
        // timing consistent, so it is reported as a counterexample.
        let timed = race(DelayInterval::unbounded(), DelayInterval::unbounded());
        let property = SafetyProperty::new("order").forbid_marked_states();
        let verdict = verify(&timed, &property, &VerifyOptions::default());
        assert!(matches!(verdict, Verdict::Failed { .. }));
    }

    #[test]
    fn trivial_property_verifies_without_refinement() {
        let timed = race(d(1, 2), d(5, 9));
        let property = SafetyProperty::new("nothing");
        let verdict = verify(&timed, &property, &VerifyOptions::default());
        assert!(verdict.is_verified());
        assert_eq!(verdict.report().refinements, 0);
    }

    #[test]
    fn deadlock_detection() {
        let mut b = TsBuilder::new("dead");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("stuck");
        b.add_transition(s0, "go", s1);
        b.set_initial(s0);
        let timed = TimedTransitionSystem::new(b.build().unwrap());
        let property = SafetyProperty::new("live").require_deadlock_freedom();
        let verdict = verify(&timed, &property, &VerifyOptions::default());
        match verdict {
            Verdict::Failed { counterexample, .. } => {
                assert_eq!(counterexample.kind, FailureKind::Deadlock);
            }
            other => panic!("expected deadlock failure, got {other}"),
        }
    }

    /// `victim` is enabled together with `killer` in `s0`; firing `killer`
    /// leads to `s2`, where `victim` is no longer enabled.
    fn victim_and_killer(victim: DelayInterval, killer: DelayInterval) -> TimedTransitionSystem {
        let mut b = TsBuilder::new("persistency");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let s3 = b.add_state("s3");
        b.add_transition(s0, "victim", s1);
        let killer_event = b.add_transition(s0, "killer", s2);
        b.add_transition_by_id(s1, killer_event, s3);
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("victim", victim);
        timed.set_delay_by_name("killer", killer);
        timed
    }

    #[test]
    fn persistency_violation_is_found_and_pruned_by_timing() {
        // With delays killer [5,9] and victim [1,2] the victim always fires
        // first, so the system is persistent under timing.
        let property = SafetyProperty::new("persistent").require_persistency(["victim"]);
        let timed = victim_and_killer(d(1, 2), d(5, 9));
        let verdict = verify(&timed, &property, &VerifyOptions::default());
        match &verdict {
            Verdict::Verified(report) => {
                assert!(report
                    .constraints
                    .iter()
                    .any(|c| c.before_name() == "victim" && c.after_name() == "killer"));
            }
            other => panic!("expected verified, got {other}"),
        }
        // With comparable delays the violation is real.
        let timed = victim_and_killer(d(1, 4), d(2, 9));
        let ts = timed.underlying();
        let verdict = verify(&timed, &property, &VerifyOptions::default());
        let Verdict::Failed {
            counterexample,
            report,
        } = verdict
        else {
            panic!("expected a persistency failure, got {verdict}");
        };
        assert_eq!(
            counterexample.kind,
            FailureKind::PersistencyViolation {
                disabled: "victim".to_owned(),
                by: "killer".to_owned(),
            }
        );
        let end = counterexample.trace.replay(ts).expect("valid trace");
        assert_eq!(ts.state_name(end), "s2");
        // `s0` and the `victim` successor discovered before the violating
        // `killer` firing; `s2` itself is not counted.
        assert_eq!(report.explored_states, 2);
    }

    #[test]
    fn a_firing_that_disables_two_pending_events_reports_the_lowest_id() {
        // `killer` is the first successor of `s0` and disables both pending
        // persistent events; `first` was interned before `second`.
        let mut b = TsBuilder::new("two pending");
        let first = b.intern_event("first");
        let second = b.intern_event("second");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "killer", s1);
        b.add_transition_by_id(s0, second, s1);
        b.add_transition_by_id(s0, first, s1);
        b.set_initial(s0);
        let timed = TimedTransitionSystem::new(b.build().unwrap());
        let property = SafetyProperty::new("persistent").require_persistency(["second", "first"]);
        let Verdict::Failed { counterexample, .. } =
            verify(&timed, &property, &VerifyOptions::default())
        else {
            panic!("expected a persistency failure");
        };
        assert_eq!(
            counterexample.kind,
            FailureKind::PersistencyViolation {
                disabled: "first".to_owned(),
                by: "killer".to_owned(),
            }
        );
    }

    #[test]
    fn the_first_over_constrained_state_in_breadth_first_order_is_reported() {
        // `p` and `q` are each assumed to precede the other, so both are
        // blocked wherever both are enabled: in `s1` and in `s2`.
        let mut b = TsBuilder::new("stuck twice");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let s3 = b.add_state("s3");
        b.add_transition(s0, "x", s1);
        b.add_transition(s0, "y", s2);
        let p = b.add_transition(s1, "p", s3);
        let q = b.add_transition(s1, "q", s3);
        b.add_transition_by_id(s2, p, s3);
        b.add_transition_by_id(s2, q, s3);
        b.set_initial(s0);
        let timed = TimedTransitionSystem::new(b.build().unwrap());
        let options = VerifyOptions {
            assumed_constraints: vec![
                RelativeTimingConstraint::assumed(p, "p", q, "q"),
                RelativeTimingConstraint::assumed(q, "q", p, "p"),
            ],
            ..VerifyOptions::default()
        };
        let verdict = verify(&timed, &SafetyProperty::new("nothing"), &options);
        let Verdict::Inconclusive { reason, report } = verdict else {
            panic!("expected an over-constrained refinement, got {verdict}");
        };
        assert!(reason.contains("in state s1 (over-constrained"), "{reason}");
        assert_eq!(report.explored_states, 3);
    }

    #[test]
    fn assumed_constraints_are_reported_and_used() {
        let timed = race(DelayInterval::unbounded(), DelayInterval::unbounded());
        let property = SafetyProperty::new("order").forbid_marked_states();
        let fast = timed.underlying().alphabet().lookup("fast").unwrap();
        let slow = timed.underlying().alphabet().lookup("slow").unwrap();
        let options = VerifyOptions {
            assumed_constraints: vec![RelativeTimingConstraint::assumed(
                fast, "fast", slow, "slow",
            )],
            ..VerifyOptions::default()
        };
        let verdict = verify(&timed, &property, &options);
        assert!(verdict.is_verified());
        assert_eq!(verdict.report().refinements, 0);
        assert_eq!(verdict.report().constraints.len(), 1);
    }

    #[test]
    fn cancelled_verification_is_inconclusive() {
        let token = explore::CancelToken::new();
        token.cancel();
        let timed = race(d(1, 2), d(5, 9));
        let property = SafetyProperty::new("order").forbid_marked_states();
        let verdict = verify(
            &timed,
            &property,
            &VerifyOptions {
                spec: ExploreSpec {
                    cancel: token,
                    ..ExploreSpec::default()
                },
                ..VerifyOptions::default()
            },
        );
        match verdict {
            Verdict::Inconclusive { reason, report } => {
                assert_eq!(reason, "verification cancelled");
                assert_eq!(report.explored_states, 0);
            }
            other => panic!("expected inconclusive, got {other}"),
        }
    }

    #[test]
    fn verdict_display() {
        let timed = race(d(1, 2), d(5, 9));
        let property = SafetyProperty::new("order").forbid_marked_states();
        let verdict = verify(&timed, &property, &VerifyOptions::default());
        assert!(verdict.to_string().starts_with("VERIFIED"));
    }
}
