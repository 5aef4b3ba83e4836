//! Reachability graph generation and well-formedness checks for signal
//! transition graphs.
//!
//! The verification engine works on explicit transition systems, so the STG
//! models of environments and abstractions are expanded into their
//! reachability graphs. The expansion also checks boundedness (the models in
//! the paper are all safe nets) and *signal consistency*: along every
//! reachable path, rising and falling edges of each signal must alternate,
//! otherwise the STG does not describe a realisable signal.
//!
//! The marking search itself runs on the generic [`explore`] engine:
//! markings are the configurations, firings are the edges, and the recorded
//! breadth-first nodes are replayed afterwards to assemble the transition
//! system with exactly the state numbering the historical sequential
//! expansion produced — whatever [`ExploreSpec::threads`] was used.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use explore::{ExploreOptions, ExploreOutcome, ExploreSpec, SearchSpace, TraceOptions};
use tts::{SignalEdge, StateId, TransitionSystem, TsBuilder};

use crate::net::{Marking, SignalRole, Stg, TransitionId};

/// Errors produced while expanding an STG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// A place exceeded the token bound (the net is not bounded by `bound`).
    Unbounded {
        /// Name of the offending place.
        place: String,
        /// The bound that was exceeded.
        bound: u32,
    },
    /// The reachability graph exceeded the state limit.
    TooManyMarkings {
        /// The configured limit.
        limit: usize,
    },
    /// A signal fired two same-direction edges without the opposite edge in
    /// between.
    InconsistentSignal {
        /// The signal name.
        signal: String,
    },
    /// The expansion produced an invalid transition system (e.g. no
    /// transitions at all).
    Build(String),
    /// The [`ExploreSpec::cancel`] token fired before the expansion
    /// finished.
    Cancelled,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::Unbounded { place, bound } => {
                write!(f, "place `{place}` exceeds the token bound {bound}")
            }
            ExpandError::TooManyMarkings { limit } => {
                write!(f, "reachability graph exceeds {limit} markings")
            }
            ExpandError::InconsistentSignal { signal } => {
                write!(f, "signal `{signal}` has two same-direction edges in a row")
            }
            ExpandError::Build(msg) => write!(f, "expansion produced an invalid system: {msg}"),
            ExpandError::Cancelled => write!(f, "expansion cancelled"),
        }
    }
}

impl std::error::Error for ExpandError {}

/// Marking limit applied when [`ExploreSpec::limit`] is `None`.
///
/// Sized so the largest shipped pipeline model (`ipcmos_4stage.stg`,
/// 960,000 markings) expands with default options; an explicit
/// [`ExploreSpec::limit`] still caps the search wherever a caller wants a
/// tighter budget.
pub const DEFAULT_MARKING_LIMIT: usize = 1_000_000;

/// Options for [`expand`].
///
/// The shared exploration knobs (threads / limit / cancel / progress) live
/// in the embedded [`ExploreSpec`]; the marking search uses exact
/// deduplication, so the spec's `exact` field is carried inert. An unset
/// [`ExploreSpec::limit`] resolves to
/// [`DEFAULT_MARKING_LIMIT`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandOptions {
    /// The shared exploration knobs.
    pub spec: ExploreSpec,
    /// Per-place token bound (the paper's models are all 1-safe).
    pub token_bound: u32,
    /// If `true`, verify rising/falling alternation of every signal.
    pub check_signal_consistency: bool,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            spec: ExploreSpec::default(),
            token_bound: 1,
            check_signal_consistency: true,
        }
    }
}

impl ExpandOptions {
    /// The marking limit the expansion enforces.
    fn marking_limit(&self) -> usize {
        self.spec.limit_or(DEFAULT_MARKING_LIMIT)
    }
}

/// Statistics of a completed reachability expansion.
///
/// State lists are sorted by state id on construction, so reports are
/// order-stable however the exploration was scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachReport {
    /// States of the expanded reachability graph (sorted; state ids are
    /// assigned in deterministic breadth-first discovery order).
    pub reachable_states: Vec<StateId>,
    /// States whose marking enables no transition (sorted).
    pub deadlock_states: Vec<StateId>,
    /// Number of distinct markings discovered.
    pub markings: usize,
    /// Number of arcs of the reachability graph (counting multiplicities).
    pub firings: usize,
}

/// The token-game search space over markings.
struct MarkingSpace<'a> {
    net: &'a Stg,
    token_bound: u32,
}

impl SearchSpace for MarkingSpace<'_> {
    type Config = Marking;
    type Key = Marking;
    type Edge = TransitionId;
    type Error = ExpandError;

    fn initial(&self) -> Result<Vec<Marking>, ExpandError> {
        Ok(vec![self.net.initial_marking()])
    }

    fn key(&self, config: &Marking) -> Marking {
        config.clone()
    }

    fn expand(&self, marking: &Marking) -> Result<Vec<(TransitionId, Marking)>, ExpandError> {
        let mut successors = Vec::new();
        for t in self.net.enabled(marking) {
            let next = self
                .net
                .fire(marking, t)
                .expect("enabled transitions can fire");
            if let Some(p) = next.iter().position(|&tokens| tokens > self.token_bound) {
                return Err(ExpandError::Unbounded {
                    place: self
                        .net
                        .place_name(crate::net::PlaceId(p as u32))
                        .to_owned(),
                    bound: self.token_bound,
                });
            }
            successors.push((t, next));
        }
        Ok(successors)
    }
}

/// Expands an STG into its reachability graph with default options.
///
/// Transition labels become events of the resulting system; transitions
/// declared [`SignalRole::Input`] / [`SignalRole::Output`] become input /
/// output events.
///
/// # Errors
///
/// Returns [`ExpandError`] if the net is unbounded, too large, or signal
/// inconsistent.
///
/// # Examples
///
/// ```
/// use stg::{expand, SignalRole, StgBuilder};
/// let mut b = StgBuilder::new("toggle");
/// let up = b.add_transition("X+", SignalRole::Output);
/// let down = b.add_transition("X-", SignalRole::Output);
/// b.connect(up, down, 0);
/// b.connect(down, up, 1);
/// let ts = expand(&b.build()?)?;
/// assert_eq!(ts.state_count(), 2);
/// assert_eq!(ts.transition_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn expand(net: &Stg) -> Result<TransitionSystem, ExpandError> {
    expand_with(net, ExpandOptions::default())
}

/// Expands an STG into its reachability graph with explicit options.
///
/// # Errors
///
/// See [`expand`].
pub fn expand_with(net: &Stg, options: ExpandOptions) -> Result<TransitionSystem, ExpandError> {
    expand_with_report(net, options).map(|(ts, _)| ts)
}

/// Expands an STG and additionally returns the [`ReachReport`] of the
/// marking search.
///
/// # Errors
///
/// See [`expand`].
///
/// # Examples
///
/// ```
/// use stg::{expand_with_report, ExpandOptions, SignalRole, StgBuilder};
/// let mut b = StgBuilder::new("toggle");
/// let up = b.add_transition("X+", SignalRole::Output);
/// let down = b.add_transition("X-", SignalRole::Output);
/// b.connect(up, down, 0);
/// b.connect(down, up, 1);
/// let (ts, report) = expand_with_report(&b.build()?, ExpandOptions::default())?;
/// assert_eq!(report.markings, 2);
/// assert_eq!(report.firings, 2);
/// assert_eq!(report.reachable_states.len(), ts.state_count());
/// assert!(report.deadlock_states.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn expand_with_report(
    net: &Stg,
    options: ExpandOptions,
) -> Result<(TransitionSystem, ReachReport), ExpandError> {
    let space = MarkingSpace {
        net,
        token_bound: options.token_bound,
    };
    let outcome = explore::explore(
        &space,
        &ExploreOptions {
            threads: options.spec.threads,
            discovered_limit: options.marking_limit(),
            record_edges: true,
            cancel: options.spec.cancel.clone(),
            progress: options.spec.progress.clone(),
            budget: options.spec.budget.clone(),
            ..ExploreOptions::default()
        },
    )?;
    let search = match outcome {
        ExploreOutcome::Completed(report) => report,
        ExploreOutcome::LimitExceeded { .. } => {
            return Err(ExpandError::TooManyMarkings {
                limit: options.marking_limit(),
            })
        }
        ExploreOutcome::Cancelled { .. } => return Err(ExpandError::Cancelled),
    };

    // Replay the recorded breadth-first nodes to assemble the transition
    // system: state ids follow discovery order (initial state first, then
    // successors in firing order), which is exactly the numbering of the
    // historical sequential expansion.
    let mut builder = TsBuilder::new(net.name());
    let mut ids: HashMap<Marking, StateId> = HashMap::new();

    let initial = net.initial_marking();
    let initial_id = builder.add_state(marking_name(&initial));
    builder.set_initial(initial_id);
    if let Some(message) = net.violation(&initial) {
        builder.mark_violation(initial_id, message);
    }
    ids.insert(initial, initial_id);

    // Interface roles (also fixes the event interning order).
    for t in net.transitions() {
        match net.role(t) {
            SignalRole::Input => {
                builder.declare_input(net.label(t));
            }
            SignalRole::Output => {
                builder.declare_output(net.label(t));
            }
            SignalRole::Internal => {
                builder.intern_event(net.label(t));
            }
        }
    }

    let mut firings = 0usize;
    let mut deadlock_states = Vec::new();
    for node in &search.nodes {
        let from = ids[&node.config];
        if node.successors.is_empty() {
            deadlock_states.push(from);
        }
        for (t, next) in &node.successors {
            firings += 1;
            let to = match ids.get(next) {
                Some(&id) => id,
                None => {
                    let id = builder.add_state(marking_name(next));
                    // Forbidden-marking predicates become violation marks of
                    // the expanded system, so the marked-state machinery
                    // (engine, zone witness search) picks them up as-is.
                    if let Some(message) = net.violation(next) {
                        builder.mark_violation(id, message);
                    }
                    ids.insert(next.clone(), id);
                    id
                }
            };
            builder.add_transition(from, net.label(*t), to);
        }
    }

    let ts = builder
        .build()
        .map_err(|e| ExpandError::Build(e.to_string()))?;

    if options.check_signal_consistency {
        check_signal_consistency(&ts)?;
    }

    let mut reachable_states: Vec<StateId> = ids.values().copied().collect();
    reachable_states.sort_unstable();
    deadlock_states.sort_unstable();
    let report = ReachReport {
        reachable_states,
        deadlock_states,
        markings: search.discovered,
        firings,
    };
    Ok((ts, report))
}

/// A witness firing sequence from the initial marking to a target marking.
///
/// Produced by [`find_marking_path`]; replayable through the token game with
/// [`replay`](Self::replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkingPath {
    /// The marking the path starts from (the net's initial marking).
    pub start: Marking,
    /// The fired `(transition, reached marking)` steps, in firing order.
    pub steps: Vec<(TransitionId, Marking)>,
}

impl MarkingPath {
    /// The marking the path ends at.
    pub fn end(&self) -> &Marking {
        self.steps.last().map_or(&self.start, |(_, m)| m)
    }

    /// Number of fired transitions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the goal already holds in the initial marking.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The labels of the fired transitions, in order.
    pub fn labels<'a>(&self, net: &'a Stg) -> Vec<&'a str> {
        self.steps.iter().map(|&(t, _)| net.label(t)).collect()
    }

    /// Replays the path through the token game of `net`, checking each step
    /// fires an enabled transition into the recorded marking. Returns the end
    /// marking on success, `None` on any mismatch.
    pub fn replay(&self, net: &Stg) -> Option<Marking> {
        let mut marking = self.start.clone();
        for (t, recorded) in &self.steps {
            let next = net.fire(&marking, *t)?;
            if next != *recorded {
                return None;
            }
            marking = next;
        }
        Some(marking)
    }
}

/// The marking space extended with a goal predicate that halts the search.
struct GoalSpace<'a, G> {
    inner: MarkingSpace<'a>,
    goal: G,
}

impl<G: Fn(&Marking) -> bool + Sync> SearchSpace for GoalSpace<'_, G> {
    type Config = Marking;
    type Key = Marking;
    type Edge = TransitionId;
    type Error = ExpandError;

    fn initial(&self) -> Result<Vec<Marking>, ExpandError> {
        self.inner.initial()
    }

    fn key(&self, config: &Marking) -> Marking {
        self.inner.key(config)
    }

    fn expand(&self, marking: &Marking) -> Result<Vec<(TransitionId, Marking)>, ExpandError> {
        self.inner.expand(marking)
    }

    fn should_halt(&self, marking: &Marking, _: &[(TransitionId, Marking)]) -> bool {
        (self.goal)(marking)
    }
}

/// Searches the reachability graph breadth-first for the first marking
/// satisfying `goal` and returns the witness firing sequence leading to it,
/// or `None` when no reachable marking satisfies the goal.
///
/// The search runs on the shared exploration engine with parent tracking, so
/// the returned path — not just its existence — is identical for every
/// [`ExploreSpec::threads`] value.
///
/// # Errors
///
/// Returns [`ExpandError`] if the net is unbounded or the marking limit is
/// exceeded before the goal is decided.
///
/// # Examples
///
/// ```
/// use stg::{find_marking_path, ExpandOptions, SignalRole, StgBuilder};
/// let mut b = StgBuilder::new("toggle");
/// let up = b.add_transition("X+", SignalRole::Output);
/// let down = b.add_transition("X-", SignalRole::Output);
/// b.connect(up, down, 0);
/// b.connect(down, up, 1);
/// let net = b.build()?;
/// // Path to the first marking that enables X-.
/// let path = find_marking_path(&net, ExpandOptions::default(), |m| {
///     net.enabled(m).iter().any(|&t| net.label(t) == "X-")
/// })?
/// .expect("X- becomes enabled");
/// assert_eq!(path.labels(&net), vec!["X+"]);
/// assert_eq!(path.replay(&net).as_ref(), Some(path.end()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn find_marking_path<G>(
    net: &Stg,
    options: ExpandOptions,
    goal: G,
) -> Result<Option<MarkingPath>, ExpandError>
where
    G: Fn(&Marking) -> bool + Sync,
{
    let space = GoalSpace {
        inner: MarkingSpace {
            net,
            token_bound: options.token_bound,
        },
        goal,
    };
    let outcome = explore::explore(
        &space,
        &ExploreOptions {
            threads: options.spec.threads,
            discovered_limit: options.marking_limit(),
            trace: TraceOptions::parents(),
            cancel: options.spec.cancel.clone(),
            progress: options.spec.progress.clone(),
            budget: options.spec.budget.clone(),
            ..ExploreOptions::default()
        },
    )?;
    let search = match outcome {
        ExploreOutcome::Completed(report) => report,
        ExploreOutcome::LimitExceeded { .. } => {
            return Err(ExpandError::TooManyMarkings {
                limit: options.marking_limit(),
            })
        }
        ExploreOutcome::Cancelled { .. } => return Err(ExpandError::Cancelled),
    };
    if !search.halted {
        return Ok(None);
    }
    let goal_node = search.nodes.len() - 1;
    let (root, steps) = search
        .path_to(goal_node)
        .expect("goal search records parents");
    let start = search.nodes[root].config.clone();
    let steps = steps
        .into_iter()
        .map(|(transition, node)| (transition, search.nodes[node].config.clone()))
        .collect();
    Ok(Some(MarkingPath { start, steps }))
}

/// Verifies that along every reachable transition sequence, rising and
/// falling edges of each signal alternate.
///
/// The check assigns a value to each signal per reachable state (starting
/// unknown) and reports an error if a state is reached with two different
/// implied values or an edge repeats a direction.
fn check_signal_consistency(ts: &TransitionSystem) -> Result<(), ExpandError> {
    // value per (state, signal): None = unknown.
    let mut values: Vec<HashMap<String, bool>> = vec![HashMap::new(); ts.state_count()];
    let mut queue: VecDeque<tts::StateId> = VecDeque::new();
    let mut visited = vec![false; ts.state_count()];
    for &s in ts.initial_states() {
        visited[s.index()] = true;
        queue.push_back(s);
    }
    while let Some(s) = queue.pop_front() {
        for &(event, to) in ts.transitions_from(s) {
            if let Some(edge) = ts.alphabet().signal_edge(event) {
                let before = values[s.index()].get(edge.signal()).copied();
                let target_value = edge.polarity().target_value();
                if before == Some(target_value) {
                    return Err(ExpandError::InconsistentSignal {
                        signal: edge.signal().to_owned(),
                    });
                }
                let after_map = &mut values[to.index()];
                match after_map.get(edge.signal()) {
                    Some(&v) if v != target_value => {
                        return Err(ExpandError::InconsistentSignal {
                            signal: edge.signal().to_owned(),
                        });
                    }
                    _ => {
                        after_map.insert(edge.signal().to_owned(), target_value);
                    }
                }
            }
            if !visited[to.index()] {
                visited[to.index()] = true;
                queue.push_back(to);
            }
        }
    }
    Ok(())
}

/// Returns the set of signals appearing in the labels of a net.
pub fn signals(net: &Stg) -> Vec<String> {
    let mut out: Vec<String> = net
        .transitions()
        .filter_map(|t| SignalEdge::parse(net.label(t)).map(|e| e.signal().to_owned()))
        .collect();
    out.sort();
    out.dedup();
    out
}

fn marking_name(marking: &Marking) -> String {
    let tokens: Vec<String> = marking
        .iter()
        .enumerate()
        .filter(|(_, &t)| t > 0)
        .map(|(i, &t)| {
            if t == 1 {
                format!("p{i}")
            } else {
                format!("p{i}*{t}")
            }
        })
        .collect();
    if tokens.is_empty() {
        "{}".to_owned()
    } else {
        format!("{{{}}}", tokens.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::StgBuilder;

    fn toggle() -> Stg {
        let mut b = StgBuilder::new("toggle");
        let up = b.add_transition("X+", SignalRole::Output);
        let down = b.add_transition("X-", SignalRole::Input);
        b.connect(up, down, 0);
        b.connect(down, up, 1);
        b.build().unwrap()
    }

    #[test]
    fn expansion_produces_the_reachability_graph() {
        let ts = expand(&toggle()).unwrap();
        assert_eq!(ts.state_count(), 2);
        assert_eq!(ts.transition_count(), 2);
        let up = ts.alphabet().lookup("X+").unwrap();
        let down = ts.alphabet().lookup("X-").unwrap();
        assert_eq!(ts.role(up), tts::EventRole::Output);
        assert_eq!(ts.role(down), tts::EventRole::Input);
        assert!(ts.deadlock_states().is_empty());
    }

    #[test]
    fn concurrency_expands_to_interleavings() {
        // A+ forks B+ and C+ which join back into A-.
        let mut b = StgBuilder::new("fork");
        let a_plus = b.add_transition("A+", SignalRole::Output);
        let b_plus = b.add_transition("B+", SignalRole::Output);
        let c_plus = b.add_transition("C+", SignalRole::Output);
        let a_minus = b.add_transition("A-", SignalRole::Output);
        let b_minus = b.add_transition("B-", SignalRole::Output);
        let c_minus = b.add_transition("C-", SignalRole::Output);
        b.connect(a_plus, b_plus, 0);
        b.connect(a_plus, c_plus, 0);
        b.connect(b_plus, a_minus, 0);
        b.connect(c_plus, a_minus, 0);
        b.connect(a_minus, b_minus, 0);
        b.connect(a_minus, c_minus, 0);
        b.connect(b_minus, a_plus, 1);
        b.connect(c_minus, a_plus, 1);
        let ts = expand(&b.build().unwrap()).unwrap();
        // Diamond of B+/C+ plus diamond of B-/C-.
        assert!(ts.state_count() >= 6);
        assert!(ts.deadlock_states().is_empty());
    }

    #[test]
    fn unbounded_nets_are_rejected() {
        let mut b = StgBuilder::new("unbounded");
        let a = b.add_transition("A+", SignalRole::Output);
        let c = b.add_transition("A-", SignalRole::Output);
        b.connect(a, c, 0);
        b.connect(c, a, 1);
        // Extra sink place that accumulates tokens forever.
        let sink = b.add_place("sink", 0);
        b.arc_out(a, sink);
        let err = expand(&b.build().unwrap()).unwrap_err();
        assert!(matches!(err, ExpandError::Unbounded { .. }));
        assert!(err.to_string().contains("sink"));
    }

    #[test]
    fn inconsistent_signals_are_rejected() {
        // X+ followed by X+ again.
        let mut b = StgBuilder::new("bad");
        let first = b.add_transition("X+", SignalRole::Output);
        let second = b.add_transition("X+", SignalRole::Output);
        b.connect(first, second, 0);
        b.connect(second, first, 1);
        let err = expand(&b.build().unwrap()).unwrap_err();
        assert_eq!(
            err,
            ExpandError::InconsistentSignal {
                signal: "X".to_owned()
            }
        );
    }

    #[test]
    fn marking_limit_is_enforced() {
        let err = expand_with(
            &toggle(),
            ExpandOptions {
                spec: ExploreSpec {
                    limit: Some(0),
                    ..ExploreSpec::default()
                },
                ..ExpandOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ExpandError::TooManyMarkings { .. }));
    }

    #[test]
    fn signals_are_collected() {
        let names = signals(&toggle());
        assert_eq!(names, vec!["X".to_owned()]);
    }

    #[test]
    fn non_signal_labels_are_tolerated() {
        let mut b = StgBuilder::new("plain");
        let a = b.add_transition("go", SignalRole::Internal);
        let c = b.add_transition("stop", SignalRole::Internal);
        b.connect(a, c, 0);
        b.connect(c, a, 1);
        let ts = expand(&b.build().unwrap()).unwrap();
        assert_eq!(ts.state_count(), 2);
    }

    #[test]
    fn report_counts_markings_and_firings() {
        let (ts, report) = expand_with_report(&toggle(), ExpandOptions::default()).unwrap();
        assert_eq!(report.markings, 2);
        assert_eq!(report.firings, 2);
        assert_eq!(report.reachable_states.len(), ts.state_count());
        assert!(report.deadlock_states.is_empty());
        assert!(report.reachable_states.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn marking_path_reaches_a_deadlock_and_replays() {
        // X+ then X- into a sink: the final marking is a deadlock.
        let mut b = StgBuilder::new("sink");
        let up = b.add_transition("X+", SignalRole::Output);
        let down = b.add_transition("X-", SignalRole::Output);
        b.connect(up, down, 0);
        let start = b.add_place("start", 1);
        b.arc_in(start, up);
        let net = b.build().unwrap();
        let path = find_marking_path(&net, ExpandOptions::default(), |m| {
            net.enabled(m).is_empty()
        })
        .unwrap()
        .expect("deadlock reachable");
        assert_eq!(path.labels(&net), vec!["X+", "X-"]);
        let end = path.replay(&net).unwrap();
        assert_eq!(&end, path.end());
        assert!(net.enabled(&end).is_empty());
    }

    #[test]
    fn marking_path_is_identical_across_thread_counts() {
        let mut b = StgBuilder::new("wide");
        for name in ["A", "B", "C"] {
            let up = b.add_transition(format!("{name}+"), SignalRole::Output);
            let down = b.add_transition(format!("{name}-"), SignalRole::Output);
            b.connect(up, down, 0);
            b.connect(down, up, 1);
        }
        let net = b.build().unwrap();
        // Goal: all three signals high at once.
        let goal = |m: &Marking| net.enabled(m).iter().all(|&t| net.label(t).ends_with('-'));
        let sequential = find_marking_path(&net, ExpandOptions::default(), goal)
            .unwrap()
            .expect("reachable");
        for threads in [2, 4] {
            let parallel = find_marking_path(
                &net,
                ExpandOptions {
                    spec: ExploreSpec::threaded(threads),
                    ..ExpandOptions::default()
                },
                goal,
            )
            .unwrap()
            .expect("reachable");
            assert_eq!(sequential, parallel, "threads={threads}");
        }
        assert_eq!(sequential.len(), 3);
    }

    #[test]
    fn forbidden_markings_become_violation_marks() {
        // Two independent toggles; both signals high at once is forbidden.
        let mut b = StgBuilder::new("mutex");
        let a_up = b.add_transition("A+", SignalRole::Output);
        let a_down = b.add_transition("A-", SignalRole::Output);
        let b_up = b.add_transition("B+", SignalRole::Output);
        let b_down = b.add_transition("B-", SignalRole::Output);
        let a_high = b.connect(a_up, a_down, 0);
        b.connect(a_down, a_up, 1);
        let b_high = b.connect(b_up, b_down, 0);
        b.connect(b_down, b_up, 1);
        b.forbid_marking([a_high, b_high]);
        let net = b.build().unwrap();
        assert_eq!(net.forbidden_markings().len(), 1);

        let ts = expand(&net).unwrap();
        let marked: Vec<_> = ts
            .states()
            .filter(|&s| !ts.violations(s).is_empty())
            .collect();
        assert_eq!(marked.len(), 1, "exactly the both-high marking is marked");
        assert!(ts.violations(marked[0])[0].contains("forbidden marking"));

        // The marking-path machinery reaches the forbidden marking.
        let path = find_marking_path(&net, ExpandOptions::default(), |m| {
            net.violation(m).is_some()
        })
        .unwrap()
        .expect("forbidden marking reachable");
        assert_eq!(path.len(), 2);
        assert!(net.violation(path.end()).is_some());
    }

    #[test]
    fn cancelled_expansion_reports_cancelled() {
        let token = explore::CancelToken::new();
        token.cancel();
        let options = ExpandOptions {
            spec: ExploreSpec {
                cancel: token,
                ..ExploreSpec::default()
            },
            ..ExpandOptions::default()
        };
        let err = expand_with(&toggle(), options.clone()).unwrap_err();
        assert_eq!(err, ExpandError::Cancelled);
        let err = find_marking_path(&toggle(), options, |_| false).unwrap_err();
        assert_eq!(err, ExpandError::Cancelled);
        assert_eq!(err.to_string(), "expansion cancelled");
    }

    #[test]
    fn unreachable_goal_returns_none() {
        let net = toggle();
        let path = find_marking_path(&net, ExpandOptions::default(), |m| {
            m.iter().all(|&t| t == 0)
        })
        .unwrap();
        assert!(path.is_none());
    }

    #[test]
    fn goal_holding_initially_yields_the_empty_path() {
        let net = toggle();
        let path = find_marking_path(&net, ExpandOptions::default(), |_| true)
            .unwrap()
            .expect("initial marking satisfies the goal");
        assert!(path.is_empty());
        assert_eq!(path.end(), &net.initial_marking());
    }

    #[test]
    fn parallel_expansion_matches_sequential_exactly() {
        let mut b = StgBuilder::new("wide");
        // Four concurrent toggles: 16 interleaved markings.
        for name in ["A", "B", "C", "D"] {
            let up = b.add_transition(format!("{name}+"), SignalRole::Output);
            let down = b.add_transition(format!("{name}-"), SignalRole::Output);
            b.connect(up, down, 0);
            b.connect(down, up, 1);
        }
        let net = b.build().unwrap();
        let sequential = expand_with_report(&net, ExpandOptions::default()).unwrap();
        for threads in [2, 4] {
            let parallel = expand_with_report(
                &net,
                ExpandOptions {
                    spec: ExploreSpec::threaded(threads),
                    ..ExpandOptions::default()
                },
            )
            .unwrap();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
        assert!(sequential.1.markings >= 16);
    }
}
