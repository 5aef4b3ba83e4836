//! Reachability graph generation and well-formedness checks for signal
//! transition graphs.
//!
//! The verification engine works on explicit transition systems, so the STG
//! models of environments and abstractions are expanded into their
//! reachability graphs. The expansion also checks safeness (the models in
//! the paper are all 1-safe nets) and *signal consistency*: along every
//! reachable path, rising and falling edges of each signal must alternate,
//! otherwise the STG does not describe a realisable signal.
//!
//! The search is one breadth-first FIFO loop over packed markings (one bit
//! per place, `ceil(places / 64)` words; see [`Marking`]). Each transition
//! is a preset mask `pre` and a postset mask `post`: it is enabled in `m`
//! when `pre ⊆ m`, firing it gives `(m & !pre) | post`, and a place in
//! `post & m & !pre` would carry a second token, which is reported as
//! [`ExpandError::Unbounded`]. Markings are stored once, in a flat arena
//! indexed by an open-addressing table, and numbered in discovery order;
//! that number *is* the state id, so the loop adds each state and each
//! transition to the [`TransitionSystem`] as it finds them. Signal
//! consistency is a following pass over the built system with per-state
//! bit vectors. [`find_marking_path`] runs the same loop with parent links.
//!
//! The loop applies the [`ExploreSpec`] controls where the shared
//! exploration driver does: the marking limit before each expansion (an
//! unset limit is [`DEFAULT_MARKING_LIMIT`]), the configuration budget once
//! per expansion, the cancel token once per 32 expansions of a
//! breadth-first level, and the same `Batch`, `Level` and `Cancelled`
//! progress events. Markings are deduplicated exactly, so `exact` is
//! ignored.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use explore::{ExploreSpec, ProgressEvent, StopReason};
use tts::{EventId, SignalEdge, StateId, TransitionSystem, TsBuilder};

use crate::net::{set_bits, Marking, PlaceId, SignalRole, Stg, TransitionId};

/// Errors produced while expanding an STG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// A place would carry more than one token: the net is not 1-safe.
    Unbounded {
        /// Name of the offending place.
        place: String,
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
    /// The [`ExploreSpec::cancel`] token stopped (cancelled, past its
    /// deadline, or on a budget breach) before the expansion finished.
    Cancelled,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::Unbounded { place } => {
                write!(f, "place `{place}` exceeds the token bound 1")
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

/// Statistics of a completed reachability expansion.
///
/// State lists are sorted by state id.
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

/// Expansions per cancel-token check within a breadth-first level, and the
/// stride of `Batch` progress events, as in the shared driver.
const BATCH: usize = 32;

/// The net compiled for the packed token game.
struct PackedNet {
    /// `u64` words per marking.
    words: usize,
    /// Preset masks, `words` words per transition.
    pre: Vec<u64>,
    /// Postset masks, `words` words per transition.
    post: Vec<u64>,
    initial: Marking,
}

impl PackedNet {
    /// Compiles `net`. A place declared with more than one initial token is
    /// reported as [`ExpandError::Unbounded`] (the lowest such place).
    fn new(net: &Stg) -> Result<Self, ExpandError> {
        if let Some(p) =
            (0..net.place_count()).find(|&i| net.initial_tokens(PlaceId::from_index(i)) > 1)
        {
            return Err(unbounded(net, p));
        }
        let mask = |places: &[PlaceId]| net.marking(places.iter().copied());
        let (mut pre, mut post) = (Vec::new(), Vec::new());
        for t in net.transitions() {
            pre.extend_from_slice(mask(net.preset(t)).words());
            post.extend_from_slice(mask(net.postset(t)).words());
        }
        Ok(PackedNet {
            words: net.marking_words(),
            pre,
            post,
            initial: net.initial_marking(),
        })
    }

    fn masks(&self, t: usize) -> (&[u64], &[u64]) {
        let range = t * self.words..(t + 1) * self.words;
        (&self.pre[range.clone()], &self.post[range])
    }
}

fn unbounded(net: &Stg, place: usize) -> ExpandError {
    ExpandError::Unbounded {
        place: net.place_name(PlaceId::from_index(place)).to_owned(),
    }
}

/// Returns `true` if every bit of `mask` is set in `words`.
fn covers(words: &[u64], mask: &[u64]) -> bool {
    mask.iter().zip(words).all(|(&m, &w)| m & !w == 0)
}

/// The discovered markings: stored once, back to back in a flat arena, and
/// indexed by an open-addressing (linear probing) table of discovery
/// indices.
struct MarkingTable {
    words: usize,
    arena: Vec<u64>,
    /// `0` is an empty slot, `id + 1` names marking `id`. The length is a
    /// power of two, kept at least twice the number of markings.
    slots: Vec<u32>,
    /// Randomly keyed, like a `HashMap`'s, so no net can be built whose
    /// markings all land in one probe run.
    hasher: RandomState,
}

impl MarkingTable {
    fn new(words: usize) -> Self {
        MarkingTable {
            words,
            arena: Vec::new(),
            slots: vec![0; 1024],
            hasher: RandomState::new(),
        }
    }

    fn len(&self) -> usize {
        self.arena.len() / self.words
    }

    fn marking(&self, id: usize) -> &[u64] {
        &self.arena[id * self.words..(id + 1) * self.words]
    }

    fn home(&self, marking: &[u64]) -> usize {
        self.hasher.hash_one(marking) as usize & (self.slots.len() - 1)
    }

    /// The id of `marking` if it is stored, otherwise the empty slot where
    /// it belongs.
    fn probe(&self, marking: &[u64]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(marking);
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                stored if self.marking(stored as usize - 1) == marking => {
                    return Ok(stored as usize - 1)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Returns the id of `marking`, storing it under the next discovery
    /// index if it is new, and whether it was new.
    fn insert(&mut self, marking: &[u64]) -> (usize, bool) {
        let slot = match self.probe(marking) {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };
        let id = self.len();
        self.slots[slot] = u32::try_from(id + 1).expect("marking ids fit in u32");
        self.arena.extend_from_slice(marking);
        if 2 * (id + 1) > self.slots.len() {
            self.grow();
        }
        (id, true)
    }

    /// Doubles the slot table and re-inserts every stored marking.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        for id in 0..self.len() {
            let slot = self
                .probe(self.marking(id))
                .expect_err("stored markings are distinct");
            self.slots[slot] = id as u32 + 1;
        }
    }
}

/// What a marking search records as it goes.
trait Visit {
    /// Marking `id` (its discovery index) was first reached from marking
    /// `via.0` by firing transition `via.1`; `via` is `None` for the initial
    /// marking.
    fn discovered(&mut self, id: usize, marking: &[u64], via: Option<(usize, usize)>);

    /// Marking `from` fired transition `t` into marking `to`.
    fn fired(&mut self, _from: usize, _t: usize, _to: usize) {}

    /// Marking `id` was expanded (`deadlock`: it enables no transition).
    /// Returning `true` stops the search there.
    fn expanded(&mut self, id: usize, marking: &[u64], deadlock: bool) -> bool;
}

/// The breadth-first marking search behind [`expand_with_report`] and
/// [`find_marking_path`]. Returns the discovered markings and the id of the
/// marking [`Visit::expanded`] stopped at, if any.
fn search(
    net: &Stg,
    spec: &ExploreSpec,
    visit: &mut impl Visit,
) -> Result<(MarkingTable, Option<usize>), ExpandError> {
    let packed = PackedNet::new(net)?;
    let limit = spec.limit_or(DEFAULT_MARKING_LIMIT);
    let words = packed.words;
    let mut seen = MarkingTable::new(words);
    seen.insert(packed.initial.words());
    visit.discovered(0, packed.initial.words(), None);

    let batch = |expanded, discovered| {
        spec.progress.emit(&ProgressEvent::Batch {
            expanded,
            discovered,
            subsumption_skips: 0,
        });
    };
    let mut current = vec![0u64; words];
    let mut next = vec![0u64; words];
    let mut expanded = 0usize;
    let mut last_progress = 0usize;
    let mut level = 0usize;
    let mut level_start = 0usize;
    while level_start < seen.len() {
        let level_end = seen.len();
        for id in level_start..level_end {
            if (id - level_start).is_multiple_of(BATCH) && spec.cancel.is_cancelled() {
                spec.progress.emit(&ProgressEvent::Cancelled { expanded });
                return Err(ExpandError::Cancelled);
            }
            if seen.len() > limit {
                return Err(ExpandError::TooManyMarkings { limit });
            }
            expanded += 1;
            // A breached budget stops the token with the breach as its
            // reason, as in the driver.
            if let Some(breach) = spec.budget.check(expanded) {
                spec.cancel.stop(StopReason::Budget(breach));
                spec.progress.emit(&ProgressEvent::Cancelled { expanded });
                return Err(ExpandError::Cancelled);
            }
            current.copy_from_slice(seen.marking(id));
            let mut deadlock = true;
            for t in 0..net.transition_count() {
                let (pre, post) = packed.masks(t);
                if !covers(&current, pre) {
                    continue;
                }
                for w in 0..words {
                    let kept = current[w] & !pre[w];
                    let doubled = kept & post[w];
                    if doubled != 0 {
                        return Err(unbounded(net, w * 64 + doubled.trailing_zeros() as usize));
                    }
                    next[w] = kept | post[w];
                }
                let (to, new) = seen.insert(&next);
                if new {
                    visit.discovered(to, &next, Some((id, t)));
                }
                visit.fired(id, t, to);
                deadlock = false;
            }
            if visit.expanded(id, &current, deadlock) {
                return Ok((seen, Some(id)));
            }
            if expanded.is_multiple_of(BATCH) {
                last_progress = expanded;
                batch(expanded, seen.len());
            }
        }
        if expanded > last_progress {
            last_progress = expanded;
            batch(expanded, seen.len());
        }
        spec.progress.emit(&ProgressEvent::Level {
            index: level,
            frontier: seen.len() - level_end,
        });
        level += 1;
        level_start = level_end;
    }
    Ok((seen, None))
}

/// Builds the reachability graph while the search runs: state ids are
/// discovery indices, so each marking becomes a state the moment it is
/// found.
struct GraphBuilder {
    builder: TsBuilder,
    /// The event of each transition.
    events: Vec<EventId>,
    /// `p{i}`, the name piece of place `i` in a state name.
    pieces: Vec<String>,
    /// Forbidden-marking conjunctions as masks, with their messages.
    forbidden: Vec<(Marking, String)>,
    deadlocks: Vec<StateId>,
    firings: usize,
}

impl GraphBuilder {
    fn new(net: &Stg) -> Self {
        let mut builder = TsBuilder::new(net.name());
        // Interface roles, declared in transition order (which also fixes
        // the event numbering).
        let events = net
            .transitions()
            .map(|t| match net.role(t) {
                SignalRole::Input => builder.declare_input(net.label(t)),
                SignalRole::Output => builder.declare_output(net.label(t)),
                SignalRole::Internal => builder.intern_event(net.label(t)),
            })
            .collect();
        GraphBuilder {
            builder,
            events,
            pieces: (0..net.place_count()).map(|i| format!("p{i}")).collect(),
            forbidden: net
                .forbidden_markings()
                .iter()
                .map(|c| (net.marking(c.iter().copied()), net.violation_message(c)))
                .collect(),
            deadlocks: Vec::new(),
            firings: 0,
        }
    }

    /// `{p0,p3,…}`: the marked places of `marking`.
    fn state_name(&self, marking: &[u64]) -> String {
        let marked: u32 = marking.iter().map(|word| word.count_ones()).sum();
        let mut name = String::with_capacity(2 + 4 * marked as usize);
        name.push('{');
        for (k, place) in set_bits(marking).enumerate() {
            if k > 0 {
                name.push(',');
            }
            name.push_str(&self.pieces[place]);
        }
        name.push('}');
        name
    }
}

impl Visit for GraphBuilder {
    fn discovered(&mut self, id: usize, marking: &[u64], via: Option<(usize, usize)>) {
        let state = self.builder.add_state(self.state_name(marking));
        debug_assert_eq!(state.index(), id);
        if via.is_none() {
            self.builder.set_initial(state);
        }
        // Forbidden-marking predicates become violation marks of the
        // expanded system, so the marked-state machinery (engine, zone
        // witness search) picks them up as-is.
        if let Some((_, message)) = self
            .forbidden
            .iter()
            .find(|(mask, _)| covers(marking, mask.words()))
        {
            self.builder.mark_violation(state, message.clone());
        }
    }

    fn fired(&mut self, from: usize, t: usize, to: usize) {
        self.firings += 1;
        self.builder.add_transition_by_id(
            StateId::from_index(from),
            self.events[t],
            StateId::from_index(to),
        );
    }

    fn expanded(&mut self, id: usize, _: &[u64], deadlock: bool) -> bool {
        if deadlock {
            self.deadlocks.push(StateId::from_index(id));
        }
        false
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
/// Returns [`ExpandError`] if the net is not 1-safe, too large, or signal
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
    expand_with(net, &ExploreSpec::default())
}

/// Expands an STG into its reachability graph under `spec` (limit,
/// cancellation, progress, budget).
///
/// # Errors
///
/// See [`expand`].
pub fn expand_with(net: &Stg, spec: &ExploreSpec) -> Result<TransitionSystem, ExpandError> {
    expand_with_report(net, spec).map(|(ts, _)| ts)
}

/// Expands an STG and additionally returns the [`ReachReport`] of the
/// marking search.
///
/// # Errors
///
/// See [`expand`]. Search errors (not 1-safe, the marking limit,
/// cancellation) come first, then an invalid system, then signal
/// inconsistency.
///
/// # Examples
///
/// ```
/// use stg::{expand_with_report, ExploreSpec, SignalRole, StgBuilder};
/// let mut b = StgBuilder::new("toggle");
/// let up = b.add_transition("X+", SignalRole::Output);
/// let down = b.add_transition("X-", SignalRole::Output);
/// b.connect(up, down, 0);
/// b.connect(down, up, 1);
/// let (ts, report) = expand_with_report(&b.build()?, &ExploreSpec::default())?;
/// assert_eq!(report.markings, 2);
/// assert_eq!(report.firings, 2);
/// assert_eq!(report.reachable_states.len(), ts.state_count());
/// assert!(report.deadlock_states.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn expand_with_report(
    net: &Stg,
    spec: &ExploreSpec,
) -> Result<(TransitionSystem, ReachReport), ExpandError> {
    let mut graph = GraphBuilder::new(net);
    let (seen, _) = search(net, spec, &mut graph)?;
    let markings = seen.len();
    drop(seen);
    let ts = graph
        .builder
        .build()
        .map_err(|e| ExpandError::Build(e.to_string()))?;
    check_signal_consistency(&ts)?;
    let report = ReachReport {
        reachable_states: ts.states().collect(),
        deadlock_states: graph.deadlocks,
        markings,
        firings: graph.firings,
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

/// Records the breadth-first discovery tree and stops at the first expanded
/// marking satisfying the goal.
struct GoalSearch<G> {
    goal: G,
    /// Per marking: the marking and transition it was first reached by.
    parents: Vec<Option<(usize, usize)>>,
}

impl<G: Fn(&Marking) -> bool> Visit for GoalSearch<G> {
    fn discovered(&mut self, _: usize, _: &[u64], via: Option<(usize, usize)>) {
        self.parents.push(via);
    }

    fn expanded(&mut self, _: usize, marking: &[u64], _: bool) -> bool {
        (self.goal)(&Marking::from_words(marking))
    }
}

/// Searches the reachability graph breadth-first for the first marking
/// satisfying `goal` and returns the witness firing sequence leading to it,
/// or `None` when no reachable marking satisfies the goal.
///
/// Markings are tested in breadth-first order as they are expanded, so the
/// path is a shortest one, and the first in discovery order among those.
///
/// # Errors
///
/// Returns [`ExpandError`] if the net is not 1-safe or the marking limit is
/// exceeded before the goal is decided.
///
/// # Examples
///
/// ```
/// use stg::{find_marking_path, ExploreSpec, SignalRole, StgBuilder};
/// let mut b = StgBuilder::new("toggle");
/// let up = b.add_transition("X+", SignalRole::Output);
/// let down = b.add_transition("X-", SignalRole::Output);
/// b.connect(up, down, 0);
/// b.connect(down, up, 1);
/// let net = b.build()?;
/// // Path to the first marking that enables X-.
/// let path = find_marking_path(&net, &ExploreSpec::default(), |m| {
///     net.enabled(m).iter().any(|&t| net.label(t) == "X-")
/// })?
/// .expect("X- becomes enabled");
/// assert_eq!(path.labels(&net), vec!["X+"]);
/// assert_eq!(path.replay(&net).as_ref(), Some(path.end()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn find_marking_path<G>(
    net: &Stg,
    spec: &ExploreSpec,
    goal: G,
) -> Result<Option<MarkingPath>, ExpandError>
where
    G: Fn(&Marking) -> bool,
{
    let mut visit = GoalSearch {
        goal,
        parents: Vec::new(),
    };
    let (seen, halted) = search(net, spec, &mut visit)?;
    let Some(mut id) = halted else {
        return Ok(None);
    };
    let mut steps = Vec::new();
    while let Some((parent, t)) = visit.parents[id] {
        steps.push((
            TransitionId::from_index(t),
            Marking::from_words(seen.marking(id)),
        ));
        id = parent;
    }
    steps.reverse();
    Ok(Some(MarkingPath {
        start: Marking::from_words(seen.marking(0)),
        steps,
    }))
}

/// Verifies that along every reachable transition sequence, rising and
/// falling edges of each signal alternate.
///
/// A signal's value in a state is known once an edge of that signal enters
/// the state. An edge is inconsistent when it repeats the known value of its
/// source, or when it enters a state whose known value it contradicts. The
/// known/value flags are two bit vectors per state.
///
/// States are visited in id order. The expansion numbers states in
/// breadth-first discovery order along the same edge order, so this is the
/// breadth-first order from the initial state, and the first inconsistency
/// found (the signal reported) is the one a breadth-first walk finds.
fn check_signal_consistency(ts: &TransitionSystem) -> Result<(), ExpandError> {
    let alphabet = ts.alphabet();
    let mut signals: Vec<String> = Vec::new();
    // Per event: its signal's index and the value its edge sets.
    let edges: Vec<Option<(usize, bool)>> = alphabet
        .ids()
        .map(|event| {
            let edge = alphabet.signal_edge(event)?;
            let signal = match signals.iter().position(|s| s == edge.signal()) {
                Some(i) => i,
                None => {
                    signals.push(edge.signal().to_owned());
                    signals.len() - 1
                }
            };
            Some((signal, edge.polarity().target_value()))
        })
        .collect();
    let stride = signals.len().div_ceil(64);
    let mut known = vec![0u64; ts.state_count() * stride];
    let mut value = vec![0u64; ts.state_count() * stride];
    let inconsistent = |signal: usize| ExpandError::InconsistentSignal {
        signal: signals[signal].clone(),
    };
    for s in ts.states() {
        for &(event, to) in ts.transitions_from(s) {
            let Some((signal, target)) = edges[event.index()] else {
                continue;
            };
            let bit = 1u64 << (signal % 64);
            let from = s.index() * stride + signal / 64;
            if known[from] & bit != 0 && (value[from] & bit != 0) == target {
                return Err(inconsistent(signal));
            }
            let to = to.index() * stride + signal / 64;
            if known[to] & bit == 0 {
                known[to] |= bit;
                if target {
                    value[to] |= bit;
                }
            } else if (value[to] & bit != 0) != target {
                return Err(inconsistent(signal));
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

        // Independent toggles interleave freely: four give 16 markings, and
        // the shortest path to three signals high at once fires three `+`.
        let toggles = |names: &[&str]| {
            let mut b = StgBuilder::new("wide");
            for name in names {
                let up = b.add_transition(format!("{name}+"), SignalRole::Output);
                let down = b.add_transition(format!("{name}-"), SignalRole::Output);
                b.connect(up, down, 0);
                b.connect(down, up, 1);
            }
            b.build().unwrap()
        };
        let (_, report) =
            expand_with_report(&toggles(&["A", "B", "C", "D"]), &ExploreSpec::default()).unwrap();
        assert_eq!(report.markings, 16);
        let net = toggles(&["A", "B", "C"]);
        let all_high = |m: &Marking| net.enabled(m).iter().all(|&t| net.label(t).ends_with('-'));
        let path = find_marking_path(&net, &ExploreSpec::default(), all_high)
            .unwrap()
            .expect("reachable");
        assert_eq!(path.len(), 3);
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
    fn the_lowest_doubled_place_is_named() {
        // The second X+ puts a second token on both sinks at once.
        let mut b = StgBuilder::new("two sinks");
        let up = b.add_transition("X+", SignalRole::Output);
        let down = b.add_transition("X-", SignalRole::Output);
        b.connect(up, down, 0);
        b.connect(down, up, 1);
        let low = b.add_place("low", 0);
        let high = b.add_place("high", 0);
        b.arc_out(up, high);
        b.arc_out(up, low);
        let err = expand(&b.build().unwrap()).unwrap_err();
        assert_eq!(
            err,
            ExpandError::Unbounded {
                place: "low".to_owned()
            }
        );
    }

    #[test]
    fn the_first_covered_conjunction_marks_a_state() {
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
        b.forbid_marking([a_high]);
        let ts = expand(&b.build().unwrap()).unwrap();
        let mut messages: Vec<&str> = ts
            .states()
            .flat_map(|s| ts.violations(s))
            .map(String::as_str)
            .collect();
        messages.sort_unstable();
        // One mark per state: A alone high, then both high.
        assert_eq!(
            messages,
            [
                "forbidden marking: {A+->A-, B+->B-}",
                "forbidden marking: {A+->A-}"
            ]
        );
    }

    #[test]
    fn a_place_with_two_initial_tokens_is_unbounded() {
        let mut b = StgBuilder::new("double");
        let up = b.add_transition("X+", SignalRole::Output);
        let down = b.add_transition("X-", SignalRole::Output);
        b.connect(up, down, 0);
        let back = b.connect(down, up, 2);
        let net = b.build().unwrap();
        assert_eq!(net.initial_tokens(back), 2);
        let expected = ExpandError::Unbounded {
            place: "X-->X+".to_owned(),
        };
        assert_eq!(expand(&net).unwrap_err(), expected);
        assert_eq!(
            find_marking_path(&net, &ExploreSpec::default(), |_| true).unwrap_err(),
            expected
        );
    }

    #[test]
    fn markings_span_several_words() {
        // A token running round a ring of 70 places: markings take two
        // words, and every place (p64 and up included) is marked once.
        let mut b = StgBuilder::new("ring");
        let ts: Vec<_> = (0..70)
            .map(|i| b.add_transition(format!("t{i}"), SignalRole::Internal))
            .collect();
        for i in 0..70 {
            b.connect(ts[i], ts[(i + 1) % 70], u32::from(i == 69));
        }
        let net = b.build().unwrap();
        let (ts, report) = expand_with_report(&net, &ExploreSpec::default()).unwrap();
        assert_eq!(report.markings, 70);
        assert_eq!(report.firings, 70);
        assert_eq!(ts.state_name(StateId::from_index(0)), "{p69}");
        assert_eq!(ts.state_name(StateId::from_index(1)), "{p0}");
        assert_eq!(ts.state_name(StateId::from_index(69)), "{p68}");
        let path = find_marking_path(&net, &ExploreSpec::default(), |m| {
            m.is_marked(PlaceId::from_index(66))
        })
        .unwrap()
        .expect("the token reaches p66");
        assert_eq!(path.len(), 67);
        assert_eq!(path.replay(&net).as_ref(), Some(path.end()));

        // A sink place in the second word, fed once per round, gets its
        // second token in the second round and is reported.
        let mut b = StgBuilder::new("ring2");
        let ts: Vec<_> = (0..70)
            .map(|i| b.add_transition(format!("t{i}"), SignalRole::Internal))
            .collect();
        for i in 0..70 {
            b.connect(ts[i], ts[(i + 1) % 70], u32::from(i == 69));
        }
        let sink = b.add_place("sink", 0);
        b.arc_out(ts[0], sink);
        let err = expand(&b.build().unwrap()).unwrap_err();
        assert_eq!(
            err,
            ExpandError::Unbounded {
                place: "sink".to_owned()
            }
        );
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
            &ExploreSpec {
                limit: Some(0),
                ..ExploreSpec::default()
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
        let (ts, report) = expand_with_report(&toggle(), &ExploreSpec::default()).unwrap();
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
        let path = find_marking_path(&net, &ExploreSpec::default(), |m| net.enabled(m).is_empty())
            .unwrap()
            .expect("deadlock reachable");
        assert_eq!(path.labels(&net), vec!["X+", "X-"]);
        let end = path.replay(&net).unwrap();
        assert_eq!(&end, path.end());
        assert!(net.enabled(&end).is_empty());
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
        let path = find_marking_path(&net, &ExploreSpec::default(), |m| {
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
        let spec = ExploreSpec {
            cancel: token,
            ..ExploreSpec::default()
        };
        let err = expand_with(&toggle(), &spec).unwrap_err();
        assert_eq!(err, ExpandError::Cancelled);
        let err = find_marking_path(&toggle(), &spec, |_| false).unwrap_err();
        assert_eq!(err, ExpandError::Cancelled);
        assert_eq!(err.to_string(), "expansion cancelled");
    }

    #[test]
    fn unreachable_goal_returns_none() {
        let net = toggle();
        let path = find_marking_path(&net, &ExploreSpec::default(), |m| {
            m.marked_places().next().is_none()
        })
        .unwrap();
        assert!(path.is_none());
    }

    #[test]
    fn goal_holding_initially_yields_the_empty_path() {
        let net = toggle();
        let path = find_marking_path(&net, &ExploreSpec::default(), |_| true)
            .unwrap()
            .expect("initial marking satisfies the goal");
        assert!(path.is_empty());
        assert_eq!(path.end(), &net.initial_marking());
    }
}
