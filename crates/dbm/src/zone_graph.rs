//! Zone-graph exploration of the timed semantics of a timed transition
//! system.
//!
//! This is the *conventional* approach the paper contrasts with: enumerate
//! the exact timed state space symbolically, pairing each discrete state with
//! a clock zone (one clock per event, measuring the time since the event's
//! current enabling). It serves two purposes in this repository:
//!
//! 1. **Ground truth** — on small models it decides exactly which marked
//!    (violating) states are reachable when delays are taken into account,
//!    which cross-checks the relative-timing engine.
//! 2. **Baseline** — its blow-up with pipeline depth quantifies the paper's
//!    motivation for abstraction and relative timing (the flat-pipeline
//!    tests in `tests/engine_vs_zones.rs`).
//!
//! The frontier/dedup loop itself lives in the [`explore`] crate; this module
//! contributes the search space: configurations are `(state, zone)` pairs,
//! interned behind [`Arc`]s so the many configurations sharing a zone after
//! clock resets share one canonical DBM allocation.
//!
//! # Zone abstraction
//!
//! By default the explorer applies the standard zone-abstraction toolkit,
//! all *exact for discrete-state reachability* (the reachable / violating /
//! deadlocked state sets are identical to the unabstracted exploration's):
//!
//! * **Active-clock reduction** — the clock of an event disabled in a state
//!   carries no information (it is reset the moment the event is re-enabled,
//!   and no guard or invariant of the state consults it), so successor
//!   computation pins it to zero. Zones differing only in dead clock ages
//!   collapse to one representative.
//! * **LU-bounds extrapolation** (`Extra_LU`, Behrmann et al. 2004) — at
//!   interning time, bounds above the per-clock lower/upper delay constants
//!   of the model are widened away, so only finitely many zones exist per
//!   state and cyclic systems with unbounded clock drift terminate.
//! * **aLU coverage** (Herbreteau–Srivathsan–Walukiewicz) — a configuration
//!   whose zone is included in the aLU abstraction of an already-seen zone
//!   of the same state is skipped, including configurations that were
//!   already enqueued when the covering zone arrived (the pop-time
//!   subsumption check). Stored zones stay convex DBMs: the non-convex
//!   abstraction exists only inside the O(n²) coverage check (see
//!   [`Dbm::included_in_alu`]), never as a materialised zone.
//!
//! Extrapolation and the aLU check consult the model's global per-clock
//! constants. Per-state bounds would gain nothing: in this
//! one-clock-per-event semantics a clock faces only its own event's
//! constants while the event is enabled, and nothing while it is disabled —
//! when active-clock reduction already pins it to zero.
//!
//! With [`ExploreSpec::exact`] set the explorer is the unabstracted oracle
//! instead: zones are stored exactly and deduplicated only against
//! identical zones. It may not terminate on cyclic systems with unbounded
//! clock drift.
//!
//! The widened matrices are cloned through a [`DbmArena`] free list living
//! inside the interner lock, so the hot path reuses retired entry buffers
//! instead of churning the global allocator; extrapolation, projection and
//! arena counters surface in [`ZoneReport`] and stay identical for every
//! thread count (they are only touched from the driver's deterministic
//! merge).

use std::collections::{BTreeSet, HashSet};
use std::convert::Infallible;
use std::sync::{Arc, Mutex};

use explore::{
    BudgetMeter, ExploreOptions, ExploreOutcome, ExploreSpec, SearchSpace, TraceOptions,
};
use tts::{Bound, EventId, StateId, Time, TimedTransitionSystem};

use crate::arena::{ArenaStats, DbmArena};
use crate::entry::Entry;
use crate::matrix::Dbm;

/// Configuration limit applied when [`ExploreSpec::limit`] is `None`.
pub const DEFAULT_CONFIGURATION_LIMIT: usize = 200_000;

/// Options for the zone-graph exploration: the shared [`ExploreSpec`] core
/// (threads / exact / limit / cancel / progress / budget).
///
/// An unset [`ExploreSpec::limit`] resolves to
/// [`DEFAULT_CONFIGURATION_LIMIT`]. By default a `(state, zone)`
/// configuration is skipped when an already-seen zone for that state
/// aLU-covers it — sound (coverage preserves discrete-state reachability)
/// and strictly reducing on models with converging timing;
/// [`ExploreSpec::exact`] enumerates exact-duplicate zones only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoneExplorationOptions {
    /// The shared exploration knobs.
    pub spec: ExploreSpec,
}

/// Result of a completed zone-graph exploration.
///
/// All state lists are sorted by state id on construction, so reports are
/// order-stable however the exploration was scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneReport {
    /// Discrete states reachable in the timed semantics (sorted).
    pub reachable_states: Vec<StateId>,
    /// Reachable states that carry violation marks (sorted).
    pub violating_states: Vec<StateId>,
    /// Reachable states from which no event can fire (sorted).
    pub deadlock_states: Vec<StateId>,
    /// Number of symbolic configurations (state, zone) explored.
    pub configurations: usize,
    /// Enqueued configurations skipped because a covering zone for the same
    /// state arrived before their turn (0 in exact mode).
    pub subsumed_configurations: usize,
    /// Subsumption skips only the non-convex aLU relation explains: at skip
    /// time no stored zone of the state contained the skipped zone
    /// convexly. Always ≤ `subsumed_configurations`.
    pub alu_subsumed: usize,
    /// Stored configurations whose zone LU-bounds extrapolation actually
    /// widened (0 in exact mode).
    pub extrapolated_zones: usize,
    /// Dead clock dimensions (clocks of disabled events, pinned to zero by
    /// active-clock reduction) summed over stored configurations (0 in
    /// exact mode).
    pub projected_clocks: usize,
    /// Allocation counters of the interner's DBM arena.
    pub arena: ArenaStats,
}

impl ZoneReport {
    /// Returns `true` if no violating state is timed-reachable and no
    /// reachable state deadlocks.
    pub fn is_safe(&self) -> bool {
        self.violating_states.is_empty() && self.deadlock_states.is_empty()
    }
}

/// Outcome of [`explore_timed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneOutcome {
    /// Exploration finished; the exact set of timed-reachable states is in
    /// the report.
    Completed(ZoneReport),
    /// The configuration limit was exceeded (state explosion); only a partial
    /// count is available.
    LimitExceeded {
        /// Number of configurations explored before aborting.
        explored: usize,
        /// Enqueued configurations skipped by zone subsumption before the
        /// abort (0 in exact mode).
        subsumed: usize,
    },
    /// The [`ExploreSpec::cancel`](explore::ExploreSpec::cancel) token fired before the
    /// exploration finished.
    Cancelled {
        /// Number of configurations explored before the cancellation.
        explored: usize,
        /// Enqueued configurations skipped by zone subsumption before the
        /// cancellation (0 in exact mode).
        subsumed: usize,
    },
}

impl ZoneOutcome {
    /// The report, if the exploration completed.
    pub fn report(&self) -> Option<&ZoneReport> {
        match self {
            ZoneOutcome::Completed(r) => Some(r),
            ZoneOutcome::LimitExceeded { .. } | ZoneOutcome::Cancelled { .. } => None,
        }
    }
}

/// Interner entry with a cheap sampled hash: hashing every entry of a large
/// canonical DBM costs more than the lookup saves, so only a stride of the
/// matrix feeds the hasher. Equality stays exact, so collisions merely cost
/// a probe.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InternedZone(Arc<Dbm>);

impl std::hash::Hash for InternedZone {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.sample_hash(state);
    }
}

/// Index of the clock measuring the time since `event`'s current enabling
/// (clock 0 is the DBM reference clock).
fn clock_of(event: EventId) -> usize {
    event.index() + 1
}

/// The model's per-clock LU extrapolation vectors, indexed by clock (index 0
/// is the reference clock and stays 0).
///
/// In this semantics every comparison a clock faces is known from the delay
/// window of its event: guards are the lower bounds `x ≥ δl` and invariants
/// the upper bounds `x ≤ δu`, so `L = δl` and `U = δu` — with `U = 0` for
/// events without an upper delay bound, the coarsest sound choice since no
/// upper comparison ever consults such a clock.
struct LuBounds {
    lower: Vec<i64>,
    upper: Vec<i64>,
}

impl LuBounds {
    fn of(timed: &TimedTransitionSystem) -> LuBounds {
        let events = timed.underlying().alphabet().len();
        let mut lower = vec![0; events + 1];
        let mut upper = vec![0; events + 1];
        for index in 0..events {
            let delay = timed.delay(EventId::from_index(index));
            lower[index + 1] = delay.lower().as_i64();
            if let Bound::Finite(u) = delay.upper() {
                upper[index + 1] = u.as_i64();
            }
        }
        LuBounds { lower, upper }
    }
}

/// Active-clock reduction: pins the clocks of events disabled in `state` to
/// zero. Sound because a disabled clock is never consulted again before it
/// is reset (guards only read the fired — hence enabled — event's clock and
/// invariants only enabled events' clocks), and canonical-form preserving
/// (DBM reset keeps canonicity), so projected zones need no
/// re-canonicalisation. Pure per configuration, which lets it run in the
/// parallel expansion phase.
fn project_inactive(timed: &TimedTransitionSystem, zone: &mut Dbm, state: StateId) {
    let ts = timed.underlying();
    let enabled = ts.enabled(state);
    for index in 0..ts.alphabet().len() {
        let clock = index + 1;
        if !enabled.contains(&EventId::from_index(index)) && !zone.pins_to_zero(clock) {
            zone.reset(clock);
        }
    }
}

/// Lets time elapse only as far as the upper delay bounds of the events
/// enabled in `state` allow (the state's invariant). The zone may have more
/// clocks than the alphabet (the witness replay adds an absolute-time clock);
/// extra clocks are simply never constrained.
fn apply_invariant(timed: &TimedTransitionSystem, zone: &mut Dbm, state: StateId) {
    let ts = timed.underlying();
    for &event in &ts.enabled(state) {
        if let Bound::Finite(upper) = timed.delay(event).upper() {
            zone.constrain_upper(clock_of(event), upper.as_i64());
        }
    }
}

/// The zone reached by firing `event` from a state whose enabled events are
/// `enabled_here` into `target`: guard on the fired clock, reset of freshly
/// enabled clocks, time elapse and the target invariant. Returns `None` when
/// the firing is not timed-feasible (the guard or the target invariant
/// empties the zone). `enabled_here` is passed in so callers expanding
/// several transitions of one configuration compute it once.
///
/// This single function defines the timed successor relation; the explorer
/// and the witness replay both go through it, so a reconstructed trace
/// replays to exactly the zones the search stored. Unless `exact`, the
/// successor is additionally projected onto the clocks active in `target`
/// (see [`project_inactive`]); the LU widening itself happens later, at
/// interning time, because it must only apply to *stored* zones (it is a
/// widening, so storing it keeps subsumption sound, whereas candidates must
/// stay exact for the coverage checks).
fn timed_successor(
    timed: &TimedTransitionSystem,
    zone: &Dbm,
    enabled_here: &std::collections::BTreeSet<EventId>,
    event: EventId,
    target: StateId,
    exact: bool,
) -> Option<Dbm> {
    let ts = timed.underlying();
    // Guard: the event's clock has reached its lower bound.
    let lower = timed.delay(event).lower().as_i64();
    let mut next = zone.clone();
    next.constrain(0, clock_of(event), Entry::le(-lower));
    if next.is_empty() {
        return None;
    }
    // Fire: reset the clocks of freshly enabled occurrences.
    for &e in &ts.enabled(target) {
        let freshly_enabled = e == event || !enabled_here.contains(&e);
        if freshly_enabled {
            next.reset(clock_of(e));
        }
    }
    next.canonicalize();
    // Let time elapse under the target invariant.
    next.up();
    apply_invariant(timed, &mut next, target);
    next.canonicalize();
    if next.is_empty() {
        return None;
    }
    if !exact {
        project_inactive(timed, &mut next, target);
    }
    Some(next)
}

/// The interner's mutable state: the canonical-zone table, the DBM arena
/// backing its clones, and the abstraction counters. One lock, only taken
/// from the driver's single-threaded merge, so every field is deterministic
/// for every thread count.
struct InternerState {
    /// Canonical-DBM interning table: equal zones share one allocation, so
    /// bucket storage and queued clones are reference bumps.
    zones: HashSet<InternedZone>,
    /// Inserts since the last sweep of dead entries (zones no longer
    /// referenced by any bucket or queue, e.g. after subsumption pruning).
    inserts: usize,
    /// Free list of retired DBM buffers, reused by extrapolation clones.
    arena: DbmArena,
    /// Stored zones that LU extrapolation actually widened.
    extrapolated: usize,
    /// Dead clock dimensions summed over stored configurations.
    projected: usize,
    /// Pop-time skips not explained by convex inclusion (see
    /// [`ZoneReport::alu_subsumed`]).
    alu_subsumed: usize,
}

impl InternerState {
    fn new() -> Mutex<InternerState> {
        Mutex::new(InternerState {
            zones: HashSet::new(),
            inserts: 0,
            arena: DbmArena::new(),
            extrapolated: 0,
            projected: 0,
            alu_subsumed: 0,
        })
    }
}

/// The timed search space: configurations pair a discrete state with an
/// interned clock zone.
struct ZoneSpace<'a> {
    timed: &'a TimedTransitionSystem,
    /// The unabstracted oracle: exact zones, exact-duplicate deduplication.
    exact: bool,
    /// The LU bound vectors feeding extrapolation and the aLU check (unused
    /// in exact mode).
    bounds: LuBounds,
    /// Halt the search at the first committed configuration whose discrete
    /// state satisfies this goal (the witness search); `None` explores
    /// exhaustively.
    goal: Option<WitnessGoal>,
    /// The exploration's resource meter: [`intern`](SearchSpace::intern)
    /// charges the bytes of every distinct stored zone into it (from the
    /// driver's merge, so the running total is deterministic). Inert unless
    /// the caller set a `max_zone_bytes` budget.
    budget: BudgetMeter,
    interner: Mutex<InternerState>,
}

impl<'a> ZoneSpace<'a> {
    fn new(
        timed: &'a TimedTransitionSystem,
        spec: &ExploreSpec,
        goal: Option<WitnessGoal>,
    ) -> ZoneSpace<'a> {
        ZoneSpace {
            timed,
            exact: spec.exact,
            bounds: LuBounds::of(timed),
            goal,
            budget: spec.budget.clone(),
            interner: InternerState::new(),
        }
    }

    /// The abstraction counters accumulated so far (consumed once the
    /// exploration is over).
    fn abstraction_stats(self) -> AbstractionStats {
        let state = self.interner.into_inner().expect("zone interner poisoned");
        AbstractionStats {
            extrapolated_zones: state.extrapolated,
            projected_clocks: state.projected,
            alu_subsumed: state.alu_subsumed,
            arena: state.arena.stats(),
        }
    }
}

/// The abstraction counters a finished [`ZoneSpace`] hands to
/// [`aggregate_report`].
struct AbstractionStats {
    extrapolated_zones: usize,
    projected_clocks: usize,
    alu_subsumed: usize,
    arena: ArenaStats,
}

/// Inserts between sweeps of unreferenced interner entries.
const INTERNER_SWEEP_INTERVAL: usize = 4096;

impl SearchSpace for ZoneSpace<'_> {
    type Config = (StateId, Arc<Dbm>);
    /// By default the key is the discrete state (zones of one state form
    /// the bucket); in exact mode the zone joins the key, giving exact
    /// `(state, zone)` deduplication.
    type Key = (StateId, Option<Arc<Dbm>>);
    type Edge = EventId;
    type Error = Infallible;

    fn initial(&self) -> Result<Vec<Self::Config>, Infallible> {
        let ts = self.timed.underlying();
        let clock_count = ts.alphabet().len();
        let mut initial = Vec::new();
        for &s0 in ts.initial_states() {
            let mut zone = Dbm::zero(clock_count);
            zone.up();
            apply_invariant(self.timed, &mut zone, s0);
            zone.canonicalize();
            if !zone.is_empty() {
                if !self.exact {
                    project_inactive(self.timed, &mut zone, s0);
                }
                initial.push((s0, Arc::new(zone)));
            }
        }
        Ok(initial)
    }

    fn key(&self, (state, zone): &Self::Config) -> Self::Key {
        if self.exact {
            (*state, Some(zone.clone()))
        } else {
            (*state, None)
        }
    }

    fn expand(
        &self,
        (state, zone): &Self::Config,
    ) -> Result<Vec<(EventId, Self::Config)>, Infallible> {
        let ts = self.timed.underlying();
        let enabled_here = ts.enabled(*state);
        let mut successors = Vec::new();
        for &(event, target) in ts.transitions_from(*state) {
            if let Some(next) =
                timed_successor(self.timed, zone, &enabled_here, event, target, self.exact)
            {
                successors.push((event, (target, Arc::new(next))));
            }
        }
        Ok(successors)
    }

    fn should_halt(
        &self,
        &(state, _): &Self::Config,
        _successors: &[(EventId, Self::Config)],
    ) -> bool {
        let ts = self.timed.underlying();
        match self.goal {
            None => false,
            Some(WitnessGoal::Violation) => !ts.violations(state).is_empty(),
            Some(WitnessGoal::Deadlock) => ts.transitions_from(state).is_empty(),
        }
    }

    fn subsumes(&self, stored: &Self::Config, candidate: &Self::Config) -> bool {
        // In exact mode equal keys imply equal zones: exact deduplication.
        self.exact
            || candidate
                .1
                .included_in_alu(&stored.1, &self.bounds.lower, &self.bounds.upper)
    }

    fn uses_subsumption(&self) -> bool {
        !self.exact
    }

    fn note_pop_skip(&self, skipped: &Self::Config, stored: &[Self::Config]) {
        // Attribute the skip to the non-convex relation when no stored zone
        // of the state contains the skipped zone convexly — sound because
        // the pruning arrival aLU-covered the skipped zone, and by
        // transitivity so does whatever zone pruned *it*, i.e. some zone in
        // the current bucket.
        if !stored.iter().any(|(_, zone)| zone.includes(&skipped.1)) {
            self.interner
                .lock()
                .expect("zone interner poisoned")
                .alu_subsumed += 1;
        }
    }

    fn intern(&self, (state, zone): Self::Config) -> Self::Config {
        let mut guard = self.interner.lock().expect("zone interner poisoned");
        let st = &mut *guard;
        // LU-bounds extrapolation: widen the zone about to be stored. The
        // widened zone subsumes the candidate, exactly what the intern
        // contract allows for subsumption spaces. The clone goes through the
        // arena so an unchanged zone costs only a recycled buffer.
        let zone = if self.exact {
            zone
        } else {
            let ts = self.timed.underlying();
            st.projected += ts.alphabet().len() - ts.enabled(state).len();
            let mut widened = st.arena.clone_dbm(&zone);
            if widened.extrapolate_lu(&self.bounds.lower, &self.bounds.upper) {
                widened.canonicalize();
                st.extrapolated += 1;
                Arc::new(widened)
            } else {
                st.arena.recycle(widened);
                zone
            }
        };
        let probe = InternedZone(zone.clone());
        if let Some(shared) = st.zones.get(&probe) {
            let shared = shared.0.clone();
            // The candidate hit an existing entry; if its matrix is
            // otherwise unreferenced (a widened clone nothing else holds),
            // reclaim the buffer.
            drop(probe);
            if let Ok(dead) = Arc::try_unwrap(zone) {
                st.arena.recycle(dead);
            }
            return (state, shared);
        }
        // A genuinely new zone: account its entry storage. The arena keeps
        // the monotone byte census for the report; the meter lets a
        // `max_zone_bytes` budget abort the search deterministically.
        self.budget
            .charge_zone_bytes(st.arena.charge_zone(&probe.0));
        st.zones.insert(probe);
        st.inserts += 1;
        if st.inserts >= INTERNER_SWEEP_INTERVAL {
            // Drop entries only the interner still references (their zones
            // were pruned from every bucket and queue), so peak memory
            // follows the live antichain rather than every zone ever seen —
            // and hand the reclaimed buffers back to the arena.
            let retired = std::mem::take(&mut st.zones);
            for entry in retired {
                if Arc::strong_count(&entry.0) > 1 {
                    st.zones.insert(entry);
                } else if let Ok(dead) = Arc::try_unwrap(entry.0) {
                    st.arena.recycle(dead);
                }
            }
            st.inserts = 0;
        }
        (state, zone)
    }
}

/// Explores the timed state space of `timed` with default options.
///
/// # Examples
///
/// ```
/// use dbm::explore_timed;
/// use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};
///
/// // A fast event and a slow event race; the state reached by the slow event
/// // firing first is unreachable in the timed semantics.
/// let mut b = TsBuilder::new("race");
/// let s0 = b.add_state("s0");
/// let s_fast = b.add_state("fast-first");
/// let s_slow = b.add_state("slow-first");
/// b.add_transition(s0, "fast", s_fast);
/// b.add_transition(s0, "slow", s_slow);
/// b.mark_violation(s_slow, "slow overtook fast");
/// b.set_initial(s0);
/// let mut timed = TimedTransitionSystem::new(b.build()?);
/// timed.set_delay_by_name("fast", DelayInterval::new(Time::new(1), Time::new(2))?);
/// timed.set_delay_by_name("slow", DelayInterval::new(Time::new(5), Time::new(9))?);
/// let report = explore_timed(&timed).report().unwrap().clone();
/// assert!(report.violating_states.is_empty());
/// assert_eq!(report.reachable_states.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn explore_timed(timed: &TimedTransitionSystem) -> ZoneOutcome {
    explore_timed_with(timed, ZoneExplorationOptions::default())
}

/// Explores the timed state space with explicit options.
pub fn explore_timed_with(
    timed: &TimedTransitionSystem,
    options: ZoneExplorationOptions,
) -> ZoneOutcome {
    let space = ZoneSpace::new(timed, &options.spec, None);
    let outcome = match explore::explore(
        &space,
        &ExploreOptions {
            threads: options.spec.threads,
            expanded_limit: options.spec.limit_or(DEFAULT_CONFIGURATION_LIMIT),
            cancel: options.spec.cancel.clone(),
            progress: options.spec.progress.clone(),
            budget: options.spec.budget.clone(),
            ..ExploreOptions::default()
        },
    ) {
        Ok(outcome) => outcome,
        Err(infallible) => match infallible {},
    };
    let report = match outcome {
        ExploreOutcome::Completed(report) => report,
        ExploreOutcome::LimitExceeded {
            expanded,
            subsumption_skips,
            ..
        } => {
            return ZoneOutcome::LimitExceeded {
                explored: expanded,
                subsumed: subsumption_skips,
            }
        }
        ExploreOutcome::Cancelled {
            expanded,
            subsumption_skips,
            ..
        } => {
            return ZoneOutcome::Cancelled {
                explored: expanded,
                subsumed: subsumption_skips,
            }
        }
    };
    ZoneOutcome::Completed(aggregate_report(timed, &report, space.abstraction_stats()))
}

/// Folds the raw exploration report into the state-level [`ZoneReport`].
fn aggregate_report(
    timed: &TimedTransitionSystem,
    report: &explore::ExploreReport<(StateId, Arc<Dbm>), EventId>,
    stats: AbstractionStats,
) -> ZoneReport {
    let ts = timed.underlying();
    let reachable: BTreeSet<StateId> = report.nodes.iter().map(|node| node.config.0).collect();
    let violating_states = reachable
        .iter()
        .copied()
        .filter(|&s| !ts.violations(s).is_empty())
        .collect();
    let deadlock_states = reachable
        .iter()
        .copied()
        .filter(|&s| ts.transitions_from(s).is_empty())
        .collect();
    ZoneReport {
        reachable_states: reachable.iter().copied().collect(),
        violating_states,
        deadlock_states,
        configurations: report.expanded,
        subsumed_configurations: report.subsumption_skips,
        alu_subsumed: stats.alu_subsumed,
        extrapolated_zones: stats.extrapolated_zones,
        projected_clocks: stats.projected_clocks,
        arena: stats.arena,
    }
}

/// The kind of state a symbolic witness search targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessGoal {
    /// The first reachable state carrying a violation mark.
    Violation,
    /// The first reachable state with no outgoing transitions.
    Deadlock,
}

/// A symbolic timed trace: the `(state, zone)` configurations along a
/// breadth-first path of the zone graph, each zone carrying the clock bounds
/// that hold on entry to its state.
///
/// Produced by [`find_witness`]; the path is a genuine timed execution (every
/// step was generated by the timed successor relation), replayable with
/// [`replay`](Self::replay) and annotatable with absolute firing-time windows
/// through [`firing_windows`](Self::firing_windows).
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicTrace {
    start: (StateId, Arc<Dbm>),
    steps: Vec<(EventId, StateId, Arc<Dbm>)>,
    /// Whether the search stored exact zones; otherwise the replay applies
    /// the same abstraction so recomputed zones match the recorded ones.
    exact: bool,
}

/// The absolute-time window in which one step of a [`SymbolicTrace`] can
/// fire, given everything that happened before it on the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiringWindow {
    /// Earliest absolute time the step can fire.
    pub earliest: Time,
    /// Latest absolute time the step can fire (`Bound::Infinite` when the
    /// prefix places no deadline on it).
    pub latest: Bound,
}

impl std::fmt::Display for FiringWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.latest {
            Bound::Finite(latest) => write!(f, "[{}, {}]", self.earliest, latest),
            Bound::Infinite => write!(f, "[{}, inf)", self.earliest),
        }
    }
}

impl SymbolicTrace {
    /// The initial configuration of the trace.
    pub fn start(&self) -> (StateId, &Dbm) {
        (self.start.0, &self.start.1)
    }

    /// The `(fired event, reached state, entry zone)` steps.
    pub fn steps(&self) -> &[(EventId, StateId, Arc<Dbm>)] {
        &self.steps
    }

    /// Number of fired events.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the trace fires no event (the goal holds initially).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The final (goal) state of the trace.
    pub fn end_state(&self) -> StateId {
        self.steps
            .last()
            .map_or(self.start.0, |&(_, state, _)| state)
    }

    /// The discrete `(event, target)` run underlying the trace, in the shape
    /// the untimed trace utilities (e.g. `tts::EnablingTrace`) consume.
    pub fn run(&self) -> Vec<(EventId, StateId)> {
        self.steps
            .iter()
            .map(|&(event, state, _)| (event, state))
            .collect()
    }

    /// Replays the trace through the timed successor relation — under the
    /// same abstraction the search used, so a recomputed zone must equal the
    /// stored one exactly. Returns the end state on success, `None` if any
    /// step is infeasible or drifts from the recorded zones (which would
    /// indicate a reconstruction bug).
    pub fn replay(&self, timed: &TimedTransitionSystem) -> Option<StateId> {
        let ts = timed.underlying();
        let bounds = LuBounds::of(timed);
        let mut state = self.start.0;
        let mut zone = self.start.1.clone();
        for (event, target, recorded) in &self.steps {
            if !ts.successors(state, *event).contains(target) {
                return None;
            }
            let enabled_here = ts.enabled(state);
            let mut next =
                timed_successor(timed, &zone, &enabled_here, *event, *target, self.exact)?;
            // The search widens stored zones at interning time; mirror it.
            if !self.exact && next.extrapolate_lu(&bounds.lower, &bounds.upper) {
                next.canonicalize();
            }
            if next != **recorded {
                return None;
            }
            zone = recorded.clone();
            state = *target;
        }
        Some(state)
    }

    /// Absolute firing-time windows of the steps, computed by replaying the
    /// path with one extra clock that is never reset (so its bounds at each
    /// firing are the earliest and latest absolute times the step can happen
    /// given the prefix). Returns `None` only if the path is infeasible,
    /// which cannot happen for traces produced by [`find_witness`].
    pub fn firing_windows(&self, timed: &TimedTransitionSystem) -> Option<Vec<FiringWindow>> {
        path_firing_windows(timed, self.start.0, &self.run())
    }
}

/// Computes the absolute firing-time window of every step of a discrete run
/// through the timed semantics (see [`SymbolicTrace::firing_windows`]).
///
/// Works for any run of the underlying transition system, e.g. the failure
/// trace of the relative-timing engine; returns `None` when some step is not
/// a transition of the system or is not timed-feasible after its prefix.
///
/// # Examples
///
/// ```
/// use dbm::path_firing_windows;
/// use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};
///
/// let mut b = TsBuilder::new("chain");
/// let s0 = b.add_state("s0");
/// let s1 = b.add_state("s1");
/// let s2 = b.add_state("s2");
/// let a = b.add_transition(s0, "a", s1);
/// let c = b.add_transition(s1, "b", s2);
/// b.set_initial(s0);
/// let mut timed = TimedTransitionSystem::new(b.build()?);
/// timed.set_delay_by_name("a", DelayInterval::new(Time::new(1), Time::new(2))?);
/// timed.set_delay_by_name("b", DelayInterval::new(Time::new(3), Time::new(4))?);
/// let windows = path_firing_windows(&timed, s0, &[(a, s1), (c, s2)]).unwrap();
/// // `a` fires at [1,2]; `b` fires 3 to 4 time units later.
/// assert_eq!(windows[0].to_string(), "[1, 2]");
/// assert_eq!(windows[1].to_string(), "[4, 6]");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn path_firing_windows(
    timed: &TimedTransitionSystem,
    start: StateId,
    run: &[(EventId, StateId)],
) -> Option<Vec<FiringWindow>> {
    let ts = timed.underlying();
    // One clock per event plus the absolute-time clock, which is never reset.
    let absolute = ts.alphabet().len() + 1;
    let mut zone = Dbm::zero(absolute);
    zone.up();
    apply_invariant(timed, &mut zone, start);
    zone.canonicalize();
    if zone.is_empty() {
        return None;
    }
    let mut state = start;
    let mut windows = Vec::with_capacity(run.len());
    for &(event, target) in run {
        if !ts.successors(state, event).contains(&target) {
            return None;
        }
        // Constrain to the firing moment and read off the absolute clock.
        let lower = timed.delay(event).lower().as_i64();
        zone.constrain(0, clock_of(event), Entry::le(-lower));
        if zone.is_empty() {
            return None;
        }
        windows.push(FiringWindow {
            earliest: Time::new(zone.lower_bound(absolute)),
            latest: match zone.upper_bound(absolute) {
                Some(value) => Bound::Finite(Time::new(value)),
                None => Bound::Infinite,
            },
        });
        // Commit the firing exactly as the successor relation does.
        let enabled_here = ts.enabled(state);
        for &e in &ts.enabled(target) {
            if e == event || !enabled_here.contains(&e) {
                zone.reset(clock_of(e));
            }
        }
        zone.canonicalize();
        zone.up();
        apply_invariant(timed, &mut zone, target);
        zone.canonicalize();
        if zone.is_empty() {
            return None;
        }
        state = target;
    }
    Some(windows)
}

/// Outcome of [`find_witness`].
#[derive(Debug, Clone, PartialEq)]
pub enum WitnessOutcome {
    /// A goal state is timed-reachable; the trace ends at the first such
    /// state in breadth-first order.
    Found(SymbolicTrace),
    /// The exploration completed without reaching the goal; the exact report
    /// is attached.
    Unreachable(ZoneReport),
    /// The configuration limit was exceeded before the goal was decided.
    LimitExceeded {
        /// Number of configurations explored before aborting.
        explored: usize,
        /// Enqueued configurations skipped by zone subsumption (0 in exact
        /// mode).
        subsumed: usize,
    },
    /// The [`ExploreSpec::cancel`](explore::ExploreSpec::cancel) token fired before the goal
    /// was decided.
    Cancelled {
        /// Number of configurations explored before the cancellation.
        explored: usize,
        /// Enqueued configurations skipped by zone subsumption (0 in exact
        /// mode).
        subsumed: usize,
    },
}

impl WitnessOutcome {
    /// The witness trace, if one was found.
    pub fn trace(&self) -> Option<&SymbolicTrace> {
        match self {
            WitnessOutcome::Found(trace) => Some(trace),
            _ => None,
        }
    }
}

/// Searches the timed state space for the first goal state in deterministic
/// breadth-first order and reconstructs the symbolic trace leading to it.
///
/// The search runs on the shared exploration engine with parent tracking, so
/// the returned trace — not just the verdict — is identical for every
/// [`ExploreSpec::threads`](explore::ExploreSpec::threads) value, and subsumption only prunes
/// configurations covered by already-found ones (the trace stays a genuine
/// timed execution).
///
/// # Examples
///
/// ```
/// use dbm::{find_witness, WitnessGoal, WitnessOutcome, ZoneExplorationOptions};
/// use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};
///
/// // With overlapping delays the slow event can overtake the fast one.
/// let mut b = TsBuilder::new("race");
/// let s0 = b.add_state("s0");
/// let sf = b.add_state("fast-first");
/// let ss = b.add_state("slow-first");
/// b.add_transition(s0, "fast", sf);
/// b.add_transition(s0, "slow", ss);
/// b.mark_violation(ss, "slow overtook fast");
/// b.set_initial(s0);
/// let mut timed = TimedTransitionSystem::new(b.build()?);
/// timed.set_delay_by_name("fast", DelayInterval::new(Time::new(1), Time::new(4))?);
/// timed.set_delay_by_name("slow", DelayInterval::new(Time::new(2), Time::new(9))?);
///
/// let outcome = find_witness(
///     &timed,
///     ZoneExplorationOptions::default(),
///     WitnessGoal::Violation,
/// );
/// let trace = outcome.trace().expect("violation is reachable");
/// assert_eq!(trace.end_state(), ss);
/// assert_eq!(trace.replay(&timed), Some(ss));
/// let windows = trace.firing_windows(&timed).unwrap();
/// // `slow` can fire first anywhere in [2, 4].
/// assert_eq!(windows[0].to_string(), "[2, 4]");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn find_witness(
    timed: &TimedTransitionSystem,
    options: ZoneExplorationOptions,
    goal: WitnessGoal,
) -> WitnessOutcome {
    let space = ZoneSpace::new(timed, &options.spec, Some(goal));
    let outcome = match explore::explore(
        &space,
        &ExploreOptions {
            threads: options.spec.threads,
            expanded_limit: options.spec.limit_or(DEFAULT_CONFIGURATION_LIMIT),
            trace: TraceOptions::parents(),
            cancel: options.spec.cancel.clone(),
            progress: options.spec.progress.clone(),
            budget: options.spec.budget.clone(),
            ..ExploreOptions::default()
        },
    ) {
        Ok(outcome) => outcome,
        Err(infallible) => match infallible {},
    };
    let report = match outcome {
        ExploreOutcome::Completed(report) => report,
        ExploreOutcome::LimitExceeded {
            expanded,
            subsumption_skips,
            ..
        } => {
            return WitnessOutcome::LimitExceeded {
                explored: expanded,
                subsumed: subsumption_skips,
            }
        }
        ExploreOutcome::Cancelled {
            expanded,
            subsumption_skips,
            ..
        } => {
            return WitnessOutcome::Cancelled {
                explored: expanded,
                subsumed: subsumption_skips,
            }
        }
    };
    if !report.halted {
        return WitnessOutcome::Unreachable(aggregate_report(
            timed,
            &report,
            space.abstraction_stats(),
        ));
    }
    let goal_node = report.nodes.len() - 1;
    let (root, steps) = report
        .path_to(goal_node)
        .expect("witness search records parents");
    let start = report.nodes[root].config.clone();
    let steps = steps
        .into_iter()
        .map(|(event, node)| {
            let (state, zone) = report.nodes[node].config.clone();
            (event, state, zone)
        })
        .collect();
    WitnessOutcome::Found(SymbolicTrace {
        start,
        steps,
        exact: options.spec.exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore::CancelToken;
    use tts::{DelayInterval, TsBuilder};

    fn d(l: i64, u: i64) -> DelayInterval {
        DelayInterval::new(Time::new(l), Time::new(u)).unwrap()
    }

    /// Options with the given spec fields overridden.
    fn with_spec(spec: ExploreSpec) -> ZoneExplorationOptions {
        ZoneExplorationOptions { spec }
    }

    /// Both modes: the default abstraction and the exact oracle (the value
    /// of [`ExploreSpec::exact`]).
    const MODES: [bool; 2] = [false, true];

    /// Options running the exact oracle.
    fn exact_spec() -> ExploreSpec {
        ExploreSpec {
            exact: true,
            ..ExploreSpec::default()
        }
    }

    fn sorted(ids: &[StateId]) -> bool {
        ids.windows(2).all(|w| w[0] < w[1])
    }

    fn assert_sorted(report: &ZoneReport) {
        assert!(sorted(&report.reachable_states), "reachable unsorted");
        assert!(sorted(&report.violating_states), "violating unsorted");
        assert!(sorted(&report.deadlock_states), "deadlocks unsorted");
    }

    /// The race example: fast [1,2] vs slow [5,9].
    fn race() -> TimedTransitionSystem {
        let mut b = TsBuilder::new("race");
        let s0 = b.add_state("s0");
        let sf = b.add_state("fast-first");
        let ss = b.add_state("slow-first");
        let sboth = b.add_state("both");
        b.add_transition(s0, "fast", sf);
        b.add_transition(s0, "slow", ss);
        b.add_transition(sf, "slow", sboth);
        b.add_transition(ss, "fast", sboth);
        b.mark_violation(ss, "slow overtook fast");
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("fast", d(1, 2));
        timed.set_delay_by_name("slow", d(5, 9));
        timed
    }

    #[test]
    fn timed_semantics_prunes_slow_first() {
        let outcome = explore_timed(&race());
        let report = outcome.report().unwrap();
        assert!(report.violating_states.is_empty());
        // s0, fast-first and both are reachable; slow-first is not.
        assert_eq!(report.reachable_states.len(), 3);
        // `both` has no outgoing transitions.
        assert_eq!(report.deadlock_states.len(), 1);
        assert!(!report.is_safe());
        assert_sorted(report);
    }

    #[test]
    fn untimed_delays_allow_both_orders() {
        let mut b = TsBuilder::new("untimed-race");
        let s0 = b.add_state("s0");
        let sf = b.add_state("fast-first");
        let ss = b.add_state("slow-first");
        b.add_transition(s0, "fast", sf);
        b.add_transition(s0, "slow", ss);
        b.set_initial(s0);
        let timed = TimedTransitionSystem::new(b.build().unwrap());
        let report = explore_timed(&timed).report().unwrap().clone();
        assert_eq!(report.reachable_states.len(), 3);
    }

    #[test]
    fn cyclic_systems_terminate() {
        // A two-event oscillator: a [1,2] then b [1,2] forever.
        let mut b = TsBuilder::new("osc");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "a", s1);
        b.add_transition(s1, "b", s0);
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("a", d(1, 2));
        timed.set_delay_by_name("b", d(1, 2));
        let report = explore_timed(&timed).report().unwrap().clone();
        assert_eq!(report.reachable_states.len(), 2);
        assert!(report.deadlock_states.is_empty());
        assert!(report.is_safe());
    }

    #[test]
    fn configuration_limit_aborts() {
        let outcome = explore_timed_with(
            &race(),
            with_spec(ExploreSpec {
                limit: Some(1),
                ..ExploreSpec::default()
            }),
        );
        assert!(matches!(outcome, ZoneOutcome::LimitExceeded { .. }));
        assert!(outcome.report().is_none());
    }

    #[test]
    fn urgency_is_respected_in_chains() {
        // a [0,1] enables c [3,4]; independent g [1,1] must fire before c
        // (its deadline 1 is below c's earliest enabling+lower = 0+3). The
        // state where c fires while g is still pending is unreachable.
        let mut b = TsBuilder::new("chain");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s_bad = b.add_state("bad");
        let s_ok = b.add_state("ok");
        let s_done = b.add_state("done");
        let a = b.add_transition(s0, "a", s1);
        let c = b.add_transition(s1, "c", s_bad);
        let g = b.add_transition(s1, "g", s_ok);
        b.add_transition_by_id(s_ok, c, s_done);
        b.add_transition_by_id(s_bad, g, s_done);
        let _ = (a, g);
        b.mark_violation(s_bad, "c before g");
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("a", d(0, 1));
        timed.set_delay_by_name("c", d(3, 4));
        timed.set_delay_by_name("g", d(1, 1));
        let report = explore_timed(&timed).report().unwrap().clone();
        assert!(report.violating_states.is_empty());
    }

    /// An oscillator with a reconvergent choice: both branches re-enter the
    /// same state with different clock histories, so inclusion between
    /// same-state zones actually occurs.
    fn reconvergent() -> TimedTransitionSystem {
        let mut b = TsBuilder::new("reconv");
        let s0 = b.add_state("s0");
        let sa = b.add_state("a-first");
        let sb = b.add_state("b-first");
        let s1 = b.add_state("joined");
        let a = b.add_transition(s0, "a", sa);
        let bb = b.add_transition(s0, "b", sb);
        b.add_transition_by_id(sa, bb, s1);
        b.add_transition_by_id(sb, a, s1);
        b.add_transition(s1, "r", s0);
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("a", d(1, 5));
        timed.set_delay_by_name("b", d(1, 5));
        timed.set_delay_by_name("r", d(0, 3));
        timed
    }

    #[test]
    fn subsumption_explores_no_more_than_exact_dedup() {
        let timed = reconvergent();
        let abstracted = explore_timed(&timed).report().unwrap().clone();
        let exact = explore_timed_with(&timed, with_spec(exact_spec()))
            .report()
            .unwrap()
            .clone();
        assert!(abstracted.configurations <= exact.configurations);
        assert_eq!(exact.subsumed_configurations, 0);
        assert_eq!(exact.alu_subsumed, 0);
        assert!(abstracted.alu_subsumed <= abstracted.subsumed_configurations);
        // Verdict-bearing sets agree.
        assert_eq!(abstracted.reachable_states, exact.reachable_states);
        assert_eq!(abstracted.violating_states, exact.violating_states);
        assert_eq!(abstracted.deadlock_states, exact.deadlock_states);
        assert_sorted(&abstracted);
        assert_sorted(&exact);
    }

    /// The race with overlapping delays: the violating interleaving is
    /// timed-reachable.
    fn overlapping_race() -> TimedTransitionSystem {
        let mut b = TsBuilder::new("race");
        let s0 = b.add_state("s0");
        let sf = b.add_state("fast-first");
        let ss = b.add_state("slow-first");
        b.add_transition(s0, "fast", sf);
        b.add_transition(s0, "slow", ss);
        b.mark_violation(ss, "slow overtook fast");
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("fast", d(1, 4));
        timed.set_delay_by_name("slow", d(2, 9));
        timed
    }

    #[test]
    fn witness_reaches_the_violating_state_and_replays() {
        let timed = overlapping_race();
        let outcome = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Violation,
        );
        let trace = outcome.trace().expect("violation reachable");
        assert_eq!(trace.len(), 1);
        let end = trace.end_state();
        assert!(!timed.underlying().violations(end).is_empty());
        assert_eq!(trace.replay(&timed), Some(end));
        let windows = trace.firing_windows(&timed).unwrap();
        assert_eq!(windows.len(), 1);
        // `slow` must fire before `fast`'s deadline of 4 and after its own
        // lower bound of 2.
        assert_eq!(windows[0].earliest, Time::new(2));
        assert_eq!(windows[0].latest, Bound::Finite(Time::new(4)));
    }

    #[test]
    fn witness_is_identical_for_every_thread_count_and_subsumption() {
        let timed = overlapping_race();
        let base = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Violation,
        );
        for threads in [1, 2, 4] {
            for exact in MODES {
                let outcome = find_witness(
                    &timed,
                    with_spec(ExploreSpec {
                        threads,
                        exact,
                        ..ExploreSpec::default()
                    }),
                    WitnessGoal::Violation,
                );
                let trace = outcome.trace().expect("violation reachable");
                assert_eq!(trace.run(), base.trace().unwrap().run());
                assert_eq!(trace.end_state(), base.trace().unwrap().end_state());
                assert_eq!(trace.replay(&timed), Some(trace.end_state()));
            }
        }
    }

    #[test]
    fn unreachable_goal_returns_the_exact_report() {
        let timed = race();
        let outcome = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Violation,
        );
        match outcome {
            WitnessOutcome::Unreachable(report) => {
                let full = explore_timed(&timed).report().unwrap().clone();
                assert_eq!(report, full);
            }
            other => panic!("expected unreachable, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_witness_walks_the_whole_race() {
        let timed = race();
        let outcome = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Deadlock,
        );
        let trace = outcome.trace().expect("deadlock reachable");
        // fast then slow into the terminal `both` state.
        assert_eq!(trace.len(), 2);
        let end = trace.end_state();
        assert!(timed.underlying().transitions_from(end).is_empty());
        assert_eq!(trace.replay(&timed), Some(end));
        let windows = trace.firing_windows(&timed).unwrap();
        assert!(windows[0].earliest <= windows[1].earliest);
    }

    #[test]
    fn witness_respects_the_configuration_limit() {
        let timed = race();
        let outcome = find_witness(
            &timed,
            with_spec(ExploreSpec {
                limit: Some(1),
                ..ExploreSpec::default()
            }),
            WitnessGoal::Deadlock,
        );
        assert!(matches!(outcome, WitnessOutcome::LimitExceeded { .. }));
        assert!(outcome.trace().is_none());
    }

    #[test]
    fn pre_cancelled_exploration_reports_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        let options = with_spec(ExploreSpec {
            cancel: token.clone(),
            ..ExploreSpec::default()
        });
        let outcome = explore_timed_with(&race(), options.clone());
        assert_eq!(
            outcome,
            ZoneOutcome::Cancelled {
                explored: 0,
                subsumed: 0
            }
        );
        let witness = find_witness(&race(), options, WitnessGoal::Deadlock);
        assert!(matches!(witness, WitnessOutcome::Cancelled { .. }));
        assert!(witness.trace().is_none());
    }

    #[test]
    fn config_budget_cancels_at_the_same_count_for_every_thread_count() {
        use explore::BudgetMeter;
        let mut counts = Vec::new();
        for threads in [1, 4] {
            let budget = BudgetMeter::new(Some(2), None);
            let outcome = explore_timed_with(
                &reconvergent(),
                with_spec(ExploreSpec {
                    threads,
                    cancel: CancelToken::new(),
                    budget: budget.clone(),
                    ..ExploreSpec::default()
                }),
            );
            match outcome {
                ZoneOutcome::Cancelled { explored, .. } => counts.push(explored),
                other => panic!("expected budget cancellation, got {other:?}"),
            }
            assert!(budget.breach().is_some());
        }
        assert_eq!(
            counts[0], counts[1],
            "budget abort count differs by threads"
        );
        assert_eq!(counts[0], 3, "aborts on the configuration over the budget");
    }

    #[test]
    fn zone_byte_budget_cancels_and_charges_the_arena_census() {
        use explore::BudgetMeter;
        // The interner charges every distinct stored zone, so a one-byte
        // budget must trip almost immediately — and the arena census must
        // have counted at least the breaching bytes.
        let budget = BudgetMeter::new(None, Some(1));
        let outcome = explore_timed_with(
            &race(),
            with_spec(ExploreSpec {
                cancel: CancelToken::new(),
                budget: budget.clone(),
                ..ExploreSpec::default()
            }),
        );
        assert!(matches!(outcome, ZoneOutcome::Cancelled { .. }));
        let breach = budget.breach().expect("breach recorded");
        assert_eq!(breach.resource, explore::BudgetResource::ZoneBytes);
        assert!(breach.used > 1);
        assert_eq!(budget.zone_bytes(), breach.used);
        // An unbudgeted run of the same model reports the byte census.
        let report = explore_timed(&race()).report().unwrap().clone();
        assert!(report.arena.zone_bytes >= breach.used);
    }

    #[test]
    fn parallel_exploration_matches_sequential_exactly() {
        for timed in [race(), reconvergent()] {
            for exact in MODES {
                let base = ExploreSpec {
                    exact,
                    ..ExploreSpec::default()
                };
                let sequential = explore_timed_with(&timed, with_spec(base.clone()));
                for threads in [2, 4] {
                    let parallel = explore_timed_with(
                        &timed,
                        with_spec(ExploreSpec {
                            threads,
                            ..base.clone()
                        }),
                    );
                    // `ZoneOutcome` equality covers the verdict sets, the
                    // configuration counters *and* the abstraction / arena
                    // counters, so this pins them all as thread-count
                    // independent.
                    assert_eq!(sequential, parallel, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn extrapolation_modes_agree_on_verdicts() {
        for timed in [race(), reconvergent(), overlapping_race()] {
            let exact = explore_timed_with(&timed, with_spec(exact_spec()))
                .report()
                .unwrap()
                .clone();
            let report = explore_timed(&timed).report().unwrap().clone();
            assert_eq!(report.reachable_states, exact.reachable_states);
            assert_eq!(report.violating_states, exact.violating_states);
            assert_eq!(report.deadlock_states, exact.deadlock_states);
            assert_sorted(&report);
            assert_sorted(&exact);
        }
    }

    /// A consumer that may lag unboundedly behind a bounded producer: the
    /// producer's clock stays bounded by its invariant, but the consumer has
    /// no upper delay bound, so under exact zones the difference between the
    /// two clocks grows without bound and the zone count diverges.
    fn unbounded_drift() -> TimedTransitionSystem {
        let mut b = TsBuilder::new("drift");
        let s0 = b.add_state("s0");
        b.add_transition(s0, "tick", s0);
        b.add_transition(s0, "work", s0);
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("tick", d(1, 1));
        timed.set_delay_by_name("work", DelayInterval::at_least(Time::new(3)).unwrap());
        timed
    }

    #[test]
    fn lu_extrapolation_terminates_where_exact_zones_diverge() {
        let timed = unbounded_drift();
        let exact = explore_timed_with(
            &timed,
            with_spec(ExploreSpec {
                limit: Some(200),
                ..exact_spec()
            }),
        );
        assert!(
            matches!(exact, ZoneOutcome::LimitExceeded { .. }),
            "exact zones were expected to diverge, got {exact:?}"
        );
        let abstracted = explore_timed_with(
            &timed,
            with_spec(ExploreSpec {
                limit: Some(200),
                ..ExploreSpec::default()
            }),
        );
        let report = abstracted
            .report()
            .unwrap_or_else(|| panic!("the abstraction should terminate, got {abstracted:?}"));
        assert_eq!(report.reachable_states.len(), 1);
        assert!(report.extrapolated_zones > 0, "widening never fired");
    }

    #[test]
    fn witness_found_under_extrapolation_replays_and_is_exactly_feasible() {
        let timed = overlapping_race();
        let outcome = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Violation,
        );
        let trace = outcome.trace().expect("violation reachable");
        let end = trace.end_state();
        // Replays under the abstraction it was found with...
        assert_eq!(trace.replay(&timed), Some(end));
        // ...and its discrete run is exactly feasible: the firing windows go
        // through the unabstracted semantics (with the extra absolute-time
        // clock) and must agree with the exact engine's windows.
        let windows = trace.firing_windows(&timed).expect("exactly feasible");
        assert_eq!(windows[0].earliest, Time::new(2));
        assert_eq!(windows[0].latest, Bound::Finite(Time::new(4)));
    }

    #[test]
    fn default_exploration_reports_abstraction_work() {
        // The race's disabled clocks get projected and at least the
        // unbounded-invariant-free zones widen.
        let report = explore_timed(&race()).report().unwrap().clone();
        assert!(report.projected_clocks > 0);
        // Arena counters are wired through: every intern clones via the
        // arena.
        assert!(report.arena.allocated + report.arena.reused > 0);
        // The exact oracle abstracts nothing.
        let exact = explore_timed_with(&race(), with_spec(exact_spec()));
        let exact = exact.report().unwrap();
        assert_eq!(exact.projected_clocks, 0);
        assert_eq!(exact.extrapolated_zones, 0);
        assert_eq!(exact.arena.allocated + exact.arena.reused, 0);
    }

    /// Why the abstraction uses the model's global LU constants: per-state
    /// bounds (a clock's own event's constants while the event is enabled,
    /// zero while it is disabled) would widen no successor differently,
    /// because active-clock reduction has already pinned every disabled
    /// clock to zero.
    #[test]
    fn per_state_bounds_widen_no_successor_differently() {
        for timed in [
            race(),
            reconvergent(),
            overlapping_race(),
            unbounded_drift(),
        ] {
            let space = ZoneSpace::new(&timed, &ExploreSpec::default(), None);
            let Ok(ExploreOutcome::Completed(report)) =
                explore::explore(&space, &ExploreOptions::default())
            else {
                panic!("the default exploration completes");
            };
            let ts = timed.underlying();
            for node in &report.nodes {
                for (_, (target, zone)) in space.expand(&node.config).unwrap() {
                    let enabled = ts.enabled(target);
                    let (mut lower, mut upper) =
                        (space.bounds.lower.clone(), space.bounds.upper.clone());
                    for index in 0..ts.alphabet().len() {
                        if !enabled.contains(&EventId::from_index(index)) {
                            lower[index + 1] = 0;
                            upper[index + 1] = 0;
                        }
                    }
                    let (mut global, mut local) = ((*zone).clone(), (*zone).clone());
                    global.extrapolate_lu(&space.bounds.lower, &space.bounds.upper);
                    local.extrapolate_lu(&lower, &upper);
                    assert_eq!(global, local, "{}: {target:?}", ts.name());
                }
            }
        }
    }
}
