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
//! # Zone kernel
//!
//! By default a zone of state `s` is a DBM over the clocks of `s`'s enabled
//! events only, in event-index order (clock-activity reduction, Daws and
//! Yovine 1996): the clock of a disabled event carries no information — it
//! is reset the moment the event is re-enabled, and no guard or invariant of
//! the state consults it. A successor via event `a` into state `t` guards
//! the source zone with `x_a ≥ L(a)`, gathers `t`'s clocks from it (a clock
//! fresh in `t` — `a`'s own, or one disabled in the source — copies the
//! reference row and column, i.e. starts at zero), then lets time elapse
//! under `t`'s invariant in one O(m²) pass ([`Dbm::elapse`]). A submatrix
//! of a closed DBM is closed and the one-pass elapse re-closes, so no O(n³)
//! closure pass runs per successor.
//!
//! # Zone abstraction
//!
//! By default the explorer also applies, at interning time, **LU-bounds
//! extrapolation** (`Extra_LU`, Behrmann et al. 2004: bounds above the
//! per-clock delay constants are widened away, so cyclic systems with
//! unbounded clock drift terminate) and skips configurations whose zone is
//! included in the **aLU abstraction** (Herbreteau–Srivathsan–Walukiewicz)
//! of an already-seen zone of the same state, including configurations
//! already enqueued when the covering zone arrived (the pop-time check).
//! Stored zones stay convex: the non-convex abstraction exists only inside
//! the O(n²) check [`Dbm::included_in_alu`], which the seen map runs only
//! against stored zones whose [`Dbm::alu_signature`] contains the
//! candidate's (the space's coverage signature). Both consult per-state L/U
//! vectors: a live clock faces only its own event's delay window. All of it
//! is *exact for discrete-state reachability*: the reachable / violating /
//! deadlocked state sets equal the unabstracted exploration's.
//!
//! With [`ExploreSpec::exact`] set every zone keeps one clock per event and
//! the explorer is the unabstracted oracle: zones are stored exactly and
//! deduplicated only against identical zones. It may not terminate on cyclic
//! systems with unbounded clock drift.
//!
//! The widened matrices are cloned through a [`DbmArena`] free list living
//! inside the interner; extrapolation and arena counters surface in
//! [`ZoneReport`] and are the same on every run (they are only touched in
//! the driver's breadth-first order).

use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeSet, HashSet};
use std::convert::Infallible;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use explore::{BudgetMeter, ExploreReport, ExploreSpec, SearchSpace, Stop};
use tts::{Bound, DelayInterval, EventId, StateId, Time, TimedTransitionSystem};

use crate::arena::{ArenaStats, DbmArena};
use crate::matrix::Dbm;

/// Configuration limit applied when [`ExploreSpec::limit`] is `None`.
pub const DEFAULT_CONFIGURATION_LIMIT: usize = 200_000;

/// Options for the zone-graph exploration: the shared [`ExploreSpec`] core
/// (exact / limit / cancel / progress / budget).
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

/// The events enabled in one discrete state and the LU constants of their
/// clocks in the state's compact zones (index 0, the reference clock, holds
/// 0). A live clock faces only its own event's delay window — the guard
/// `x ≥ δl` and the invariant `x ≤ δu` — so `L = δl` and `U = δu`, with
/// `U = 0` for events without an upper delay bound.
struct StateClocks {
    /// The enabled events, in event-index order.
    enabled: Vec<EventId>,
    lower: Vec<i64>,
    upper: Vec<i64>,
    /// The state's invariant: `(clock, δu)` for every enabled event with an
    /// upper delay bound.
    invariant: Vec<(usize, i64)>,
}

/// The zone kernel: which clocks the zones of each discrete state keep, and
/// the timed successor relation over them (see the module docs). By default
/// compact clock `k + 1` measures the `k`-th enabled event of the state, and
/// clocks trailing the state's own (the firing-window replay's absolute
/// clock) carry over every firing, never reset or constrained; in exact mode
/// clock `e + 1` measures event `e` in every state.
struct Kernel<'a> {
    timed: &'a TimedTransitionSystem,
    exact: bool,
    /// Delay windows by event index.
    delays: Vec<DelayInterval>,
    /// Per-state clock data, derived on first use: most states of a large
    /// model are never visited by a budgeted run.
    states: Vec<OnceCell<Box<StateClocks>>>,
}

impl<'a> Kernel<'a> {
    fn new(timed: &'a TimedTransitionSystem, exact: bool) -> Kernel<'a> {
        let ts = timed.underlying();
        Kernel {
            timed,
            exact,
            delays: ts.alphabet().ids().map(|e| timed.delay(e)).collect(),
            states: (0..ts.state_count()).map(|_| OnceCell::new()).collect(),
        }
    }

    fn state(&self, state: StateId) -> &StateClocks {
        self.states[state.index()].get_or_init(|| {
            let ts = self.timed.underlying();
            let mut enabled: Vec<EventId> =
                ts.transitions_from(state).iter().map(|&(e, _)| e).collect();
            enabled.sort_unstable();
            enabled.dedup();
            let (mut lower, mut upper, mut invariant) = (vec![0], vec![0], Vec::new());
            for (k, event) in enabled.iter().enumerate() {
                let delay = self.delays[event.index()];
                lower.push(delay.lower().as_i64());
                upper.push(delay.upper().finite().map_or(0, Time::as_i64));
                if let Bound::Finite(bound) = delay.upper() {
                    let clock = 1 + if self.exact { event.index() } else { k };
                    invariant.push((clock, bound.as_i64()));
                }
            }
            Box::new(StateClocks {
                enabled,
                lower,
                upper,
                invariant,
            })
        })
    }

    /// The clock measuring `event` in the zones of `state`; 0, the reference
    /// clock, if they keep none.
    fn clock(&self, state: &StateClocks, event: EventId) -> usize {
        if self.exact {
            return event.index() + 1;
        }
        state.enabled.binary_search(&event).map_or(0, |k| k + 1)
    }

    /// The entry zone of an initial state, unless empty.
    fn initial(&self, state: StateId) -> Option<Dbm> {
        let clocks = self.state(state);
        let count = if self.exact {
            self.delays.len()
        } else {
            clocks.enabled.len()
        };
        self.elapse(Dbm::zero(count), clocks)
    }

    /// Lets time elapse in `zone` under the invariant of `state` (the upper
    /// delay bounds of its enabled events), in one pass; `None` if that
    /// empties it.
    fn elapse(&self, mut zone: Dbm, state: &StateClocks) -> Option<Dbm> {
        zone.elapse(&state.invariant);
        (!zone.is_empty()).then_some(zone)
    }

    /// Applies the guard of `event`, enabled in `source`: its clock has
    /// reached the event's lower delay bound. `false` if the zone empties.
    fn guard(&self, zone: &mut Dbm, source: &StateClocks, event: EventId) -> bool {
        debug_assert!(source.enabled.binary_search(&event).is_ok());
        let lower = self.delays[event.index()].lower().as_i64();
        zone.constrain_lower(self.clock(source, event), lower);
        !zone.is_empty()
    }

    /// Whether every valuation of `zone` already meets the guard of
    /// `event`, enabled in `source`.
    fn guard_holds(&self, zone: &Dbm, source: &StateClocks, event: EventId) -> bool {
        let lower = self.delays[event.index()].lower().as_i64();
        zone.lower_bound(self.clock(source, event)) >= lower
    }

    /// Fires `event` on a guarded zone of `source` into `target`: gathers
    /// the target's clocks — a freshly enabled one (`event`'s own, or one
    /// disabled in `source`) starts at zero, and trailing clocks follow
    /// unchanged — then lets time elapse.
    fn fire(
        &self,
        guarded: &Dbm,
        source: &StateClocks,
        event: EventId,
        target: &StateClocks,
    ) -> Option<Dbm> {
        let enabled = |state: &StateClocks, e| state.enabled.binary_search(&e).is_ok();
        let fresh = |e| enabled(target, e) && (e == event || !enabled(source, e));
        let pick = |e| if fresh(e) { 0 } else { self.clock(source, e) };
        let picks: Vec<usize> = if self.exact {
            self.timed.underlying().alphabet().ids().map(pick).collect()
        } else {
            let live = target.enabled.iter().map(|&e| pick(e));
            let trailing = source.enabled.len() + 1..=guarded.clock_count();
            live.chain(trailing).collect()
        };
        self.elapse(guarded.gather(&picks), target)
    }

    /// The zone reached by firing `event` from `zone` of `source` into
    /// `target`, or `None` when the firing is not timed-feasible. The one
    /// timed successor relation: the explorer and the witness replay both
    /// go through it, the firing-window replay through its two halves. A
    /// zone that already meets the guard is fired as it is, uncloned.
    fn successor(
        &self,
        zone: &Dbm,
        source: StateId,
        event: EventId,
        target: StateId,
    ) -> Option<Dbm> {
        let (source, target) = (self.state(source), self.state(target));
        if self.guard_holds(zone, source, event) {
            return self.fire(zone, source, event, target);
        }
        let mut guarded = zone.clone();
        if !self.guard(&mut guarded, source, event) {
            return None;
        }
        self.fire(&guarded, source, event, target)
    }

    /// LU-extrapolates a zone of `state` and re-closes it, as the search
    /// does to every zone it stores; `true` if anything widened (never in
    /// exact mode).
    fn extrapolate(&self, zone: &mut Dbm, state: StateId) -> bool {
        let clocks = self.state(state);
        let widened = !self.exact && zone.extrapolate_lu(&clocks.lower, &clocks.upper);
        if widened {
            zone.canonicalize();
        }
        widened
    }

    /// The zone with one clock per event, the clocks `state` does not keep
    /// pinned at zero (a copy in exact mode).
    fn lift(&self, zone: &Dbm, state: StateId) -> Dbm {
        let clocks = self.state(state);
        let events = self.timed.underlying().alphabet().ids();
        let picks: Vec<usize> = events.map(|e| self.clock(clocks, e)).collect();
        zone.gather(&picks)
    }
}

/// An interned zone beside its content hash, computed once when the zone
/// is looked up: its insert, the table's growth and every sweep reuse it.
struct Interned {
    hash: u64,
    zone: Arc<Dbm>,
}

impl Interned {
    fn new(zone: Arc<Dbm>) -> Interned {
        // FxHash's multiply-rotate over the entries, then murmur3's
        // finaliser so the low bits the table indexes by mix every entry.
        // Unkeyed: the table's order is the same on every run.
        const SEED: u64 = 0x517c_c1b7_2722_0a95;
        let mut hash = zone
            .entries()
            .iter()
            .fold(zone.clock_count() as u64, |h, e| {
                (h.rotate_left(5) ^ e.raw() as u64).wrapping_mul(SEED)
            });
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        hash ^= hash >> 33;
        Interned { hash, zone }
    }
}

impl Hash for Interned {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for Interned {
    fn eq(&self, other: &Interned) -> bool {
        self.hash == other.hash && self.zone == other.zone
    }
}

impl Eq for Interned {}

/// The interning table's hasher: passes an [`Interned`] zone's stored hash
/// through.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the interning table hashes stored hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The interner's mutable state: the canonical-zone table, the DBM arena
/// backing its clones, and the abstraction counters. Only touched in the
/// driver's breadth-first order, so every field is deterministic (the
/// zones' hash is unkeyed, so even the order a sweep hands buffers to the
/// arena is).
struct InternerState {
    /// Canonical-DBM interning table: equal zones share one allocation, so
    /// bucket storage and queued clones are reference bumps.
    zones: HashSet<Interned, BuildHasherDefault<StoredHash>>,
    /// Inserts since the last sweep of dead entries (zones no longer
    /// referenced by any bucket or queue, e.g. after subsumption pruning).
    inserts: usize,
    /// Inserts that trigger the next sweep: at least
    /// [`INTERNER_SWEEP_INTERVAL`] and at least the entries the last sweep
    /// kept, so sweep work stays linear in the number of inserts.
    sweep_at: usize,
    /// Free list of retired DBM buffers, reused by extrapolation clones.
    arena: DbmArena,
    /// Stored zones that LU extrapolation actually widened.
    extrapolated: usize,
    /// Pop-time skips not explained by convex inclusion (see
    /// [`ZoneReport::alu_subsumed`]).
    alu_subsumed: usize,
}

/// The timed search space: configurations pair a discrete state with an
/// interned zone over the state's clocks.
struct ZoneSpace<'a> {
    kernel: Kernel<'a>,
    /// Record the parent links a witness path is rebuilt from.
    parents: bool,
    /// The exploration's resource meter: [`intern`](SearchSpace::intern)
    /// charges the bytes of every distinct stored zone into it (in the
    /// driver's breadth-first order, so the running total is deterministic).
    /// Inert unless the caller set a `max_zone_bytes` budget.
    budget: BudgetMeter,
    interner: RefCell<InternerState>,
}

impl<'a> ZoneSpace<'a> {
    fn new(timed: &'a TimedTransitionSystem, spec: &ExploreSpec, parents: bool) -> ZoneSpace<'a> {
        ZoneSpace {
            kernel: Kernel::new(timed, spec.exact),
            parents,
            budget: spec.budget.clone(),
            interner: RefCell::new(InternerState {
                zones: HashSet::default(),
                inserts: 0,
                sweep_at: INTERNER_SWEEP_INTERVAL,
                arena: DbmArena::new(),
                extrapolated: 0,
                alu_subsumed: 0,
            }),
        }
    }

    /// Runs the exploration under `spec`, its unset limit resolved to
    /// [`DEFAULT_CONFIGURATION_LIMIT`].
    fn explore(&self, spec: ExploreSpec) -> ZoneExploration {
        let spec = ExploreSpec {
            limit: Some(spec.limit_or(DEFAULT_CONFIGURATION_LIMIT)),
            ..spec
        };
        match explore::explore(self, &spec) {
            Ok(report) => report,
            Err(infallible) => match infallible {},
        }
    }

    /// Folds the exploration's report into the [`ZoneOutcome`], consuming
    /// the abstraction counters once the exploration is over.
    fn outcome(self, report: &ZoneExploration) -> ZoneOutcome {
        let (explored, subsumed) = (report.expanded, report.subsumption_skips);
        match report.stopped {
            None => {}
            Some(Stop::LimitExceeded) => return ZoneOutcome::LimitExceeded { explored, subsumed },
            Some(Stop::Cancelled) => return ZoneOutcome::Cancelled { explored, subsumed },
            Some(Stop::Halted) => unreachable!("the zone space never halts"),
        }
        let ts = self.kernel.timed.underlying();
        let reachable: BTreeSet<StateId> = report.nodes.iter().map(|&(state, _)| state).collect();
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
        let interner = self.interner.into_inner();
        ZoneOutcome::Completed(ZoneReport {
            reachable_states: reachable.into_iter().collect(),
            violating_states,
            deadlock_states,
            configurations: report.nodes.len(),
            subsumed_configurations: subsumed,
            alu_subsumed: interner.alu_subsumed,
            extrapolated_zones: interner.extrapolated,
            arena: interner.arena.stats(),
        })
    }
}

/// The raw report of one zone exploration.
type ZoneExploration = ExploreReport<(StateId, Arc<Dbm>), EventId>;

/// Minimum number of inserts between sweeps of unreferenced interner
/// entries.
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
        let ts = self.kernel.timed.underlying();
        Ok(ts
            .initial_states()
            .iter()
            .filter_map(|&s0| Some((s0, Arc::new(self.kernel.initial(s0)?))))
            .collect())
    }

    fn key(&self, (state, zone): &Self::Config) -> Self::Key {
        (*state, self.kernel.exact.then(|| zone.clone()))
    }

    fn expand(
        &self,
        (state, zone): &Self::Config,
    ) -> Result<Vec<(EventId, Self::Config)>, Infallible> {
        let ts = self.kernel.timed.underlying();
        Ok(ts
            .transitions_from(*state)
            .iter()
            .filter_map(|&(event, target)| {
                let next = self.kernel.successor(zone, *state, event, target)?;
                Some((event, (target, Arc::new(next))))
            })
            .collect())
    }

    fn subsumes(&self, stored: &Self::Config, candidate: &Self::Config) -> bool {
        // In exact mode equal keys imply equal zones: exact deduplication.
        if self.kernel.exact {
            return true;
        }
        let clocks = self.kernel.state(candidate.0);
        candidate
            .1
            .included_in_alu(&stored.1, &clocks.lower, &clocks.upper)
    }

    fn uses_subsumption(&self) -> bool {
        !self.kernel.exact
    }

    /// Only the witness search rebuilds a path.
    fn records_parents(&self) -> bool {
        self.parents
    }

    /// The zone's [`Dbm::alu_signature`] under its state's LU bounds: aLU
    /// coverage and convex inclusion both imply signature containment, and
    /// extrapolation keeps it. Exact mode relates equal zones only.
    fn coverage_signature(&self, (state, zone): &Self::Config) -> u64 {
        if self.kernel.exact {
            return 0;
        }
        let clocks = self.kernel.state(*state);
        zone.alu_signature(&clocks.lower, &clocks.upper)
    }

    fn note_pop_skip(
        &self,
        skipped: &Self::Config,
        covering: &mut dyn Iterator<Item = &Self::Config>,
    ) {
        // Attribute the skip to the non-convex relation when no stored zone
        // of the state contains the skipped zone convexly — sound because
        // the pruning arrival aLU-covered the skipped zone, and by
        // transitivity so does whatever zone pruned *it*, i.e. some zone in
        // the current bucket. Convex inclusion implies signature
        // containment, so the zones the signature filtered out contain none.
        for (_, zone) in covering {
            if zone.includes(&skipped.1) {
                return;
            }
        }
        self.interner.borrow_mut().alu_subsumed += 1;
    }

    fn intern(&self, (state, zone): Self::Config) -> Self::Config {
        let mut guard = self.interner.borrow_mut();
        let st = &mut *guard;
        // LU-bounds extrapolation: widen the zone about to be stored. The
        // widened zone subsumes the candidate, exactly what the intern
        // contract allows for subsumption spaces. The clone goes through the
        // arena so an unchanged zone costs only a recycled buffer.
        let zone = if self.kernel.exact {
            zone
        } else {
            let mut widened = st.arena.clone_dbm(&zone);
            if self.kernel.extrapolate(&mut widened, state) {
                st.extrapolated += 1;
                Arc::new(widened)
            } else {
                st.arena.recycle(widened);
                zone
            }
        };
        let candidate = Interned::new(zone);
        if let Some(shared) = st.zones.get(&candidate) {
            let shared = shared.zone.clone();
            // The candidate hit an existing entry; if its matrix is
            // otherwise unreferenced (a widened clone nothing else holds),
            // reclaim the buffer.
            if let Ok(dead) = Arc::try_unwrap(candidate.zone) {
                st.arena.recycle(dead);
            }
            return (state, shared);
        }
        // A genuinely new zone: account its entry storage. The arena keeps
        // the monotone byte census for the report; the meter lets a
        // `max_zone_bytes` budget abort the search deterministically.
        self.budget
            .charge_zone_bytes(st.arena.charge_zone(&candidate.zone));
        let zone = candidate.zone.clone();
        st.zones.insert(candidate);
        st.inserts += 1;
        if st.inserts >= st.sweep_at {
            // Drop entries only the interner still references (their zones
            // were pruned from every bucket and queue), so peak memory
            // follows the live antichain rather than every zone ever seen —
            // and hand the reclaimed buffers back to the arena.
            let InternerState { zones, arena, .. } = st;
            for dead in zones.extract_if(|entry| Arc::strong_count(&entry.zone) == 1) {
                if let Ok(dead) = Arc::try_unwrap(dead.zone) {
                    arena.recycle(dead);
                }
            }
            st.inserts = 0;
            st.sweep_at = st.zones.len().max(INTERNER_SWEEP_INTERVAL);
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
    let space = ZoneSpace::new(timed, &options.spec, false);
    let report = space.explore(options.spec);
    space.outcome(&report)
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
/// through [`firing_windows`](Self::firing_windows). Its zones have one clock
/// per event (clock `e + 1` for event `e`): the search's zones lifted from
/// their state's clocks, every clock they do not keep pinned at zero.
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
    /// same abstraction the search used, so a recomputed zone, lifted like
    /// the recorded ones, must equal the recorded one exactly. Returns the
    /// end state on success, `None` if any step is infeasible or drifts from
    /// the recorded zones (which would indicate a reconstruction bug).
    pub fn replay(&self, timed: &TimedTransitionSystem) -> Option<StateId> {
        let ts = timed.underlying();
        let kernel = Kernel::new(timed, self.exact);
        // Recompute each zone as the search stored it (widened at interning
        // time) and compare it, lifted, with the recorded one.
        let stored = |mut zone: Dbm, state: StateId, recorded: &Dbm| {
            kernel.extrapolate(&mut zone, state);
            (kernel.lift(&zone, state) == *recorded).then_some(zone)
        };
        let mut state = self.start.0;
        let mut zone = stored(kernel.initial(state)?, state, &self.start.1)?;
        for (event, target, recorded) in &self.steps {
            if !ts.successors(state, *event).contains(target) {
                return None;
            }
            let next = kernel.successor(&zone, state, *event, *target)?;
            zone = stored(next, *target, recorded)?;
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
/// That makes it the timing-consistency test of a run: `Some` exactly when
/// time stamps exist at which every step fires inside its delay window
/// without any pending event overtaking its deadline.
///
/// # Examples
///
/// ```
/// use dbm::path_firing_windows;
/// use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};
///
/// // `slow` and `fast` race from the initial state: `slow` takes at least 5
/// // time units, `fast` at most 2, so `slow` cannot fire first.
/// let mut b = TsBuilder::new("race");
/// let s0 = b.add_state("s0");
/// let s1 = b.add_state("s1");
/// let s2 = b.add_state("s2");
/// let s3 = b.add_state("s3");
/// let slow = b.add_transition(s0, "slow", s1);
/// let fast = b.add_transition(s0, "fast", s2);
/// b.add_transition_by_id(s2, slow, s3);
/// b.set_initial(s0);
/// let mut timed = TimedTransitionSystem::new(b.build()?);
/// timed.set_delay_by_name("slow", DelayInterval::new(Time::new(5), Time::new(9))?);
/// timed.set_delay_by_name("fast", DelayInterval::new(Time::new(1), Time::new(2))?);
///
/// assert_eq!(path_firing_windows(&timed, s0, &[(slow, s1)]), None);
/// let windows = path_firing_windows(&timed, s0, &[(fast, s2), (slow, s3)]).unwrap();
/// // `fast` fires at [1,2]; `slow`, pending since time 0, at [5,9].
/// assert_eq!(windows[0].to_string(), "[1, 2]");
/// assert_eq!(windows[1].to_string(), "[5, 9]");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn path_firing_windows(
    timed: &TimedTransitionSystem,
    start: StateId,
    run: &[(EventId, StateId)],
) -> Option<Vec<FiringWindow>> {
    let ts = timed.underlying();
    // The live-clock kernel, with the absolute-time clock trailing each
    // state's clocks: never reset, so its bounds at a firing are the
    // step's window.
    let kernel = Kernel::new(timed, false);
    let clocks = kernel.state(start);
    let mut zone = kernel.elapse(Dbm::zero(clocks.enabled.len() + 1), clocks)?;
    let mut state = start;
    let mut windows = Vec::with_capacity(run.len());
    for &(event, target) in run {
        if !ts.successors(state, event).contains(&target) {
            return None;
        }
        // Constrain to the firing moment and read off the absolute clock.
        let source = kernel.state(state);
        if !kernel.guard(&mut zone, source, event) {
            return None;
        }
        let absolute = zone.clock_count();
        windows.push(FiringWindow {
            earliest: Time::new(zone.lower_bound(absolute)),
            latest: match zone.upper_bound(absolute) {
                Some(value) => Bound::Finite(Time::new(value)),
                None => Bound::Infinite,
            },
        });
        zone = kernel.fire(&zone, source, event, kernel.state(target))?;
        state = target;
    }
    Some(windows)
}

/// Explores the timed state space, like [`explore_timed_with`], and
/// reconstructs the symbolic trace to the first goal state in deterministic
/// breadth-first order.
///
/// One exploration answers both: it records the link that discovered each
/// configuration, and the witness is the discovery path to the first
/// expanded configuration whose state is a goal — whether the search drained
/// or a limit, budget or cancellation stopped it later. Subsumption only
/// prunes configurations covered by already-found ones, so the trace stays a
/// genuine timed execution. The witness is `None` when no goal state was
/// expanded (with a [`ZoneOutcome::Completed`] outcome: none is
/// timed-reachable).
///
/// # Examples
///
/// ```
/// use dbm::{find_witness, WitnessGoal, ZoneExplorationOptions};
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
/// let (outcome, trace) = find_witness(
///     &timed,
///     ZoneExplorationOptions::default(),
///     WitnessGoal::Violation,
/// );
/// assert_eq!(outcome.report().unwrap().reachable_states.len(), 3);
/// let trace = trace.expect("violation is reachable");
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
) -> (ZoneOutcome, Option<SymbolicTrace>) {
    let ts = timed.underlying();
    let exact = options.spec.exact;
    let space = ZoneSpace::new(timed, &options.spec, true);
    let report = space.explore(options.spec);
    let is_goal = |state: StateId| match goal {
        WitnessGoal::Violation => !ts.violations(state).is_empty(),
        WitnessGoal::Deadlock => ts.transitions_from(state).is_empty(),
    };
    let witness = report
        .nodes
        .iter()
        .position(|&(state, _)| is_goal(state))
        .map(|goal_node| {
            let (root, steps) = report
                .path_to(goal_node)
                .expect("the witness search records parents");
            let lifted = |node: usize| {
                let (state, zone) = &report.nodes[node];
                (*state, Arc::new(space.kernel.lift(zone, *state)))
            };
            let steps = steps
                .into_iter()
                .map(|(event, node)| {
                    let (state, zone) = lifted(node);
                    (event, state, zone)
                })
                .collect();
            SymbolicTrace {
                start: lifted(root),
                steps,
                exact,
            }
        });
    (space.outcome(&report), witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use explore::{CancelToken, StopReason};
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

    /// [`overlapping_race`] with both orders joining in a terminal `both`
    /// state, expanded after the violating one.
    fn overlapping_race_to_both() -> TimedTransitionSystem {
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
        timed.set_delay_by_name("fast", d(1, 4));
        timed.set_delay_by_name("slow", d(2, 9));
        timed
    }

    #[test]
    fn witness_reaches_the_violating_state_and_replays() {
        let timed = overlapping_race();
        let (_, trace) = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Violation,
        );
        let trace = trace.expect("violation reachable");
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
    fn witness_is_identical_by_default_and_in_exact_mode() {
        let timed = overlapping_race();
        let (_, base) = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Violation,
        );
        let base = base.expect("violation reachable");
        for exact in MODES {
            let (_, trace) = find_witness(
                &timed,
                with_spec(ExploreSpec {
                    exact,
                    ..ExploreSpec::default()
                }),
                WitnessGoal::Violation,
            );
            let trace = trace.expect("violation reachable");
            assert_eq!(trace.run(), base.run());
            assert_eq!(trace.end_state(), base.end_state());
            assert_eq!(trace.replay(&timed), Some(trace.end_state()));
        }
    }

    #[test]
    fn unreachable_goal_returns_the_exact_report() {
        let timed = race();
        let (outcome, trace) = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Violation,
        );
        assert_eq!(trace, None);
        assert_eq!(outcome, explore_timed(&timed));
        assert!(outcome.report().is_some());
    }

    #[test]
    fn deadlock_witness_walks_the_whole_race() {
        let timed = race();
        let (_, trace) = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Deadlock,
        );
        let trace = trace.expect("deadlock reachable");
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
        let limit = |limit| {
            with_spec(ExploreSpec {
                limit: Some(limit),
                ..ExploreSpec::default()
            })
        };
        let (outcome, trace) = find_witness(&race(), limit(1), WitnessGoal::Deadlock);
        assert!(matches!(outcome, ZoneOutcome::LimitExceeded { .. }));
        assert!(trace.is_none());
        // A limit met after the goal was expanded stops the exploration,
        // not the witness: `slow-first` is the third configuration, and
        // `both` the fourth.
        let timed = overlapping_race_to_both();
        let (_, full) = find_witness(&timed, limit(4), WitnessGoal::Violation);
        let (outcome, trace) = find_witness(&timed, limit(3), WitnessGoal::Violation);
        assert_eq!(
            outcome,
            ZoneOutcome::LimitExceeded {
                explored: 4,
                subsumed: 0
            }
        );
        assert_eq!(trace, full);
        assert_eq!(trace.expect("violation expanded").len(), 1);
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
        let (witness_outcome, trace) = find_witness(&race(), options, WitnessGoal::Deadlock);
        assert_eq!(witness_outcome, outcome);
        assert!(trace.is_none());
    }

    #[test]
    fn config_budget_cancels_at_the_same_count_on_every_run() {
        use explore::BudgetMeter;
        let mut counts = Vec::new();
        for _run in 0..2 {
            let cancel = CancelToken::new();
            let outcome = explore_timed_with(
                &reconvergent(),
                with_spec(ExploreSpec {
                    cancel: cancel.clone(),
                    budget: BudgetMeter::new(Some(2), None),
                    ..ExploreSpec::default()
                }),
            );
            match outcome {
                ZoneOutcome::Cancelled { explored, .. } => counts.push(explored),
                other => panic!("expected budget cancellation, got {other:?}"),
            }
            assert!(matches!(cancel.reason(), Some(StopReason::Budget(_))));
        }
        assert_eq!(counts[0], counts[1], "budget abort count differs by run");
        assert_eq!(counts[0], 3, "aborts on the configuration over the budget");
    }

    #[test]
    fn zone_byte_budget_cancels_and_charges_the_arena_census() {
        use explore::BudgetMeter;
        // The interner charges every distinct stored zone, so a one-byte
        // budget must trip almost immediately — and the arena census must
        // have counted at least the breaching bytes.
        let budget = BudgetMeter::new(None, Some(1));
        let cancel = CancelToken::new();
        let outcome = explore_timed_with(
            &race(),
            with_spec(ExploreSpec {
                cancel: cancel.clone(),
                budget: budget.clone(),
                ..ExploreSpec::default()
            }),
        );
        assert!(matches!(outcome, ZoneOutcome::Cancelled { .. }));
        let Some(StopReason::Budget(breach)) = cancel.reason() else {
            panic!("breach recorded on the token: {:?}", cancel.reason());
        };
        assert_eq!(breach.resource, explore::BudgetResource::ZoneBytes);
        assert_eq!(budget.zone_bytes(), breach.used);
        // A distinct stored zone over k live clocks costs (k + 1)² entries:
        // the initial zone keeps both racing clocks, `fast-first` only
        // `slow`'s, and the terminal `both` none.
        let entries = |k: usize| (k + 1) * (k + 1) * std::mem::size_of::<crate::Entry>();
        assert_eq!(breach.used, entries(2));
        // An unbudgeted run of the same model reports the byte census.
        let report = explore_timed(&race()).report().unwrap().clone();
        assert_eq!(
            report.arena.zone_bytes,
            entries(2) + entries(1) + entries(0)
        );
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
        let (_, trace) = find_witness(
            &timed,
            ZoneExplorationOptions::default(),
            WitnessGoal::Violation,
        );
        let trace = trace.expect("violation reachable");
        let end = trace.end_state();
        // Replays under the abstraction it was found with...
        assert_eq!(trace.replay(&timed), Some(end));
        // ...and its discrete run is exactly feasible: the firing windows go
        // through the unabstracted live-clock semantics (with the trailing
        // absolute-time clock).
        let windows = trace.firing_windows(&timed).expect("exactly feasible");
        assert_eq!(windows[0].earliest, Time::new(2));
        assert_eq!(windows[0].latest, Bound::Finite(Time::new(4)));
    }

    /// `slow` and `fast` racing from `s0` with the given delays, both orders
    /// joining in `s3`: the system, `s0`, and the two events.
    fn delayed_race(
        slow: DelayInterval,
        fast: DelayInterval,
    ) -> (TimedTransitionSystem, StateId, [EventId; 2]) {
        let mut b = TsBuilder::new("race");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let s3 = b.add_state("s3");
        let e_slow = b.add_transition(s0, "slow", s1);
        let e_fast = b.add_transition(s0, "fast", s2);
        b.add_transition_by_id(s1, e_fast, s3);
        b.add_transition_by_id(s2, e_slow, s3);
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("slow", slow);
        timed.set_delay_by_name("fast", fast);
        (timed, s0, [e_slow, e_fast])
    }

    /// The firing windows of the run firing `events` in order from `s0`.
    fn windows_of(
        timed: &TimedTransitionSystem,
        s0: StateId,
        events: &[EventId],
    ) -> Option<Vec<FiringWindow>> {
        let ts = timed.underlying();
        let mut state = s0;
        let run: Vec<(EventId, StateId)> = events
            .iter()
            .map(|&event| {
                state = ts.successors(state, event)[0];
                (event, state)
            })
            .collect();
        path_firing_windows(timed, s0, &run)
    }

    #[test]
    fn replay_of_a_deadline_overtaken_is_infeasible() {
        let (timed, s0, [slow, _]) = delayed_race(d(5, 9), d(1, 2));
        assert_eq!(windows_of(&timed, s0, &[slow]), None);
    }

    #[test]
    fn replay_respecting_the_deadline_is_feasible() {
        let (timed, s0, [_, fast]) = delayed_race(d(5, 9), d(1, 2));
        let windows = windows_of(&timed, s0, &[fast]).expect("fast may fire first");
        assert_eq!(windows[0].to_string(), "[1, 2]");
    }

    #[test]
    fn replay_of_overlapping_windows_allows_either_order() {
        let (timed, s0, events) = delayed_race(d(1, 4), d(2, 6));
        for event in events {
            assert!(windows_of(&timed, s0, &[event]).is_some());
        }
    }

    #[test]
    fn replay_windows_accumulate_over_a_full_interleaving() {
        let (timed, s0, [slow, fast]) = delayed_race(d(5, 9), d(1, 2));
        // `slow` stays pending from time 0 while `fast` fires, so its window
        // is measured from there, not from `fast`'s firing.
        let windows = windows_of(&timed, s0, &[fast, slow]).expect("fast then slow");
        assert_eq!(windows.len(), 2);
        assert!(windows[0].earliest <= windows[1].earliest);
        assert_eq!(windows[1].to_string(), "[5, 9]");
    }

    #[test]
    fn replay_of_unbounded_events_forces_no_deadline() {
        // The unbounded `slow` may fire at once, before the tight `fast`.
        let (timed, s0, [slow, _]) = delayed_race(DelayInterval::unbounded(), d(1, 2));
        let windows = windows_of(&timed, s0, &[slow]).expect("slow may fire first");
        assert_eq!(windows[0].to_string(), "[0, 2]");
        // Nothing bounds an unbounded event alone.
        let (timed, s0, [slow, fast]) =
            delayed_race(DelayInterval::unbounded(), DelayInterval::unbounded());
        let windows = windows_of(&timed, s0, &[fast, slow]).expect("any order");
        assert_eq!(windows[1].latest, Bound::Infinite);
    }

    #[test]
    fn replay_of_the_empty_trace_is_feasible() {
        let (timed, s0, _) = delayed_race(d(1, 2), d(1, 2));
        assert_eq!(windows_of(&timed, s0, &[]), Some(Vec::new()));
    }

    #[test]
    fn replay_of_the_race_lets_only_the_fast_event_fire_first() {
        // `slow` [5,9] and `fast` [1,2] race from `s0` into dead ends: the
        // first firing disables the other event, and `slow` cannot win.
        let mut b = TsBuilder::new("race");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let slow = b.add_transition(s0, "slow", s1);
        let fast = b.add_transition(s0, "fast", s2);
        b.set_initial(s0);
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("slow", d(5, 9));
        timed.set_delay_by_name("fast", d(1, 2));
        assert_eq!(path_firing_windows(&timed, s0, &[(slow, s1)]), None);
        let windows = path_firing_windows(&timed, s0, &[(fast, s2)]).expect("fast may fire first");
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].to_string(), "[1, 2]");
    }

    #[test]
    fn default_exploration_reports_abstraction_work() {
        // Arena counters are wired through: every intern clones via the
        // arena.
        let report = explore_timed(&race()).report().unwrap().clone();
        assert!(report.arena.allocated + report.arena.reused > 0);
        // The exact oracle abstracts nothing.
        let exact = explore_timed_with(&race(), with_spec(exact_spec()));
        let exact = exact.report().unwrap();
        assert_eq!(exact.extrapolated_zones, 0);
        assert_eq!(exact.arena.allocated + exact.arena.reused, 0);
    }

    /// The compact kernel computes the full-dimension zones with the clocks
    /// of disabled events pinned at zero: on every configuration the default
    /// exploration expands, each successor lifted to one clock per event
    /// equals the exact kernel's successor of the lifted zone with every
    /// clock disabled in the target reset to zero.
    fn assert_lifted_successors_match_the_exact_kernel(timed: &TimedTransitionSystem) {
        let ts = timed.underlying();
        let space = ZoneSpace::new(timed, &ExploreSpec::default(), false);
        let exact = Kernel::new(timed, true);
        let report = space.explore(ExploreSpec::default());
        assert_eq!(
            report.stopped,
            None,
            "the default exploration of {} completes",
            ts.name()
        );
        let mut compared = 0;
        for (state, zone) in &report.nodes {
            let lifted = space.kernel.lift(zone, *state);
            for &(event, target) in ts.transitions_from(*state) {
                let compact = space.kernel.successor(zone, *state, event, target);
                let full = exact
                    .successor(&lifted, *state, event, target)
                    .map(|mut full| {
                        for e in ts.alphabet().ids() {
                            if !ts.is_enabled(target, e) {
                                full.reset(e.index() + 1);
                            }
                        }
                        full
                    });
                assert_eq!(
                    compact.map(|zone| space.kernel.lift(&zone, target)),
                    full,
                    "{}: {} into {target:?}",
                    ts.name(),
                    ts.alphabet().name(event)
                );
                compared += 1;
            }
        }
        assert!(compared > 0, "{}: no successor compared", ts.name());
    }

    #[test]
    fn lifted_compact_successors_equal_exact_successors_with_dead_clocks_at_zero() {
        for timed in [
            race(),
            reconvergent(),
            overlapping_race(),
            unbounded_drift(),
        ] {
            assert_lifted_successors_match_the_exact_kernel(&timed);
        }
        let models = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models");
        for file in ["race_overlap.tts", "intro_fig1.tts", "ipcmos_1stage.stg"] {
            let text = std::fs::read_to_string(models.join(file)).expect("shipped model");
            let model = transyt_session::format::Model::parse(&text).expect("model parses");
            assert_lifted_successors_match_the_exact_kernel(&model.timed_system().unwrap());
        }
        let pipeline = ipcmos::flat_pipeline(1).expect("pipeline builds");
        assert_lifted_successors_match_the_exact_kernel(&pipeline);
    }
}
