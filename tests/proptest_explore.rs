//! Property tests for the shared exploration core: on random small STGs and
//! random small timed systems, report state lists must be sorted and the
//! zone abstraction must keep every verdict-bearing state set. The packed
//! marking engine is also checked against a plain token-game reference on
//! random nets and on the shipped models.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;

use explore::{explore, SearchSpace};
use proptest::prelude::*;
use stg::{
    expand_with_report, ExpandError, ExploreSpec, PlaceId, ReachReport, SignalRole, Stg, StgBuilder,
};
use transyt_session::format::{Model, ModelSource};
use tts::{DelayInterval, StateId, Time, TimedTransitionSystem, TransitionSystem, TsBuilder};

fn sorted(ids: &[StateId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Builds a random STG out of token rings: each entry of `rings` is a ring
/// of that many transitions (at least two) carrying one token, labelled as
/// alternating signal edges numbered across the whole net, so rings running
/// concurrently interleave and may share a signal. Random cross arcs
/// (anonymous places, initially empty) synchronise transitions and may
/// make the net unbounded or inconsistent — every outcome must simply
/// agree with the reference.
///
/// `padding` unconnected places come first (every third one marked), so
/// with enough of them the live places sit past the first 64-bit word of a
/// packed marking. Each `forbidden` entry picks live places for a
/// forbidden-marking conjunction; every other one also names the first
/// (marked) padding place, so its mask can span two words.
fn random_stg(
    rings: &[usize],
    extra_arcs: &[(usize, usize)],
    padding: usize,
    forbidden: &[Vec<usize>],
) -> Stg {
    let mut b = StgBuilder::new("random");
    let pads: Vec<PlaceId> = (0..padding)
        .map(|i| b.add_place(format!("pad{i}"), u32::from(i % 3 == 0)))
        .collect();
    let mut ids = Vec::new();
    let mut live = Vec::new();
    for &size in rings {
        let ring: Vec<_> = (0..size.max(2))
            .map(|_| {
                let i = ids.len();
                let signal = (b'A' + (i / 2 % 8) as u8) as char;
                let polarity = if i % 2 == 0 { '+' } else { '-' };
                let t = b.add_transition(
                    format!("{signal}{polarity}"),
                    if i % 3 == 0 {
                        SignalRole::Input
                    } else {
                        SignalRole::Output
                    },
                );
                ids.push(t);
                t
            })
            .collect();
        for (i, &t) in ring.iter().enumerate() {
            let next = ring[(i + 1) % ring.len()];
            live.push(b.connect(t, next, u32::from(i + 1 == ring.len())));
        }
    }
    for &(from, to) in extra_arcs {
        let f = ids[from % ids.len()];
        let t = ids[to % ids.len()];
        if f != t {
            live.push(b.connect(f, t, 0));
        }
    }
    for (k, conjunction) in forbidden.iter().enumerate() {
        let mut places: Vec<PlaceId> = conjunction.iter().map(|&p| live[p % live.len()]).collect();
        if k % 2 == 1 {
            places.extend(pads.first());
        }
        b.forbid_marking(places);
    }
    b.build().unwrap()
}

/// The reference expansion: a plain breadth-first token game over markings
/// as token counts (`Vec<u32>`), building the reachability graph as it is
/// specified. States are numbered in discovery order and named by their
/// marked places (`{p0,p3}`); the first forbidden conjunction a marking
/// covers becomes its violation mark; a place holding two tokens initially,
/// or after a firing, makes the net unbounded; more than `limit`
/// discovered markings before an expansion is too many. Signal consistency
/// is checked afterwards by a breadth-first walk with a map per state.
fn reference_expand(
    net: &Stg,
    limit: usize,
) -> Result<(TransitionSystem, ReachReport), ExpandError> {
    let unbounded = |place: usize| ExpandError::Unbounded {
        place: net.place_name(PlaceId::from_index(place)).to_owned(),
    };
    let initial: Vec<u32> = (0..net.place_count())
        .map(|i| net.initial_tokens(PlaceId::from_index(i)))
        .collect();
    if let Some(p) = initial.iter().position(|&tokens| tokens > 1) {
        return Err(unbounded(p));
    }
    let name = |marking: &[u32]| {
        let marked: Vec<String> = (0..marking.len())
            .filter(|&i| marking[i] > 0)
            .map(|i| format!("p{i}"))
            .collect();
        format!("{{{}}}", marked.join(","))
    };
    let violation = |marking: &[u32]| {
        let covered = net
            .forbidden_markings()
            .iter()
            .find(|c| c.iter().all(|p| marking[p.index()] > 0))?;
        let names: Vec<&str> = covered.iter().map(|&p| net.place_name(p)).collect();
        Some(format!("forbidden marking: {{{}}}", names.join(", ")))
    };

    let mut b = TsBuilder::new(net.name());
    let mut ids: HashMap<Vec<u32>, StateId> = HashMap::new();
    let mut queue = VecDeque::new();
    let s0 = b.add_state(name(&initial));
    b.set_initial(s0);
    if let Some(message) = violation(&initial) {
        b.mark_violation(s0, message);
    }
    ids.insert(initial.clone(), s0);
    queue.push_back(initial);
    for t in net.transitions() {
        match net.role(t) {
            SignalRole::Input => b.declare_input(net.label(t)),
            SignalRole::Output => b.declare_output(net.label(t)),
            SignalRole::Internal => b.intern_event(net.label(t)),
        };
    }

    let mut firings = 0;
    let mut deadlocks = Vec::new();
    while let Some(marking) = queue.pop_front() {
        if ids.len() > limit {
            return Err(ExpandError::TooManyMarkings { limit });
        }
        let from = ids[&marking];
        let mut deadlock = true;
        for t in net.transitions() {
            if !net.preset(t).iter().all(|p| marking[p.index()] > 0) {
                continue;
            }
            let mut next = marking.clone();
            for p in net.preset(t) {
                next[p.index()] -= 1;
            }
            for p in net.postset(t) {
                next[p.index()] += 1;
            }
            if let Some(p) = next.iter().position(|&tokens| tokens > 1) {
                return Err(unbounded(p));
            }
            deadlock = false;
            firings += 1;
            let to = match ids.get(&next) {
                Some(&id) => id,
                None => {
                    let id = b.add_state(name(&next));
                    if let Some(message) = violation(&next) {
                        b.mark_violation(id, message);
                    }
                    ids.insert(next.clone(), id);
                    queue.push_back(next);
                    id
                }
            };
            b.add_transition(from, net.label(t), to);
        }
        if deadlock {
            deadlocks.push(from);
        }
    }
    let ts = b.build().map_err(|e| ExpandError::Build(e.to_string()))?;

    let mut values: Vec<HashMap<String, bool>> = vec![HashMap::new(); ts.state_count()];
    let mut visited = vec![false; ts.state_count()];
    let mut walk = VecDeque::from(ts.initial_states().to_vec());
    for s in ts.initial_states() {
        visited[s.index()] = true;
    }
    while let Some(s) = walk.pop_front() {
        for &(event, to) in ts.transitions_from(s) {
            if let Some(edge) = ts.alphabet().signal_edge(event) {
                let target = edge.polarity().target_value();
                let inconsistent = || ExpandError::InconsistentSignal {
                    signal: edge.signal().to_owned(),
                };
                if values[s.index()].get(edge.signal()) == Some(&target) {
                    return Err(inconsistent());
                }
                match values[to.index()].get(edge.signal()) {
                    Some(&value) if value != target => return Err(inconsistent()),
                    _ => {
                        values[to.index()].insert(edge.signal().to_owned(), target);
                    }
                }
            }
            if !visited[to.index()] {
                visited[to.index()] = true;
                walk.push_back(to);
            }
        }
    }

    let mut reachable: Vec<StateId> = ids.into_values().collect();
    reachable.sort_unstable();
    let report = ReachReport {
        reachable_states: reachable,
        deadlock_states: deadlocks,
        markings: ts.state_count(),
        firings,
    };
    Ok((ts, report))
}

/// Every shipped `.stg` model up to three stages (the four-stage net's
/// 960,000 markings are too many for a debug-build reference run) expands
/// to exactly the reference's system and report.
#[test]
fn shipped_nets_expand_to_the_reference_system() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("models");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        if !file.ends_with(".stg") || file == "ipcmos_4stage.stg" {
            continue;
        }
        let model = Model::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let ModelSource::Stg(net) = &model.source else {
            panic!("{file} is not an stg model");
        };
        let packed = expand_with_report(net, &ExploreSpec::default());
        assert!(packed.is_ok(), "{file}: {packed:?}");
        assert!(
            packed == reference_expand(net, stg::DEFAULT_MARKING_LIMIT),
            "{file}: the packed expansion differs from the reference"
        );
        checked.push(file);
    }
    checked.sort();
    assert_eq!(
        checked,
        [
            "c_element.stg",
            "ipcmos_1stage.stg",
            "ipcmos_2stage.stg",
            "ipcmos_3stage.stg",
            "ring_pipeline.stg"
        ]
    );
}

/// Builds a random timed transition system over a bounded state graph.
fn random_timed(
    states: usize,
    transitions: &[(usize, usize, usize)],
    delays: &[(i64, i64)],
) -> TimedTransitionSystem {
    let count = states.clamp(2, 8);
    let mut b = TsBuilder::new("random-timed");
    let ids: Vec<_> = (0..count).map(|i| b.add_state(format!("s{i}"))).collect();
    // A deterministic backbone keeps most states reachable.
    for (i, &s) in ids.iter().enumerate().skip(1) {
        b.add_transition(ids[i - 1], format!("e{}", (i - 1) % 5), s);
    }
    for &(from, event, to) in transitions {
        b.add_transition(
            ids[from % count],
            format!("e{}", event % 5),
            ids[to % count],
        );
    }
    b.mark_violation(ids[count - 1], "last state is marked");
    b.set_initial(ids[0]);
    let mut timed = TimedTransitionSystem::new(b.build().unwrap());
    for (i, &(lower, width)) in delays.iter().enumerate() {
        let l = lower.rem_euclid(6);
        let w = width.rem_euclid(6);
        let name = format!("e{}", i % 5);
        if timed.underlying().alphabet().lookup(&name).is_some() {
            timed.set_delay_by_name(
                &name,
                DelayInterval::new(Time::new(l), Time::new(l + w)).unwrap(),
            );
        }
    }
    timed
}

/// Interval bounds of the [`Intervals`] space.
const SPAN: i32 = 40;

/// A subsumption space over intervals: a configuration is `(state, lo,
/// hi)`, a state's intervals form its bucket, and a wider interval subsumes
/// a narrower one. Edge `n` moves from its state to its target, shifting
/// the interval and stretching (or shrinking) it within `0..=SPAN`. With
/// `signed` set the space declares a coverage signature: thermometer codes
/// of `SPAN − lo` and of `hi`, quantised to 32 bits each.
struct Intervals {
    edges: Vec<(usize, usize, i32, i32)>,
    signed: bool,
    subsumes_calls: Cell<usize>,
    /// Pop-time skips for which some configuration handed to
    /// `note_pop_skip` subsumes the skipped one.
    covered_skips: Cell<usize>,
}

impl Intervals {
    fn new(edges: &[(usize, usize, i32, i32)], signed: bool) -> Intervals {
        Intervals {
            edges: edges.to_vec(),
            signed,
            subsumes_calls: Cell::new(0),
            covered_skips: Cell::new(0),
        }
    }
}

impl SearchSpace for Intervals {
    type Config = (usize, i32, i32);
    type Key = usize;
    type Edge = usize;
    type Error = Infallible;

    fn initial(&self) -> Result<Vec<Self::Config>, Infallible> {
        Ok(vec![(0, 18, 20)])
    }

    fn key(&self, config: &Self::Config) -> usize {
        config.0
    }

    fn expand(
        &self,
        &(state, lo, hi): &Self::Config,
    ) -> Result<Vec<(usize, Self::Config)>, Infallible> {
        Ok(self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, edge)| edge.0 == state)
            .map(|(n, &(_, target, shift, stretch))| {
                let lo = (lo + shift).clamp(0, SPAN);
                let hi = (hi + shift + stretch).clamp(lo, SPAN);
                (n, (target, lo, hi))
            })
            .collect())
    }

    fn subsumes(&self, stored: &Self::Config, candidate: &Self::Config) -> bool {
        self.subsumes_calls.set(self.subsumes_calls.get() + 1);
        stored.1 <= candidate.1 && stored.2 >= candidate.2
    }

    fn uses_subsumption(&self) -> bool {
        true
    }

    fn records_parents(&self) -> bool {
        true
    }

    fn coverage_signature(&self, &(_, lo, hi): &Self::Config) -> u64 {
        if !self.signed {
            return 0;
        }
        let thermometer = |value: i32| (1u64 << (value * 32 / (SPAN + 1))) - 1;
        thermometer(SPAN - lo) | thermometer(hi) << 32
    }

    fn note_pop_skip(
        &self,
        skipped: &Self::Config,
        covering: &mut dyn Iterator<Item = &Self::Config>,
    ) {
        for stored in covering {
            if stored.1 <= skipped.1 && stored.2 >= skipped.2 {
                self.covered_skips.set(self.covered_skips.get() + 1);
                return;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The coverage signature only filters: a subsumption space run with a
    /// sound signature yields the same report (nodes, parents, counters,
    /// stop) as with the default one, hands `note_pop_skip` every
    /// configuration that covers the skipped one, and asks `subsumes` no
    /// more often.
    #[test]
    fn a_sound_signature_changes_no_report(
        edges in proptest::collection::vec((0usize..3, 0usize..3, -4i32..5, -3i32..4), 3..16),
        limit in 0usize..60,
    ) {
        // A zero draw runs without a limit.
        let limit = (limit > 0).then_some(limit);
        let spec = dbm::ExploreSpec { limit, ..dbm::ExploreSpec::default() };
        let (plain, signed) = (Intervals::new(&edges, false), Intervals::new(&edges, true));
        let expected = explore(&plain, &spec).unwrap();
        prop_assert_eq!(explore(&signed, &spec).unwrap(), expected);
        prop_assert_eq!(signed.covered_skips.get(), plain.covered_skips.get());
        prop_assert!(signed.subsumes_calls.get() <= plain.subsumes_calls.get());
    }

    #[test]
    fn parallel_stg_expansion_matches_sequential(
        rings in proptest::collection::vec(2usize..6, 1..4),
        extra_arcs in proptest::collection::vec((0usize..16, 0usize..16), 0..3),
        padding in 0usize..80,
        forbidden in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 1..3),
            0..3,
        ),
    ) {
        let net = random_stg(&rings, &extra_arcs, padding, &forbidden);
        let limited = ExploreSpec {
            limit: Some(2_000),
            ..ExploreSpec::default()
        };
        let expanded = expand_with_report(&net, &limited);
        // The packed engine gives exactly what the plain token game gives:
        // the same system (names, ids, edge order, marks, roles), the same
        // report, or the same error (variant, place, signal).
        prop_assert_eq!(&expanded, &reference_expand(&net, 2_000));
        if let Ok((ts, report)) = expanded {
            prop_assert!(sorted(&report.reachable_states));
            prop_assert!(sorted(&report.deadlock_states));
            prop_assert_eq!(report.reachable_states.len(), ts.state_count());
        }
    }

    #[test]
    fn subsumption_preserves_zone_verdicts(
        states in 2usize..6,
        transitions in proptest::collection::vec((0usize..6, 0usize..5, 0usize..6), 0..8),
        delays in proptest::collection::vec((0i64..6, 0i64..6), 5),
    ) {
        let timed = random_timed(states, &transitions, &delays);
        let run = |exact| {
            dbm::explore_timed_with(
                &timed,
                dbm::ZoneExplorationOptions {
                    spec: dbm::ExploreSpec {
                        exact,
                        limit: Some(1_500),
                        ..dbm::ExploreSpec::default()
                    },
                },
            )
        };
        let (abstracted, exact) = (run(false), run(true));
        for outcome in [&abstracted, &exact] {
            if let dbm::ZoneOutcome::Completed(report) = outcome {
                prop_assert!(sorted(&report.reachable_states));
                prop_assert!(sorted(&report.violating_states));
                prop_assert!(sorted(&report.deadlock_states));
            }
        }
        if let (dbm::ZoneOutcome::Completed(abstracted), dbm::ZoneOutcome::Completed(exact)) =
            (abstracted, exact)
        {
            // The abstraction may only shrink the configuration count and
            // must not change any verdict-bearing state set.
            prop_assert!(abstracted.configurations <= exact.configurations);
            prop_assert_eq!(&abstracted.reachable_states, &exact.reachable_states);
            prop_assert_eq!(&abstracted.violating_states, &exact.violating_states);
            prop_assert_eq!(&abstracted.deadlock_states, &exact.deadlock_states);
        }
    }
}
