//! Parallel composition of transition systems.
//!
//! Components synchronise on events with the same name (CSP-style
//! multi-way synchronisation) and interleave on the rest. Composition is used
//! to close a circuit with its environment (`IN ∥ I ∥ OUT`), to put a stage
//! between abstractions (`A_in ∥ I ∥ A_out`) and to build the systems of the
//! guarantee proofs of §4.2.
//!
//! The product works on ids. Each call maps every component event to its
//! partner in the other alphabet once, by name; the search then reads the
//! components' transition rows in place, indexes product states by the packed
//! `(left, right)` state pair, and interns a product event when it first
//! fires, so the product alphabet lists events in first-firing order followed
//! by the declared interface events that never fire (left alphabet first).
//! Timed products intersect delays event by event.
//!
//! A list of systems is folded pairwise, left to right. The fold is part of
//! the semantics, not an implementation detail: a later component
//! synchronises on an event only if the prefix product's alphabet holds it,
//! and that alphabet drops an internal event that never fires in the prefix.
//! An n-ary product in one pass would synchronise such an event instead and
//! build a different system.

use std::fmt;

use crate::event::EventId;
use crate::hash::IdMap;
use crate::time::DelayInterval;
use crate::timed::{IncompatibleDelaysError, TimedTransitionSystem};
use crate::ts::{BuildTsError, EventRole, StateId, TransitionSystem, TsBuilder};

/// Error returned by the composition operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// The composed system would be structurally invalid.
    Build(BuildTsError),
    /// Two components constrain the same event with disjoint delay intervals.
    IncompatibleDelays(IncompatibleDelaysError),
    /// The composition exceeded the configured state limit.
    StateLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::Build(e) => write!(f, "composition failed: {e}"),
            ComposeError::IncompatibleDelays(e) => write!(f, "composition failed: {e}"),
            ComposeError::StateLimitExceeded { limit } => {
                write!(f, "composition exceeded the state limit of {limit}")
            }
        }
    }
}

impl std::error::Error for ComposeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ComposeError::Build(e) => Some(e),
            ComposeError::IncompatibleDelays(e) => Some(e),
            ComposeError::StateLimitExceeded { .. } => None,
        }
    }
}

impl From<BuildTsError> for ComposeError {
    fn from(e: BuildTsError) -> Self {
        ComposeError::Build(e)
    }
}

impl From<IncompatibleDelaysError> for ComposeError {
    fn from(e: IncompatibleDelaysError) -> Self {
        ComposeError::IncompatibleDelays(e)
    }
}

/// Options controlling composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComposeOptions {
    /// Maximum number of product states to explore before giving up.
    pub state_limit: usize,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        ComposeOptions {
            state_limit: 2_000_000,
        }
    }
}

/// Composes two transition systems with default options.
///
/// Shared events (same name in both alphabets) synchronise; the rest
/// interleave. Only reachable product states are constructed. Violation marks
/// of the component states are carried over (prefixed with the component
/// name). An event is an output of the composition if it is an output of any
/// component, an input if some component declares it an input and none
/// declares it an output, and internal otherwise.
///
/// # Errors
///
/// Returns [`ComposeError`] if the composed system would be invalid or the
/// state limit is exceeded.
///
/// # Examples
///
/// ```
/// use tts::{compose, TsBuilder};
/// let mut p = TsBuilder::new("producer");
/// let p0 = p.add_state("p0");
/// let p1 = p.add_state("p1");
/// p.add_transition(p0, "req", p1);
/// p.add_transition(p1, "ack", p0);
/// p.set_initial(p0);
/// let producer = p.build()?;
///
/// let mut c = TsBuilder::new("consumer");
/// let c0 = c.add_state("c0");
/// let c1 = c.add_state("c1");
/// c.add_transition(c0, "req", c1);
/// c.add_transition(c1, "ack", c0);
/// c.set_initial(c0);
/// let consumer = c.build()?;
///
/// let system = compose(&producer, &consumer)?;
/// assert_eq!(system.state_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compose(
    left: &TransitionSystem,
    right: &TransitionSystem,
) -> Result<TransitionSystem, ComposeError> {
    compose_with(left, right, ComposeOptions::default())
}

/// Composes two transition systems with explicit [`ComposeOptions`].
///
/// # Errors
///
/// See [`compose`].
pub fn compose_with(
    left: &TransitionSystem,
    right: &TransitionSystem,
    options: ComposeOptions,
) -> Result<TransitionSystem, ComposeError> {
    Ok(product(left, right, options)?.ts)
}

/// A product system with the map from component events to product events.
struct Product {
    ts: TransitionSystem,
    /// The product event of each left event, if it is in the product alphabet.
    left_events: Vec<Option<EventId>>,
    /// The product event of each right event, if it is in the product alphabet.
    right_events: Vec<Option<EventId>>,
    /// The left event of the same name as each right event.
    right_partners: Vec<Option<EventId>>,
}

/// The product event of a component event, interned on its first firing.
fn product_event(
    slot: &mut Option<EventId>,
    builder: &mut TsBuilder,
    component: &TransitionSystem,
    event: EventId,
) -> EventId {
    *slot.get_or_insert_with(|| builder.intern_event(component.alphabet().name(event)))
}

fn product(
    left: &TransitionSystem,
    right: &TransitionSystem,
    options: ComposeOptions,
) -> Result<Product, ComposeError> {
    let mut builder = TsBuilder::new(format!("{} || {}", left.name(), right.name()));
    let left_partners: Vec<Option<EventId>> = left
        .alphabet()
        .iter()
        .map(|(_, name)| right.alphabet().lookup(name))
        .collect();
    let mut right_partners = vec![None; right.alphabet().len()];
    for (le, re) in left_partners.iter().enumerate() {
        if let Some(re) = re {
            right_partners[re.index()] = Some(EventId::from_index(le));
        }
    }
    let mut left_events = vec![None; left.alphabet().len()];
    let mut right_events = vec![None; right.alphabet().len()];

    // Product states, indexed by their packed `(left, right)` pair. A
    // state's id is its position in `pairs`, which is also the
    // breadth-first order in which the states are expanded.
    let mut index: IdMap<u64, StateId> = IdMap::default();
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();
    let mut state = |builder: &mut TsBuilder,
                     pairs: &mut Vec<(StateId, StateId)>,
                     l: StateId,
                     r: StateId|
     -> StateId {
        let key = ((l.index() as u64) << 32) | r.index() as u64;
        *index.entry(key).or_insert_with(|| {
            let id = builder.add_state([left.state_name(l), "|", right.state_name(r)].concat());
            for v in left.violations(l) {
                builder.mark_violation(id, [left.name(), ": ", v].concat());
            }
            for v in right.violations(r) {
                builder.mark_violation(id, [right.name(), ": ", v].concat());
            }
            pairs.push((l, r));
            id
        })
    };

    for &l in left.initial_states() {
        for &r in right.initial_states() {
            let id = state(&mut builder, &mut pairs, l, r);
            builder.set_initial(id);
        }
    }

    let mut next = 0;
    while let Some(&(l, r)) = pairs.get(next) {
        if builder.state_count() > options.state_limit {
            return Err(ComposeError::StateLimitExceeded {
                limit: options.state_limit,
            });
        }
        let from = StateId::from_index(next);
        next += 1;
        // Left moves (synchronising when the event is shared).
        for &(le, lto) in left.transitions_from(l) {
            match left_partners[le.index()] {
                Some(re) => {
                    for &(e, rto) in right.transitions_from(r) {
                        if e == re {
                            let to = state(&mut builder, &mut pairs, lto, rto);
                            let pe =
                                product_event(&mut left_events[le.index()], &mut builder, left, le);
                            builder.add_transition_by_id(from, pe, to);
                        }
                    }
                }
                None => {
                    let to = state(&mut builder, &mut pairs, lto, r);
                    let pe = product_event(&mut left_events[le.index()], &mut builder, left, le);
                    builder.add_transition_by_id(from, pe, to);
                }
            }
        }
        // Right-only moves (shared events were handled above).
        for &(re, rto) in right.transitions_from(r) {
            if right_partners[re.index()].is_some() {
                continue;
            }
            let to = state(&mut builder, &mut pairs, l, rto);
            let pe = product_event(&mut right_events[re.index()], &mut builder, right, re);
            builder.add_transition_by_id(from, pe, to);
        }
    }

    // Interface roles, declared in alphabet order (left component first) so
    // that a declared event that never fires has the same place on every
    // call.
    for (le, name) in left.alphabet().iter() {
        let role = match left_partners[le.index()] {
            Some(re) => role_union(left.role(le), right.role(re)),
            None => left.role(le),
        };
        declare(&mut builder, &mut left_events[le.index()], name, role);
    }
    for (re, name) in right.alphabet().iter() {
        match right_partners[re.index()] {
            Some(le) => right_events[re.index()] = left_events[le.index()],
            None => declare(
                &mut builder,
                &mut right_events[re.index()],
                name,
                right.role(re),
            ),
        }
    }

    Ok(Product {
        ts: builder.build()?,
        left_events,
        right_events,
        right_partners,
    })
}

/// Declares `name` with `role` and records its product event in `slot`
/// (internal events are not declared).
fn declare(builder: &mut TsBuilder, slot: &mut Option<EventId>, name: &str, role: EventRole) {
    match role {
        EventRole::Output => *slot = Some(builder.declare_output(name)),
        EventRole::Input => *slot = Some(builder.declare_input(name)),
        EventRole::Internal => {}
    }
}

/// The role of a shared event: an output of either side is an output, else
/// an input of either side is an input.
fn role_union(a: EventRole, b: EventRole) -> EventRole {
    match (a, b) {
        (EventRole::Output, _) | (_, EventRole::Output) => EventRole::Output,
        (EventRole::Input, _) | (_, EventRole::Input) => EventRole::Input,
        _ => EventRole::Internal,
    }
}

/// Composes a non-empty list of transition systems left to right.
///
/// # Errors
///
/// Returns [`ComposeError`] if any pairwise composition fails.
///
/// # Panics
///
/// Panics if `systems` is empty.
pub fn compose_all(systems: &[&TransitionSystem]) -> Result<TransitionSystem, ComposeError> {
    assert!(
        !systems.is_empty(),
        "compose_all requires at least one system"
    );
    let mut acc: Option<TransitionSystem> = None;
    for ts in &systems[1..] {
        acc = Some(compose(acc.as_ref().unwrap_or(systems[0]), ts)?);
    }
    Ok(acc.unwrap_or_else(|| systems[0].clone()))
}

/// Composes two timed transition systems.
///
/// The underlying systems are composed with [`compose`]; the delay interval of
/// each event in the result is the intersection of the component intervals
/// (the default `[0, ∞)` interval is neutral).
///
/// # Errors
///
/// Returns [`ComposeError::IncompatibleDelays`] if both components constrain
/// the same event with disjoint intervals (the first such event in the right
/// component's alphabet order), or any error of [`compose`].
pub fn compose_timed(
    left: &TimedTransitionSystem,
    right: &TimedTransitionSystem,
) -> Result<TimedTransitionSystem, ComposeError> {
    let product = product(
        left.underlying(),
        right.underlying(),
        ComposeOptions::default(),
    )?;
    let mut delays: Vec<Option<DelayInterval>> = vec![None; product.ts.alphabet().len()];
    let mut left_delays = vec![None; left.underlying().alphabet().len()];
    for (le, d) in left.delays() {
        left_delays[le.index()] = Some(d);
        if let Some(pe) = product.left_events[le.index()] {
            delays[pe.index()] = Some(d);
        }
    }
    // Conflicts are checked in the right component's alphabet order, so a
    // composition with several reports the same one on every call.
    let mut right_delays: Vec<(EventId, DelayInterval)> = right.delays().collect();
    right_delays.sort_unstable_by_key(|&(re, _)| re);
    for (re, d) in right_delays {
        let left_delay = product.right_partners[re.index()].and_then(|le| left_delays[le.index()]);
        let merged = match left_delay {
            Some(l) => l.intersect(&d).ok_or_else(|| {
                let name = right.underlying().alphabet().name(re).to_owned();
                IncompatibleDelaysError::new(name, l, d)
            })?,
            None => d,
        };
        if let Some(pe) = product.right_events[re.index()] {
            delays[pe.index()] = Some(merged);
        }
    }
    let mut timed = TimedTransitionSystem::new(product.ts);
    for (pe, d) in delays.into_iter().enumerate() {
        if let Some(d) = d {
            timed.set_delay(EventId::from_index(pe), d);
        }
    }
    Ok(timed)
}

/// Composes a non-empty list of timed transition systems left to right.
///
/// # Errors
///
/// Returns [`ComposeError`] if any pairwise composition fails.
///
/// # Panics
///
/// Panics if `systems` is empty.
pub fn compose_timed_all(
    systems: &[&TimedTransitionSystem],
) -> Result<TimedTransitionSystem, ComposeError> {
    assert!(
        !systems.is_empty(),
        "compose_timed_all requires at least one system"
    );
    let mut acc: Option<TimedTransitionSystem> = None;
    for ts in &systems[1..] {
        acc = Some(compose_timed(acc.as_ref().unwrap_or(systems[0]), ts)?);
    }
    Ok(acc.unwrap_or_else(|| systems[0].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{DelayInterval, Time};
    use crate::ts::TsBuilder;

    fn handshake(name: &str, active: bool) -> TransitionSystem {
        let mut b = TsBuilder::new(name);
        let s0 = b.add_state("idle");
        let s1 = b.add_state("busy");
        b.add_transition(s0, "req", s1);
        b.add_transition(s1, "ack", s0);
        b.set_initial(s0);
        if active {
            b.declare_output("req");
            b.declare_input("ack");
        } else {
            b.declare_input("req");
            b.declare_output("ack");
        }
        b.build().unwrap()
    }

    #[test]
    fn synchronised_composition_stays_small() {
        let system = compose(&handshake("p", true), &handshake("c", false)).unwrap();
        assert_eq!(system.state_count(), 2);
        assert_eq!(system.transition_count(), 2);
        // Both req and ack are outputs of some component.
        let req = system.alphabet().lookup("req").unwrap();
        let ack = system.alphabet().lookup("ack").unwrap();
        assert_eq!(system.role(req), EventRole::Output);
        assert_eq!(system.role(ack), EventRole::Output);
    }

    #[test]
    fn interleaving_of_private_events() {
        let mut a = TsBuilder::new("a");
        let a0 = a.add_state("a0");
        let a1 = a.add_state("a1");
        a.add_transition(a0, "x", a1);
        a.set_initial(a0);
        let a = a.build().unwrap();

        let mut b = TsBuilder::new("b");
        let b0 = b.add_state("b0");
        let b1 = b.add_state("b1");
        b.add_transition(b0, "y", b1);
        b.set_initial(b0);
        let b = b.build().unwrap();

        let p = compose(&a, &b).unwrap();
        assert_eq!(p.state_count(), 4);
        assert_eq!(p.transition_count(), 4);
        assert!(p.deadlock_states().len() == 1);
    }

    #[test]
    fn violations_propagate_with_component_prefix() {
        let mut a = TsBuilder::new("left");
        let a0 = a.add_state("ok");
        let a1 = a.add_state("bad");
        a.add_transition(a0, "x", a1);
        a.mark_violation(a1, "short-circuit");
        a.set_initial(a0);
        let a = a.build().unwrap();
        let b = handshake("right", false);
        let p = compose(&a, &b).unwrap();
        // The `bad` left state pairs with both right states reachable by the
        // interleaved handshake, so two marked product states exist.
        let bad: Vec<_> = p.marked_reachable_states();
        assert_eq!(bad.len(), 2);
        for s in bad {
            assert!(p.violations(s)[0].contains("left"));
        }
    }

    #[test]
    fn sync_requires_both_ready() {
        // The consumer never offers "req" from its initial state, so the
        // producer can never fire it.
        let producer = handshake("p", true);
        let mut c = TsBuilder::new("stuck");
        let c0 = c.add_state("c0");
        c.set_initial(c0);
        c.intern_event("req");
        let consumer = c.build().unwrap();
        let p = compose(&producer, &consumer).unwrap();
        assert_eq!(p.state_count(), 1);
        assert_eq!(p.transition_count(), 0);
        assert_eq!(p.deadlock_states().len(), 1);
    }

    /// A one-state system ticking on `tick`, declaring six interface events
    /// `{prefix}0..5` that label no transition.
    fn idle_interface(name: &str, prefix: &str, output: bool) -> TransitionSystem {
        let mut b = TsBuilder::new(name);
        let s0 = b.add_state("s0");
        b.add_transition(s0, "tick", s0);
        b.set_initial(s0);
        for i in 0..6 {
            let event = format!("{prefix}{i}");
            if output {
                b.declare_output(&event);
            } else {
                b.declare_input(&event);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn declared_events_that_never_fire_keep_their_place() {
        let left = idle_interface("l", "x", true);
        let right = idle_interface("r", "y", false);
        let first = compose(&left, &right).unwrap();
        for _ in 0..10 {
            assert_eq!(compose(&left, &right).unwrap(), first);
        }
        // Fired events first, then the declared ones, left component first.
        let names: Vec<&str> = first.alphabet().iter().map(|(_, n)| n).collect();
        let mut expected = vec!["tick".to_owned()];
        expected.extend((0..6).map(|i| format!("x{i}")));
        expected.extend((0..6).map(|i| format!("y{i}")));
        assert_eq!(names, expected);
    }

    #[test]
    fn compose_all_folds() {
        let a = handshake("a", true);
        let b = handshake("b", false);
        let c = {
            let mut b = TsBuilder::new("obs");
            let s = b.add_state("s");
            b.add_transition(s, "req", s);
            b.add_transition(s, "ack", s);
            b.set_initial(s);
            b.build().unwrap()
        };
        let p = compose_all(&[&a, &b, &c]).unwrap();
        assert_eq!(p.state_count(), 2);
    }

    #[test]
    fn timed_composition_intersects_delays() {
        let mut left = TimedTransitionSystem::new(handshake("p", true));
        left.set_delay_by_name(
            "req",
            DelayInterval::new(Time::new(1), Time::new(5)).unwrap(),
        );
        let mut right = TimedTransitionSystem::new(handshake("c", false));
        right.set_delay_by_name(
            "req",
            DelayInterval::new(Time::new(3), Time::new(8)).unwrap(),
        );
        right.set_delay_by_name(
            "ack",
            DelayInterval::new(Time::new(2), Time::new(2)).unwrap(),
        );
        let composed = compose_timed(&left, &right).unwrap();
        assert_eq!(
            composed.delay_by_name("req"),
            DelayInterval::new(Time::new(3), Time::new(5)).unwrap()
        );
        assert_eq!(
            composed.delay_by_name("ack"),
            DelayInterval::new(Time::new(2), Time::new(2)).unwrap()
        );
    }

    #[test]
    fn timed_composition_rejects_disjoint_delays() {
        let mut left = TimedTransitionSystem::new(handshake("p", true));
        left.set_delay_by_name(
            "req",
            DelayInterval::new(Time::new(1), Time::new(2)).unwrap(),
        );
        let mut right = TimedTransitionSystem::new(handshake("c", false));
        right.set_delay_by_name(
            "req",
            DelayInterval::new(Time::new(5), Time::new(8)).unwrap(),
        );
        let err = compose_timed(&left, &right).unwrap_err();
        assert!(matches!(err, ComposeError::IncompatibleDelays(_)));
        assert!(err.to_string().contains("req"));
    }

    #[test]
    fn state_limit_is_enforced() {
        let a = handshake("a", true);
        let b = handshake("b", false);
        let err = compose_with(&a, &b, ComposeOptions { state_limit: 0 }).unwrap_err();
        assert!(matches!(err, ComposeError::StateLimitExceeded { .. }));
    }
}
