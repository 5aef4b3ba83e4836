//! Language-containment checking against abstractions (the `⋄` component of
//! Fig. 9).
//!
//! To discharge a guarantee obligation `impl ⊑ abs`, the implementation
//! (already closed with its context) is composed with the abstraction used
//! as an *observer*: shared events synchronise, and whenever the
//! implementation can produce one of the *watched* events in a state where
//! the observer cannot accept it, the composition moves into a marked
//! violation state. Verifying "no marked state is reachable" on the monitor
//! — with the usual relative-timing refinement — establishes that every
//! output produced by the implementation can also be produced by the
//! abstraction under the same stimuli.

use tts::{EventId, IdMap, StateId, TimedTransitionSystem, TransitionSystem, TsBuilder};

use crate::engine::{verify, Verdict, VerifyOptions};
use crate::property::SafetyProperty;

/// Error returned by [`build_containment_monitor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainError {
    /// A watched event does not appear in the abstraction's alphabet.
    UnknownWatchedEvent(String),
    /// The monitor construction produced an invalid system.
    Build(String),
}

impl std::fmt::Display for ContainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainError::UnknownWatchedEvent(e) => {
                write!(f, "watched event `{e}` is not part of the abstraction")
            }
            ContainError::Build(msg) => write!(f, "monitor construction failed: {msg}"),
        }
    }
}

impl std::error::Error for ContainError {}

/// A refinement obligation `implementation ⊑ abstraction` restricted to the
/// given watched (output) events.
#[derive(Debug, Clone)]
pub struct RefinementObligation<'a> {
    /// The implementation, already composed with its environment/context.
    pub implementation: &'a TimedTransitionSystem,
    /// The abstraction acting as observer.
    pub abstraction: &'a TransitionSystem,
    /// Names of the events whose production must be allowed by the
    /// abstraction (e.g. `ACK+`/`ACK-` in step 2 of §4.2, `VALID±` in steps 3
    /// and 4).
    pub watched: Vec<String>,
}

/// Builds the containment monitor: the product of the implementation and the
/// observer, with marked violation states for watched events the observer
/// cannot accept.
///
/// Like [`tts::compose`] the product works on ids: each implementation event
/// is mapped to its observer event once, states are indexed by their packed
/// `(implementation, observer)` pair, and a monitor event is interned when it
/// first fires. The single trap state records each refused event's message
/// once, in the order the refusals are found.
///
/// # Errors
///
/// Returns [`ContainError`] if a watched event is unknown to the abstraction
/// or the construction fails structurally.
pub fn build_containment_monitor(
    obligation: &RefinementObligation<'_>,
) -> Result<TimedTransitionSystem, ContainError> {
    let impl_ts = obligation.implementation.underlying();
    let abs = obligation.abstraction;
    for w in &obligation.watched {
        if abs.alphabet().lookup(w).is_none() {
            return Err(ContainError::UnknownWatchedEvent(w.clone()));
        }
    }

    // Per implementation event: its observer event, whether it is watched,
    // its monitor event (interned on first firing) and whether the trap
    // already records its refusal.
    let partners: Vec<Option<EventId>> = impl_ts
        .alphabet()
        .iter()
        .map(|(_, name)| abs.alphabet().lookup(name))
        .collect();
    let events = impl_ts.alphabet().len();
    let mut watched = vec![false; events];
    for w in &obligation.watched {
        if let Some(e) = impl_ts.alphabet().lookup(w) {
            watched[e.index()] = true;
        }
    }
    let mut monitor_events: Vec<Option<EventId>> = vec![None; events];
    let mut refused = vec![false; events];

    let mut builder = TsBuilder::new(format!("{} |> {}", impl_ts.name(), abs.name()));
    let mut index: IdMap<u64, StateId> = IdMap::default();
    // Discovered `(implementation, observer, monitor)` states in
    // breadth-first order.
    let mut queue: Vec<(StateId, StateId, StateId)> = Vec::new();
    let mut state = |builder: &mut TsBuilder,
                     queue: &mut Vec<(StateId, StateId, StateId)>,
                     l: StateId,
                     r: StateId|
     -> StateId {
        let key = ((l.index() as u64) << 32) | r.index() as u64;
        *index.entry(key).or_insert_with(|| {
            let id = builder.add_state([impl_ts.state_name(l), "|", abs.state_name(r)].concat());
            for v in impl_ts.violations(l) {
                builder.mark_violation(id, v.clone());
            }
            queue.push((l, r, id));
            id
        })
    };
    let event = |builder: &mut TsBuilder, slot: &mut Option<EventId>, e: EventId| -> EventId {
        *slot.get_or_insert_with(|| builder.intern_event(impl_ts.alphabet().name(e)))
    };

    for &l in impl_ts.initial_states() {
        for &r in abs.initial_states() {
            let id = state(&mut builder, &mut queue, l, r);
            builder.set_initial(id);
        }
    }

    // A single trap state for containment violations.
    let trap = builder.add_state("containment-violation");

    let mut next = 0;
    while let Some(&(l, r, from)) = queue.get(next) {
        next += 1;
        for &(e, l_to) in impl_ts.transitions_from(l) {
            let i = e.index();
            match partners[i] {
                Some(abs_event) => {
                    let mut accepted = false;
                    for &(ae, r_to) in abs.transitions_from(r) {
                        if ae == abs_event {
                            accepted = true;
                            let to = state(&mut builder, &mut queue, l_to, r_to);
                            let me = event(&mut builder, &mut monitor_events[i], e);
                            builder.add_transition_by_id(from, me, to);
                        }
                    }
                    if !accepted && watched[i] {
                        // The implementation produces an event the
                        // abstraction cannot accept here.
                        let me = event(&mut builder, &mut monitor_events[i], e);
                        builder.add_transition_by_id(from, me, trap);
                        if !refused[i] {
                            refused[i] = true;
                            builder.mark_violation(
                                trap,
                                format!(
                                    "abstraction cannot accept `{}`",
                                    impl_ts.alphabet().name(e)
                                ),
                            );
                        }
                    }
                    // Unwatched shared events that the observer cannot
                    // follow are simply not tracked further on that path.
                }
                None => {
                    // Private implementation event: interleave.
                    let to = state(&mut builder, &mut queue, l_to, r);
                    let me = event(&mut builder, &mut monitor_events[i], e);
                    builder.add_transition_by_id(from, me, to);
                }
            }
        }
    }

    // Interface roles follow the implementation, declared in its alphabet
    // order so that an event that never fires has the same place on every
    // call.
    for (e, name) in impl_ts.alphabet().iter() {
        let slot = &mut monitor_events[e.index()];
        match impl_ts.role(e) {
            tts::EventRole::Input => *slot = Some(builder.declare_input(name)),
            tts::EventRole::Output => *slot = Some(builder.declare_output(name)),
            tts::EventRole::Internal => {}
        }
    }

    let ts = builder
        .build()
        .map_err(|e| ContainError::Build(e.to_string()))?;
    let mut timed = TimedTransitionSystem::new(ts);
    for (e, delay) in obligation.implementation.delays() {
        if let Some(me) = monitor_events[e.index()] {
            timed.set_delay(me, delay);
        }
    }
    Ok(timed)
}

/// Checks the refinement obligation with the relative-timing engine.
///
/// # Errors
///
/// Returns [`ContainError`] if the monitor cannot be built; otherwise the
/// engine's [`Verdict`] is returned.
pub fn check_refinement(
    obligation: &RefinementObligation<'_>,
    options: &VerifyOptions,
) -> Result<Verdict, ContainError> {
    let monitor = build_containment_monitor(obligation)?;
    let property = SafetyProperty::new(format!(
        "{} refines {}",
        obligation.implementation.underlying().name(),
        obligation.abstraction.name()
    ))
    .forbid_marked_states();
    Ok(verify(&monitor, &property, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts::{DelayInterval, Time, TsBuilder};

    fn d(l: i64, u: i64) -> DelayInterval {
        DelayInterval::new(Time::new(l), Time::new(u)).unwrap()
    }

    /// Implementation: emits `req` then `ack`, repeatedly.
    fn impl_sys(with_spurious_ack: bool) -> TimedTransitionSystem {
        let mut b = TsBuilder::new("impl");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "req", s1);
        b.add_transition(s1, "ack", s0);
        if with_spurious_ack {
            b.add_transition(s0, "ack", s0);
        }
        b.set_initial(s0);
        b.declare_output("req");
        b.declare_output("ack");
        let mut timed = TimedTransitionSystem::new(b.build().unwrap());
        timed.set_delay_by_name("req", d(1, 2));
        timed.set_delay_by_name("ack", d(1, 2));
        timed
    }

    /// Abstraction: `ack` only ever follows `req`.
    fn abstraction() -> tts::TransitionSystem {
        let mut b = TsBuilder::new("abs");
        let a0 = b.add_state("a0");
        let a1 = b.add_state("a1");
        b.add_transition(a0, "req", a1);
        b.add_transition(a1, "ack", a0);
        b.set_initial(a0);
        b.build().unwrap()
    }

    #[test]
    fn conforming_implementation_refines() {
        let implementation = impl_sys(false);
        let abs = abstraction();
        let obligation = RefinementObligation {
            implementation: &implementation,
            abstraction: &abs,
            watched: vec!["ack".to_owned()],
        };
        let verdict = check_refinement(&obligation, &VerifyOptions::default()).unwrap();
        assert!(verdict.is_verified());
    }

    #[test]
    fn spurious_output_is_caught() {
        let implementation = impl_sys(true);
        let abs = abstraction();
        let obligation = RefinementObligation {
            implementation: &implementation,
            abstraction: &abs,
            watched: vec!["ack".to_owned()],
        };
        let verdict = check_refinement(&obligation, &VerifyOptions::default()).unwrap();
        match verdict {
            Verdict::Failed { counterexample, .. } => {
                assert!(counterexample.events.contains(&"ack".to_owned()));
            }
            other => panic!("expected containment failure, got {other}"),
        }
    }

    #[test]
    fn unknown_watched_event_is_rejected() {
        let implementation = impl_sys(false);
        let abs = abstraction();
        let obligation = RefinementObligation {
            implementation: &implementation,
            abstraction: &abs,
            watched: vec!["nope".to_owned()],
        };
        assert!(matches!(
            check_refinement(&obligation, &VerifyOptions::default()),
            Err(ContainError::UnknownWatchedEvent(_))
        ));
    }

    #[test]
    fn monitor_carries_delays_and_marks() {
        let implementation = impl_sys(true);
        let abs = abstraction();
        let obligation = RefinementObligation {
            implementation: &implementation,
            abstraction: &abs,
            watched: vec!["ack".to_owned()],
        };
        let monitor = build_containment_monitor(&obligation).unwrap();
        assert_eq!(monitor.delay_by_name("req"), d(1, 2));
        assert!(monitor.underlying().has_marked_states());
    }
}
