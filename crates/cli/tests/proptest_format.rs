//! Property tests for the textual model formats and the witness traces:
//! printing then parsing a random model is the identity, and the failure
//! trace a verification reports replays, with a firing window per step, to
//! the reported violating state, which the zone exploration confirms.

use dbm::{explore_timed_with, ExploreSpec, ZoneExplorationOptions, ZoneOutcome, ZoneReport};
use proptest::prelude::*;
use stg::{SignalRole, StgBuilder};
use transyt::{FailureKind, Verdict, VerifyOptions};
use transyt_cli::format::{Model, ModelSource, PropertySpec};
use transyt_session::trace_of_verdict;
use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};

/// Builds a random live STG: alternating signal-edge transitions connected
/// in a cycle, plus random forward arcs and random forbidden-marking
/// conjunctions (`violation when …` directives).
fn random_stg(
    transitions: usize,
    extra_arcs: &[(usize, usize)],
    forbidden: &[Vec<usize>],
) -> stg::Stg {
    let count = transitions.max(2);
    let mut b = StgBuilder::new("random");
    let ids: Vec<_> = (0..count)
        .map(|i| {
            let signal = (b'A' + (i / 2 % 8) as u8) as char;
            let polarity = if i % 2 == 0 { '+' } else { '-' };
            b.add_transition(
                format!("{signal}{polarity}"),
                match i % 3 {
                    0 => SignalRole::Input,
                    1 => SignalRole::Output,
                    _ => SignalRole::Internal,
                },
            )
        })
        .collect();
    let mut places = Vec::new();
    for (i, &t) in ids.iter().enumerate() {
        let next = ids[(i + 1) % ids.len()];
        places.push(b.connect(t, next, u32::from(i + 1 == ids.len())));
    }
    for &(from, to) in extra_arcs {
        let f = ids[from % ids.len()];
        let t = ids[to % ids.len()];
        if f != t {
            places.push(b.connect(f, t, 0));
        }
    }
    for conjunction in forbidden {
        b.forbid_marking(conjunction.iter().map(|&p| places[p % places.len()]));
    }
    b.build().unwrap()
}

/// Random timed system over a small state graph with one marked state.
fn random_timed(
    states: usize,
    transitions: &[(usize, usize, usize)],
    delays: &[(i64, i64)],
) -> TimedTransitionSystem {
    let count = states.clamp(2, 8);
    let mut b = TsBuilder::new("random-timed");
    let ids: Vec<_> = (0..count).map(|i| b.add_state(format!("s{i}"))).collect();
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

/// The timed reachability report of `timed`: the `exact` zone exploration,
/// unless a clock of an event the system stops enabling drifts past the
/// configuration limit (exact zones never widen it away); the default
/// abstraction, exact for discrete reachability, decides those.
fn timed_reachability(timed: &TimedTransitionSystem) -> ZoneReport {
    let explore = |exact: bool| {
        let spec = ExploreSpec {
            exact,
            limit: Some(5_000),
            ..ExploreSpec::default()
        };
        explore_timed_with(timed, ZoneExplorationOptions { spec })
    };
    match explore(true) {
        ZoneOutcome::Completed(report) => report,
        _ => explore(false)
            .report()
            .expect("the default abstraction terminates")
            .clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stg_models_round_trip_through_print_and_parse(
        transitions in 2usize..10,
        extra_arcs in proptest::collection::vec((0usize..10, 0usize..10), 0..4),
        delay_picks in proptest::collection::vec((0usize..10, 0i64..9, 0i64..9), 0..4),
        deadlock_free in any::<bool>(),
        forbidden in proptest::collection::vec(
            proptest::collection::vec(0usize..24, 1..4), 0..3),
    ) {
        let net = random_stg(transitions, &extra_arcs, &forbidden);
        prop_assert_eq!(net.forbidden_markings().len(), forbidden.len());
        let labels: Vec<String> = net.transitions().map(|t| net.label(t).to_owned()).collect();
        let delays = delay_picks
            .iter()
            .map(|&(pick, l, w)| {
                let label = labels[pick % labels.len()].clone();
                (label, DelayInterval::new(Time::new(l), Time::new(l + w)).unwrap())
            })
            .collect();
        let model = Model {
            name: "random".to_owned(),
            source: ModelSource::Stg(net.clone()),
            delays,
            property: PropertySpec {
                deadlock_free,
                forbid_marked: false,
                persistent: vec![labels[0].clone()],
            },
        };
        let printed = model.to_text();
        let reparsed = Model::parse(&printed).unwrap();
        // Canonical printing is a fixed point of parse ∘ print…
        prop_assert_eq!(&reparsed.to_text(), &printed);
        // …and the parsed net is structurally identical.
        let ModelSource::Stg(reparsed_net) = &reparsed.source else {
            return Err(TestCaseError::fail("expected an stg"));
        };
        prop_assert_eq!(reparsed_net, &net);
        prop_assert_eq!(&reparsed.delays, &model.delays);
        prop_assert_eq!(&reparsed.property, &model.property);
    }

    #[test]
    fn tts_models_round_trip_through_print_and_parse(
        states in 2usize..6,
        transitions in proptest::collection::vec((0usize..6, 0usize..5, 0usize..6), 0..8),
        delays in proptest::collection::vec((0i64..6, 0i64..6), 5),
    ) {
        let timed = random_timed(states, &transitions, &delays);
        let (ts, delay_map) = timed.into_parts();
        let mut delay_list: Vec<(tts::EventId, DelayInterval)> = delay_map.into_iter().collect();
        delay_list.sort_by_key(|&(event, _)| event);
        let model = Model {
            name: ts.name().to_owned(),
            source: ModelSource::Tts(ts.clone()),
            delays: delay_list
                .into_iter()
                .map(|(event, delay)| (ts.alphabet().name(event).to_owned(), delay))
                .collect(),
            property: PropertySpec {
                deadlock_free: false,
                forbid_marked: true,
                persistent: Vec::new(),
            },
        };
        let printed = model.to_text();
        let reparsed = Model::parse(&printed).unwrap();
        prop_assert_eq!(&reparsed.to_text(), &printed);
        // The reparsed system verifies to the same verdict as the original.
        let original = transyt::verify(
            &model.timed_system().unwrap(),
            &model.property(),
            &VerifyOptions::default(),
        );
        let roundtripped = transyt::verify(
            &reparsed.timed_system().unwrap(),
            &reparsed.property(),
            &VerifyOptions::default(),
        );
        prop_assert_eq!(original.is_verified(), roundtripped.is_verified());
    }

    #[test]
    fn failure_traces_replay_with_firing_windows_to_the_violating_state(
        states in 2usize..6,
        transitions in proptest::collection::vec((0usize..6, 0usize..5, 0usize..6), 0..8),
        delays in proptest::collection::vec((0i64..6, 0i64..6), 5),
    ) {
        let timed = random_timed(states, &transitions, &delays);
        let property = transyt::SafetyProperty::new("marked").forbid_marked_states();
        let verdict = transyt::verify(&timed, &property, &VerifyOptions::default());
        if let Verdict::Failed { counterexample, .. } = &verdict {
            let ts = timed.underlying();
            let end = counterexample.trace.end_state();
            prop_assert_eq!(counterexample.trace.replay(ts), Some(end));
            // The engine called the trace consistent by replaying it through
            // the zone kernel, so every rendered step has its firing window.
            let rendered = trace_of_verdict(&verdict, &timed);
            prop_assert_eq!(rendered.steps.len(), counterexample.trace.len());
            prop_assert!(rendered.steps.iter().all(|step| step.window.is_some()));
            // An oracle independent of the replay: the zone exploration
            // reaches the end state in the timed semantics.
            let report = timed_reachability(&timed);
            prop_assert!(report.reachable_states.contains(&end));
            match &counterexample.kind {
                FailureKind::MarkedState { .. } => {
                    prop_assert!(!ts.violations(end).is_empty());
                    prop_assert!(report.violating_states.contains(&end));
                }
                FailureKind::Deadlock => {
                    prop_assert!(ts.transitions_from(end).is_empty());
                }
                FailureKind::PersistencyViolation { .. } => {}
            }
        }
    }
}
