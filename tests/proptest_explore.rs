//! Property tests for the shared exploration core: on random small STGs and
//! random small timed systems, the parallel driver (threads = 4) must return
//! reports identical to the sequential driver, and report state lists must be
//! sorted.

use proptest::prelude::*;
use stg::{expand_with_report, ExpandOptions, SignalRole, StgBuilder};
use tts::{DelayInterval, StateId, Time, TimedTransitionSystem, TsBuilder};

fn sorted(ids: &[StateId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Builds a random safe-ish STG: `t` transitions labelled as alternating
/// signal edges, connected into a cycle so the net is live, plus random
/// cross arcs that may make it unbounded or inconsistent — both outcomes
/// must simply agree across drivers.
fn random_stg(transitions: usize, extra_arcs: &[(usize, usize)]) -> stg::Stg {
    let count = transitions.max(2);
    let mut b = StgBuilder::new("random");
    let ids: Vec<_> = (0..count)
        .map(|i| {
            let signal = (b'A' + (i / 2 % 8) as u8) as char;
            let polarity = if i % 2 == 0 { '+' } else { '-' };
            b.add_transition(
                format!("{signal}{polarity}"),
                if i % 3 == 0 {
                    SignalRole::Input
                } else {
                    SignalRole::Output
                },
            )
        })
        .collect();
    for (i, &t) in ids.iter().enumerate() {
        let next = ids[(i + 1) % ids.len()];
        b.connect(t, next, usize::from(i + 1 == ids.len()) as u32);
    }
    for &(from, to) in extra_arcs {
        let f = ids[from % ids.len()];
        let t = ids[to % ids.len()];
        if f != t {
            b.connect(f, t, 0);
        }
    }
    b.build().unwrap()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_stg_expansion_matches_sequential(
        transitions in 2usize..10,
        extra_arcs in proptest::collection::vec((0usize..10, 0usize..10), 0..4),
    ) {
        let net = random_stg(transitions, &extra_arcs);
        let limited = ExpandOptions {
            spec: stg::ExploreSpec {
                limit: Some(2_000),
                ..stg::ExploreSpec::default()
            },
            ..ExpandOptions::default()
        };
        let parallel_spec = stg::ExploreSpec {
            threads: 4,
            ..limited.spec.clone()
        };
        let sequential = expand_with_report(&net, limited.clone());
        let parallel = expand_with_report(
            &net,
            ExpandOptions {
                spec: parallel_spec,
                ..limited
            },
        );
        prop_assert_eq!(&sequential, &parallel);
        if let Ok((ts, report)) = sequential {
            prop_assert!(sorted(&report.reachable_states));
            prop_assert!(sorted(&report.deadlock_states));
            prop_assert_eq!(report.reachable_states.len(), ts.state_count());
        }
    }

    #[test]
    fn parallel_zone_exploration_matches_sequential(
        states in 2usize..6,
        transitions in proptest::collection::vec((0usize..6, 0usize..5, 0usize..6), 0..8),
        delays in proptest::collection::vec((0i64..6, 0i64..6), 5),
    ) {
        let timed = random_timed(states, &transitions, &delays);
        for exact in [false, true] {
            let base = dbm::ZoneExplorationOptions {
                spec: dbm::ExploreSpec {
                    threads: 1,
                    exact,
                    limit: Some(600),
                    ..dbm::ExploreSpec::default()
                },
            };
            let sequential = dbm::explore_timed_with(&timed, base.clone());
            let parallel = dbm::explore_timed_with(
                &timed,
                dbm::ZoneExplorationOptions {
                    spec: dbm::ExploreSpec {
                        threads: 4,
                        ..base.spec
                    },
                },
            );
            prop_assert_eq!(&sequential, &parallel);
            if let dbm::ZoneOutcome::Completed(report) = &sequential {
                prop_assert!(sorted(&report.reachable_states));
                prop_assert!(sorted(&report.violating_states));
                prop_assert!(sorted(&report.deadlock_states));
            }
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
                        threads: 1,
                        exact,
                        limit: Some(1_500),
                        ..dbm::ExploreSpec::default()
                    },
                },
            )
        };
        if let (dbm::ZoneOutcome::Completed(abstracted), dbm::ZoneOutcome::Completed(exact)) =
            (run(false), run(true))
        {
            // The abstraction may only shrink the configuration count and
            // must not change any verdict-bearing state set.
            prop_assert!(abstracted.configurations <= exact.configurations);
            prop_assert_eq!(&abstracted.reachable_states, &exact.reachable_states);
            prop_assert_eq!(&abstracted.violating_states, &exact.violating_states);
            prop_assert_eq!(&abstracted.deadlock_states, &exact.deadlock_states);
        }
    }

    #[test]
    fn parallel_verification_matches_sequential(
        states in 2usize..6,
        transitions in proptest::collection::vec((0usize..6, 0usize..5, 0usize..6), 0..8),
        delays in proptest::collection::vec((0i64..6, 0i64..6), 5),
    ) {
        let timed = random_timed(states, &transitions, &delays);
        let property = transyt::SafetyProperty::new("marked").forbid_marked_states();
        let sequential = transyt::verify(&timed, &property, &transyt::VerifyOptions::default());
        let parallel = transyt::verify(
            &timed,
            &property,
            &transyt::VerifyOptions {
                spec: transyt::ExploreSpec::threaded(4),
                ..transyt::VerifyOptions::default()
            },
        );
        prop_assert_eq!(sequential, parallel);
    }
}
