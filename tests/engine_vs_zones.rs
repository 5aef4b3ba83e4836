//! Cross-validation: on closed models small enough for exact zone-based
//! exploration, the relative-timing engine and the DBM baseline agree on
//! whether violating states are reachable.

use dbm::{explore_timed, explore_timed_with, ExploreSpec, ZoneExplorationOptions, ZoneOutcome};
use transyt::{verify, SafetyProperty, Verdict, VerifyOptions};
use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};

fn d(l: i64, u: i64) -> DelayInterval {
    DelayInterval::new(Time::new(l), Time::new(u)).unwrap()
}

fn race(fast: DelayInterval, slow: DelayInterval) -> TimedTransitionSystem {
    let mut b = TsBuilder::new("race");
    let s0 = b.add_state("s0");
    let ok = b.add_state("ok");
    let bad = b.add_state("bad");
    let done = b.add_state("done");
    let f = b.add_transition(s0, "fast", ok);
    let s = b.add_transition(s0, "slow", bad);
    b.add_transition_by_id(ok, s, done);
    b.add_transition_by_id(bad, f, done);
    b.mark_violation(bad, "slow before fast");
    b.set_initial(s0);
    let mut timed = TimedTransitionSystem::new(b.build().unwrap());
    timed.set_delay_by_name("fast", fast);
    timed.set_delay_by_name("slow", slow);
    timed
}

#[test]
fn engine_and_zones_agree_on_separated_delays() {
    let timed = race(d(1, 2), d(5, 9));
    let zone_safe = explore_timed(&timed)
        .report()
        .unwrap()
        .violating_states
        .is_empty();
    let verdict = verify(
        &timed,
        &SafetyProperty::new("order").forbid_marked_states(),
        &VerifyOptions::default(),
    );
    assert!(zone_safe);
    assert!(verdict.is_verified());
}

#[test]
fn engine_and_zones_agree_on_overlapping_delays() {
    let timed = race(d(1, 6), d(2, 9));
    let zone_safe = explore_timed(&timed)
        .report()
        .unwrap()
        .violating_states
        .is_empty();
    let verdict = verify(
        &timed,
        &SafetyProperty::new("order").forbid_marked_states(),
        &VerifyOptions::default(),
    );
    assert!(!zone_safe);
    assert!(matches!(verdict, Verdict::Failed { .. }));
}

#[test]
fn intro_example_has_untimed_violations_but_verifies_with_timing() {
    let timed = ipcmos::intro_example();
    assert!(!timed.underlying().marked_reachable_states().is_empty());
    let verdict = verify(
        &timed,
        &SafetyProperty::new("g before d").forbid_marked_states(),
        &VerifyOptions::default(),
    );
    assert!(verdict.is_verified(), "intro example: {verdict}");
    assert!(verdict.report().refinements >= 1);
}

#[test]
fn intro_example_matches_zone_based_ground_truth() {
    let timed = ipcmos::intro_example();
    let report = explore_timed(&timed).report().cloned().unwrap();
    assert!(report.violating_states.is_empty());
}

#[test]
fn one_stage_pipeline_zone_exploration_needs_the_lu_abstraction() {
    // The *exact* zone-based exploration of the transistor-level stage
    // between its environments blows past a 3,000-configuration budget —
    // this is precisely the paper's motivation for relative timing and
    // abstraction. With the default LU-bounds extrapolation, active-clock
    // reduction and aLU coverage the same model completes at exactly 502
    // configurations with the same discrete verdict: no violating state (the
    // timed semantics does reach one genuinely deadlocked discrete state).
    // The count is deterministic, so it is pinned exactly: a rise means the
    // abstraction or the coverage relation got weaker; re-pin a fall
    // deliberately, with its reason.
    let pipeline = ipcmos::flat_pipeline(1).expect("pipeline builds");
    let exact = explore_timed_with(
        &pipeline,
        ZoneExplorationOptions {
            spec: ExploreSpec {
                limit: Some(3_000),
                exact: true,
                ..ExploreSpec::default()
            },
        },
    );
    assert!(
        matches!(exact, ZoneOutcome::LimitExceeded { explored, .. } if explored > 3_000),
        "exact exploration should exceed the budget, got {exact:?}"
    );

    let abstracted = explore_timed_with(
        &pipeline,
        ZoneExplorationOptions {
            spec: ExploreSpec {
                limit: Some(3_000),
                ..ExploreSpec::default()
            },
        },
    );
    match abstracted {
        ZoneOutcome::Completed(report) => {
            assert_eq!(report.configurations, 502);
            assert!(report.violating_states.is_empty());
            assert_eq!(report.deadlock_states.len(), 1);
            assert!(report.extrapolated_zones > 0);
            assert!(report.alu_subsumed <= report.subsumed_configurations);
        }
        other => panic!("abstracted exploration should complete, got {other:?}"),
    }
}

/// The shipped race model's source text and the witness trace `transyt
/// zones --trace` reports for it, under the default abstraction or, with
/// `exact`, the unabstracted oracle.
fn race_overlap_witness(exact: bool) -> (String, transyt_session::RenderedTrace) {
    use transyt_session::{Completion, Outcome, RunControl, Session, TaskSpec, ZoneWitness};

    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/models/race_overlap.tts"
    ))
    .expect("shipped model readable");
    let session = Session::new();
    let (cached, _) = session.add_model(&text).expect("shipped model parses");

    let spec = TaskSpec::zones(&cached.hash).exact(exact).with_trace(true);
    let Completion::Finished(result) = session.run_task(&spec, RunControl::default()) else {
        panic!("a one-shot run never detaches");
    };
    let outcome = result.outcome.as_ref().expect("zones run succeeds").clone();
    let Outcome::Zones(zones) = outcome else {
        panic!("zones task yields a zones outcome");
    };
    let Some(ZoneWitness { trace, .. }) = zones.witness else {
        panic!("race_overlap has a violating state; it must be found (exact={exact})");
    };
    (text, trace)
}

fn race_overlap_timed(text: &str) -> TimedTransitionSystem {
    transyt_session::format::Model::parse(text)
        .expect("model parses")
        .timed_system()
        .expect("model instantiates")
}

/// A witness trace found under the coarse aLU coverage of the default
/// abstraction replays step-by-step through the *exact* discrete semantics,
/// and its violating end state is confirmed by the exact zone exploration.
/// aLU prunes the search, not the evidence.
#[test]
fn alu_witness_trace_replays_through_exact_semantics() {
    let (text, trace) = race_overlap_witness(false);
    let timed = race_overlap_timed(&text);
    let end = transyt_session::replay_rendered(&trace, timed.underlying())
        .expect("aLU witness must replay through the exact semantics");
    assert_eq!(end, trace.end, "replay must land on the reported end state");

    let exact = explore_timed_with(
        &timed,
        ZoneExplorationOptions {
            spec: ExploreSpec {
                exact: true,
                ..ExploreSpec::default()
            },
        },
    );
    let ZoneOutcome::Completed(report) = exact else {
        panic!("exact exploration of the race completes");
    };
    let violating: Vec<&str> = report
        .violating_states
        .iter()
        .map(|&s| timed.underlying().state_name(s))
        .collect();
    assert!(
        violating.contains(&trace.end.as_str()),
        "aLU witness end state {} must be among the exact violating states {violating:?}",
        trace.end
    );
}

/// The witness the default abstraction reports is byte-identical to the one
/// the `exact` oracle reports, and the oracle's own witness replays through
/// the exact discrete semantics too — the abstraction must not change which
/// witness the deterministic search reports.
#[test]
fn default_and_exact_report_the_same_witness() {
    let (text, exact) = race_overlap_witness(true);
    let (_, default) = race_overlap_witness(false);
    assert_eq!(
        default, exact,
        "the abstraction changed the reported witness"
    );

    let timed = race_overlap_timed(&text);
    let end = transyt_session::replay_rendered(&exact, timed.underlying())
        .expect("the exact witness must replay through the exact semantics");
    assert_eq!(end, exact.end, "replay must land on the reported end state");
}
