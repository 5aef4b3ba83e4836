//! Property test for the zone abstraction: LU-bounds extrapolation,
//! active-clock reduction and aLU coverage are *exact* abstractions — on
//! randomized delay-window perturbations of the shipped models, the default
//! exploration reports the same reachable / violating / deadlocked discrete
//! state sets as the unabstracted `exact` oracle, in no more configurations.

use std::path::PathBuf;

use dbm::{explore_timed_with, ExploreSpec, ZoneExplorationOptions, ZoneOutcome};
use proptest::prelude::*;
use transyt_cli::commands::cmd_task;
use transyt_cli::format::Model;
use transyt_session::{RunControl, TaskSpec};
use tts::{DelayInterval, Time};

/// Small shipped models (the larger pipelines would dominate the proptest
/// budget without exercising anything new).
const MODELS: &[&str] = &["race_overlap.tts", "intro_fig1.tts", "c_element.stg"];

fn model_text(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../models")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The shipped model with every delay window replaced by a random one
/// (`0 <= lower <= upper`, all finite, so the exact exploration terminates).
fn perturbed_model(file: &str, picks: &[(i64, i64)]) -> Model {
    let mut model = Model::parse(&model_text(file)).expect("shipped model parses");
    for (slot, (_, delay)) in model.delays.iter_mut().enumerate() {
        let (lower, width) = picks[slot % picks.len()];
        *delay = DelayInterval::new(Time::new(lower), Time::new(lower + width)).unwrap();
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn default_and_exact_report_identical_discrete_semantics(
        picks in proptest::collection::vec((0i64..6, 0i64..6), 1..8),
    ) {
        for file in MODELS {
            let model = perturbed_model(file, &picks);
            let timed = model.timed_system().expect("shipped model instantiates");
            let run = |exact| explore_timed_with(
                &timed,
                ZoneExplorationOptions {
                    spec: ExploreSpec {
                        exact,
                        limit: Some(100_000),
                        ..ExploreSpec::default()
                    },
                },
            );
            let ZoneOutcome::Completed(exact) = run(true) else {
                panic!("{file}: exact exploration must terminate on bounded delays");
            };
            let ZoneOutcome::Completed(report) = run(false) else {
                panic!("{file}: abstracted exploration aborted");
            };
            // The abstraction may merge zones (fewer configurations) but
            // must not change what is discretely reachable — the verdicts
            // of `transyt zones` are derived from these sets.
            prop_assert_eq!(&report.reachable_states, &exact.reachable_states);
            prop_assert_eq!(&report.violating_states, &exact.violating_states);
            prop_assert_eq!(&report.deadlock_states, &exact.deadlock_states);
            prop_assert!(
                report.configurations <= exact.configurations,
                "{file}: the abstraction explored more configurations than exact"
            );
            // The exact oracle attributes no skip to aLU.
            prop_assert_eq!(exact.alu_subsumed, 0);
            // The full `transyt zones` rendering (text and JSON document) is
            // byte-identical on two runs.
            let render = || {
                let result = cmd_task(&model, TaskSpec::zones(""), RunControl::default())
                    .expect("zones run succeeds");
                (result.text, transyt_session::render::render_document(&result.json))
            };
            let (first, second) = (render(), render());
            prop_assert!(first == second, "{file}: rendered output differs between runs");
        }
    }
}
