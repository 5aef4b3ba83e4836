//! The introductory example of Fig. 1/2 of the paper: the property "g always
//! fires before d" fails in the untimed state space and is proved by two
//! rounds of relative-timing refinement.
//!
//! Run with `cargo run --example intro_example`.

use transyt::{verify, SafetyProperty, VerifyOptions};

fn main() {
    let timed = ipcmos::intro_example();
    let untimed_violations = timed.underlying().marked_reachable_states().len();
    println!(
        "untimed state space: {} states, {} of them violate the property",
        timed.underlying().state_count(),
        untimed_violations
    );
    let verdict = verify(
        &timed,
        &SafetyProperty::new("g fires before d").forbid_marked_states(),
        &VerifyOptions::default(),
    );
    println!("relative-timing verification: {verdict}");
    println!("{}", verdict.report().constraint_listing());
    let ground_truth = dbm::explore_timed(&timed);
    if let Some(report) = ground_truth.report() {
        println!(
            "zone-based ground truth: {} timed-reachable states, {} violations",
            report.reachable_states.len(),
            report.violating_states.len()
        );
    }
}
