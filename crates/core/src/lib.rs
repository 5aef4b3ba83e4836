//! `transyt` — relative-timing verification of timed circuits.
//!
//! This crate re-implements the verification methodology used in the IPCMOS
//! case study (Peña, Cortadella, Pastor, Smirnov — DATE 2002; Peña et al.
//! ASYNC 2000), combining three techniques:
//!
//! 1. **Relative-timing verification** ([`verify`]): iterative refinement of
//!    the untimed state space with relative-timing constraints derived by
//!    max-separation analysis on causal event structures extracted from
//!    failure traces. Whether a failure trace is timing consistent is
//!    decided by replaying it through the zone kernel of the `dbm` crate.
//!    The result is either a timing-consistent counterexample or a proof
//!    together with the back-annotated constraints (the delay slacks under
//!    which the circuit stays correct).
//! 2. **Assume–guarantee reasoning with abstractions**
//!    ([`check_refinement`], [`ProofReport`]): language-containment checks of
//!    implementations against untimed abstractions (the `⋄` observer of the
//!    paper's Fig. 9), so that a pipeline of any length can be verified
//!    without building its global state space.
//! 3. **Induction / behavioural fixed points**: the fixed-point obligation
//!    `A_in ∥ I ⊑ A_in` is just another refinement check, recorded as a step
//!    of a [`ProofReport`].
//!
//! The IPCMOS-specific models (stage netlist, environments, abstractions,
//! specification) live in the `ipcmos` crate; this crate is
//! circuit-agnostic.
//!
//! # Example
//!
//! ```
//! use transyt::{verify, SafetyProperty, VerifyOptions};
//! use tts::{DelayInterval, Time, TimedTransitionSystem, TsBuilder};
//!
//! // A two-event race whose bad interleaving is only excluded by timing.
//! let mut b = TsBuilder::new("race");
//! let s0 = b.add_state("s0");
//! let ok = b.add_state("ok");
//! let bad = b.add_state("bad");
//! let fast = b.add_transition(s0, "fast", ok);
//! let slow = b.add_transition(s0, "slow", bad);
//! # let _ = (fast, slow);
//! b.mark_violation(bad, "slow overtook fast");
//! b.set_initial(s0);
//! let mut timed = TimedTransitionSystem::new(b.build()?);
//! timed.set_delay_by_name("fast", DelayInterval::new(Time::new(1), Time::new(2))?);
//! timed.set_delay_by_name("slow", DelayInterval::new(Time::new(5), Time::new(9))?);
//!
//! let verdict = verify(
//!     &timed,
//!     &SafetyProperty::new("ordering").forbid_marked_states(),
//!     &VerifyOptions::default(),
//! );
//! assert!(verdict.is_verified());
//! println!("{}", verdict.report().constraint_listing());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assume_guarantee;
mod contain;
mod engine;
mod property;

pub use assume_guarantee::{ProofReport, ProofStep};
pub use contain::{
    build_containment_monitor, check_refinement, ContainError, RefinementObligation,
};
pub use engine::{
    verify, Counterexample, FailureKind, FailureTrace, FailureTraceDisplay, Verdict,
    VerificationReport, VerifyOptions,
};
pub use property::SafetyProperty;

// Re-export the constraint type users receive in reports.
pub use ces::{Justification, RelativeTimingConstraint};

// Re-export the exploration spec [`VerifyOptions`] embeds (as do `dbm`'s
// options, and `stg`'s expansion functions take) and its cancellation
// token, so front ends can cancel long-running verifications without
// depending on the `explore` crate directly.
pub use explore::{CancelToken, ExploreSpec};
