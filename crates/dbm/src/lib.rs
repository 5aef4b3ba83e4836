//! Difference bound matrices and zone-based timed reachability.
//!
//! This crate is the *conventional* timed-verification baseline of the IPCMOS
//! case study: an exact, zone-based exploration of the timed state space in
//! the style of timed-automata model checkers. The paper's argument is that
//! this approach does not scale to transistor-level pipelines — the exact
//! exploration of even the flat 1-stage pipeline overruns a
//! 3,000-configuration budget (`tests/engine_vs_zones.rs`) — while
//! on small models it provides ground truth against which the relative-timing
//! engine (`transyt` crate) is cross-checked.
//!
//! * [`Entry`] — DBM bound entries (`< c`, `≤ c`, `∞`).
//! * [`Dbm`] — canonical difference bound matrices with the standard zone
//!   operations (`up`, `reset`, `constrain`, `gather`, inclusion,
//!   intersection), time elapse under an invariant in one pass (`elapse`),
//!   and the aLU coverage check with the signature that filters it.
//! * [`explore_timed`] — symbolic reachability of a
//!   [`tts::TimedTransitionSystem`] with one clock per event, each zone
//!   stored over its state's live clocks only and abstracted by default
//!   with per-state LU-bounds extrapolation and aLU coverage (every clock
//!   kept and nothing abstracted with [`ExploreSpec::exact`]), and a
//!   buffer-reusing [`DbmArena`] behind the zone interner.
//! * [`find_witness`] — the same exploration with parent links recorded,
//!   from which the symbolic trace to the first goal state is read.
//! * [`path_firing_windows`] — the kernel's replay of one discrete run with
//!   a never-reset absolute clock: `None` when the run is not timed-feasible
//!   (the relative-timing engine's consistency test), otherwise the window
//!   in which each step can fire (what every rendered trace prints).
//!
//! # Example
//!
//! ```
//! use dbm::Dbm;
//!
//! // Start from the zero zone, let time pass, and bound clock 1 by 10.
//! let mut zone = Dbm::zero(2);
//! zone.up();
//! zone.constrain_upper(1, 10);
//! zone.canonicalize();
//! assert!(!zone.is_empty());
//! // Clock 2 advanced in lock-step, so it is also bounded by 10.
//! assert_eq!(zone.upper_bound(2), Some(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod entry;
mod matrix;
mod zone_graph;

pub use arena::{ArenaStats, DbmArena};
pub use entry::Entry;
pub use explore::ExploreSpec;
pub use matrix::Dbm;
pub use zone_graph::{
    explore_timed, explore_timed_with, find_witness, path_firing_windows, FiringWindow,
    SymbolicTrace, WitnessGoal, ZoneExplorationOptions, ZoneOutcome, ZoneReport,
    DEFAULT_CONFIGURATION_LIMIT,
};
