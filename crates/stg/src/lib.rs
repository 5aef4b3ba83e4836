//! Signal transition graphs (STGs): Petri nets whose transitions are
//! interpreted as rising/falling signal edges.
//!
//! The IPCMOS case study uses STGs for everything that is *not* a transistor
//! netlist: the pulse-driven environments `IN` and `OUT` (Fig. 12 of the
//! paper), the untimed abstractions `A_in` and `A_out` (Fig. 10) and the
//! interface specification `S`. This crate provides:
//!
//! * [`Stg`]/[`StgBuilder`] — the net structure and token game,
//! * [`expand`] — reachability-graph generation into a
//!   [`tts::TransitionSystem`], with boundedness and signal-consistency
//!   checks.
//!
//! # Example
//!
//! ```
//! use stg::{expand, SignalRole, StgBuilder};
//!
//! // A two-phase handshake: REQ+ -> ACK+ -> REQ- -> ACK- -> (repeat).
//! let mut b = StgBuilder::new("handshake");
//! let req_up = b.add_transition("REQ+", SignalRole::Output);
//! let ack_up = b.add_transition("ACK+", SignalRole::Input);
//! let req_down = b.add_transition("REQ-", SignalRole::Output);
//! let ack_down = b.add_transition("ACK-", SignalRole::Input);
//! b.connect(req_up, ack_up, 0);
//! b.connect(ack_up, req_down, 0);
//! b.connect(req_down, ack_down, 0);
//! b.connect(ack_down, req_up, 1);
//! let ts = expand(&b.build()?)?;
//! assert_eq!(ts.state_count(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net;
mod reach;

pub use net::{BuildStgError, Marking, PlaceId, SignalRole, Stg, StgBuilder, TransitionId};
pub use reach::{
    expand, expand_with, expand_with_report, find_marking_path, signals, ExpandError, MarkingPath,
    ReachReport, DEFAULT_MARKING_LIMIT,
};

// Re-export the options the expansion functions take, so callers can
// configure expansions without naming the `explore` crate.
pub use explore::{CancelToken, ExploreSpec};
