//! Explicit-state transition systems and timed transition systems.
//!
//! This crate provides the base modelling layer used throughout the IPCMOS
//! verification case study (Peña et al., DATE 2002):
//!
//! * [`TransitionSystem`] — the *underlying* (untimed) transition system
//!   `⟨S, Σ, T, s_in⟩` of §2.1, with violation marks on states, input/output
//!   event roles and reachability queries.
//! * [`TimedTransitionSystem`] — a transition system whose events carry delay
//!   intervals `[δl, δu]` ([`DelayInterval`]).
//! * [`EnablingTrace`] — traces with enabling information `E_1 →e_1 E_2 …`,
//!   the raw material for causal-event-structure extraction.
//! * [`compose`]/[`compose_timed`] — CSP-style parallel composition used to
//!   close circuits with their environments and abstractions.
//! * [`IdMap`] — a hash map for the integer keys the model builders
//!   generate themselves (packed state pairs, packed valuations).
//!
//! The relative-timing verification engine itself lives in the `transyt`
//! crate; the max-separation timing analysis in `ces`; circuit- and
//! STG-level front ends in `cmos-circuit`, `stg` and `ipcmos`.
//!
//! # Example
//!
//! ```
//! use tts::{compose, DelayInterval, Time, TimedTransitionSystem, TsBuilder};
//!
//! // A producer that issues `req` and waits for `ack`.
//! let mut b = TsBuilder::new("producer");
//! let idle = b.add_state("idle");
//! let wait = b.add_state("wait");
//! b.add_transition(idle, "req", wait);
//! b.add_transition(wait, "ack", idle);
//! b.set_initial(idle);
//! b.declare_output("req");
//! b.declare_input("ack");
//! let producer = b.build()?;
//!
//! // Attach a delay to `req` and inspect the timed system.
//! let mut timed = TimedTransitionSystem::new(producer.clone());
//! timed.set_delay_by_name("req", DelayInterval::new(Time::new(1), Time::new(2))?);
//! assert_eq!(timed.delay_by_name("req").lower(), Time::new(1));
//!
//! // Compose with a mirrored consumer: the closed system has two states.
//! let consumer = producer.rename_events(|n| n.to_owned()).with_name("consumer");
//! let closed = compose(&producer, &consumer)?;
//! assert_eq!(closed.state_count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod event;
mod hash;
mod time;
mod timed;
mod trace;
mod ts;

pub use compose::{
    compose, compose_all, compose_timed, compose_timed_all, compose_with, ComposeError,
    ComposeOptions,
};
pub use event::{Alphabet, EventId, Polarity, SignalEdge};
pub use hash::{IdHasher, IdMap};
pub use time::{Bound, DelayInterval, InvalidIntervalError, Time};
pub use timed::{IncompatibleDelaysError, TimedTransitionSystem};
pub use trace::{EnablingTrace, InvalidRunError, TraceDisplay, TraceStep};
pub use ts::{BuildTsError, EventRole, StateId, TransitionSystem, TsBuilder};
