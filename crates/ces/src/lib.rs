//! Causal event structures, max-separation timing analysis and
//! relative-timing constraints.
//!
//! This crate implements the timing side of the relative-timing verification
//! methodology used in the IPCMOS case study (Peña et al., DATE 2002):
//!
//! * [`Ces`] — causal event structures: acyclic AND-causality graphs over
//!   event occurrences with per-occurrence delay intervals.
//! * [`extract_ces`] — extraction of a CES from a failure trace with enabling
//!   information (§2.1 of the paper), including the occurrences still pending
//!   at the failure point.
//! * [`SeparationAnalysis`] — exact maximum-separation analysis
//!   (`max(t(a) − t(b))`) in the style of McMillan & Dill, used to discover
//!   event orderings implied by the absolute delay bounds.
//! * [`RelativeTimingConstraint`] — the constraints derived from negative
//!   separations; these are both the pruning rules of the refinement loop and
//!   the back-annotation reported to the designer.
//!
//! Whether a failure trace is timing consistent in the first place is not
//! decided here: the `transyt` engine replays the trace through the zone
//! kernel of the `dbm` crate (`dbm::path_firing_windows`), and only an
//! inconsistent trace reaches this crate's analyses.
//!
//! # Example
//!
//! ```
//! use ces::{CesBuilder, Occurrence, RelativeTimingConstraint, SeparationAnalysis};
//! use tts::{DelayInterval, EventId, Time};
//!
//! // Fig. 13(b)-style situation: ACK+ responds in [8,11] to an input, while
//! // Z+ follows the same input within [1,2]; therefore Z+ always precedes
//! // ACK+ and the short-circuit at node Y cannot happen.
//! let input = EventId::from_index(0);
//! let z_plus = EventId::from_index(1);
//! let ack_plus = EventId::from_index(2);
//! let mut builder = CesBuilder::new();
//! let n_in = builder.add_node(
//!     Occurrence::first(input),
//!     "VALID-",
//!     DelayInterval::new(Time::new(0), Time::new(0))?,
//! );
//! let n_z = builder.add_node(
//!     Occurrence::first(z_plus),
//!     "Z+",
//!     DelayInterval::new(Time::new(1), Time::new(2))?,
//! );
//! let n_ack = builder.add_node(
//!     Occurrence::first(ack_plus),
//!     "ACK+",
//!     DelayInterval::new(Time::new(8), Time::new(11))?,
//! );
//! builder.add_causal_arc(n_in, n_z);
//! builder.add_causal_arc(n_in, n_ack);
//! let ces = builder.build()?;
//!
//! let analysis = SeparationAnalysis::new(&ces);
//! let sep = analysis.max_separation(n_z, n_ack);
//! let constraint =
//!     RelativeTimingConstraint::from_separation(z_plus, "Z+", ack_plus, "ACK+", sep)
//!         .expect("Z+ always precedes ACK+");
//! assert_eq!(constraint.slack(), Some(Time::new(6)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraint;
mod extract;
mod separation;
mod structure;

pub use constraint::{Justification, RelativeTimingConstraint};
pub use extract::{extract_ces, ExtractedCes};
pub use separation::{
    brute_force_max_separation, Separation, SeparationAnalysis, SeparationOptions,
};
pub use structure::{BuildCesError, Ces, CesBuilder, NodeId, Occurrence};
