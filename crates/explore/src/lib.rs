//! Generic breadth-first exploration with deduplication and subsumption.
//!
//! Every verification path in this workspace is, at its core, the same loop:
//! keep a frontier of configurations, expand each configuration into
//! successors, and deduplicate against everything seen so far. The zone-graph
//! explorer (`dbm`) and the untimed failure search of the relative-timing
//! engine (`transyt`) run on this crate's engine. (The STG marking search in
//! `stg` is a packed loop of its own over bit-vector markings; it takes the
//! same [`ExploreSpec`] and honours its controls at the same points.)
//!
//! * [`SearchSpace`] — the problem description: initial configurations,
//!   successor expansion, a dedup key, and (optionally) a *subsumption*
//!   relation under which a configuration needs no exploration because an
//!   already-stored one covers it (e.g. zone inclusion in the DBM explorer).
//!   A subsumption space may also declare a 64-bit
//!   [coverage signature](SearchSpace::coverage_signature) that any cover
//!   must contain: each bucket of the seen map keeps its signatures in one
//!   contiguous vector and asks [`subsumes`](SearchSpace::subsumes) only
//!   where the mask test passes, so a sound signature saves the checks
//!   that would fail and changes no report.
//! * [`explore`] — the driver: a plain FIFO breadth-first search run under
//!   an [`ExploreSpec`]. It returns one [`ExploreReport`] however the search
//!   ends: the expanded configurations in breadth-first order, the counters
//!   and, when the search stopped early, why ([`Stop`]: the space halted it
//!   at the last node, the limit was exceeded, or the token stopped it).
//!   It stores no edges, only, for a space that
//!   [records parents](SearchSpace::records_parents), the link that
//!   discovered each node, from which [`ExploreReport::path_to`] rebuilds
//!   breadth-first witness paths.
//! * [`CancelToken`] — cooperative cancellation and the one record of why
//!   a run stopped: the driver checks it once per 32 frontier entries, so
//!   a long-running exploration stops without running to its limit. It
//!   stops on [`cancel`](CancelToken::cancel), at an optional deadline, or
//!   on a budget breach, and keeps the first [`StopReason`]. A stopped
//!   search reports [`Stop::Cancelled`] with the nodes and counters of the
//!   explored prefix.
//! * [`ProgressSink`] — progress reporting: a callback the driver feeds with
//!   [`ProgressEvent`]s (32 more expansions, level finished, search
//!   cancelled), so long-running explorations can stream "configs explored"
//!   counters to a UI or a server job table without perturbing the result.
//!   The default sink is inert and costs nothing.
//! * [`BudgetMeter`] — per-exploration resource budgets: configuration and
//!   zone-memory ceilings checked by the driver at the same point as its
//!   size limits, so a breached budget stops the search at a fixed
//!   configuration count, with [`StopReason::Budget`] on its token. The
//!   default meter is inert and costs nothing.
//! * [`ExploreSpec`] — the options of every search (exact / limit /
//!   cancel / progress / budget): [`explore`] and the `stg` marking search
//!   take it, and the per-domain options structs
//!   (`ZoneExplorationOptions`, `VerifyOptions`) embed it instead of
//!   re-declaring the same fields.
//!
//! # Determinism
//!
//! Expansion ([`SearchSpace::expand`]) must be a pure function of the
//! configuration. The driver is one sequential loop: it walks each level in
//! frontier order and performs deduplication, subsumption pruning,
//! counting, limit and budget checks, parent links and progress events in
//! that one order. The seen map is never iterated, so its hash order cannot
//! leak into a report, and two runs of the same search return identical
//! reports and stream identical events.
//!
//! # Example
//!
//! ```
//! use explore::{explore, ExploreSpec, SearchSpace};
//!
//! /// Collatz-style reachability over `u64` values below a cap.
//! struct Collatz {
//!     cap: u64,
//! }
//!
//! impl SearchSpace for Collatz {
//!     type Config = u64;
//!     type Key = u64;
//!     type Edge = ();
//!     type Error = std::convert::Infallible;
//!
//!     fn initial(&self) -> Result<Vec<u64>, Self::Error> {
//!         Ok(vec![1])
//!     }
//!
//!     fn key(&self, config: &u64) -> u64 {
//!         *config
//!     }
//!
//!     fn expand(&self, config: &u64) -> Result<Vec<((), u64)>, Self::Error> {
//!         let mut next = vec![((), config * 2)];
//!         if config % 6 == 4 {
//!             next.push(((), (config - 1) / 3));
//!         }
//!         next.retain(|&(_, v)| v <= self.cap);
//!         Ok(next)
//!     }
//! }
//!
//! let report = explore(&Collatz { cap: 64 }, &ExploreSpec::default()).unwrap();
//! // The frontier drained: nothing stopped the search early.
//! assert_eq!(report.stopped, None);
//! assert!(report.nodes.contains(&64));
//! // A second run returns the identical report.
//! let again = explore(&Collatz { cap: 64 }, &ExploreSpec::default()).unwrap();
//! assert_eq!(again, report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cancel;
mod driver;
mod progress;
mod seen;
mod space;
mod spec;

pub use budget::{BudgetBreach, BudgetMeter, BudgetResource};
pub use cancel::{CancelToken, StopReason};
pub use driver::{explore, ExploreReport, Stop};
pub use progress::{ProgressEvent, ProgressSink};
pub use space::SearchSpace;
pub use spec::ExploreSpec;
