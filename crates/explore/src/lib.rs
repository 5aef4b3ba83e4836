//! Generic breadth-first exploration with deduplication, subsumption and
//! parallel expansion.
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
//! * [`explore`] — the driver. With [`ExploreOptions::threads`]` == 1` it is
//!   a plain FIFO breadth-first search, byte-for-byte equivalent to the
//!   loops it replaced. With more threads each breadth-first level is
//!   expanded speculatively in parallel and committed by a deterministic
//!   ordered merge, so **any thread count produces the identical result**.
//! * [`CancelToken`] — cooperative cancellation: a shared flag the driver
//!   checks once per merge batch, so a long-running exploration (e.g. a
//!   server-side verification job) can be stopped from outside without
//!   running to its limit. A cancelled search returns
//!   [`ExploreOutcome::Cancelled`] with the counters of the committed
//!   deterministic prefix.
//! * [`ProgressSink`] — progress reporting: a callback the driver feeds with
//!   [`ProgressEvent`]s (batch committed, level finished, search cancelled)
//!   from the deterministic merge, so long-running explorations can stream
//!   "configs explored" counters to a UI or a server job table without
//!   perturbing the result. The default sink is inert and costs nothing.
//! * [`TraceOptions`] — optional witness bookkeeping: with parent tracking
//!   on, the report records for every expanded configuration the node that
//!   first discovered it and the edge it was discovered through, and
//!   [`ExploreReport::path_to`] reconstructs the breadth-first discovery
//!   path to any node. Parents are recorded by the deterministic merge, so
//!   reconstructed traces are identical for every thread count; the
//!   counterexample traces of the `transyt` engine and the symbolic timed
//!   traces of `dbm` are built on this.
//! * [`BudgetMeter`] — per-exploration resource budgets: configuration and
//!   zone-memory ceilings checked by the driver at the same deterministic
//!   merge point as its size limits, so a breached budget cancels the search
//!   at the identical configuration count for every thread count. The
//!   default meter is inert and costs nothing.
//! * [`ExploreSpec`] — the shared options core (threads / exact / limit /
//!   cancel / progress / budget) that the per-domain options structs
//!   (`ZoneExplorationOptions`, `ExpandOptions`, `VerifyOptions`) embed
//!   instead of re-declaring the same fields.
//!
//! # Determinism
//!
//! Expansion ([`SearchSpace::expand`]) must be a pure function of the
//! configuration. The driver exploits this: worker threads only ever run
//! `expand` on a frozen frontier (claiming chunks of it from a shared atomic
//! cursor) while the `seen` map is read-only; all mutation — deduplication,
//! subsumption pruning, configuration counting, limit checks — happens in a
//! single-threaded merge that walks the level in frontier order. The merge
//! performs exactly the operations the sequential FIFO loop performs, in the
//! same order, so reports are identical for every `threads` value.
//!
//! Workers additionally *prefilter* successors against the seen map (sharded
//! `Mutex<HashMap>` so shards can be consulted independently) when edge
//! recording is off: a successor subsumed by a stored configuration can be
//! dropped early. Subsumption is transitive, and stored configurations are
//! only ever pruned by strictly larger ones, so a prefilter drop can never
//! change a merge decision — it only saves allocation and interning work.
//!
//! # Example
//!
//! ```
//! use explore::{explore, ExploreOptions, ExploreOutcome, SearchSpace};
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
//! let outcome = explore(&Collatz { cap: 64 }, &ExploreOptions::default()).unwrap();
//! let report = match outcome {
//!     ExploreOutcome::Completed(report) => report,
//!     _ => unreachable!(),
//! };
//! assert!(report.nodes.iter().any(|n| n.config == 64));
//! // The parallel driver returns the identical result.
//! let parallel = ExploreOptions {
//!     threads: 4,
//!     ..ExploreOptions::default()
//! };
//! let outcome2 = explore(&Collatz { cap: 64 }, &parallel).unwrap();
//! assert!(matches!(outcome2, ExploreOutcome::Completed(r) if r.nodes.len() == report.nodes.len()));
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
pub use cancel::CancelToken;
pub use driver::{
    explore, ExploreOptions, ExploreOutcome, ExploreReport, ExploredNode, TraceOptions,
};
pub use progress::{ProgressEvent, ProgressSink};
pub use space::SearchSpace;
pub use spec::ExploreSpec;
