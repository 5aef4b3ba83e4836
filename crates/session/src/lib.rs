//! `transyt-session` — the embeddable library API of the TRANSYT
//! reproduction: [`Session`] / [`TaskSpec`] / [`Outcome`].
//!
//! The paper's flow — expand, verify, extract a counterexample structure,
//! refine, re-verify — used to be reachable only through the CLI's
//! command functions (string options in, pre-rendered text out). This crate
//! is the stable programmatic surface underneath both front ends:
//!
//! * [`format`](mod@format) — the `.stg` / `.tts` textual model formats
//!   (parser and canonical printer; grammar in `docs/FILE_FORMATS.md`).
//! * [`Session`] — interns model texts by content hash
//!   ([`Session::add_model`]), keeps the [`MODEL_CACHE`] most recently used
//!   parsed, and runs [`TaskSpec`]s against them.
//! * [`TaskSpec`] — a typed task description (`verify` / `reach` / `zones`
//!   × exact / trace / limit / deadline) with one textual
//!   lowering ([`TaskSpec::parse`]) shared by the CLI's flags and the
//!   server's query strings, and a canonical [`TaskKey`] — the fingerprint
//!   of model hash + normalized options that identical submissions share.
//! * **Deduplicated batching** — [`Session::run_task`] serves submissions
//!   with equal keys from a single underlying run: concurrent duplicates
//!   *attach* to the in-flight run (sharing its progress stream and its
//!   [`TaskResult`]), recent duplicates hit a bounded memo.
//! * [`Outcome`] — structured results (verdict, reports, replayable
//!   traces), with the canonical text / JSON renderings in
//!   [`render`] — byte-identical to the one-shot CLI's output and to what
//!   `transyt serve` serves. Documents are [`json::Value`] trees.
//! * [`ProgressEvent`]s — configurations explored, levels, refinement
//!   iterations, cancellation — stream through a [`ProgressSink`] callback
//!   passed down into the exploration driver's loop.
//! * Deadlines — [`TaskSpec::deadline`] is carried by the run's
//!   [`CancelToken`], derived from the caller's token: the first check of
//!   the token after the deadline stops the run, records
//!   [`StopReason::Deadline`] and surfaces the partial result as
//!   [`Outcome::TimedOut`]. No thread is spawned for it.
//! * Resource budgets — [`TaskSpec::max_configs`] / `max_zone_bytes` arm a
//!   [`BudgetMeter`] checked inside the exploration driver's loop; a
//!   breach aborts at a deterministic configuration count, is recorded on
//!   the run's token as [`StopReason::Budget`] and surfaces as
//!   [`Outcome::BudgetExceeded`]. Neither a deadline nor a breach fires
//!   the caller's own token.
//!
//! See `docs/API.md` for a guided tour and `examples/embed_session.rs` for
//! a complete embedding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod json;
mod outcome;
mod persist;
pub mod render;
mod run;
mod session;
mod task;

pub use explore::{
    BudgetBreach, BudgetMeter, BudgetResource, CancelToken, ExploreSpec, ProgressEvent,
    ProgressSink, StopReason,
};
pub use outcome::{
    replay_rendered, trace_of_verdict, BudgetExceededOutcome, Outcome, ReachGoalOutcome,
    ReachOutcome, ReachPath, RenderedTrace, RestoredOutcome, TimedOutOutcome, TraceStep,
    VerifyOutcome, ZoneWitness, ZonesOutcome,
};
pub use persist::{StoreHook, StoredResult};
pub use session::{
    content_hash, CachedModel, Completion, ModelInfo, RunControl, Session, SessionError,
    SessionStats, TaskResult, MODEL_CACHE,
};
pub use task::{
    SpecError, TaskCommand, TaskKey, TaskSpec, REACH_DEFAULT_LIMIT, ZONES_DEFAULT_LIMIT,
};
