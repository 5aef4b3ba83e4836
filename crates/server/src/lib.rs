//! `transyt-server` — the long-running verification server behind `transyt
//! serve`.
//!
//! The one-shot CLI parses a model, runs one task and exits; this crate
//! turns the shared [`transyt_session::Session`] into a service: clients
//! upload textual `.stg` / `.tts` models once (parsed and validated on
//! upload, interned by content hash), submit `verify` / `reach` / `zones`
//! jobs with the same options the CLI takes, poll job status, cancel jobs
//! mid-flight, and fetch results — including replayable witness traces — as
//! JSON documents **byte-identical** to the CLI's `--json` output.
//!
//! The moving parts:
//!
//! * [`http`] — a hand-rolled, dependency-free HTTP/1.1 layer over
//!   [`std::net::TcpListener`]: one request per connection, JSON in and out.
//! * [`ServerState`] — the job table, a bounded FIFO queue (at most
//!   [`ServerConfig::queue_depth`] jobs wait; a further submission gets 429
//!   with a load-derived `Retry-After`) drained in arrival order by a pool
//!   of [`ServerConfig::workers`] threads, and the result store with LRU
//!   eviction past [`ServerConfig::keep_results`] documents; `GET /jobs`
//!   reports evicted ids. A job's state is a [`JobStatus`], the lifecycle
//!   `transyt-store` defines beside its journal: the job table, journal
//!   replay and compaction, and the worker's terminal record all hold that
//!   one value.
//! * [`events`] — per-job progress event logs: `GET /jobs/{id}/events`
//!   streams queue-position and exploration-progress events (a
//!   deterministic sequence) as server-sent events until the job reaches a
//!   terminal state.
//! * Resource budgets — `max-configs=` / `max-zone-bytes=` parameters bound
//!   a job's exploration; a breach surfaces as status `budget_exceeded`
//!   (with the `(resource, used, limit)` triple) and a 409-with-reason on
//!   the result endpoint.
//! * [`transyt_session::Session`] — models and runs. Query strings lower
//!   into [`transyt_session::TaskSpec`]s through the same
//!   `TaskSpec::parse` the CLI flags lower through, and jobs are scheduled
//!   by their canonical [`transyt_session::TaskKey`]: identical (model,
//!   options) submissions are **batched into one run** — a worker claiming
//!   a duplicate of an in-flight job attaches to that run and both jobs
//!   end up holding the *same* result document.
//! * Cancellation and deadlines — `POST /jobs/{id}/cancel` fires the job's
//!   [`CancelToken`], and nothing else does; a `timeout=SECS` parameter
//!   gives the run's own token a deadline, whose expiry surfaces as status
//!   `timed_out` and a 409-with-reason on the result endpoint.
//! * [`Server`] — the blocking accept loop, serving at most
//!   [`MAX_CONNECTIONS`] connections at once (`503` past that), and
//!   graceful shutdown: SIGTERM / ctrl-c (or `POST /shutdown`) stop the
//!   listener, cancel queued jobs, let running jobs finish and join the
//!   pool.
//! * [`client`] — a tiny blocking HTTP client for the `transyt submit` /
//!   `transyt status` modes and the integration tests.
//!
//! The HTTP API is documented in `docs/SERVER.md`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod events;
pub mod http;
mod server;
mod state;
mod sys;

pub use explore::CancelToken;
pub use server::{Server, ServerConfig, ServerHandle, MAX_CONNECTIONS};
pub use state::{
    content_hash, CachedModel, GateStats, JobStatus, JobView, ModelInfo, PersistenceInfo,
    ServerState, SubmitError,
};
