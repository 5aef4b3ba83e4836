//! `transyt-cli` — the command-line front end of the TRANSYT reproduction.
//!
//! The paper's tool flow is a *tool*: circuits and environments go in as
//! models, and a failed check comes back as a timed error trace the designer
//! can read (the waveform-style diagnostics of Fig. 7/13). This crate is
//! that front door for the workspace:
//!
//! * [`format`](mod@format) — the `.stg` / `.tts` textual model formats
//!   (hand-rolled parser and canonical printer; grammar in
//!   `docs/FILE_FORMATS.md`), re-exported from `transyt-session`, so new
//!   circuits and environments can be fed in without writing Rust.
//! * [`commands`] — the subcommands of the `transyt` binary, a thin
//!   rendering layer over [`transyt_session::Session`]: `verify`
//!   (relative-timing engine with counterexample/witness traces), `reach`
//!   (STG reachability with marking-path witnesses) and `zones` (the
//!   conventional zone-based exploration with symbolic timed traces) all run
//!   through [`cmd_task`](commands::cmd_task), which takes the model, a `TaskSpec` and a
//!   `RunControl`; `table1` (the paper's Table 1 reproduction) and `export`
//!   (the shipped scenario library) complete the set. Flags lower into the
//!   `TaskSpec` through the same `TaskSpec::parse` the server's query
//!   strings lower through.
//! * [`scenarios`] — the builders behind the `models/` directory: the 1–3
//!   stage IPCMOS pipelines at pulse level, a C-element handshake, a ring
//!   pipeline, the Fig. 1 introductory example and a failing race.
//!
//! Every trace the binary prints is replayable: integration tests walk the
//! printed steps through the model, step by step, to the reported end
//! state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub use transyt_session::format;
pub mod remote;
pub mod scenarios;
pub mod store_admin;
