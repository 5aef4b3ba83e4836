//! The persistence seam of a [`Session`](crate::Session): an embedder-owned
//! hook that sees every freshly interned model, and is consulted — after
//! the in-memory memo misses — before a task is executed.
//!
//! The session does not know about files; `transyt-store` implements this
//! trait over its content-addressed data dir, which is what makes duplicate
//! submissions dedupe **across server restarts**: the on-disk results are
//! keyed by the same normalized [`TaskKey`] as the memo. The session writes
//! no results itself: the embedder saves the finished results it wants
//! served again (the server saves each `done` job's document before
//! journaling it).

use crate::task::TaskKey;

/// A result loaded back from a [`StoreHook`]: the two canonical renderings,
/// byte-identical to the [`TaskResult`](crate::TaskResult) fields they were
/// saved from. The structured [`Outcome`](crate::Outcome) is not persisted;
/// a store hit surfaces as [`Outcome::Restored`](crate::Outcome::Restored)
/// carrying these bytes verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredResult {
    /// The canonical human-readable text.
    pub text: String,
    /// The canonical JSON document bytes.
    pub document: String,
}

/// Callbacks a [`Session`](crate::Session) makes into a persistent store
/// (installed with [`Session::set_store_hook`](crate::Session::set_store_hook)).
///
/// Contract:
///
/// * `load_result` must only return the renderings of a completed run of
///   the **same** key (never a cancelled, timed-out or over-budget partial)
///   — the session trusts the bytes and serves them as a completed task.
/// * Implementations must not call back into the session: the session lock
///   is held around `load_result` (see
///   [`Session::run_task`](crate::Session::run_task)), and `save_model`
///   runs on the interning thread's hot path.
/// * Failures must be swallowed (log and return): persistence is best
///   effort and must never fail a verification run.
pub trait StoreHook: Send + Sync {
    /// Looks up a previously saved result for `key`. Called after the
    /// in-memory memo misses and before a run is scheduled.
    fn load_result(&self, key: &TaskKey) -> Option<StoredResult>;

    /// Persists a freshly interned model text under its content hash.
    fn save_model(&self, hash: &str, text: &str);
}
