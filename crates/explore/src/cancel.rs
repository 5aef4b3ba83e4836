//! Cooperative cancellation of in-flight explorations.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared flag that asks an in-flight exploration to stop.
///
/// Tokens are cheap to clone (all clones share one flag) and are checked by
/// the driver once per 32 frontier entries, so a cancelled search stops
/// within 32 expansions rather than running to its limit. The default token is
/// *inert*: it can never be cancelled and costs nothing to check, so callers
/// that do not need cancellation pay nothing.
///
/// # Examples
///
/// ```
/// use explore::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
///
/// // The inert token can never fire.
/// let inert = CancelToken::default();
/// inert.cancel();
/// assert!(!inert.is_cancelled());
/// ```
#[derive(Clone, Default)]
pub struct CancelToken(Option<Arc<AtomicBool>>);

impl CancelToken {
    /// Creates a live token that [`cancel`](Self::cancel) can fire.
    pub fn new() -> Self {
        CancelToken(Some(Arc::new(AtomicBool::new(false))))
    }

    /// Asks every exploration holding a clone of this token to stop. No-op
    /// on the inert default token.
    pub fn cancel(&self) {
        if let Some(flag) = &self.0 {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Returns `true` once [`cancel`](Self::cancel) has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Returns `true` for the inert default token, which
    /// [`cancel`](Self::cancel) cannot fire. Callers that need a token that
    /// *can* fire (e.g. a deadline watchdog) must replace an inert one with
    /// [`CancelToken::new`].
    pub fn is_inert(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "CancelToken(inert)"),
            Some(_) => write!(f, "CancelToken(cancelled: {})", self.is_cancelled()),
        }
    }
}

/// Tokens compare by identity: two tokens are equal when cancelling one
/// observably cancels the other (same shared flag, or both inert). This keeps
/// option structs embedding a token comparable without pretending distinct
/// flags with equal states are interchangeable.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for CancelToken {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert_eq!(token, clone);
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn distinct_live_tokens_are_unequal() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_ne!(a, b);
        assert_eq!(CancelToken::default(), CancelToken::default());
        assert_ne!(a, CancelToken::default());
    }
}
