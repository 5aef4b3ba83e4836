//! Cooperative cancellation of in-flight explorations, and the record of
//! why a run stopped.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::budget::BudgetBreach;

/// Why a run stopped: the first reason its [`CancelToken`] recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`CancelToken::cancel`] was called, on the token or on the token it
    /// was derived from.
    Cancelled,
    /// The token's deadline passed.
    Deadline,
    /// A search found a resource budget breached.
    Budget(BudgetBreach),
}

struct TokenState {
    reason: OnceLock<StopReason>,
    deadline: Option<Instant>,
    /// Inert for a root token.
    parent: CancelToken,
}

/// A shared token that asks an in-flight exploration to stop, and records
/// why it stopped.
///
/// Tokens are cheap to clone (all clones share one state) and are checked
/// by the searches once per 32 frontier entries, so a stopped search ends
/// within 32 expansions rather than running to its limit. The first
/// [`StopReason`] sticks: [`cancel`](Self::cancel), a deadline seen passed
/// by a check, or a budget breach a search records with
/// [`stop`](Self::stop). The default token is *inert*: it never stops and
/// costs one branch to check.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use explore::{CancelToken, StopReason};
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// token.cancel();
/// assert_eq!(watcher.reason(), Some(StopReason::Cancelled));
///
/// // A run token whose deadline has passed stops at its first check; the
/// // caller's token is left alone.
/// let caller = CancelToken::new();
/// let run = caller.child(Some(Duration::ZERO));
/// assert!(run.is_cancelled());
/// assert_eq!(run.reason(), Some(StopReason::Deadline));
/// assert!(!caller.is_cancelled());
///
/// let inert = CancelToken::default();
/// inert.cancel();
/// assert!(!inert.is_cancelled());
/// ```
#[derive(Clone, Default)]
pub struct CancelToken(Option<Arc<TokenState>>);

impl CancelToken {
    /// Creates a live token that [`cancel`](Self::cancel) can fire.
    pub fn new() -> Self {
        CancelToken::default().child(None)
    }

    /// Derives a live token for one run: it also stops (as
    /// [`StopReason::Cancelled`]) when this token fires, and once `deadline`
    /// has elapsed from now. Nothing recorded on it reaches this token.
    pub fn child(&self, deadline: Option<Duration>) -> Self {
        CancelToken(Some(Arc::new(TokenState {
            reason: OnceLock::new(),
            deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
            parent: self.clone(),
        })))
    }

    /// Stops the token as [`StopReason::Cancelled`].
    pub fn cancel(&self) {
        self.stop(StopReason::Cancelled);
    }

    /// Stops the token for `reason` unless it already stopped. No-op on the
    /// inert token.
    pub fn stop(&self, reason: StopReason) {
        if let Some(state) = &self.0 {
            let _ = state.reason.set(reason);
        }
    }

    /// Returns `true` once the token has stopped; records the reason when
    /// this check is the one that finds the parent fired or the deadline
    /// passed.
    pub fn is_cancelled(&self) -> bool {
        let Some(state) = &self.0 else {
            return false;
        };
        if state.reason.get().is_some() {
            return true;
        }
        if state.parent.is_cancelled() {
            self.stop(StopReason::Cancelled);
            return true;
        }
        if state.deadline.is_some_and(|at| Instant::now() >= at) {
            self.stop(StopReason::Deadline);
            return true;
        }
        false
    }

    /// The first reason recorded, if any (a deadline or parent no check
    /// has seen yet is none).
    pub fn reason(&self) -> Option<StopReason> {
        self.0
            .as_ref()
            .and_then(|state| state.reason.get().copied())
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "CancelToken(inert)"),
            Some(_) => write!(f, "CancelToken(stopped: {:?})", self.reason()),
        }
    }
}

/// Tokens compare by identity: two tokens are equal when cancelling one
/// observably cancels the other (same shared state, or both inert). This
/// keeps option structs embedding a token comparable without pretending
/// distinct tokens with equal states are interchangeable.
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
    use crate::budget::BudgetResource;

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

    #[test]
    fn first_reason_sticks() {
        let token = CancelToken::new();
        let breach = BudgetBreach {
            resource: BudgetResource::Configs,
            used: 4,
            limit: 3,
        };
        token.stop(StopReason::Budget(breach));
        token.cancel();
        token.stop(StopReason::Deadline);
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(StopReason::Budget(breach)));
    }

    #[test]
    fn a_child_stops_with_its_parent_but_never_fires_it() {
        let parent = CancelToken::new();
        let child = parent.child(None);
        assert_ne!(parent, child);
        assert!(!child.is_cancelled());
        child.stop(StopReason::Deadline);
        assert!(!parent.is_cancelled(), "a child's stop reached its parent");

        let child = parent.child(Some(Duration::from_secs(3600)));
        assert!(!child.is_cancelled());
        parent.cancel();
        // The fired parent is a reason only once a check has seen it.
        assert_eq!(child.reason(), None);
        assert!(child.is_cancelled());
        assert_eq!(child.reason(), Some(StopReason::Cancelled));

        // An inert parent is fine, and an unrepresentable deadline never
        // passes.
        let far = CancelToken::default().child(Some(Duration::MAX));
        assert!(!far.is_cancelled());
        assert_eq!(far.reason(), None);
    }
}
