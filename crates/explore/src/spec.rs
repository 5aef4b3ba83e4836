//! The options of every search.
//!
//! The driver ([`explore`](crate::explore)) and the `stg` marking search
//! take an [`ExploreSpec`]; the options structs that add domain fields —
//! `dbm::ZoneExplorationOptions`, `transyt::VerifyOptions` — embed one.
//! The session layer's `TaskSpec` lowers to it in exactly one place, so
//! adding the next knob is a one-struct change.

use crate::budget::BudgetMeter;
use crate::cancel::CancelToken;
use crate::progress::ProgressSink;

/// The exploration knobs shared by every search in the workspace.
///
/// Taken by [`explore`](crate::explore) and the `stg` expansion functions,
/// embedded by `dbm::ZoneExplorationOptions` and `transyt::VerifyOptions`
/// (each of which only adds its domain-specific fields on top), lowered
/// from the session layer's `TaskSpec` in one place, and parsed from CLI
/// flags and server query strings through one table.
///
/// # Examples
///
/// ```
/// use explore::ExploreSpec;
///
/// let spec = ExploreSpec {
///     limit: Some(10_000),
///     ..ExploreSpec::default()
/// };
/// assert!(!spec.exact);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreSpec {
    /// Explore without abstraction (timed explorations only): exact zones
    /// and exact-duplicate deduplication instead of the default LU
    /// extrapolation and aLU coverage. The unabstracted oracle; it may not
    /// terminate on cyclic systems with unbounded clock drift.
    pub exact: bool,
    /// Exploration size limit (configurations, markings, …); `None` lets
    /// each consumer apply its own default (the driver's is no limit).
    pub limit: Option<usize>,
    /// Cooperative cancellation and the record of why the run stopped: a
    /// search whose token has stopped ends at its next check, and a search
    /// that finds a budget breached records it here. The default token is
    /// inert.
    pub cancel: CancelToken,
    /// Progress reporting: fed with events from the search loop. The
    /// default sink is inert.
    pub progress: ProgressSink,
    /// Per-exploration resource budgets (configurations, zone bytes),
    /// checked by the searches after every expansion. The default meter is
    /// inert.
    pub budget: BudgetMeter,
}

impl ExploreSpec {
    /// The size limit the consumer should enforce: the explicit limit, or
    /// `default` when none was set.
    pub fn limit_or(&self, default: usize) -> usize {
        self.limit.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_and_limit_resolution() {
        let spec = ExploreSpec::default();
        assert!(!spec.exact);
        assert_eq!(spec.limit, None);
        assert_eq!(spec.limit_or(42), 42);
        let limited = ExploreSpec {
            limit: Some(7),
            ..ExploreSpec::default()
        };
        assert_eq!(limited.limit_or(42), 7);
    }
}
