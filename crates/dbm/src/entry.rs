//! Bound entries of a difference bound matrix.
//!
//! Each entry of a DBM is a constraint `x − y ≺ c` where `≺` is `<` or `≤`
//! and `c` is an integer or `∞`. Entries are encoded in a single `i64`
//! (`2·c + 1` for `≤ c`, `2·c` for `< c`, `i64::MAX` for `∞`) so that the
//! natural integer ordering coincides with constraint tightness and addition
//! is a couple of arithmetic operations.

use std::fmt;

/// A DBM entry: an upper bound on a clock difference, with strictness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entry(i64);

impl Entry {
    /// The unbounded entry (`< ∞`).
    pub const INFINITY: Entry = Entry(i64::MAX);

    /// The entry `≤ 0`, the diagonal value of a canonical non-empty DBM.
    pub const LE_ZERO: Entry = Entry(1);

    /// The entry `< 0`, used to mark empty zones.
    pub const LT_ZERO: Entry = Entry(0);

    /// Creates a non-strict bound `≤ value`.
    pub fn le(value: i64) -> Entry {
        Entry(value * 2 + 1)
    }

    /// Creates a strict bound `< value`.
    pub fn lt(value: i64) -> Entry {
        Entry(value * 2)
    }

    /// The encoded bound: consecutive bounds (`< c`, `≤ c`, `< c + 1`, …)
    /// are consecutive integers.
    pub(crate) fn raw(self) -> i64 {
        self.0
    }

    /// Returns `true` if this is the unbounded entry.
    pub fn is_infinite(self) -> bool {
        self == Entry::INFINITY
    }

    /// The numeric bound, or `None` if infinite.
    pub fn value(self) -> Option<i64> {
        if self.is_infinite() {
            None
        } else {
            Some(self.0 >> 1)
        }
    }

    /// Returns `true` if the bound is strict (`<`).
    ///
    /// The infinite bound is conventionally strict.
    pub fn is_strict(self) -> bool {
        self.is_infinite() || self.0 & 1 == 0
    }

    /// The tighter (smaller) of two bounds.
    #[must_use]
    pub fn min(self, other: Entry) -> Entry {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Negated bound used when checking satisfiability of the conjunction of
    /// `x − y ≺ c` with `y − x ≺' c'`: the pair is unsatisfiable iff
    /// `c + c' < 0` (strictness taken into account by entry addition against
    /// [`Entry::LE_ZERO`]).
    pub fn conflicts_with(self, other: Entry) -> bool {
        self + other < Entry::LE_ZERO
    }
}

impl std::ops::Add for Entry {
    type Output = Entry;

    /// Sum of two bounds (`∞` absorbs, strictness propagates).
    fn add(self, other: Entry) -> Entry {
        if self.is_infinite() || other.is_infinite() {
            return Entry::INFINITY;
        }
        let value = (self.0 >> 1) + (other.0 >> 1);
        let non_strict = (self.0 & 1 == 1) && (other.0 & 1 == 1);
        if non_strict {
            Entry::le(value)
        } else {
            Entry::lt(value)
        }
    }
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "<inf")
        } else if self.is_strict() {
            write!(f, "<{}", self.0 >> 1)
        } else {
            write!(f, "<={}", self.0 >> 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_reflects_tightness() {
        assert!(Entry::lt(5) < Entry::le(5));
        assert!(Entry::le(5) < Entry::lt(6));
        assert!(Entry::le(100) < Entry::INFINITY);
        assert_eq!(Entry::le(3).min(Entry::lt(3)), Entry::lt(3));
    }

    #[test]
    fn addition() {
        assert_eq!(Entry::le(2) + Entry::le(3), Entry::le(5));
        assert_eq!(Entry::le(2) + Entry::lt(3), Entry::lt(5));
        assert_eq!(Entry::lt(-1) + Entry::lt(1), Entry::lt(0));
        assert_eq!(Entry::le(2) + Entry::INFINITY, Entry::INFINITY);
    }

    #[test]
    fn accessors() {
        assert_eq!(Entry::le(4).value(), Some(4));
        assert_eq!(Entry::lt(-2).value(), Some(-2));
        assert_eq!(Entry::INFINITY.value(), None);
        assert!(Entry::lt(7).is_strict());
        assert!(!Entry::le(7).is_strict());
        assert!(Entry::INFINITY.is_strict());
    }

    #[test]
    fn conflict_detection() {
        // x - y <= 2 and y - x <= -3 is unsatisfiable (2 + -3 < 0).
        assert!(Entry::le(2).conflicts_with(Entry::le(-3)));
        // x - y <= 2 and y - x <= -2 is satisfiable (sum = 0, non-strict).
        assert!(!Entry::le(2).conflicts_with(Entry::le(-2)));
        // x - y < 2 and y - x < -2 is unsatisfiable (strict sum 0).
        assert!(Entry::lt(2).conflicts_with(Entry::lt(-2)));
    }

    #[test]
    fn display() {
        assert_eq!(Entry::le(3).to_string(), "<=3");
        assert_eq!(Entry::lt(-1).to_string(), "<-1");
        assert_eq!(Entry::INFINITY.to_string(), "<inf");
    }
}
