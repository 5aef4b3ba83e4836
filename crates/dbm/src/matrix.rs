//! Difference bound matrices (DBMs).
//!
//! A DBM over clocks `x_1 … x_n` (plus the reference clock `x_0 = 0`)
//! represents the convex zone of clock valuations satisfying
//! `x_i − x_j ≺ d[i][j]` for all `i, j`. This is the standard data structure
//! of zone-based timed model checkers (UPPAAL, Kronos); here it backs the
//! baseline exact timed-reachability engine that the relative-timing approach
//! of the paper is compared against.

use std::fmt;

use crate::entry::Entry;

/// A difference bound matrix over `clock_count` real clocks (plus the
/// implicit reference clock 0).
///
/// All operations keep the matrix in canonical (all-pairs tightened) form, so
/// inclusion and emptiness tests are constant-per-entry scans.
///
/// # Examples
///
/// ```
/// use dbm::Dbm;
/// // Two clocks, both start at 0 and advance together.
/// let mut zone = Dbm::zero(2);
/// zone.up();                    // let time pass
/// zone.constrain_upper(1, 5);   // x1 <= 5
/// assert!(!zone.is_empty());
/// assert!(zone.includes(&Dbm::zero(2)));
/// // x1 and x2 advanced together, so x1 - x2 = 0 still holds.
/// assert_eq!(zone.upper_bound(1), Some(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dbm {
    /// Number of real clocks (dimension is `clocks + 1`).
    clocks: usize,
    /// Row-major `(clocks+1) × (clocks+1)` matrix.
    entries: Vec<Entry>,
}

impl Dbm {
    /// The zone where every clock equals 0.
    pub fn zero(clocks: usize) -> Self {
        let dim = clocks + 1;
        // Every difference (including against the reference clock) is exactly
        // 0, which the all-`≤0` matrix expresses in canonical form.
        Dbm {
            clocks,
            entries: vec![Entry::LE_ZERO; dim * dim],
        }
    }

    /// The unconstrained zone (all clock values ≥ 0 allowed).
    pub fn universe(clocks: usize) -> Self {
        let dim = clocks + 1;
        let mut dbm = Dbm {
            clocks,
            entries: vec![Entry::INFINITY; dim * dim],
        };
        for i in 0..dim {
            dbm.set(i, i, Entry::LE_ZERO);
            // Clocks are non-negative: 0 - x_i <= 0.
            dbm.set(0, i, Entry::LE_ZERO);
        }
        dbm
    }

    /// Number of real clocks.
    pub fn clock_count(&self) -> usize {
        self.clocks
    }

    fn dim(&self) -> usize {
        self.clocks + 1
    }

    /// Entry `(i, j)`: the bound on `x_i − x_j`.
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds the dimension.
    pub fn get(&self, i: usize, j: usize) -> Entry {
        assert!(i < self.dim() && j < self.dim(), "clock index out of range");
        self.entries[i * self.dim() + j]
    }

    fn set(&mut self, i: usize, j: usize, e: Entry) {
        let dim = self.dim();
        self.entries[i * dim + j] = e;
    }

    /// Puts the matrix in canonical form (all-pairs shortest paths).
    pub fn canonicalize(&mut self) {
        let dim = self.dim();
        for k in 0..dim {
            for i in 0..dim {
                let dik = self.get(i, k);
                if dik.is_infinite() {
                    continue;
                }
                for j in 0..dim {
                    let candidate = dik + self.get(k, j);
                    if candidate < self.get(i, j) {
                        self.set(i, j, candidate);
                    }
                }
            }
        }
    }

    /// Returns `true` if the zone contains no valuation.
    pub fn is_empty(&self) -> bool {
        (0..self.dim()).any(|i| self.get(i, i) < Entry::LE_ZERO)
    }

    /// Lets time elapse (removes the upper bounds of all clocks).
    pub fn up(&mut self) {
        for i in 1..self.dim() {
            self.set(i, 0, Entry::INFINITY);
        }
    }

    /// Resets clock `x` to 0.
    ///
    /// # Panics
    ///
    /// Panics if `x` is 0 (the reference clock) or exceeds the dimension.
    pub fn reset(&mut self, x: usize) {
        assert!(x > 0 && x < self.dim(), "cannot reset the reference clock");
        for j in 0..self.dim() {
            self.set(x, j, self.get(0, j));
            self.set(j, x, self.get(j, 0));
        }
        self.set(x, x, Entry::LE_ZERO);
    }

    /// Adds the constraint `x_i − x_j ≺ bound` and re-canonicalises
    /// incrementally.
    pub fn constrain(&mut self, i: usize, j: usize, bound: Entry) {
        if bound >= self.get(i, j) {
            return;
        }
        self.set(i, j, bound);
        if self.get(j, i).conflicts_with(bound) {
            // Mark empty explicitly.
            self.set(0, 0, Entry::LT_ZERO);
            return;
        }
        let dim = self.dim();
        for a in 0..dim {
            for b in 0..dim {
                let via_ij = self.get(a, i) + bound + self.get(j, b);
                if via_ij < self.get(a, b) {
                    self.set(a, b, via_ij);
                }
            }
        }
    }

    /// Adds the non-strict upper bound `x ≤ value`.
    pub fn constrain_upper(&mut self, x: usize, value: i64) {
        self.constrain(x, 0, Entry::le(value));
    }

    /// Adds the non-strict lower bound `x ≥ value`.
    pub fn constrain_lower(&mut self, x: usize, value: i64) {
        self.constrain(0, x, Entry::le(-value));
    }

    /// Upper bound of clock `x` in the zone, or `None` if unbounded.
    pub fn upper_bound(&self, x: usize) -> Option<i64> {
        self.get(x, 0).value()
    }

    /// Lower bound of clock `x` in the zone (always finite, ≥ 0 in canonical
    /// form).
    pub fn lower_bound(&self, x: usize) -> i64 {
        self.get(0, x).value().map_or(0, |v| -v)
    }

    /// Returns `true` if `self` includes `other` (every valuation of `other`
    /// is a valuation of `self`). Both matrices must be canonical.
    pub fn includes(&self, other: &Dbm) -> bool {
        assert_eq!(self.clocks, other.clocks, "dimension mismatch");
        self.entries
            .iter()
            .zip(other.entries.iter())
            .all(|(a, b)| a >= b)
    }

    /// Returns `true` if `self` is included in the non-convex aLU
    /// abstraction of `other` (`self ⊆ aLU(other)`) under the given LU
    /// bounds — the simulation-based coverage check of Herbreteau,
    /// Srivathsan and Walukiewicz, "Better abstractions for timed automata"
    /// (LICS 2012). The widened zone is never materialised: the check runs
    /// per clock pair in O(n²) on the two convex matrices directly.
    ///
    /// `self ⊄ aLU(other)` iff there are clocks `x ≠ y` (0 = reference)
    /// with: the zone reaches `x` values ≤ `U(x)` (so an upper comparison on
    /// `x` can still discriminate), `other` bounds `x_y − x_x` strictly
    /// tighter than `self` does, and that tighter bound still bites after
    /// relaxing `y` below `−L(y)`. Coverage by this relation is strictly
    /// coarser than convex [`includes`](Dbm::includes) and remains exact for
    /// discrete-state reachability.
    ///
    /// `lower` / `upper` are indexed by clock as in
    /// [`extrapolate_lu`](Dbm::extrapolate_lu) (index 0 is the reference
    /// clock and must hold 0). Both matrices must be canonical and
    /// non-empty.
    pub fn included_in_alu(&self, other: &Dbm, lower: &[i64], upper: &[i64]) -> bool {
        assert_eq!(self.clocks, other.clocks, "dimension mismatch");
        let dim = self.dim();
        assert!(
            lower.len() >= dim && upper.len() >= dim,
            "LU bound vectors shorter than the dimension"
        );
        for (x, &upper_x) in upper.iter().enumerate().take(dim) {
            // If the zone lies entirely above U(x) the pair (x, ·) cannot
            // witness escape: `Z_{0x} < (≤, −U(x))` means every valuation
            // has x > U(x).
            if self.get(0, x) < Entry::le(-upper_x) {
                continue;
            }
            for (y, &lower_y) in lower.iter().enumerate().take(dim) {
                if x == y {
                    continue;
                }
                let other_yx = other.get(y, x);
                if other_yx >= self.get(y, x) {
                    continue;
                }
                if other_yx + Entry::lt(-lower_y) < self.get(0, x) {
                    return false;
                }
            }
        }
        true
    }

    /// Intersects `self` with `other` in place and re-canonicalises.
    pub fn intersect(&mut self, other: &Dbm) {
        assert_eq!(self.clocks, other.clocks, "dimension mismatch");
        for i in 0..self.entries.len() {
            self.entries[i] = self.entries[i].min(other.entries[i]);
        }
        self.canonicalize();
    }

    /// Returns `true` if the zone intersected with `x_i − x_j ≺ bound` is
    /// non-empty, without modifying `self`.
    pub fn satisfies(&self, i: usize, j: usize, bound: Entry) -> bool {
        !self.get(j, i).conflicts_with(bound)
    }

    /// The zone over the clocks `picks` selects from `self`: clock `k + 1`
    /// of the result is clock `picks[k]` of `self`, and a pick of 0 (the
    /// reference clock) starts the clock at zero. Every entry of the result
    /// is an entry of `self`, so it is canonical whenever `self` is; the
    /// gather costs O(m²) for `m` picks and needs no closure pass.
    ///
    /// # Panics
    ///
    /// Panics if a pick exceeds the dimension.
    pub fn gather(&self, picks: &[usize]) -> Dbm {
        let source = |k: usize| if k == 0 { 0 } else { picks[k - 1] };
        let (dim, from) = (picks.len() + 1, self.dim());
        let mut entries = Vec::with_capacity(dim * dim);
        for i in 0..dim {
            let row = &self.entries[source(i) * from..][..from];
            entries.extend((0..dim).map(|j| row[source(j)]));
        }
        Dbm {
            clocks: picks.len(),
            entries,
        }
    }

    /// Coarse LU-bounds extrapolation (`Extra_LU` of Behrmann, Bouyer,
    /// Larsen and Pelánek, 2004): widens away every bound that the per-clock
    /// constants render irrelevant, so zones differing only above the bounds
    /// collapse to one representative. Sound and *exact* for discrete-state
    /// reachability when `lower[x]` dominates every lower-comparison
    /// constant (`x ≥ c` guards) and `upper[x]` every upper-comparison
    /// constant (`x ≤ c` invariants) of clock `x`.
    ///
    /// `lower` / `upper` are indexed by clock (index 0 is the reference
    /// clock and must hold 0); all constants must be non-negative — a clock
    /// with no upper comparisons takes `upper[x] = 0`, the coarsest sound
    /// choice.
    ///
    /// The matrix must be canonical on entry. Returns `true` if any entry
    /// was widened; the result is then generally **not** canonical and the
    /// caller must re-canonicalise before further zone operations.
    pub fn extrapolate_lu(&mut self, lower: &[i64], upper: &[i64]) -> bool {
        let dim = self.dim();
        assert!(
            lower.len() >= dim && upper.len() >= dim,
            "LU bound vectors shorter than the dimension"
        );
        // The conditions consult the zone's original lower bounds (row 0),
        // which the `i == 0` arm rewrites; snapshot them first.
        let entry_bound: Vec<i64> = (0..dim)
            .map(|j| self.get(0, j).value().map_or(0, |v| -v))
            .collect();
        let mut changed = false;
        for i in 0..dim {
            for j in 0..dim {
                if i == j {
                    continue;
                }
                let d = self.get(i, j);
                if i > 0 {
                    // Bounds involving x_i above L(x_i) are irrelevant: the
                    // entry itself exceeds L, or the zone already starts
                    // above L.
                    if (!d.is_infinite() && d > Entry::le(lower[i])) || entry_bound[i] > lower[i] {
                        if !d.is_infinite() {
                            self.set(i, j, Entry::INFINITY);
                            changed = true;
                        }
                        continue;
                    }
                }
                if j > 0 && entry_bound[j] > upper[j] {
                    // The zone's lower bound on x_j exceeds U(x_j): no upper
                    // comparison can distinguish it any more. Row 0 keeps
                    // the coarse `x_j > U(x_j)`, every other row drops the
                    // bound entirely.
                    let widened = if i == 0 {
                        Entry::lt(-upper[j])
                    } else {
                        Entry::INFINITY
                    };
                    if widened > d {
                        self.set(i, j, widened);
                        changed = true;
                    }
                }
            }
        }
        changed
    }

    /// The raw entry buffer (row-major), for the arena's buffer reuse.
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Consumes the matrix and hands its buffer back, for the arena's
    /// free list.
    pub(crate) fn into_entries(self) -> Vec<Entry> {
        self.entries
    }

    /// Rebuilds a matrix from a recycled buffer already holding the entries
    /// of a `clocks`-clock DBM.
    pub(crate) fn from_entries(clocks: usize, entries: Vec<Entry>) -> Dbm {
        debug_assert_eq!(entries.len(), (clocks + 1) * (clocks + 1));
        Dbm { clocks, entries }
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.dim() {
            for j in 0..self.dim() {
                write!(f, "{:>8}", self.get(i, j).to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_zone_is_point() {
        let z = Dbm::zero(2);
        assert!(!z.is_empty());
        assert_eq!(z.upper_bound(1), Some(0));
        assert_eq!(z.lower_bound(1), 0);
        assert_eq!(z.upper_bound(2), Some(0));
    }

    #[test]
    fn universe_allows_everything() {
        let u = Dbm::universe(2);
        assert!(!u.is_empty());
        assert_eq!(u.upper_bound(1), None);
        assert!(u.includes(&Dbm::zero(2)));
    }

    #[test]
    fn up_then_constrain() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain_upper(1, 5);
        assert!(!z.is_empty());
        assert_eq!(z.upper_bound(1), Some(5));
        // Clocks advance together, so x2 <= 5 follows after canonicalisation.
        let mut z2 = z.clone();
        z2.canonicalize();
        assert_eq!(z2.upper_bound(2), Some(5));
    }

    #[test]
    fn contradictory_constraints_empty_the_zone() {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain_lower(1, 10);
        z.constrain_upper(1, 5);
        assert!(z.is_empty());
    }

    #[test]
    fn reset_after_delay() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain_lower(1, 3);
        z.constrain_upper(1, 4);
        z.reset(2);
        z.canonicalize();
        assert_eq!(z.lower_bound(2), 0);
        assert_eq!(z.upper_bound(2), Some(0));
        // x1 keeps its bounds.
        assert_eq!(z.lower_bound(1), 3);
        assert_eq!(z.upper_bound(1), Some(4));
        // And the difference x1 - x2 is between 3 and 4.
        assert_eq!(z.get(1, 2), Entry::le(4));
        assert_eq!(z.get(2, 1), Entry::le(-3));
    }

    #[test]
    fn inclusion_is_a_partial_order() {
        let mut small = Dbm::zero(1);
        small.up();
        small.constrain_upper(1, 2);
        let mut big = Dbm::zero(1);
        big.up();
        big.constrain_upper(1, 10);
        assert!(big.includes(&small));
        assert!(!small.includes(&big));
        assert!(big.includes(&big));
    }

    #[test]
    fn satisfies_matches_constrain() {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain_upper(1, 5);
        // Can x1 be >= 3? (0 - x1 <= -3)
        assert!(z.satisfies(0, 1, Entry::le(-3)));
        // Can x1 be >= 6?
        assert!(!z.satisfies(0, 1, Entry::le(-6)));
    }

    #[test]
    fn intersect_tightens() {
        let mut a = Dbm::zero(1);
        a.up();
        a.constrain_upper(1, 10);
        let mut b = Dbm::zero(1);
        b.up();
        b.constrain_lower(1, 4);
        a.intersect(&b);
        assert!(!a.is_empty());
        assert_eq!(a.lower_bound(1), 4);
        assert_eq!(a.upper_bound(1), Some(10));
    }

    #[test]
    #[should_panic(expected = "reference clock")]
    fn resetting_reference_clock_panics() {
        let mut z = Dbm::zero(1);
        z.reset(0);
    }

    /// A one-clock band `l ≤ x ≤ u`.
    fn band(l: i64, u: i64) -> Dbm {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain_lower(1, l);
        z.constrain_upper(1, u);
        z.canonicalize();
        z
    }

    #[test]
    fn alu_inclusion_refines_convex_inclusion() {
        let lu = (&[0, 2][..], &[0, 2][..]);
        // Convex inclusion always implies aLU coverage.
        assert!(band(1, 2).includes(&band(1, 2)));
        assert!(band(1, 2).included_in_alu(&band(1, 2), lu.0, lu.1));
        assert!(band(0, 5).includes(&band(1, 2)));
        assert!(band(1, 2).included_in_alu(&band(0, 5), lu.0, lu.1));
        // ... but not conversely: with L = U = 2 every valuation above 2 is
        // indistinguishable, so [3, 10] ⊆ aLU([3, 4]) without convex
        // inclusion.
        assert!(!band(3, 4).includes(&band(3, 10)));
        assert!(band(3, 10).included_in_alu(&band(3, 4), lu.0, lu.1));
        // Below the bounds the check degenerates to convex inclusion.
        assert!(!band(0, 3).included_in_alu(&band(1, 2), lu.0, lu.1));
        assert!(!band(2, 2).included_in_alu(&band(0, 1), lu.0, lu.1));
    }

    #[test]
    fn alu_inclusion_matches_membership_of_extrapolated_representative() {
        // Against a stored zone already widened by Extra_LU the per-pair
        // check must agree with convex inclusion in the widened matrix
        // whenever that widening is itself convex.
        let lower = [0, 3];
        let upper = [0, 1];
        let mut stored = band(2, 6);
        if stored.extrapolate_lu(&lower, &upper) {
            stored.canonicalize();
        }
        for (l, u) in [(2, 6), (2, 100), (5, 7), (0, 1), (1, 2)] {
            let candidate = band(l, u);
            assert_eq!(
                candidate.included_in_alu(&stored, &lower, &upper),
                stored.includes(&candidate),
                "candidate [{l}, {u}] vs Extra_LU([2, 6])"
            );
        }
    }

    #[test]
    fn alu_inclusion_observes_clock_differences() {
        // Two clocks, candidate pins x1 − x2 = 3, stored pins x1 − x2 = 0;
        // both inside the LU bounds, so the difference must discriminate.
        let mut stored = Dbm::zero(2);
        stored.up();
        stored.constrain_upper(1, 4);
        stored.canonicalize();
        let mut candidate = Dbm::zero(2);
        candidate.up();
        candidate.constrain_lower(1, 3);
        candidate.constrain_upper(1, 4);
        candidate.reset(2);
        candidate.up();
        candidate.constrain_upper(2, 1);
        candidate.canonicalize();
        let lower = [0, 10, 10];
        let upper = [0, 10, 10];
        assert!(!candidate.included_in_alu(&stored, &lower, &upper));
        // With the offset zone as the stored one the candidate covers
        // itself.
        assert!(candidate.included_in_alu(&candidate.clone(), &lower, &upper));
    }
}
