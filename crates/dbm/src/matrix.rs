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

    /// Row `write` for writing beside row `read` for reading (`write ≠
    /// read`): the two disjoint row slices of one relaxation step.
    fn rows_mut(&mut self, write: usize, read: usize) -> (&mut [Entry], &[Entry]) {
        let dim = self.dim();
        debug_assert_ne!(write, read);
        if write < read {
            let (head, tail) = self.entries.split_at_mut(read * dim);
            (&mut head[write * dim..][..dim], &tail[..dim])
        } else {
            let (head, tail) = self.entries.split_at_mut(write * dim);
            (&mut tail[..dim], &head[read * dim..][..dim])
        }
    }

    /// Puts the matrix in canonical form (all-pairs shortest paths).
    pub fn canonicalize(&mut self) {
        let dim = self.dim();
        for k in 0..dim {
            for i in 0..dim {
                if i == k {
                    // The path k → k → j tightens row k only through a
                    // negative diagonal (an empty zone).
                    let row = &mut self.entries[k * dim..][..dim];
                    let dkk = row[k];
                    if dkk < Entry::LE_ZERO {
                        for entry in row.iter_mut() {
                            *entry = (*entry).min(dkk + *entry);
                        }
                    }
                    continue;
                }
                let (row_i, row_k) = self.rows_mut(i, k);
                let dik = row_i[k];
                if dik.is_infinite() {
                    continue;
                }
                for (entry, &dkj) in row_i.iter_mut().zip(row_k) {
                    *entry = (*entry).min(dik + dkj);
                }
            }
        }
    }

    /// Returns `true` if the zone contains no valuation.
    pub fn is_empty(&self) -> bool {
        self.entries
            .iter()
            .step_by(self.dim() + 1)
            .any(|&d| d < Entry::LE_ZERO)
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
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds the dimension.
    pub fn constrain(&mut self, i: usize, j: usize, bound: Entry) {
        let dim = self.dim();
        assert!(i < dim && j < dim, "clock index out of range");
        if bound >= self.entries[i * dim + j] {
            return;
        }
        self.entries[i * dim + j] = bound;
        if self.entries[j * dim + i].conflicts_with(bound) {
            // Mark empty explicitly.
            self.entries[0] = Entry::LT_ZERO;
            return;
        }
        // Every tightened entry is a path a → i → j → b through the new
        // edge. Row j never tightens (its detour j → i → j costs at least
        // ≤ 0, or the bound would conflict), nor does any row's entry
        // (a, i), and a row that cannot reach i gains nothing.
        for a in (0..dim).filter(|&a| a != j) {
            let (row_a, row_j) = self.rows_mut(a, j);
            let via = row_a[i] + bound;
            if via.is_infinite() {
                continue;
            }
            for (entry, &djb) in row_a.iter_mut().zip(row_j) {
                *entry = (*entry).min(via + djb);
            }
        }
    }

    /// Lets time elapse under the invariant `x ≤ value` of every `(x, value)`
    /// pair: the zone [`up`](Dbm::up) followed by one
    /// [`constrain_upper`](Dbm::constrain_upper) per pair, in one O(n²)
    /// pass instead of one per pair.
    ///
    /// After `up` on a canonical zone every new bound is an edge into the
    /// reference clock, so a shortest path uses at most one of them:
    /// `x_i − x_0` tightens to `t_i = min_x (D[i][x] + value_x)`, every
    /// other entry `(i, j)` to `t_i + D[0][j]`, and the zone is empty
    /// exactly when `t_0 < (≤, 0)`, which marks it so.
    ///
    /// The matrix must be canonical on entry; it stays canonical.
    pub fn elapse(&mut self, invariant: &[(usize, i64)]) {
        let dim = self.dim();
        let through_bounds = |row: &[Entry]| {
            invariant
                .iter()
                .map(|&(x, value)| row[x] + Entry::le(value))
                .fold(Entry::INFINITY, Entry::min)
        };
        let (row_0, rows) = self.entries.split_at_mut(dim);
        if through_bounds(row_0) < Entry::LE_ZERO {
            // Some clock's lower bound already exceeds its invariant.
            row_0[0] = Entry::LT_ZERO;
            return;
        }
        for row in rows.chunks_exact_mut(dim) {
            // `up` clears the entry (i, 0); only the bounds set it again.
            let t_i = through_bounds(row);
            row[0] = t_i;
            if t_i.is_infinite() {
                continue;
            }
            for (entry, &d0j) in row.iter_mut().zip(row_0.iter()).skip(1) {
                *entry = (*entry).min(t_i + d0j);
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
        let (row_0, upper) = (&self.entries[..dim], &upper[..dim]);
        for (y, &lower_y) in lower[..dim].iter().enumerate() {
            let own = &self.entries[y * dim..][..dim];
            let theirs = &other.entries[y * dim..][..dim];
            for x in (0..dim).filter(|&x| x != y) {
                // If the zone lies entirely above U(x) the pair (x, ·)
                // cannot witness escape: `Z_{0x} < (≤, −U(x))` means every
                // valuation has x > U(x).
                if theirs[x] >= own[x] || row_0[x] < Entry::le(-upper[x]) {
                    continue;
                }
                if theirs[x] + Entry::lt(-lower_y) < row_0[x] {
                    return false;
                }
            }
        }
        true
    }

    /// A 64-bit over-approximation of what the zone covers under the LU
    /// bounds `lower` / `upper` (indexed as in
    /// [`included_in_alu`](Dbm::included_in_alu)), cheap enough to rule out
    /// most coverage checks before they run:
    /// `c.included_in_alu(s, lower, upper)` or `s.includes(c)` implies
    /// `c.alu_signature(lower, upper) & !s.alu_signature(lower, upper) ==
    /// 0`, and [`extrapolate_lu`](Dbm::extrapolate_lu) followed by
    /// [`canonicalize`](Dbm::canonicalize) leaves the signature unchanged.
    ///
    /// The signature is a thermometer code, per clock `x`, of two entries
    /// clamped where the aLU relation stops looking, the weaker the entry
    /// the more bits:
    ///
    /// * the lower bound `Z_{0x}`, clamped below at `(<, −U(x))`. The pair
    ///   `(x, y = 0)` of `included_in_alu` escapes when `S_{0x} < C_{0x}`
    ///   and `C` reaches `x ≤ U(x)` (adding `(<, −L(0)) = (<, 0)` to the
    ///   smaller entry keeps it below `C_{0x}`), so a covered `C` has, for
    ///   every `x`, `C_{0x} ≤ (<, −U(x))` or `S_{0x} ≥ C_{0x}`: either way
    ///   the clamped `S_{0x}` dominates the clamped `C_{0x}`;
    /// * the upper bound `Z_{x0}`, clamped above at `(<, L(x) + 1)`. The
    ///   pair `(0, y = x)` escapes when `S_{x0} < C_{x0}` and `S_{x0} + (<,
    ///   −L(x)) < (≤, 0)`, i.e. `S_{x0} ≤ (≤, L(x))`, so a covered `C` has
    ///   `S_{x0} ≥ C_{x0}` or `S_{x0} ≥ (<, L(x) + 1)`: either way the
    ///   clamped `S_{x0}` dominates the clamped `C_{x0}`.
    ///
    /// Convex inclusion is entrywise dominance. Extrapolation keeps both
    /// clamped entries: it widens a lower bound only above `U(x)`, to `(<,
    /// −U(x))`, and an upper bound only when it, or the lower bound,
    /// exceeds `L(x)`, to `∞`; both the original and the widened entry
    /// clamp alike, and re-closure tightens the widened one no further
    /// than the original (the widened zone includes the original). A kept
    /// entry closes back to itself, squeezed between the original and the
    /// kept one. Each of the `n` clocks gets `64 / 2n` bits per entry, the
    /// clamped range spread evenly over them; a zone over more than 32
    /// clocks gets the empty signature, which filters nothing.
    pub fn alu_signature(&self, lower: &[i64], upper: &[i64]) -> u64 {
        let dim = self.dim();
        assert!(
            lower.len() >= dim && upper.len() >= dim,
            "LU bound vectors shorter than the dimension"
        );
        if dim == 1 || self.clocks > 32 {
            return 0;
        }
        let width = 32 / self.clocks;
        // The low `level` bits of the next field, `level` of `width + 1`
        // levels spread evenly over the clamped range `floor ..= top`.
        let thermometer = |entry: Entry, floor: Entry, top: Entry| {
            let index = entry.max(floor).min(top).raw() - floor.raw();
            let level = index * (width as i64 + 1) / (top.raw() - floor.raw() + 1);
            (1u64 << level) - 1
        };
        let mut signature = 0;
        for x in 1..dim {
            let floor = Entry::lt(-upper[x]);
            let lower_field = thermometer(self.entries[x], floor, Entry::LE_ZERO);
            let ceiling = Entry::lt(lower[x] + 1);
            let upper_field = thermometer(self.entries[x * dim], Entry::LE_ZERO, ceiling);
            signature |= (lower_field | upper_field << width) << (2 * width * (x - 1));
        }
        signature
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
        // which only row 0's own widening rewrites: it runs last.
        let lower_bound = |d0j: Entry| d0j.value().map_or(0, |v| -v);
        let mut changed = false;
        let (row_0, rows) = self.entries.split_at_mut(dim);
        for (i, row) in (1..).zip(rows.chunks_exact_mut(dim)) {
            // Bounds involving x_i above L(x_i) are irrelevant: the entry
            // itself exceeds L, or the zone already starts above L.
            let above_lower = lower_bound(row_0[i]) > lower[i];
            for (j, entry) in row.iter_mut().enumerate() {
                // The zone's lower bound on x_j exceeds U(x_j): no upper
                // comparison can distinguish it any more, so every row but
                // row 0 drops the bound entirely.
                let above_upper = j > 0 && lower_bound(row_0[j]) > upper[j];
                if i != j
                    && !entry.is_infinite()
                    && (above_lower || *entry > Entry::le(lower[i]) || above_upper)
                {
                    *entry = Entry::INFINITY;
                    changed = true;
                }
            }
        }
        // Row 0 keeps the coarse `x_j > U(x_j)`.
        for (j, entry) in row_0.iter_mut().enumerate().skip(1) {
            let widened = Entry::lt(-upper[j]);
            if lower_bound(*entry) > upper[j] && widened > *entry {
                *entry = widened;
                changed = true;
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
