//! Property-based tests for the DBM zone algebra. The kernel's row-slice
//! loops, its one-pass elapse and its coverage signature are checked
//! against [`Naive`], a reference kept here that reads and writes one entry
//! at a time.

use dbm::{Dbm, Entry};
use proptest::prelude::*;

/// A DBM as a plain row-major entry vector, with the zone operations
/// written entry by entry through `get`/`set`, the way the textbook states
/// them: the reference the kernel's loops are compared with.
#[derive(Debug, Clone, PartialEq)]
struct Naive {
    dim: usize,
    entries: Vec<Entry>,
}

impl Naive {
    fn of(zone: &Dbm) -> Naive {
        let dim = zone.clock_count() + 1;
        let entries = (0..dim)
            .flat_map(|i| (0..dim).map(move |j| zone.get(i, j)))
            .collect();
        Naive { dim, entries }
    }

    fn get(&self, i: usize, j: usize) -> Entry {
        self.entries[i * self.dim + j]
    }

    fn set(&mut self, i: usize, j: usize, e: Entry) {
        self.entries[i * self.dim + j] = e;
    }

    fn is_empty(&self) -> bool {
        (0..self.dim).any(|i| self.get(i, i) < Entry::LE_ZERO)
    }

    fn canonicalize(&mut self) {
        for k in 0..self.dim {
            for i in 0..self.dim {
                let dik = self.get(i, k);
                if dik.is_infinite() {
                    continue;
                }
                for j in 0..self.dim {
                    let candidate = dik + self.get(k, j);
                    if candidate < self.get(i, j) {
                        self.set(i, j, candidate);
                    }
                }
            }
        }
    }

    fn up(&mut self) {
        for i in 1..self.dim {
            self.set(i, 0, Entry::INFINITY);
        }
    }

    fn constrain(&mut self, i: usize, j: usize, bound: Entry) {
        if bound >= self.get(i, j) {
            return;
        }
        self.set(i, j, bound);
        if self.get(j, i).conflicts_with(bound) {
            self.set(0, 0, Entry::LT_ZERO);
            return;
        }
        for a in 0..self.dim {
            for b in 0..self.dim {
                let via_ij = self.get(a, i) + bound + self.get(j, b);
                if via_ij < self.get(a, b) {
                    self.set(a, b, via_ij);
                }
            }
        }
    }

    fn included_in_alu(&self, other: &Naive, lower: &[i64], upper: &[i64]) -> bool {
        for (x, &upper_x) in upper.iter().enumerate().take(self.dim) {
            if self.get(0, x) < Entry::le(-upper_x) {
                continue;
            }
            for (y, &lower_y) in lower.iter().enumerate().take(self.dim) {
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
}

/// LU bound vectors over `clocks` clocks from random draws (index 0, the
/// reference clock, holds 0).
fn lu_bounds(clocks: usize, draws: &[(i64, i64)]) -> (Vec<i64>, Vec<i64>) {
    let pick = |k: usize| draws.get(k % draws.len().max(1)).copied().unwrap_or((0, 0));
    let lower = (0..=clocks)
        .map(|x| if x == 0 { 0 } else { pick(x).0 })
        .collect();
    let upper = (0..=clocks)
        .map(|x| if x == 0 { 0 } else { pick(x).1 })
        .collect();
    (lower, upper)
}

/// `zone` LU-extrapolated and re-closed, as the explorer stores it.
fn extrapolated(zone: &Dbm, lower: &[i64], upper: &[i64]) -> Dbm {
    let mut widened = zone.clone();
    if widened.extrapolate_lu(lower, upper) {
        widened.canonicalize();
    }
    widened
}

/// Whether `candidate`'s signature is contained in `stored`'s.
fn signature_admits(stored: &Dbm, candidate: &Dbm, lower: &[i64], upper: &[i64]) -> bool {
    candidate.alu_signature(lower, upper) & !stored.alu_signature(lower, upper) == 0
}

fn random_zone(ops: Vec<(u8, usize, i64)>) -> Dbm {
    let clocks = 3;
    let mut zone = Dbm::zero(clocks);
    zone.up();
    for (kind, clock, value) in ops {
        let clock = clock % clocks + 1;
        let value = value.rem_euclid(50);
        match kind % 2 {
            0 => zone.constrain_upper(clock, value + 1),
            _ => zone.constrain_lower(clock, value),
        }
        if zone.is_empty() {
            return Dbm::zero(clocks);
        }
    }
    zone.canonicalize();
    zone
}

/// One zone operation of the successor kernel, decoded from random bytes:
/// time elapse, a clock reset, or a strict or non-strict bound on a clock
/// difference `x_i − x_j` (index 0 is the reference clock).
fn apply((kind, a, b, value): (u8, u8, u8, i64), zone: &mut Dbm) {
    let dim = zone.clock_count() + 1;
    let (i, j) = (usize::from(a) % dim, usize::from(b) % dim);
    let value = value - 25;
    match kind % 4 {
        0 => zone.up(),
        1 if i > 0 => zone.reset(i),
        2 if i != j => zone.constrain(i, j, Entry::le(value)),
        3 if i != j => zone.constrain(i, j, Entry::lt(value)),
        _ => {}
    }
}

/// A canonical non-empty zone over `clocks` clocks, drawn by a random walk
/// of [`apply`] steps from the delayed zero zone. Every step is re-closed by
/// the full O(n³) closure (and dropped if it empties the zone), so the draw
/// is canonical whatever the single operations do.
fn canonical_zone(clocks: usize, walk: &[(u8, u8, u8, i64)]) -> Dbm {
    let mut zone = Dbm::zero(clocks);
    zone.up();
    for &step in walk {
        let mut next = zone.clone();
        apply(step, &mut next);
        next.canonicalize();
        if !next.is_empty() {
            zone = next;
        }
    }
    zone
}

/// A random walk as the proptest strategy draws it.
fn walk(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u8, u8, i64)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0i64..50), len)
}

/// Random LU constants, up to the pipelines' largest delay bounds.
fn lu_draws() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..25, 0i64..25), 1..10)
}

proptest! {
    /// (a) The one-pass elapse is `up` followed by one `constrain_upper`
    /// per invariant bound: the same emptiness, and on a non-empty result
    /// the same (canonical) matrix.
    #[test]
    fn one_pass_elapse_equals_up_then_one_constraint_per_bound(
        clocks in 1usize..9,
        walk in walk(0..16),
        bounds in proptest::collection::vec((any::<u8>(), 0i64..40), 0..9),
    ) {
        let zone = canonical_zone(clocks, &walk);
        let invariant: Vec<(usize, i64)> = bounds
            .iter()
            .map(|&(x, value)| (usize::from(x) % clocks + 1, value))
            .collect();
        let mut reference = Naive::of(&zone);
        reference.up();
        for &(x, value) in &invariant {
            reference.constrain(x, 0, Entry::le(value));
        }
        let mut elapsed = zone.clone();
        elapsed.elapse(&invariant);
        prop_assert_eq!(elapsed.is_empty(), reference.is_empty());
        if !reference.is_empty() {
            prop_assert_eq!(Naive::of(&elapsed), reference);
            let mut closed = elapsed.clone();
            closed.canonicalize();
            prop_assert_eq!(closed, elapsed);
        }
    }

    /// (b) The row-slice `constrain`, `canonicalize` and `included_in_alu`
    /// equal the entry-by-entry reference: `constrain` on random canonical
    /// zones (conflicting bounds included), `canonicalize` on extrapolated
    /// (non-canonical) zones and on raw intersections (empty ones
    /// included), and `included_in_alu` on random pairs.
    #[test]
    fn row_slice_loops_equal_the_entry_by_entry_reference(
        clocks in 1usize..9,
        walk_a in walk(0..16),
        walk_b in walk(0..16),
        (a, b, value, strict) in (any::<u8>(), any::<u8>(), 0i64..80, any::<bool>()),
        draws in lu_draws(),
    ) {
        let (za, zb) = (canonical_zone(clocks, &walk_a), canonical_zone(clocks, &walk_b));
        let dim = clocks + 1;
        let (i, j) = (usize::from(a) % dim, usize::from(b) % dim);
        if i != j {
            let bound = if strict { Entry::lt(value - 40) } else { Entry::le(value - 40) };
            let mut reference = Naive::of(&za);
            reference.constrain(i, j, bound);
            let mut constrained = za.clone();
            constrained.constrain(i, j, bound);
            prop_assert_eq!(Naive::of(&constrained), reference);
        }

        let (lower, upper) = lu_bounds(clocks, &draws);
        let mut widened = za.clone();
        widened.extrapolate_lu(&lower, &upper);
        let mut reference = Naive::of(&widened);
        reference.canonicalize();
        widened.canonicalize();
        prop_assert_eq!(Naive::of(&widened), reference);

        let mut reference = Naive::of(&za);
        for (entry, other) in reference.entries.iter_mut().zip(Naive::of(&zb).entries) {
            *entry = (*entry).min(other);
        }
        reference.canonicalize();
        let mut intersection = za.clone();
        intersection.intersect(&zb);
        prop_assert_eq!(Naive::of(&intersection), reference);

        for (candidate, stored) in [(&za, &zb), (&zb, &za), (&za, &za)] {
            prop_assert_eq!(
                candidate.included_in_alu(stored, &lower, &upper),
                Naive::of(candidate).included_in_alu(&Naive::of(stored), &lower, &upper)
            );
        }
    }

    /// (c) The coverage signature is sound: aLU coverage or convex
    /// inclusion implies signature containment. The pairs share a walk
    /// prefix, so one often covers the other (convexly when the suffix
    /// only constrains, beyond convexity under small LU constants), and
    /// the stored side is also tried extrapolated, as the explorer stores
    /// it.
    #[test]
    fn coverage_implies_signature_containment(
        clocks in 1usize..9,
        prefix in walk(0..12),
        suffix in walk(0..6),
        draws in lu_draws(),
    ) {
        let (lower, upper) = lu_bounds(clocks, &draws);
        let stored = canonical_zone(clocks, &prefix);
        let candidate = canonical_zone(clocks, &[prefix.clone(), suffix].concat());
        let widened = [
            extrapolated(&stored, &lower, &upper),
            extrapolated(&candidate, &lower, &upper),
        ];
        let zones = [&stored, &candidate, &widened[0], &widened[1]];
        for s in zones {
            for c in zones {
                if c.included_in_alu(s, &lower, &upper) || s.includes(c) {
                    prop_assert!(
                        signature_admits(s, c, &lower, &upper),
                        "covered without signature containment:\nstored\n{}candidate\n{}",
                        s,
                        c
                    );
                }
            }
        }
    }

    /// (d) LU extrapolation followed by re-closure leaves the signature
    /// unchanged, so interning a widened zone keeps the signature the
    /// seen map filtered it by.
    #[test]
    fn extrapolation_keeps_the_signature(
        clocks in 1usize..9,
        walk in walk(0..16),
        draws in lu_draws(),
    ) {
        let (lower, upper) = lu_bounds(clocks, &draws);
        let zone = canonical_zone(clocks, &walk);
        let mut widened = zone.clone();
        widened.extrapolate_lu(&lower, &upper);
        widened.canonicalize();
        prop_assert_eq!(
            widened.alu_signature(&lower, &upper),
            zone.alu_signature(&lower, &upper)
        );
    }

    /// The invariant the successor kernel rests on: reset, up, constrain
    /// (incrementally re-closed) and gather all map a canonical zone to a
    /// canonical zone, so no O(n³) closure pass is needed per successor.
    #[test]
    fn kernel_operations_keep_canonical_zones_canonical(
        clocks in 1usize..9,
        walk in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), 0i64..50), 0..16),
        step in (any::<u8>(), any::<u8>(), any::<u8>(), 0i64..50),
        picks in proptest::collection::vec(any::<u8>(), 0..9),
    ) {
        let zone = canonical_zone(clocks, &walk);
        let mut stepped = zone.clone();
        apply(step, &mut stepped);
        let picks: Vec<usize> = picks.iter().map(|&p| usize::from(p) % (clocks + 1)).collect();
        let gathered = zone.gather(&picks);
        prop_assert_eq!(gathered.clock_count(), picks.len());
        for result in [stepped, gathered] {
            if result.is_empty() {
                continue;
            }
            let mut closed = result.clone();
            closed.canonicalize();
            prop_assert_eq!(closed, result);
        }
    }

    #[test]
    fn canonicalisation_is_idempotent(ops in proptest::collection::vec((any::<u8>(), 0usize..3, 0i64..50), 0..6)) {
        let zone = random_zone(ops);
        let mut twice = zone.clone();
        twice.canonicalize();
        prop_assert_eq!(zone, twice);
    }

    #[test]
    fn inclusion_is_reflexive_and_antisymmetric(
        a in proptest::collection::vec((any::<u8>(), 0usize..3, 0i64..50), 0..6),
        b in proptest::collection::vec((any::<u8>(), 0usize..3, 0i64..50), 0..6),
    ) {
        let za = random_zone(a);
        let zb = random_zone(b);
        prop_assert!(za.includes(&za));
        if za.includes(&zb) && zb.includes(&za) {
            prop_assert_eq!(za, zb);
        }
    }

    #[test]
    fn intersection_is_included_in_both(
        a in proptest::collection::vec((any::<u8>(), 0usize..3, 0i64..50), 0..6),
        b in proptest::collection::vec((any::<u8>(), 0usize..3, 0i64..50), 0..6),
    ) {
        let za = random_zone(a);
        let zb = random_zone(b);
        let mut inter = za.clone();
        inter.intersect(&zb);
        if !inter.is_empty() {
            prop_assert!(za.includes(&inter));
            prop_assert!(zb.includes(&inter));
        }
    }

    #[test]
    fn up_preserves_lower_bounds(ops in proptest::collection::vec((any::<u8>(), 0usize..3, 0i64..50), 0..6)) {
        let zone = random_zone(ops);
        let mut delayed = zone.clone();
        delayed.up();
        delayed.canonicalize();
        prop_assert!(delayed.includes(&zone));
        for clock in 1..=zone.clock_count() {
            prop_assert_eq!(delayed.lower_bound(clock), zone.lower_bound(clock));
            prop_assert_eq!(delayed.upper_bound(clock), None);
        }
    }
}
