//! Property-based tests for the DBM zone algebra.

use dbm::{Dbm, Entry};
use proptest::prelude::*;

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

proptest! {
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
