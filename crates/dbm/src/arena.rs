//! A free-list arena for DBM entry buffers.
//!
//! The zone-graph interner is the allocation hot path of a timed
//! exploration: every committed configuration clones a candidate zone to
//! normalise it, and periodic sweeps drop zones nothing references any more.
//! [`DbmArena`] keeps the entry buffers of retired matrices on a bounded
//! free list so those clones stop churning the global allocator.
//!
//! The arena is deliberately **not** thread-safe: it lives inside the
//! interner's `RefCell` and is only touched as the exploration driver's
//! sequential loop stores zones, so its [`ArenaStats`] are the same on
//! every run.

use crate::entry::Entry;
use crate::matrix::Dbm;

/// How many retired buffers the free list keeps before dropping the rest.
const FREE_LIST_CAP: usize = 256;

/// Allocation counters of a [`DbmArena`], reported through `ZoneReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Matrices built from a fresh heap allocation.
    pub allocated: usize,
    /// Matrices built by reusing a recycled buffer.
    pub reused: usize,
    /// Buffers handed back to the free list (bounded by its capacity).
    pub recycled: usize,
    /// Bytes of distinct interned zones charged through
    /// [`DbmArena::charge_zone`] — a monotone count of the entry storage the
    /// interner has committed, independent of free-list reuse. Deterministic
    /// because charging follows the driver's breadth-first order.
    pub zone_bytes: usize,
}

/// A bounded free list of DBM entry buffers.
#[derive(Debug, Default)]
pub struct DbmArena {
    free: Vec<Vec<Entry>>,
    stats: ArenaStats,
}

impl DbmArena {
    /// An empty arena.
    pub fn new() -> DbmArena {
        DbmArena::default()
    }

    /// Clones `src`, reusing a recycled buffer when one of the right size is
    /// available.
    pub fn clone_dbm(&mut self, src: &Dbm) -> Dbm {
        let entries = src.entries();
        match self.free.pop() {
            Some(mut buffer) if buffer.capacity() >= entries.len() => {
                self.stats.reused += 1;
                buffer.clear();
                buffer.extend_from_slice(entries);
                Dbm::from_entries(src.clock_count(), buffer)
            }
            other => {
                // A buffer too small for this zone's clocks is useless here;
                // drop it rather than hold the slot hostage.
                drop(other);
                self.stats.allocated += 1;
                Dbm::from_entries(src.clock_count(), entries.to_vec())
            }
        }
    }

    /// Hands a retired matrix's buffer back to the free list (dropped
    /// silently once the list is at capacity).
    pub fn recycle(&mut self, dbm: Dbm) {
        if self.free.len() < FREE_LIST_CAP {
            self.stats.recycled += 1;
            self.free.push(dbm.into_entries());
        }
    }

    /// Charges the entry storage of one newly interned zone and returns the
    /// number of bytes charged. The count is monotone — sweeps do not give
    /// bytes back — so it measures how much zone memory the exploration has
    /// ever committed, the quantity a `max_zone_bytes` budget bounds.
    pub fn charge_zone(&mut self, dbm: &Dbm) -> usize {
        let bytes = std::mem::size_of_val(dbm.entries());
        self.stats.zone_bytes += bytes;
        bytes
    }

    /// The arena's allocation counters so far.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_recycle_reuse_buffers() {
        let mut arena = DbmArena::new();
        let mut zone = Dbm::zero(2);
        zone.up();

        let first = arena.clone_dbm(&zone);
        assert_eq!(first, zone);
        assert_eq!(arena.stats().allocated, 1);
        assert_eq!(arena.stats().reused, 0);

        arena.recycle(first);
        assert_eq!(arena.stats().recycled, 1);

        let second = arena.clone_dbm(&zone);
        assert_eq!(second, zone);
        assert_eq!(arena.stats().reused, 1);
        assert_eq!(arena.stats().allocated, 1);
    }

    #[test]
    fn zone_byte_charges_are_monotone_and_sized_by_entries() {
        let mut arena = DbmArena::new();
        let zone = Dbm::zero(3);
        let per_zone = std::mem::size_of_val(zone.entries());
        assert!(per_zone > 0);
        assert_eq!(arena.charge_zone(&zone), per_zone);
        assert_eq!(arena.charge_zone(&zone), per_zone);
        assert_eq!(arena.stats().zone_bytes, 2 * per_zone);
        // Recycling gives nothing back: the count is monotone.
        arena.recycle(zone);
        assert_eq!(arena.stats().zone_bytes, 2 * per_zone);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut arena = DbmArena::new();
        for _ in 0..FREE_LIST_CAP + 10 {
            let zone = Dbm::zero(1);
            arena.recycle(zone);
        }
        assert_eq!(arena.stats().recycled, FREE_LIST_CAP);
    }
}
