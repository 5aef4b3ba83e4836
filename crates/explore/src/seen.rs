//! The shared seen-set: a sharded `Mutex<HashMap>` from dedup key to the
//! stored configurations of that key (maximal modulo subsumption).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Mutex;

use crate::space::SearchSpace;

/// Sharded map from key to the bucket of stored configurations.
///
/// Buckets are *antichains* of the subsumption relation: a configuration is
/// only stored if no stored configuration subsumes it, and storing it prunes
/// every stored configuration it subsumes.
///
/// With the default exact-dedup relation any stored configuration with the
/// same key *is* the candidate, so buckets are kept empty and the key's
/// presence alone answers every query — spaces whose key is the whole
/// configuration (e.g. the relative-timing engine's discrete states) then
/// store each configuration once instead of twice.
///
/// Sharding lets worker threads consult the map (read-only prefilter) while
/// holding each shard only briefly; all *mutation* happens in the
/// single-threaded deterministic merge.
type Shard<S> = Mutex<HashMap<<S as SearchSpace>::Key, Vec<<S as SearchSpace>::Config>>>;

pub(crate) struct SeenMap<S: SearchSpace> {
    shards: Vec<Shard<S>>,
    hasher: BuildHasherDefault<DefaultHasher>,
}

impl<S: SearchSpace> SeenMap<S> {
    pub(crate) fn new(shard_count: usize) -> Self {
        SeenMap {
            shards: (0..shard_count.max(1)).map(|_| Mutex::default()).collect(),
            hasher: BuildHasherDefault::default(),
        }
    }

    fn shard(&self, key: &S::Key) -> &Shard<S> {
        let index = if self.shards.len() == 1 {
            0
        } else {
            self.hasher.hash_one(key) as usize % self.shards.len()
        };
        &self.shards[index]
    }

    /// Stores `config` unless a stored configuration with the same key
    /// subsumes it; prunes stored configurations the new one subsumes.
    /// Returns the interned configuration when it was stored.
    ///
    /// Must only be called from the deterministic merge (mutation order is
    /// semantics-bearing under subsumption).
    pub(crate) fn push(&self, space: &S, config: S::Config) -> Option<S::Config> {
        let key = space.key(&config);
        let mut shard = self.shard(&key).lock().expect("seen shard poisoned");
        if !space.uses_subsumption() {
            // Exact deduplication: the key's presence is the whole answer,
            // so nothing needs to live in the bucket.
            return match shard.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => None,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(Vec::new());
                    Some(space.intern(config))
                }
            };
        }
        let bucket = shard.entry(key).or_default();
        if bucket.iter().any(|stored| space.subsumes(stored, &config)) {
            return None;
        }
        let config = space.intern(config);
        bucket.retain(|stored| !space.subsumes(&config, stored));
        bucket.push(config.clone());
        Some(config)
    }

    /// Returns `true` if `config` itself is still stored under its key —
    /// i.e. it has not been pruned by a strictly subsuming arrival since it
    /// was enqueued (the pop-time subsumption check; under exact
    /// deduplication stored configurations are never pruned, so the key's
    /// presence suffices).
    pub(crate) fn contains(&self, space: &S, config: &S::Config) -> bool {
        let key = space.key(config);
        let shard = self.shard(&key).lock().expect("seen shard poisoned");
        if !space.uses_subsumption() {
            return shard.contains_key(&key);
        }
        shard
            .get(&key)
            .is_some_and(|bucket| bucket.iter().any(|stored| stored == config))
    }

    /// Reports a pop-time skip to the space (see
    /// [`SearchSpace::note_pop_skip`]) with the bucket currently stored
    /// under the skipped configuration's key. Must only be called from the
    /// deterministic merge, right after [`contains`](SeenMap::contains)
    /// returned `false` for `config`.
    pub(crate) fn note_skip(&self, space: &S, config: &S::Config) {
        let key = space.key(config);
        let shard = self.shard(&key).lock().expect("seen shard poisoned");
        match shard.get(&key) {
            Some(bucket) => space.note_pop_skip(config, bucket),
            None => space.note_pop_skip(config, &[]),
        }
    }

    /// Returns `true` if some stored configuration subsumes `candidate`
    /// (the worker-side prefilter; sound because subsumption is transitive
    /// and stored configurations are only ever pruned by larger ones).
    pub(crate) fn covers(&self, space: &S, candidate: &S::Config) -> bool {
        let key = space.key(candidate);
        let shard = self.shard(&key).lock().expect("seen shard poisoned");
        if !space.uses_subsumption() {
            return shard.contains_key(&key);
        }
        shard.get(&key).is_some_and(|bucket| {
            bucket
                .iter()
                .any(|stored| space.subsumes(stored, candidate))
        })
    }
}
