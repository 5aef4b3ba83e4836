//! The seen-set: the keys seen under exact deduplication, or a `HashMap`
//! from dedup key to the stored configurations of that key (maximal modulo
//! subsumption).

use std::collections::{HashMap, HashSet};

use crate::space::SearchSpace;

/// Map from key to the bucket of stored configurations.
///
/// Buckets are *antichains* of the subsumption relation: a configuration is
/// only stored if no stored configuration subsumes it, and storing it prunes
/// every stored configuration it subsumes.
///
/// With the default exact-dedup relation any stored configuration with the
/// same key *is* the candidate, so only the keys are kept and the key's
/// presence alone answers every query — spaces whose key is the whole
/// configuration (e.g. the relative-timing engine's discrete states) then
/// store each configuration once instead of twice.
pub(crate) struct SeenMap<S: SearchSpace> {
    keys: HashSet<S::Key>,
    buckets: HashMap<S::Key, Vec<S::Config>>,
}

impl<S: SearchSpace> Default for SeenMap<S> {
    fn default() -> Self {
        SeenMap {
            keys: HashSet::new(),
            buckets: HashMap::new(),
        }
    }
}

impl<S: SearchSpace> SeenMap<S> {
    /// Stores `config` unless a stored configuration with the same key
    /// subsumes it; prunes stored configurations the new one subsumes.
    /// Returns the interned configuration when it was stored.
    pub(crate) fn push(&mut self, space: &S, config: S::Config) -> Option<S::Config> {
        let key = space.key(&config);
        if !space.uses_subsumption() {
            // Exact deduplication: the key's presence is the whole answer.
            return self.keys.insert(key).then(|| space.intern(config));
        }
        let bucket = self.buckets.entry(key).or_default();
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
        if !space.uses_subsumption() {
            return self.keys.contains(&key);
        }
        self.buckets
            .get(&key)
            .is_some_and(|bucket| bucket.iter().any(|stored| stored == config))
    }

    /// Reports a pop-time skip to the space (see
    /// [`SearchSpace::note_pop_skip`]) with the bucket currently stored
    /// under the skipped configuration's key. Called right after
    /// [`contains`](SeenMap::contains) returned `false` for `config`.
    pub(crate) fn note_skip(&self, space: &S, config: &S::Config) {
        let bucket = self.buckets.get(&space.key(config));
        space.note_pop_skip(config, bucket.map_or(&[], Vec::as_slice));
    }
}
