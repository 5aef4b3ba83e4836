//! The seen-set: the keys seen under exact deduplication, or a `HashMap`
//! from dedup key to the stored configurations of that key (maximal modulo
//! subsumption).

use std::collections::{HashMap, HashSet};

use crate::space::SearchSpace;

/// The stored configurations of one key, each beside its
/// [coverage signature](SearchSpace::coverage_signature): the signatures
/// sit in one contiguous vector, so a scan tests them without touching the
/// configurations they rule out.
struct Bucket<C> {
    configs: Vec<C>,
    signatures: Vec<u64>,
}

impl<C> Default for Bucket<C> {
    fn default() -> Self {
        Bucket {
            configs: Vec::new(),
            signatures: Vec::new(),
        }
    }
}

impl<C> Bucket<C> {
    /// The stored configurations that may cover a configuration with
    /// signature `signature`: those whose signature contains it.
    fn covering(&self, signature: u64) -> impl Iterator<Item = &C> {
        self.signatures
            .iter()
            .zip(&self.configs)
            .filter(move |&(&stored, _)| signature & !stored == 0)
            .map(|(_, config)| config)
    }
}

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
    buckets: HashMap<S::Key, Bucket<S::Config>>,
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
        let signature = space.coverage_signature(&config);
        let bucket = self.buckets.entry(key).or_default();
        if bucket
            .covering(signature)
            .any(|stored| space.subsumes(stored, &config))
        {
            return None;
        }
        let config = space.intern(config);
        debug_assert_eq!(
            space.coverage_signature(&config),
            signature,
            "intern changed a coverage signature"
        );
        // Prune what the new configuration covers, keeping each kept
        // signature beside its configuration.
        let Bucket {
            configs,
            signatures,
        } = bucket;
        let (mut next, mut kept) = (0, 0);
        configs.retain(|stored| {
            let stored_signature = signatures[next];
            next += 1;
            let covered = stored_signature & !signature == 0 && space.subsumes(&config, stored);
            if !covered {
                signatures[kept] = stored_signature;
                kept += 1;
            }
            !covered
        });
        signatures.truncate(kept);
        configs.push(config.clone());
        signatures.push(signature);
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
        // Equal configurations have equal signatures.
        let signature = space.coverage_signature(config);
        self.buckets.get(&key).is_some_and(|bucket| {
            bucket
                .signatures
                .iter()
                .zip(&bucket.configs)
                .any(|(&stored_signature, stored)| {
                    stored_signature == signature && stored == config
                })
        })
    }

    /// Reports a pop-time skip to the space (see
    /// [`SearchSpace::note_pop_skip`]) with the stored configurations of
    /// the skipped configuration's key whose signature passes its test.
    /// Called right after [`contains`](SeenMap::contains) returned `false`
    /// for `config`.
    pub(crate) fn note_skip(&self, space: &S, config: &S::Config) {
        let signature = space.coverage_signature(config);
        let bucket = self.buckets.get(&space.key(config));
        let mut covering = bucket.into_iter().flat_map(|b| b.covering(signature));
        space.note_pop_skip(config, &mut covering);
    }
}
