//! The [`SearchSpace`] trait: what a breadth-first exploration problem must
//! provide.

use std::hash::Hash;

/// A breadth-first exploration problem.
///
/// The driver calls every method from its one sequential loop, in
/// breadth-first order, so implementations may keep interior-mutable
/// tables and counters (e.g. a `RefCell` interner) and any counters they
/// bump are deterministic. [`expand`] must be a **pure function** of the
/// configuration.
///
/// [`expand`]: SearchSpace::expand
pub trait SearchSpace {
    /// One exploration configuration (e.g. a state, a marking, or a
    /// `(state, zone)` pair).
    type Config: Clone + PartialEq;

    /// Deduplication key. Configurations with *different* keys never
    /// interact; configurations with the same key are candidates for
    /// subsumption (see [`subsumes`](SearchSpace::subsumes)).
    type Key: Clone + Eq + Hash;

    /// Label attached to a generated successor (e.g. the event that fired).
    /// Use `()` when callers do not need edges.
    type Edge: Clone;

    /// Error aborting the whole exploration (use
    /// [`std::convert::Infallible`] for total spaces).
    type Error;

    /// The initial configurations, in deterministic order.
    ///
    /// # Errors
    ///
    /// Propagated verbatim from [`explore`](crate::explore).
    fn initial(&self) -> Result<Vec<Self::Config>, Self::Error>;

    /// The dedup key of a configuration.
    fn key(&self, config: &Self::Config) -> Self::Key;

    /// The successor configurations of `config`, in deterministic order.
    ///
    /// # Errors
    ///
    /// An error aborts the exploration at the point where the search
    /// expands `config`.
    #[allow(clippy::type_complexity)]
    fn expand(&self, config: &Self::Config)
        -> Result<Vec<(Self::Edge, Self::Config)>, Self::Error>;

    /// Returns `true` if the stored configuration `stored` makes exploring
    /// `candidate` redundant. Only called for configurations with equal keys.
    ///
    /// The default (`true`) gives exact deduplication: if the key is the
    /// whole configuration, any stored configuration with the same key *is*
    /// the candidate. Override for genuine subsumption orders (e.g. zone
    /// inclusion); the relation must be reflexive and transitive, and
    /// [`uses_subsumption`](SearchSpace::uses_subsumption) must then return
    /// `true`.
    fn subsumes(&self, stored: &Self::Config, candidate: &Self::Config) -> bool {
        let _ = (stored, candidate);
        true
    }

    /// Returns `true` if [`subsumes`](SearchSpace::subsumes) can relate
    /// non-identical configurations, i.e. stored configurations may be
    /// pruned by later, wider arrivals. The driver then re-checks every
    /// dequeued configuration against the seen set before expanding it (the
    /// pop-time subsumption check); with the default (`false`) that check is
    /// skipped — it could never fire under exact deduplication.
    fn uses_subsumption(&self) -> bool {
        false
    }

    /// Returns `true` if the driver should record the parent links
    /// ([`ExploreReport::parents`](crate::ExploreReport::parents)) that
    /// witness paths are rebuilt from; the default records nothing.
    fn records_parents(&self) -> bool {
        false
    }

    /// A bit set summarising what a configuration covers, which lets the
    /// seen map rule out most [`subsumes`](SearchSpace::subsumes) calls
    /// with one mask test. The contract:
    ///
    /// * `subsumes(stored, candidate)` implies
    ///   `coverage_signature(candidate) & !coverage_signature(stored) == 0`;
    /// * [`intern`](SearchSpace::intern) keeps a configuration's signature.
    ///
    /// The seen map keeps each bucket's signatures beside its
    /// configurations and asks `subsumes` (and compares configurations, and
    /// hands them to [`note_pop_skip`](SearchSpace::note_pop_skip)) only
    /// for pairs that pass the test, so a sound signature changes no
    /// report. The default (`0`) passes every pair. Only consulted for
    /// spaces with [`uses_subsumption`](SearchSpace::uses_subsumption).
    fn coverage_signature(&self, config: &Self::Config) -> u64 {
        let _ = config;
        0
    }

    /// Observes a configuration the driver skipped at pop time because a
    /// later, wider arrival pruned it from the seen set, together with the
    /// configurations stored under its key whose
    /// [`coverage_signature`](SearchSpace::coverage_signature) may cover it
    /// (the signature test passes).
    ///
    /// Only fires for spaces with
    /// [`uses_subsumption`](SearchSpace::uses_subsumption); the default does
    /// nothing. Spaces use it to classify *why* the skip was sound — e.g.
    /// the zone explorer counts skips that no stored zone covers convexly,
    /// attributing them to the non-convex aLU relation.
    fn note_pop_skip(
        &self,
        skipped: &Self::Config,
        covering: &mut dyn Iterator<Item = &Self::Config>,
    ) {
        let _ = (skipped, covering);
    }

    /// Canonicalises a configuration before it is stored and enqueued. The
    /// driver calls it once per stored configuration, so a space may also
    /// use it to note what the search has discovered.
    ///
    /// The returned configuration either equals the argument (with a possibly
    /// shared representation, e.g. an interned `Arc`) or — for spaces with
    /// [`uses_subsumption`](SearchSpace::uses_subsumption) — *subsumes* it
    /// (a widening normalisation such as zone extrapolation). The driver
    /// keys buckets by the pre-intern [`key`](SearchSpace::key) and never
    /// re-keys stored configurations, so a widening intern must keep the
    /// key stable for subsumption spaces.
    fn intern(&self, config: Self::Config) -> Self::Config {
        config
    }

    /// Inspects a configuration at the moment it is expanded (in
    /// breadth-first order) together with its expansion.
    /// Returning `true` records the node and stops the search — used by goal
    /// searches that only need the first failure in breadth-first order.
    fn should_halt(
        &self,
        config: &Self::Config,
        successors: &[(Self::Edge, Self::Config)],
    ) -> bool {
        let _ = (config, successors);
        false
    }
}
