//! Signal transition graphs: Petri nets whose transitions are interpreted as
//! rising (`+`) and falling (`-`) signal edges.
//!
//! The paper uses STGs to describe the pulse-driven environments `IN` and
//! `OUT` (Fig. 12), the untimed abstractions `A_in` and `A_out` (Fig. 10) and
//! the interface specification. This crate provides the net structure, the
//! token game and the conversion to an explicit transition system
//! (reachability graph) that the verification engine operates on.

use std::collections::HashMap;
use std::fmt;

/// Index of a place within an [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub(crate) u32);

impl PlaceId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id from a raw index (must be below the net's place count).
    pub fn from_index(index: usize) -> Self {
        PlaceId(index as u32)
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Index of a transition within an [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub(crate) u32);

impl TransitionId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id from a raw index (must be below the net's transition
    /// count).
    pub fn from_index(index: usize) -> Self {
        TransitionId(index as u32)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Interface role of a transition label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalRole {
    /// Produced by the environment (underlined transitions in the paper's
    /// figures).
    Input,
    /// Produced by the modelled component.
    Output,
    /// Internal.
    Internal,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PlaceData {
    name: String,
    initial_tokens: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TransitionData {
    label: String,
    role: SignalRole,
    pre: Vec<PlaceId>,
    post: Vec<PlaceId>,
}

/// Error returned by [`StgBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildStgError {
    /// The net has no transitions.
    NoTransitions,
    /// A transition has no input places (it would be enabled forever).
    SourceTransition(String),
}

impl fmt::Display for BuildStgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildStgError::NoTransitions => write!(f, "signal transition graph has no transitions"),
            BuildStgError::SourceTransition(label) => write!(
                f,
                "transition `{label}` has no input places and would be unboundedly enabled"
            ),
        }
    }
}

impl std::error::Error for BuildStgError {}

/// Builder for [`Stg`].
#[derive(Debug, Clone, Default)]
pub struct StgBuilder {
    name: String,
    places: Vec<PlaceData>,
    transitions: Vec<TransitionData>,
    forbidden: Vec<Vec<PlaceId>>,
}

impl StgBuilder {
    /// Creates a builder for a net called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        StgBuilder {
            name: name.into(),
            ..StgBuilder::default()
        }
    }

    /// Adds a place with an initial token count.
    pub fn add_place(&mut self, name: impl Into<String>, initial_tokens: u32) -> PlaceId {
        let id = PlaceId(self.places.len() as u32);
        self.places.push(PlaceData {
            name: name.into(),
            initial_tokens,
        });
        id
    }

    /// Adds a transition labelled with a signal edge (e.g. `"ACK+"`).
    pub fn add_transition(&mut self, label: impl Into<String>, role: SignalRole) -> TransitionId {
        let id = TransitionId(self.transitions.len() as u32);
        self.transitions.push(TransitionData {
            label: label.into(),
            role,
            pre: Vec::new(),
            post: Vec::new(),
        });
        id
    }

    /// Adds an arc from a place to a transition.
    pub fn arc_in(&mut self, place: PlaceId, transition: TransitionId) {
        let pre = &mut self.transitions[transition.index()].pre;
        if !pre.contains(&place) {
            pre.push(place);
        }
    }

    /// Adds an arc from a transition to a place.
    pub fn arc_out(&mut self, transition: TransitionId, place: PlaceId) {
        let post = &mut self.transitions[transition.index()].post;
        if !post.contains(&place) {
            post.push(place);
        }
    }

    /// Adds an anonymous place connecting `from` to `to` (the usual way of
    /// drawing STG causality arcs), optionally carrying an initial token.
    pub fn connect(
        &mut self,
        from: TransitionId,
        to: TransitionId,
        initial_tokens: u32,
    ) -> PlaceId {
        let name = format!(
            "{}->{}",
            self.transitions[from.index()].label,
            self.transitions[to.index()].label
        );
        let place = self.add_place(name, initial_tokens);
        self.arc_out(from, place);
        self.arc_in(place, to);
        place
    }

    /// Declares a marking predicate as a violation: any reachable marking
    /// with a token on *every* listed place is an error state. The
    /// reachability expansion marks matching states, so `property
    /// forbid-marked` verification, the zone witness search and the engine's
    /// counterexample machinery all pick the predicate up unchanged.
    ///
    /// Empty conjunctions are ignored (they would forbid every marking);
    /// duplicate places within one conjunction are collapsed.
    pub fn forbid_marking(&mut self, places: impl IntoIterator<Item = PlaceId>) {
        let mut conjunction: Vec<PlaceId> = places.into_iter().collect();
        conjunction.sort_unstable();
        conjunction.dedup();
        if !conjunction.is_empty() {
            self.forbidden.push(conjunction);
        }
    }

    /// Finalises the net.
    ///
    /// # Errors
    ///
    /// Returns [`BuildStgError`] if the net has no transitions or a
    /// transition without input places.
    pub fn build(self) -> Result<Stg, BuildStgError> {
        if self.transitions.is_empty() {
            return Err(BuildStgError::NoTransitions);
        }
        if let Some(t) = self.transitions.iter().find(|t| t.pre.is_empty()) {
            return Err(BuildStgError::SourceTransition(t.label.clone()));
        }
        Ok(Stg {
            name: self.name,
            places: self.places,
            transitions: self.transitions,
            forbidden: self.forbidden,
        })
    }
}

/// A signal transition graph.
///
/// # Examples
///
/// ```
/// use stg::{SignalRole, StgBuilder};
/// // The A_in abstraction of the paper (Fig. 10a): VALID- -> ACK+ -> {VALID+, ACK-}
/// // and both must complete before the next VALID-.
/// let mut b = StgBuilder::new("A_in");
/// let valid_minus = b.add_transition("VALID-", SignalRole::Output);
/// let ack_plus = b.add_transition("ACK+", SignalRole::Input);
/// let valid_plus = b.add_transition("VALID+", SignalRole::Output);
/// let ack_minus = b.add_transition("ACK-", SignalRole::Input);
/// b.connect(valid_minus, ack_plus, 0);
/// b.connect(ack_plus, valid_plus, 0);
/// b.connect(ack_plus, ack_minus, 0);
/// b.connect(valid_plus, valid_minus, 1);
/// b.connect(ack_minus, valid_minus, 1);
/// let net = b.build()?;
/// assert_eq!(net.transition_count(), 4);
/// assert!(net.enabled(&net.initial_marking()).len() == 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stg {
    name: String,
    places: Vec<PlaceData>,
    transitions: Vec<TransitionData>,
    forbidden: Vec<Vec<PlaceId>>,
}

/// A 1-safe marking: the set of marked places, one bit per place packed into
/// 64-bit words (place `i` is bit `i % 64` of word `i / 64`).
///
/// Every model of the paper is a safe net, so a place never carries more
/// than one token; expansion rejects a net that would put a second token on
/// a place ([`ExpandError::Unbounded`](crate::ExpandError::Unbounded)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Marking {
    words: Box<[u64]>,
}

impl Marking {
    pub(crate) fn from_words(words: &[u64]) -> Self {
        Marking {
            words: words.into(),
        }
    }

    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns `true` if `place` carries a token.
    pub fn is_marked(&self, place: PlaceId) -> bool {
        let i = place.index();
        self.words
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 == 1)
    }

    /// The marked places, in increasing id order.
    pub fn marked_places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        set_bits(&self.words).map(PlaceId::from_index)
    }

    fn mark(&mut self, place: PlaceId) {
        let i = place.index();
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn unmark(&mut self, place: PlaceId) {
        let i = place.index();
        self.words[i / 64] &= !(1 << (i % 64));
    }
}

/// The indices of the set bits of a packed bit vector, in increasing order.
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

impl Stg {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// All transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> + '_ {
        (0..self.transitions.len()).map(|i| TransitionId(i as u32))
    }

    /// The label of a transition.
    ///
    /// # Panics
    ///
    /// Panics if the transition does not belong to this net.
    pub fn label(&self, t: TransitionId) -> &str {
        &self.transitions[t.index()].label
    }

    /// The interface role of a transition.
    pub fn role(&self, t: TransitionId) -> SignalRole {
        self.transitions[t.index()].role
    }

    /// The name of a place.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.places[p.index()].name
    }

    /// Input places of a transition.
    pub fn preset(&self, t: TransitionId) -> &[PlaceId] {
        &self.transitions[t.index()].pre
    }

    /// Output places of a transition.
    pub fn postset(&self, t: TransitionId) -> &[PlaceId] {
        &self.transitions[t.index()].post
    }

    /// The number of tokens `place` carries initially, as declared.
    pub fn initial_tokens(&self, place: PlaceId) -> u32 {
        self.places[place.index()].initial_tokens
    }

    /// The marking with one token on each of `places` and none elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if a place does not belong to this net.
    pub fn marking(&self, places: impl IntoIterator<Item = PlaceId>) -> Marking {
        let mut marking = Marking {
            words: vec![0; self.marking_words()].into(),
        };
        for p in places {
            assert!(
                p.index() < self.place_count(),
                "{p} is not a place of this net"
            );
            marking.mark(p);
        }
        marking
    }

    /// The number of 64-bit words of a packed marking of this net.
    pub(crate) fn marking_words(&self) -> usize {
        self.place_count().div_ceil(64).max(1)
    }

    /// The initial marking: the places declared with at least one token. A
    /// place declared with more than one token is marked once here; expansion
    /// rejects such a net as not 1-safe.
    pub fn initial_marking(&self) -> Marking {
        self.marking(
            (0..self.place_count())
                .map(PlaceId::from_index)
                .filter(|&p| self.initial_tokens(p) > 0),
        )
    }

    /// Returns `true` if every input place of `t` is marked.
    fn is_enabled(&self, marking: &Marking, t: TransitionId) -> bool {
        self.preset(t).iter().all(|&p| marking.is_marked(p))
    }

    /// Transitions enabled in `marking`.
    pub fn enabled(&self, marking: &Marking) -> Vec<TransitionId> {
        self.transitions()
            .filter(|&t| self.is_enabled(marking, t))
            .collect()
    }

    /// Fires `t` in `marking`, returning the successor marking.
    ///
    /// Returns `None` if `t` is not enabled, or if firing it would put a
    /// second token on a place (an output place that is marked and is not an
    /// input place of `t`).
    pub fn fire(&self, marking: &Marking, t: TransitionId) -> Option<Marking> {
        if !self.is_enabled(marking, t) {
            return None;
        }
        let mut next = marking.clone();
        for &p in self.preset(t) {
            next.unmark(p);
        }
        for &p in self.postset(t) {
            if next.is_marked(p) {
                return None;
            }
            next.mark(p);
        }
        Some(next)
    }

    /// The forbidden-marking conjunctions declared with
    /// [`StgBuilder::forbid_marking`], each sorted by place id.
    pub fn forbidden_markings(&self) -> &[Vec<PlaceId>] {
        &self.forbidden
    }

    /// Returns the violation message of the first forbidden-marking
    /// conjunction fully covered by `marking`, or `None` when the marking is
    /// allowed.
    ///
    /// # Examples
    ///
    /// ```
    /// use stg::{SignalRole, StgBuilder};
    /// let mut b = StgBuilder::new("mutex");
    /// let a = b.add_transition("A+", SignalRole::Output);
    /// let c = b.add_transition("B+", SignalRole::Output);
    /// let pa = b.connect(a, c, 1);
    /// let pb = b.connect(c, a, 0);
    /// b.forbid_marking([pa, pb]);
    /// let net = b.build()?;
    /// // Only pa is marked initially: allowed.
    /// assert!(net.violation(&net.initial_marking()).is_none());
    /// assert!(net.violation(&net.marking([pa, pb])).is_some());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn violation(&self, marking: &Marking) -> Option<String> {
        let covered = self
            .forbidden
            .iter()
            .find(|conjunction| conjunction.iter().all(|&p| marking.is_marked(p)))?;
        Some(self.violation_message(covered))
    }

    /// The violation message of a forbidden-marking conjunction.
    pub(crate) fn violation_message(&self, conjunction: &[PlaceId]) -> String {
        let names: Vec<&str> = conjunction.iter().map(|&p| self.place_name(p)).collect();
        format!("forbidden marking: {{{}}}", names.join(", "))
    }

    /// Groups transitions by label (several transitions may carry the same
    /// signal edge).
    pub fn transitions_by_label(&self) -> HashMap<&str, Vec<TransitionId>> {
        let mut map: HashMap<&str, Vec<TransitionId>> = HashMap::new();
        for t in self.transitions() {
            map.entry(self.label(t)).or_default().push(t);
        }
        map
    }
}

impl fmt::Display for Stg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} places, {} transitions)",
            self.name,
            self.place_count(),
            self.transition_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake() -> Stg {
        let mut b = StgBuilder::new("hs");
        let req = b.add_transition("REQ+", SignalRole::Output);
        let ack = b.add_transition("ACK+", SignalRole::Input);
        let req_down = b.add_transition("REQ-", SignalRole::Output);
        let ack_down = b.add_transition("ACK-", SignalRole::Input);
        b.connect(req, ack, 0);
        b.connect(ack, req_down, 0);
        b.connect(req_down, ack_down, 0);
        b.connect(ack_down, req, 1);
        b.build().unwrap()
    }

    #[test]
    fn token_game_cycles() {
        let net = handshake();
        let m0 = net.initial_marking();
        let enabled = net.enabled(&m0);
        assert_eq!(enabled.len(), 1);
        assert_eq!(net.label(enabled[0]), "REQ+");
        let m1 = net.fire(&m0, enabled[0]).unwrap();
        assert_eq!(net.label(net.enabled(&m1)[0]), "ACK+");
        // Firing a disabled transition returns None.
        assert!(net.fire(&m1, enabled[0]).is_none());
        // After the full cycle we are back at the initial marking.
        let mut m = m0.clone();
        for _ in 0..4 {
            let t = net.enabled(&m)[0];
            m = net.fire(&m, t).unwrap();
        }
        assert_eq!(m, m0);
    }

    #[test]
    fn packed_markings_and_safe_firing() {
        // 66 places: p64 and p65 live in a marking's second word.
        let mut b = StgBuilder::new("wide");
        let t = b.add_transition("X+", SignalRole::Output);
        let u = b.add_transition("X-", SignalRole::Output);
        let places: Vec<_> = (0..66).map(|i| b.add_place(format!("q{i}"), 0)).collect();
        b.arc_in(places[1], t);
        b.arc_out(t, places[65]);
        b.arc_in(places[65], u);
        b.arc_out(u, places[1]);
        let net = b.build().unwrap();
        let m = net.marking([places[1], places[64]]);
        assert!(m.is_marked(places[64]) && !m.is_marked(places[65]));
        let next = net.fire(&m, t).unwrap();
        assert_eq!(
            next.marked_places().collect::<Vec<_>>(),
            vec![places[64], places[65]]
        );
        // Firing t again once p1 is back would put a second token on p65.
        assert!(net.fire(&net.marking([places[1], places[65]]), t).is_none());
        assert_eq!(net.initial_marking().marked_places().count(), 0);
    }

    #[test]
    fn builder_rejects_degenerate_nets() {
        assert_eq!(
            StgBuilder::new("empty").build().unwrap_err(),
            BuildStgError::NoTransitions
        );
        let mut b = StgBuilder::new("source");
        b.add_transition("X+", SignalRole::Output);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildStgError::SourceTransition(_)
        ));
    }

    #[test]
    fn roles_and_labels() {
        let net = handshake();
        let by_label = net.transitions_by_label();
        assert_eq!(by_label.len(), 4);
        let req = by_label["REQ+"][0];
        assert_eq!(net.role(req), SignalRole::Output);
        let ack = by_label["ACK+"][0];
        assert_eq!(net.role(ack), SignalRole::Input);
        assert!(net.to_string().contains("4 transitions"));
        assert!(net.place_name(net.preset(ack)[0]).contains("REQ+"));
    }

    #[test]
    fn explicit_places_allow_concurrency() {
        // Fork: A+ marks two places read by B+ and C+ concurrently.
        let mut b = StgBuilder::new("fork");
        let a = b.add_transition("A+", SignalRole::Output);
        let bt = b.add_transition("B+", SignalRole::Output);
        let c = b.add_transition("C+", SignalRole::Output);
        b.connect(a, bt, 0);
        b.connect(a, c, 0);
        // Close the loop so every transition has a preset and the net is live.
        let join = b.add_transition("A-", SignalRole::Output);
        b.connect(bt, join, 0);
        b.connect(c, join, 0);
        let back = b.add_place("restart", 1);
        b.arc_out(join, back);
        b.arc_in(back, a);
        let net = b.build().unwrap();
        let m0 = net.initial_marking();
        let m1 = net.fire(&m0, net.enabled(&m0)[0]).unwrap();
        assert_eq!(net.enabled(&m1).len(), 2);
    }
}
