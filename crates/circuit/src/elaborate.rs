//! Elaboration of a transistor-level circuit into a timed transition system.
//!
//! Each node/direction pair with at least one driver becomes a signal-edge
//! event (`NODE+` / `NODE-`). The enabling condition of the event in a given
//! valuation is "the node does not yet have the target value and some driver
//! towards that value conducts"; its delay interval is the envelope of the
//! delays of the drivers of that direction. Input nodes toggle freely (their
//! timing is supplied by the environment model they are composed with).
//! States in which a declared (or derived) invariant holds are marked as
//! violations, which is what the verification engine searches for.
//!
//! The exploration works on ids. A valuation is packed into 64-bit words
//! (as many as the circuit needs, so there is no cap on its node count) and
//! keys the state index; every driver and invariant becomes a pair of
//! care/value masks once, before the search, so an enabling test is a few
//! word comparisons. Each `NODE±` event is interned when it first fires,
//! which keeps the alphabet in first-firing order, and transitions are
//! added by id.

use std::fmt;

use tts::{DelayInterval, EventId, IdMap, Polarity, StateId, TimedTransitionSystem, TsBuilder};

use crate::netlist::{Circuit, Invariant, Literal, NodeId};

/// Options controlling elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElaborateOptions {
    /// Maximum number of circuit states (valuations) to explore.
    pub state_limit: usize,
    /// If `true`, short-circuit invariants derived structurally from
    /// non-complementary drivers are checked in addition to the declared
    /// ones.
    pub include_derived_invariants: bool,
    /// Names of nodes whose edges are interface outputs of the circuit.
    pub output_nodes: Vec<String>,
}

impl Default for ElaborateOptions {
    fn default() -> Self {
        ElaborateOptions {
            state_limit: 500_000,
            include_derived_invariants: true,
            output_nodes: Vec::new(),
        }
    }
}

/// Error returned by [`elaborate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElaborateError {
    /// The exploration exceeded the state limit.
    TooManyStates {
        /// The configured limit.
        limit: usize,
    },
    /// An output node named in the options does not exist.
    UnknownOutput(String),
    /// The elaborated system was structurally invalid.
    Build(String),
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateError::TooManyStates { limit } => {
                write!(f, "circuit exploration exceeds {limit} states")
            }
            ElaborateError::UnknownOutput(name) => write!(f, "unknown output node `{name}`"),
            ElaborateError::Build(msg) => {
                write!(f, "elaboration produced an invalid system: {msg}")
            }
        }
    }
}

impl std::error::Error for ElaborateError {}

/// The elaborated circuit model.
#[derive(Debug, Clone)]
pub struct CircuitModel {
    timed: TimedTransitionSystem,
    persistent_events: Vec<String>,
}

impl CircuitModel {
    /// The timed transition system of the circuit (free-running inputs).
    pub fn timed(&self) -> &TimedTransitionSystem {
        &self.timed
    }

    /// Consumes the model and returns the timed transition system.
    pub fn into_timed(self) -> TimedTransitionSystem {
        self.timed
    }

    /// Names of the events that must satisfy the persistency condition of
    /// §5.1 (all edges of non-input nodes: once such an event is enabled, no
    /// other firing may disable it).
    pub fn persistent_events(&self) -> &[String] {
        &self.persistent_events
    }
}

/// Elaborates a circuit into a [`CircuitModel`].
///
/// # Errors
///
/// Returns [`ElaborateError`] if the exploration exceeds the state limit or
/// the options reference unknown nodes.
///
/// # Examples
///
/// ```
/// use cmos_circuit::{elaborate, CircuitBuilder, ElaborateOptions};
///
/// // A free-running input A driving an inverter chain A -> B -> C.
/// let mut builder = CircuitBuilder::new("chain");
/// builder.add_input("A", false);
/// builder.add_node("B", true);
/// builder.add_node("C", false);
/// builder.add_inverter("B", "A")?;
/// builder.add_inverter("C", "B")?;
/// let circuit = builder.build()?;
/// let model = elaborate(&circuit, &ElaborateOptions::default())?;
/// let ts = model.timed().underlying();
/// assert!(ts.alphabet().lookup("B+").is_some());
/// assert!(ts.state_count() <= 8);
/// assert_eq!(model.persistent_events().len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn elaborate(
    circuit: &Circuit,
    options: &ElaborateOptions,
) -> Result<CircuitModel, ElaborateError> {
    for name in &options.output_nodes {
        if circuit.node(name).is_none() {
            return Err(ElaborateError::UnknownOutput(name.clone()));
        }
    }

    // Assemble the invariants to monitor.
    let mut invariants: Vec<Invariant> = circuit.invariants().to_vec();
    if options.include_derived_invariants {
        for derived in circuit.derive_short_circuit_invariants() {
            // Avoid duplicating a manually declared invariant with the same
            // literal set.
            if !invariants.iter().any(|i| i.literals == derived.literals) {
                invariants.push(derived);
            }
        }
    }

    // Per node and polarity: the delay envelope of its drivers and each
    // driver's conduction condition as masks over packed valuations. A pass
    // transistor drives towards its source's value: up while gate and source
    // are high, down while the gate conducts and the source is low. A driver
    // whose conditions contradict each other never conducts and gets no
    // cube. An input toggles freely: it gets one always-conducting (empty)
    // cube each way and, having no drivers, no delay.
    let node_count = circuit.node_count();
    let mut delays: Vec<[Option<DelayInterval>; 2]> = vec![[None; 2]; node_count];
    let mut drivers: Vec<[Vec<Cube>; 2]> =
        (0..node_count).map(|_| [Vec::new(), Vec::new()]).collect();
    let mut add_driver =
        |node: NodeId, polarity: Polarity, gates: &[Literal], delay: DelayInterval| {
            let p = polarity_index(polarity);
            let slot = &mut delays[node.index()][p];
            *slot = Some(match *slot {
                Some(existing) => {
                    let lower = existing.lower().min(delay.lower());
                    let upper = existing.upper().max(delay.upper());
                    DelayInterval::with_bound(lower, upper)
                        .expect("envelope of valid intervals is valid")
                }
                None => delay,
            });
            drivers[node.index()][p].extend(Cube::new(gates));
        };
    for stack in circuit.stacks() {
        let polarity = if stack.drives_to {
            Polarity::Rise
        } else {
            Polarity::Fall
        };
        add_driver(stack.target, polarity, &stack.gates, stack.delay);
    }
    for pass in circuit.passes() {
        let (high, low) = (Literal::high(pass.source), Literal::low(pass.source));
        add_driver(pass.target, Polarity::Rise, &[pass.gate, high], pass.delay);
        add_driver(pass.target, Polarity::Fall, &[pass.gate, low], pass.delay);
    }
    for node in circuit.inputs() {
        drivers[node.index()] = [vec![Cube(Vec::new())], vec![Cube(Vec::new())]];
    }
    let invariants: Vec<(Cube, &str)> = invariants
        .iter()
        .filter_map(|i| Cube::new(&i.literals).map(|cube| (cube, i.name.as_str())))
        .collect();

    // Breadth-first exploration of the valuation space. States get ids in
    // discovery order, so the queue is the id range and a state's valuation
    // sits at `valuations[id * words..]`.
    let words = node_count.div_ceil(64);
    let mut builder = TsBuilder::new(circuit.name());
    let mut ids: IdMap<Vec<u64>, StateId> = IdMap::default();
    let mut valuations: Vec<u64> = Vec::new();
    let mut add_state = |builder: &mut TsBuilder, valuations: &mut Vec<u64>, packed: &[u64]| {
        if let Some(&id) = ids.get(packed) {
            return id;
        }
        let name: String = (0..node_count)
            .map(|n| if bit(packed, n) { '1' } else { '0' })
            .collect();
        let id = builder.add_state(name);
        for (cube, name) in &invariants {
            if cube.holds(packed) {
                builder.mark_violation(id, *name);
            }
        }
        ids.insert(packed.to_vec(), id);
        valuations.extend_from_slice(packed);
        id
    };

    let mut packed = vec![0u64; words];
    for node in circuit.nodes() {
        if circuit.initial_value(node) {
            packed[node.index() / 64] |= 1 << (node.index() % 64);
        }
    }
    let initial_id = add_state(&mut builder, &mut valuations, &packed);
    builder.set_initial(initial_id);

    // The `NODE±` event of each node and polarity, interned on its first
    // firing.
    let mut events: Vec<[Option<EventId>; 2]> = vec![[None; 2]; node_count];
    let event_name = |node: NodeId, polarity: Polarity| -> String {
        format!("{}{}", circuit.node_name(node), polarity.suffix())
    };
    let mut current = vec![0u64; words];
    let mut from = 0;
    while from < builder.state_count() {
        if builder.state_count() > options.state_limit {
            return Err(ElaborateError::TooManyStates {
                limit: options.state_limit,
            });
        }
        current.copy_from_slice(&valuations[from * words..(from + 1) * words]);
        for node in circuit.nodes() {
            // A node moves towards the value a conducting driver pulls it to.
            let n = node.index();
            let polarity = if bit(&current, n) {
                Polarity::Fall
            } else {
                Polarity::Rise
            };
            let p = polarity_index(polarity);
            if !drivers[n][p].iter().any(|c| c.holds(&current)) {
                continue;
            }
            packed.copy_from_slice(&current);
            packed[n / 64] ^= 1 << (n % 64);
            let to = add_state(&mut builder, &mut valuations, &packed);
            let e = *events[n][p]
                .get_or_insert_with(|| builder.intern_event(event_name(node, polarity)));
            builder.add_transition_by_id(StateId::from_index(from), e, to);
        }
        from += 1;
    }

    // Interface roles and persistency set.
    let mut persistent_events = Vec::new();
    for node in circuit.nodes() {
        for polarity in [Polarity::Rise, Polarity::Fall] {
            let name = event_name(node, polarity);
            let slot = &mut events[node.index()][polarity_index(polarity)];
            if circuit.is_input(node) {
                *slot = Some(builder.declare_input(&name));
            } else {
                if options
                    .output_nodes
                    .iter()
                    .any(|o| o == circuit.node_name(node))
                {
                    *slot = Some(builder.declare_output(&name));
                }
                persistent_events.push(name);
            }
        }
    }

    let ts = builder
        .build()
        .map_err(|e| ElaborateError::Build(e.to_string()))?;
    let mut timed = TimedTransitionSystem::new(ts);
    for (node_delays, node_events) in delays.iter().zip(&events) {
        for (delay, event) in node_delays.iter().zip(node_events) {
            if let (Some(delay), Some(event)) = (delay, event) {
                timed.set_delay(*event, *delay);
            }
        }
    }
    Ok(CircuitModel {
        timed,
        persistent_events,
    })
}

/// Index of a polarity in the per-node `[rise, fall]` tables.
fn polarity_index(polarity: Polarity) -> usize {
    match polarity {
        Polarity::Rise => 0,
        Polarity::Fall => 1,
    }
}

/// The value of `node` in a packed valuation.
fn bit(packed: &[u64], node: usize) -> bool {
    packed[node / 64] >> (node % 64) & 1 == 1
}

/// A conjunction of literals as `(word, care, value)` masks over packed
/// valuations: it holds when every word masked with `care` equals `value`.
struct Cube(Vec<(usize, u64, u64)>);

impl Cube {
    /// The cube of `literals`, or `None` if they contradict each other.
    fn new(literals: &[Literal]) -> Option<Cube> {
        let mut masks: Vec<(usize, u64, u64)> = Vec::new();
        for literal in literals {
            let node = literal.node.index();
            let (word, bit) = (node / 64, 1u64 << (node % 64));
            let value = if literal.value { bit } else { 0 };
            let i = match masks.iter().position(|&(w, _, _)| w == word) {
                Some(i) => i,
                None => {
                    masks.push((word, 0, 0));
                    masks.len() - 1
                }
            };
            let (_, care, v) = &mut masks[i];
            if *care & bit != 0 && *v & bit != value {
                return None;
            }
            *care |= bit;
            *v |= value;
        }
        Some(Cube(masks))
    }

    fn holds(&self, packed: &[u64]) -> bool {
        self.0
            .iter()
            .all(|&(word, care, value)| packed[word] & care == value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use tts::Time;

    fn d(l: i64, u: i64) -> DelayInterval {
        DelayInterval::new(Time::new(l), Time::new(u)).unwrap()
    }

    /// An inverter driven by a free input.
    fn inverter() -> Circuit {
        let mut b = CircuitBuilder::new("inv");
        b.add_input("A", false);
        b.add_node("Y", true);
        b.add_inverter_with("Y", "A", d(1, 2), d(1, 2)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn inverter_elaborates_to_four_states() {
        let model = elaborate(&inverter(), &ElaborateOptions::default()).unwrap();
        let ts = model.timed().underlying();
        // (A,Y) in {0,1}^2, all reachable with a free-running input.
        assert_eq!(ts.state_count(), 4);
        assert!(ts.alphabet().lookup("A+").is_some());
        assert!(ts.alphabet().lookup("Y-").is_some());
        assert_eq!(model.timed().delay_by_name("Y+"), d(1, 2));
        // Input edges have no circuit delay.
        assert!(model.timed().delay_by_name("A+").is_unbounded());
        assert_eq!(model.persistent_events().len(), 2);
    }

    #[test]
    fn input_edges_are_inputs_and_marked_outputs_are_outputs() {
        let mut b = CircuitBuilder::new("buf");
        b.add_input("A", false);
        b.add_node("Y", true);
        b.add_inverter("Y", "A").unwrap();
        let circuit = b.build().unwrap();
        let options = ElaborateOptions {
            output_nodes: vec!["Y".to_owned()],
            ..ElaborateOptions::default()
        };
        let model = elaborate(&circuit, &options).unwrap();
        let ts = model.timed().underlying();
        let a_plus = ts.alphabet().lookup("A+").unwrap();
        let y_minus = ts.alphabet().lookup("Y-").unwrap();
        assert_eq!(ts.role(a_plus), tts::EventRole::Input);
        assert_eq!(ts.role(y_minus), tts::EventRole::Output);
    }

    #[test]
    fn invariant_violations_are_marked() {
        // Y pulled up on !Z and pulled down on ACK with both inputs free: the
        // short circuit state (!Z, ACK) is reachable and must be marked.
        let mut b = CircuitBuilder::new("y");
        b.add_input("Z", false);
        b.add_input("ACK", false);
        b.add_node("Y", true);
        b.add_pull_up("Y", &[("Z", false)]).unwrap();
        b.add_pull_down("Y", &[("ACK", true)]).unwrap();
        let circuit = b.build().unwrap();
        let model = elaborate(&circuit, &ElaborateOptions::default()).unwrap();
        let ts = model.timed().underlying();
        let bad = ts.marked_reachable_states();
        assert!(!bad.is_empty());
        assert!(ts.violations(bad[0])[0].contains("short-circuit at Y"));
    }

    #[test]
    fn derived_invariants_can_be_disabled() {
        let mut b = CircuitBuilder::new("y");
        b.add_input("Z", false);
        b.add_input("ACK", false);
        b.add_node("Y", true);
        b.add_pull_up("Y", &[("Z", false)]).unwrap();
        b.add_pull_down("Y", &[("ACK", true)]).unwrap();
        let circuit = b.build().unwrap();
        let options = ElaborateOptions {
            include_derived_invariants: false,
            ..ElaborateOptions::default()
        };
        let model = elaborate(&circuit, &options).unwrap();
        assert!(model
            .timed()
            .underlying()
            .marked_reachable_states()
            .is_empty());
    }

    #[test]
    fn state_limit_is_enforced() {
        let options = ElaborateOptions {
            state_limit: 1,
            ..ElaborateOptions::default()
        };
        assert!(matches!(
            elaborate(&inverter(), &options),
            Err(ElaborateError::TooManyStates { .. })
        ));
    }

    #[test]
    fn unknown_output_is_rejected() {
        let options = ElaborateOptions {
            output_nodes: vec!["missing".to_owned()],
            ..ElaborateOptions::default()
        };
        assert!(matches!(
            elaborate(&inverter(), &options),
            Err(ElaborateError::UnknownOutput(_))
        ));
    }

    #[test]
    fn pass_transistors_follow_their_source() {
        let mut b = CircuitBuilder::new("pass");
        b.add_input("VALID", true);
        b.add_input("Y", true);
        b.add_node("Vint", true);
        b.add_pass("Vint", ("Y", true), "VALID", d(1, 2)).unwrap();
        let circuit = b.build().unwrap();
        let model = elaborate(&circuit, &ElaborateOptions::default()).unwrap();
        let ts = model.timed().underlying();
        // From the initial state (VALID=1, Y=1, Vint=1) lowering VALID enables
        // Vint-.
        let valid_minus = ts.alphabet().lookup("VALID-").unwrap();
        let s0 = ts.initial_states()[0];
        let after_valid_low = ts.successors(s0, valid_minus)[0];
        let vint_minus = ts.alphabet().lookup("Vint-").unwrap();
        assert!(ts.is_enabled(after_valid_low, vint_minus));
        // With Y off the pass transistor no longer drives Vint.
        let y_minus = ts.alphabet().lookup("Y-").unwrap();
        let isolated = ts.successors(after_valid_low, y_minus)[0];
        assert!(!ts.is_enabled(isolated, vint_minus));
    }
}
