//! Equality oracle for the model builders that run before the engine:
//! circuit elaboration (`cmos_circuit::elaborate`), composition
//! (`tts::compose_with`, `compose_timed`, `compose_all`,
//! `compose_timed_all`) and the containment monitor
//! (`transyt::build_containment_monitor`).
//!
//! Each builder must return a system `==` to a plain reference kept in this
//! file: valuations as `Vec<bool>`, product states keyed by `(StateId,
//! StateId)`, every transition added by event name. The references are the
//! straightforward constructions with three orders pinned where a hash map
//! used to choose them: interface roles are declared in alphabet order (left
//! component first), the monitor's trap records each refusal message once,
//! and conflicting delays are reported for the first event in the right
//! component's alphabet order. Errors must agree too.

use std::collections::{HashMap, HashSet, VecDeque};

use cmos_circuit::{
    elaborate, Circuit, CircuitBuilder, DriveStrength, ElaborateError, ElaborateOptions, Invariant,
    NodeId,
};
use proptest::prelude::*;
use transyt::{build_containment_monitor, ContainError, RefinementObligation};
use tts::{
    compose_all, compose_timed, compose_timed_all, compose_with, Bound, ComposeOptions,
    DelayInterval, EventRole, Polarity, StateId, Time, TimedTransitionSystem, TransitionSystem,
    TsBuilder,
};

// ---------------------------------------------------------------------------
// Reference builders.
// ---------------------------------------------------------------------------

/// Reference elaboration: breadth-first over `Vec<bool>` valuations, every
/// transition added by its `NODE±` name. Returns the timed system and the
/// persistency set.
fn reference_elaborate(
    circuit: &Circuit,
    options: &ElaborateOptions,
) -> Result<(TimedTransitionSystem, Vec<String>), ElaborateError> {
    for name in &options.output_nodes {
        if circuit.node(name).is_none() {
            return Err(ElaborateError::UnknownOutput(name.clone()));
        }
    }
    let mut invariants: Vec<Invariant> = circuit.invariants().to_vec();
    if options.include_derived_invariants {
        for derived in circuit.derive_short_circuit_invariants() {
            if !invariants.iter().any(|i| i.literals == derived.literals) {
                invariants.push(derived);
            }
        }
    }
    let mut delays: HashMap<(NodeId, Polarity), DelayInterval> = HashMap::new();
    let mut note_delay = |node: NodeId, polarity: Polarity, delay: DelayInterval| {
        delays
            .entry((node, polarity))
            .and_modify(|existing| {
                let lower = existing.lower().min(delay.lower());
                let upper = existing.upper().max(delay.upper());
                *existing = DelayInterval::with_bound(lower, upper).unwrap();
            })
            .or_insert(delay);
    };
    for stack in circuit.stacks() {
        let polarity = if stack.drives_to {
            Polarity::Rise
        } else {
            Polarity::Fall
        };
        note_delay(stack.target, polarity, stack.delay);
    }
    for pass in circuit.passes() {
        note_delay(pass.target, Polarity::Rise, pass.delay);
        note_delay(pass.target, Polarity::Fall, pass.delay);
    }
    let event_name = |node: NodeId, polarity: Polarity| -> String {
        format!("{}{}", circuit.node_name(node), polarity.suffix())
    };
    let enabled_edges = |values: &[bool]| -> Vec<(NodeId, Polarity)> {
        let mut out = Vec::new();
        for node in circuit.nodes() {
            let current = values[node.index()];
            if circuit.is_input(node) {
                out.push((
                    node,
                    if current {
                        Polarity::Fall
                    } else {
                        Polarity::Rise
                    },
                ));
                continue;
            }
            let (mut can_rise, mut can_fall) = (false, false);
            for stack in circuit.stacks().iter().filter(|s| s.target == node) {
                if stack
                    .gates
                    .iter()
                    .all(|&g| circuit.literal_holds(g, values))
                {
                    if stack.drives_to {
                        can_rise = true;
                    } else {
                        can_fall = true;
                    }
                }
            }
            for pass in circuit.passes().iter().filter(|p| p.target == node) {
                if circuit.literal_holds(pass.gate, values) {
                    if values[pass.source.index()] {
                        can_rise = true;
                    } else {
                        can_fall = true;
                    }
                }
            }
            if !current && can_rise {
                out.push((node, Polarity::Rise));
            }
            if current && can_fall {
                out.push((node, Polarity::Fall));
            }
        }
        out
    };

    let mut builder = TsBuilder::new(circuit.name());
    let mut ids: HashMap<Vec<bool>, StateId> = HashMap::new();
    let mut queue: VecDeque<Vec<bool>> = VecDeque::new();
    let add_state = |values: Vec<bool>,
                     builder: &mut TsBuilder,
                     ids: &mut HashMap<Vec<bool>, StateId>,
                     queue: &mut VecDeque<Vec<bool>>|
     -> StateId {
        if let Some(&id) = ids.get(&values) {
            return id;
        }
        let name: String = values.iter().map(|&v| if v { '1' } else { '0' }).collect();
        let id = builder.add_state(name);
        for invariant in &invariants {
            if circuit.invariant_violated(invariant, &values) {
                builder.mark_violation(id, invariant.name.clone());
            }
        }
        ids.insert(values.clone(), id);
        queue.push_back(values);
        id
    };
    let initial = add_state(circuit.initial_state(), &mut builder, &mut ids, &mut queue);
    builder.set_initial(initial);
    while let Some(values) = queue.pop_front() {
        if ids.len() > options.state_limit {
            return Err(ElaborateError::TooManyStates {
                limit: options.state_limit,
            });
        }
        let from = ids[&values];
        for (node, polarity) in enabled_edges(&values) {
            let mut next = values.clone();
            next[node.index()] = polarity.target_value();
            let to = add_state(next, &mut builder, &mut ids, &mut queue);
            builder.add_transition(from, event_name(node, polarity), to);
        }
    }

    let mut persistent_events = Vec::new();
    for node in circuit.nodes() {
        for polarity in [Polarity::Rise, Polarity::Fall] {
            let name = event_name(node, polarity);
            if circuit.is_input(node) {
                builder.declare_input(&name);
            } else {
                persistent_events.push(name.clone());
                if options
                    .output_nodes
                    .iter()
                    .any(|o| o == circuit.node_name(node))
                {
                    builder.declare_output(&name);
                }
            }
        }
    }
    let ts = builder
        .build()
        .map_err(|e| ElaborateError::Build(e.to_string()))?;
    let mut timed = TimedTransitionSystem::new(ts);
    for ((node, polarity), delay) in &delays {
        let name = event_name(*node, *polarity);
        if timed.underlying().alphabet().lookup(&name).is_some() {
            timed.set_delay_by_name(&name, *delay);
        }
    }
    Ok((timed, persistent_events))
}

/// Reference product: states keyed by `(StateId, StateId)`, transitions
/// added by name. Errors are compared by their text.
fn reference_compose_with(
    left: &TransitionSystem,
    right: &TransitionSystem,
    options: ComposeOptions,
) -> Result<TransitionSystem, String> {
    let mut builder = TsBuilder::new(format!("{} || {}", left.name(), right.name()));
    let left_names: HashMap<&str, tts::EventId> =
        left.alphabet().iter().map(|(id, n)| (n, id)).collect();
    let right_names: HashMap<&str, tts::EventId> =
        right.alphabet().iter().map(|(id, n)| (n, id)).collect();
    let mut product_states: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();
    let add_state = |builder: &mut TsBuilder,
                     queue: &mut VecDeque<(StateId, StateId)>,
                     product_states: &mut HashMap<(StateId, StateId), StateId>,
                     l: StateId,
                     r: StateId|
     -> StateId {
        if let Some(&id) = product_states.get(&(l, r)) {
            return id;
        }
        let id = builder.add_state(format!("{}|{}", left.state_name(l), right.state_name(r)));
        for v in left.violations(l) {
            builder.mark_violation(id, format!("{}: {}", left.name(), v));
        }
        for v in right.violations(r) {
            builder.mark_violation(id, format!("{}: {}", right.name(), v));
        }
        product_states.insert((l, r), id);
        queue.push_back((l, r));
        id
    };
    for &l in left.initial_states() {
        for &r in right.initial_states() {
            let id = add_state(&mut builder, &mut queue, &mut product_states, l, r);
            builder.set_initial(id);
        }
    }
    while let Some((l, r)) = queue.pop_front() {
        if builder.state_count() > options.state_limit {
            return Err(format!(
                "composition exceeded the state limit of {}",
                options.state_limit
            ));
        }
        let from = product_states[&(l, r)];
        for &(le, lto) in left.transitions_from(l) {
            let name = left.alphabet().name(le);
            match right_names.get(name) {
                Some(&re) => {
                    for rto in right.successors(r, re) {
                        let to = add_state(&mut builder, &mut queue, &mut product_states, lto, rto);
                        builder.add_transition(from, name, to);
                    }
                }
                None => {
                    let to = add_state(&mut builder, &mut queue, &mut product_states, lto, r);
                    builder.add_transition(from, name, to);
                }
            }
        }
        for &(re, rto) in right.transitions_from(r) {
            let name = right.alphabet().name(re);
            if left_names.contains_key(name) {
                continue;
            }
            let to = add_state(&mut builder, &mut queue, &mut product_states, l, rto);
            builder.add_transition(from, name, to);
        }
    }
    // Roles in alphabet order, left component first.
    let mut roles: Vec<(String, EventRole)> = Vec::new();
    let mut position: HashMap<String, usize> = HashMap::new();
    for ts in [left, right] {
        for (id, name) in ts.alphabet().iter() {
            let i = *position.entry(name.to_owned()).or_insert_with(|| {
                roles.push((name.to_owned(), EventRole::Internal));
                roles.len() - 1
            });
            let entry = &mut roles[i].1;
            *entry = match (*entry, ts.role(id)) {
                (EventRole::Output, _) | (_, EventRole::Output) => EventRole::Output,
                (EventRole::Input, _) | (_, EventRole::Input) => EventRole::Input,
                _ => EventRole::Internal,
            };
        }
    }
    for (name, role) in roles {
        match role {
            EventRole::Output => {
                builder.declare_output(&name);
            }
            EventRole::Input => {
                builder.declare_input(&name);
            }
            EventRole::Internal => {}
        }
    }
    builder
        .build()
        .map_err(|e| format!("composition failed: {e}"))
}

/// Reference timed product: delays merged by name, conflicts checked in the
/// right component's alphabet order.
fn reference_compose_timed(
    left: &TimedTransitionSystem,
    right: &TimedTransitionSystem,
) -> Result<TimedTransitionSystem, String> {
    let ts = reference_compose_with(
        left.underlying(),
        right.underlying(),
        ComposeOptions::default(),
    )?;
    let mut timed = TimedTransitionSystem::new(ts);
    let mut merged: HashMap<String, DelayInterval> = HashMap::new();
    for (e, d) in left.delays() {
        merged.insert(left.underlying().alphabet().name(e).to_owned(), d);
    }
    let mut right_delays: Vec<(tts::EventId, DelayInterval)> = right.delays().collect();
    right_delays.sort_by_key(|&(e, _)| e);
    for (e, d) in right_delays {
        let name = right.underlying().alphabet().name(e).to_owned();
        let entry = merged.entry(name.clone()).or_insert(d);
        match entry.intersect(&d) {
            Some(i) => *entry = i,
            None => {
                return Err(format!(
                    "composition failed: event `{name}` has disjoint delay intervals {entry} and {d} in the composed systems"
                ));
            }
        }
    }
    for (name, interval) in merged {
        if let Some(id) = timed.underlying().alphabet().lookup(&name) {
            timed.set_delay(id, interval);
        }
    }
    Ok(timed)
}

fn reference_compose_all(systems: &[&TransitionSystem]) -> Result<TransitionSystem, String> {
    let mut acc = systems[0].clone();
    for ts in &systems[1..] {
        acc = reference_compose_with(&acc, ts, ComposeOptions::default())?;
    }
    Ok(acc)
}

fn reference_compose_timed_all(
    systems: &[&TimedTransitionSystem],
) -> Result<TimedTransitionSystem, String> {
    let mut acc = systems[0].clone();
    for ts in &systems[1..] {
        acc = reference_compose_timed(&acc, ts)?;
    }
    Ok(acc)
}

/// Reference containment monitor: the trap records each refusal message
/// once, and roles follow the implementation's alphabet order.
fn reference_monitor(
    obligation: &RefinementObligation<'_>,
) -> Result<TimedTransitionSystem, ContainError> {
    let impl_ts = obligation.implementation.underlying();
    let abs = obligation.abstraction;
    for w in &obligation.watched {
        if abs.alphabet().lookup(w).is_none() {
            return Err(ContainError::UnknownWatchedEvent(w.clone()));
        }
    }
    let abs_names: HashMap<&str, tts::EventId> =
        abs.alphabet().iter().map(|(id, n)| (n, id)).collect();
    let mut builder = TsBuilder::new(format!("{} |> {}", impl_ts.name(), abs.name()));
    let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();
    let add_state = |builder: &mut TsBuilder,
                     ids: &mut HashMap<(StateId, StateId), StateId>,
                     queue: &mut VecDeque<(StateId, StateId)>,
                     l: StateId,
                     r: StateId|
     -> StateId {
        if let Some(&id) = ids.get(&(l, r)) {
            return id;
        }
        let id = builder.add_state(format!("{}|{}", impl_ts.state_name(l), abs.state_name(r)));
        for v in impl_ts.violations(l) {
            builder.mark_violation(id, v.clone());
        }
        ids.insert((l, r), id);
        queue.push_back((l, r));
        id
    };
    for &l in impl_ts.initial_states() {
        for &r in abs.initial_states() {
            let id = add_state(&mut builder, &mut ids, &mut queue, l, r);
            builder.set_initial(id);
        }
    }
    let trap = builder.add_state("containment-violation");
    let mut trap_messages: HashSet<String> = HashSet::new();
    while let Some((l, r)) = queue.pop_front() {
        let from = ids[&(l, r)];
        for &(event, l_to) in impl_ts.transitions_from(l) {
            let name = impl_ts.alphabet().name(event);
            let watched = obligation.watched.iter().any(|w| w == name);
            match abs_names.get(name) {
                Some(&abs_event) => {
                    let abs_targets = abs.successors(r, abs_event);
                    if abs_targets.is_empty() {
                        if watched {
                            builder.add_transition(from, name, trap);
                            let message = format!("abstraction cannot accept `{name}`");
                            if trap_messages.insert(message.clone()) {
                                builder.mark_violation(trap, message);
                            }
                        }
                        continue;
                    }
                    for r_to in abs_targets {
                        let to = add_state(&mut builder, &mut ids, &mut queue, l_to, r_to);
                        builder.add_transition(from, name, to);
                    }
                }
                None => {
                    let to = add_state(&mut builder, &mut ids, &mut queue, l_to, r);
                    builder.add_transition(from, name, to);
                }
            }
        }
    }
    for (id, name) in impl_ts.alphabet().iter() {
        match impl_ts.role(id) {
            EventRole::Input => {
                builder.declare_input(name);
            }
            EventRole::Output => {
                builder.declare_output(name);
            }
            EventRole::Internal => {}
        }
    }
    let ts = builder
        .build()
        .map_err(|e| ContainError::Build(e.to_string()))?;
    let mut timed = TimedTransitionSystem::new(ts);
    for (event, delay) in obligation.implementation.delays() {
        let name = impl_ts.alphabet().name(event);
        if timed.underlying().alphabet().lookup(name).is_some() {
            timed.set_delay_by_name(name, delay);
        }
    }
    Ok(timed)
}

// ---------------------------------------------------------------------------
// Comparisons.
// ---------------------------------------------------------------------------

fn check_elaborate(circuit: &Circuit, options: &ElaborateOptions) -> Result<(), TestCaseError> {
    let got = elaborate(circuit, options)
        .map(|model| (model.timed().clone(), model.persistent_events().to_vec()));
    prop_assert_eq!(got, reference_elaborate(circuit, options));
    Ok(())
}

fn check_compose_timed(
    left: &TimedTransitionSystem,
    right: &TimedTransitionSystem,
) -> Result<(), TestCaseError> {
    let got = compose_timed(left, right).map_err(|e| e.to_string());
    prop_assert_eq!(got, reference_compose_timed(left, right));
    Ok(())
}

fn check_compose_timed_all(systems: &[&TimedTransitionSystem]) -> Result<(), TestCaseError> {
    let got = compose_timed_all(systems).map_err(|e| e.to_string());
    prop_assert_eq!(got, reference_compose_timed_all(systems));
    Ok(())
}

fn check_monitor(obligation: &RefinementObligation<'_>) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        build_containment_monitor(obligation),
        reference_monitor(obligation)
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Random circuits.
// ---------------------------------------------------------------------------

/// A literal drawn as `(node, value)`, the node taken modulo the circuit's
/// node count.
type RawLiteral = (usize, bool);

/// One driver of a non-input node, `((is_stack, drives_to), gates, gate,
/// source, delay)`: a stack uses `drives_to` and `gates`, a pass gate `gate`
/// and `source`. A delay is `(lower, width)`, where `width` 5 means an
/// unbounded upper bound.
type RawDriver = ((bool, bool), Vec<RawLiteral>, RawLiteral, usize, (i64, i64));

#[derive(Debug)]
struct RawCircuit {
    /// `(is_input, initial, drivers)` per node; a non-input node gets at
    /// least one driver.
    nodes: Vec<(bool, bool, Vec<RawDriver>)>,
    invariants: Vec<Vec<RawLiteral>>,
    /// Node indices named as outputs; index 11 names no node.
    outputs: Vec<usize>,
    /// Whether 60 constant nodes come first (see [`build_circuit`]).
    padding: bool,
}

fn delay((lower, width): (i64, i64)) -> DelayInterval {
    let upper = if width == 5 {
        Bound::Infinite
    } else {
        Bound::Finite(Time::new(lower + width))
    };
    DelayInterval::with_bound(Time::new(lower), upper).unwrap()
}

fn raw_literal() -> impl Strategy<Value = RawLiteral> {
    (0usize..10, any::<bool>())
}

fn raw_driver() -> impl Strategy<Value = RawDriver> {
    (
        (any::<bool>(), any::<bool>()),
        proptest::collection::vec(raw_literal(), 0..4),
        raw_literal(),
        0usize..10,
        (0i64..4, 0i64..6),
    )
}

fn raw_circuit() -> impl Strategy<Value = RawCircuit> {
    (
        proptest::collection::vec(
            (
                0u8..3,
                any::<bool>(),
                proptest::collection::vec(raw_driver(), 1..3),
            ),
            1..11,
        ),
        proptest::collection::vec(proptest::collection::vec(raw_literal(), 1..4), 0..3),
        proptest::collection::vec(0usize..12, 0..3),
        0u8..4,
    )
        .prop_map(|(nodes, invariants, outputs, padding)| RawCircuit {
            // One node in three is an input.
            nodes: nodes
                .into_iter()
                .map(|(kind, initial, drivers)| (kind == 0, initial, drivers))
                .collect(),
            invariants,
            outputs,
            padding: padding == 0,
        })
}

/// Builds the circuit: with `padding`, 60 constant nodes come first, so the
/// random nodes straddle the first 64-bit word of a packed valuation.
fn build_circuit(raw: &RawCircuit) -> (Circuit, Vec<String>) {
    let mut b = CircuitBuilder::new("random");
    let pad = if raw.padding { 60 } else { 0 };
    for i in 0..pad {
        // Held high by a pull-up it gates itself: it never moves.
        let name = format!("P{i}");
        b.add_node(&name, true);
        b.add_pull_up(&name, &[(name.as_str(), false)]).unwrap();
    }
    let n = raw.nodes.len();
    let name = |i: usize| format!("N{}", i % n);
    for (i, (is_input, initial, _)) in raw.nodes.iter().enumerate() {
        if *is_input {
            b.add_input(name(i), *initial);
        } else {
            b.add_node(name(i), *initial);
        }
    }
    for (i, (is_input, _, drivers)) in raw.nodes.iter().enumerate() {
        if *is_input {
            continue;
        }
        for ((is_stack, drives_to), gates, (gate, gate_value), source, d) in drivers {
            let target = name(i);
            if *is_stack {
                let gates: Vec<(String, bool)> = gates
                    .iter()
                    .map(|&(node, value)| (name(node), value))
                    .collect();
                let refs: Vec<(&str, bool)> =
                    gates.iter().map(|(node, v)| (node.as_str(), *v)).collect();
                b.add_stack(&target, &refs, *drives_to, delay(*d), DriveStrength::Normal)
                    .unwrap();
            } else {
                b.add_pass(
                    &target,
                    (&name(*gate), *gate_value),
                    &name(*source),
                    delay(*d),
                )
                .unwrap();
            }
        }
    }
    for (k, literals) in raw.invariants.iter().enumerate() {
        let literals: Vec<(String, bool)> = literals
            .iter()
            .map(|&(node, value)| (name(node), value))
            .collect();
        let mut refs: Vec<(&str, bool)> = literals
            .iter()
            .map(|(node, v)| (node.as_str(), *v))
            .collect();
        if raw.padding && k % 2 == 1 {
            refs.push(("P0", true));
        }
        b.add_invariant(format!("inv{k}"), &refs).unwrap();
    }
    let outputs = raw
        .outputs
        .iter()
        .map(|&i| {
            if i < 11 {
                name(i)
            } else {
                "missing".to_owned()
            }
        })
        .collect();
    (b.build().unwrap(), outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn elaborate_matches_reference_on_random_circuits(
        raw in raw_circuit(),
        derived in any::<bool>(),
        limit in 0usize..6,
    ) {
        let (circuit, output_nodes) = build_circuit(&raw);
        let options = ElaborateOptions {
            // Mostly unlimited; sometimes a limit the search may exceed.
            state_limit: [1, 8].get(limit).copied().unwrap_or(500_000),
            include_derived_invariants: derived,
            output_nodes,
        };
        check_elaborate(&circuit, &options)?;
    }
}

// ---------------------------------------------------------------------------
// Random transition systems.
// ---------------------------------------------------------------------------

/// A random component over the event pool `e0..e5`: `(states, transitions
/// (from, event, to), initial states, violations (state, message), roles
/// (event, role: 0 input, 1 output, else internal), delays (event, (lower,
/// width)))`. Roles and delays may name events that label no transition:
/// those are declared or interned without firing.
type RawSystem = (
    usize,
    Vec<(usize, usize, usize)>,
    Vec<usize>,
    Vec<(usize, usize)>,
    (Vec<(usize, u8)>, Vec<(usize, (i64, i64))>),
);

fn raw_system() -> impl Strategy<Value = RawSystem> {
    (
        1usize..5,
        proptest::collection::vec((0usize..5, 0usize..6, 0usize..5), 0..9),
        proptest::collection::vec(0usize..5, 1..3),
        proptest::collection::vec((0usize..5, 0usize..2), 0..3),
        (
            proptest::collection::vec((0usize..6, 0u8..3), 0..4),
            proptest::collection::vec((0usize..6, (0i64..4, 0i64..6)), 0..4),
        ),
    )
}

fn build_system(name: &str, raw: &RawSystem) -> TimedTransitionSystem {
    let (states, transitions, initial, violations, (roles, delays)) = raw;
    let mut b = TsBuilder::new(name);
    let ids: Vec<StateId> = (0..*states)
        .map(|i| b.add_state(format!("{name}{i}")))
        .collect();
    let state = |i: usize| ids[i % ids.len()];
    for &(from, event, to) in transitions {
        b.add_transition(state(from), format!("e{event}"), state(to));
    }
    for &s in initial {
        b.set_initial(state(s));
    }
    for &(s, message) in violations {
        b.mark_violation(state(s), format!("bad{message}"));
    }
    let mut declared = HashSet::new();
    for &(event, role) in roles {
        // One role per event, or the component itself would not build.
        if !declared.insert(event) {
            continue;
        }
        match role {
            0 => b.declare_input(format!("e{event}")),
            1 => b.declare_output(format!("e{event}")),
            _ => b.intern_event(format!("e{event}")),
        };
    }
    for &(event, _) in delays {
        b.intern_event(format!("e{event}"));
    }
    let mut timed = TimedTransitionSystem::new(b.build().unwrap());
    for &(event, d) in delays {
        timed.set_delay_by_name(&format!("e{event}"), delay(d));
    }
    timed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compose_matches_reference_on_random_pairs(
        left in raw_system(),
        right in raw_system(),
        limit in 0usize..6,
    ) {
        let left = build_system("l", &left);
        let right = build_system("r", &right);
        check_compose_timed(&left, &right)?;
        // Untimed, under a state limit the product may exceed.
        let options = ComposeOptions { state_limit: limit * 4 };
        let got = compose_with(left.underlying(), right.underlying(), options)
            .map_err(|e| e.to_string());
        prop_assert_eq!(
            got,
            reference_compose_with(left.underlying(), right.underlying(), options)
        );
    }

    #[test]
    fn compose_all_matches_reference_on_random_triples(
        a in raw_system(),
        b in raw_system(),
        c in raw_system(),
    ) {
        let (a, b, c) = (build_system("a", &a), build_system("b", &b), build_system("c", &c));
        check_compose_timed_all(&[&a, &b, &c])?;
        check_compose_timed_all(&[&a])?;
        let untimed = [a.underlying(), b.underlying(), c.underlying()];
        let got = compose_all(&untimed).map_err(|e| e.to_string());
        prop_assert_eq!(got, reference_compose_all(&untimed));
    }

    #[test]
    fn monitor_matches_reference_on_random_obligations(
        implementation in raw_system(),
        abstraction in raw_system(),
        watched in proptest::collection::vec(0usize..7, 0..4),
    ) {
        let implementation = build_system("i", &implementation);
        let abstraction = build_system("a", &abstraction);
        // `e6` is in no alphabet: an unknown watched event.
        let obligation = RefinementObligation {
            implementation: &implementation,
            abstraction: abstraction.underlying(),
            watched: watched.iter().map(|e| format!("e{e}")).collect(),
        };
        check_monitor(&obligation)?;
    }
}

// ---------------------------------------------------------------------------
// The shipped models.
// ---------------------------------------------------------------------------

#[test]
fn stage_models_match_reference() {
    for k in 1..=3 {
        let signals = ipcmos::StageSignals::new(k);
        let options = ElaborateOptions {
            output_nodes: vec![signals.ack_out.clone(), signals.valid_out.clone()],
            ..ElaborateOptions::default()
        };
        let model = ipcmos::stage_model(k).unwrap();
        let (timed, persistent) =
            reference_elaborate(&ipcmos::stage_circuit(k).unwrap(), &options).unwrap();
        assert_eq!(model.timed(), &timed, "stage {k}");
        assert_eq!(
            model.persistent_events(),
            persistent.as_slice(),
            "stage {k}"
        );
    }
}

/// The closed systems of Table 1 rows 2–5 and the monitors of rows 2–4, as
/// `ipcmos::experiment_k_with` builds them.
#[test]
fn table1_systems_and_monitors_match_reference() {
    let stage = ipcmos::stage_model(1).unwrap();
    let a_in = |i| TimedTransitionSystem::new(ipcmos::a_in(i).unwrap());
    let a_out = |i| TimedTransitionSystem::new(ipcmos::a_out(i).unwrap());
    let rows = [
        (2, a_in(0), ipcmos::out_env(1).unwrap()),
        (3, ipcmos::in_env(0).unwrap(), a_out(1)),
        (4, a_in(0), a_out(1)),
        (5, ipcmos::in_env(0).unwrap(), ipcmos::out_env(1).unwrap()),
    ];
    for (row, left, right) in &rows {
        let systems = [left, stage.timed(), right];
        let closed = compose_timed_all(&systems).unwrap();
        assert_eq!(
            Ok(&closed),
            reference_compose_timed_all(&systems).as_ref(),
            "row {row}"
        );
        let (abstraction, interface, watched) = match row {
            2 => (ipcmos::a_out(0).unwrap(), ipcmos::Interface::new(0), true),
            3 | 4 => (ipcmos::a_in(1).unwrap(), ipcmos::Interface::new(1), false),
            _ => continue,
        };
        let watched = if watched {
            vec![interface.ack_rise, interface.ack_fall]
        } else {
            vec![interface.valid_fall, interface.valid_rise]
        };
        let obligation = RefinementObligation {
            implementation: &closed,
            abstraction: &abstraction,
            watched,
        };
        assert_eq!(
            build_containment_monitor(&obligation),
            reference_monitor(&obligation),
            "row {row} monitor"
        );
    }
}

#[test]
fn flat_pipelines_match_reference() {
    for n in 1..=2 {
        let mut systems = vec![ipcmos::in_env(0).unwrap()];
        for k in 1..=n {
            systems.push(ipcmos::stage_model(k).unwrap().into_timed());
        }
        systems.push(ipcmos::out_env(n).unwrap());
        let refs: Vec<&TimedTransitionSystem> = systems.iter().collect();
        assert_eq!(
            ipcmos::flat_pipeline(n).unwrap(),
            reference_compose_timed_all(&refs).unwrap(),
            "flat pipeline {n}"
        );
    }
}

/// One watched event refused from two states leaves one message on the trap.
#[test]
fn trap_records_each_refusal_once() {
    let mut b = TsBuilder::new("impl");
    let s0 = b.add_state("s0");
    let s1 = b.add_state("s1");
    b.add_transition(s0, "tick", s1);
    b.add_transition(s0, "ack", s0);
    b.add_transition(s1, "ack", s1);
    b.set_initial(s0);
    let implementation = TimedTransitionSystem::new(b.build().unwrap());
    let mut b = TsBuilder::new("abs");
    let a0 = b.add_state("a0");
    b.intern_event("ack");
    b.set_initial(a0);
    let abstraction = b.build().unwrap();
    let obligation = RefinementObligation {
        implementation: &implementation,
        abstraction: &abstraction,
        watched: vec!["ack".to_owned()],
    };
    let monitor = build_containment_monitor(&obligation).unwrap();
    let ts = monitor.underlying();
    let trap = ts
        .states()
        .find(|&s| ts.state_name(s) == "containment-violation")
        .unwrap();
    assert_eq!(ts.violations(trap), ["abstraction cannot accept `ack`"]);
    // Both states reach the trap on `ack`.
    let ack = ts.alphabet().lookup("ack").unwrap();
    assert_eq!(
        ts.states()
            .filter(|&s| ts.successors(s, ack).contains(&trap))
            .count(),
        2
    );
}
