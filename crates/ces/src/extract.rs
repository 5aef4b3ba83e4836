//! Extraction of causal event structures from failure traces.
//!
//! Following §2.1 of the paper, the causal event structure generated from a
//! trace with enabling information orders two occurrences `e_i ≺ e_j` iff
//! `i < j` and they are never simultaneously enabled — equivalently, the
//! occurrence of `e_j` only became enabled after `e_i` fired.
//!
//! The structure contains one node per *pendency span*: a maximal interval of
//! trace states over which an event is continuously enabled. A span either
//! ends with the event firing (a fired occurrence), with the event being
//! disabled by another firing, or with the end of the trace (a pending
//! occurrence). Unfired spans matter because a failure typically consists of
//! some event firing "too early" while another event (e.g. `Z+` in Fig. 13 of
//! the paper) is still pending; it is precisely the separation between the
//! fired and the pending occurrence that proves the trace
//! timing-inconsistent.

use std::collections::HashMap;

use tts::{EnablingTrace, EventId, TimedTransitionSystem};

use crate::structure::{BuildCesError, Ces, CesBuilder, NodeId, Occurrence};

/// A causal event structure extracted from a trace, with bookkeeping that
/// links nodes back to trace positions.
#[derive(Debug, Clone)]
pub struct ExtractedCes {
    ces: Ces,
    /// `fired[k]` is the node of the occurrence fired at trace step `k`.
    fired: Vec<NodeId>,
    /// For every span: `(event, first state index, last state index,
    /// fired?)`. Used to answer "which occurrence of `e` was pending at step
    /// `k`".
    spans: Vec<SpanInfo>,
    /// Occurrences still pending (enabled, unfired) in the final state.
    pending: Vec<(EventId, NodeId)>,
}

#[derive(Debug, Clone, Copy)]
struct SpanInfo {
    event: EventId,
    node: NodeId,
    /// First trace-state index at which the span is enabled.
    start: usize,
    /// Last trace-state index at which the span is enabled.
    end: usize,
    /// Step index at which the span fired, if it did.
    fire_step: Option<usize>,
}

impl ExtractedCes {
    /// The extracted structure.
    pub fn ces(&self) -> &Ces {
        &self.ces
    }

    /// Node corresponding to the occurrence fired at trace step `k`.
    pub fn fired_node(&self, step: usize) -> Option<NodeId> {
        self.fired.get(step).copied()
    }

    /// Node of the occurrence of `event` that is pending (enabled, unfired)
    /// or about to fire at trace step `k` (i.e. in the state the step fires
    /// from).
    pub fn node_active_at(&self, step: usize, event: EventId) -> Option<NodeId> {
        self.spans
            .iter()
            .find(|s| s.event == event && s.start <= step && step <= s.end)
            .map(|s| s.node)
    }

    /// Nodes of occurrences pending (enabled, unfired) in the final state.
    pub fn pending_nodes(&self) -> &[(EventId, NodeId)] {
        &self.pending
    }

    /// Node of the pending occurrence of `event` in the final state, if any.
    pub fn pending_node_of(&self, event: EventId) -> Option<NodeId> {
        self.pending
            .iter()
            .find(|(e, _)| *e == event)
            .map(|&(_, n)| n)
    }
}

/// Extracts the causal event structure of a trace (§2.1), including unfired
/// pendency spans.
///
/// Delay intervals are taken from `timed`; events without explicit intervals
/// get `[0, ∞)`.
///
/// # Errors
///
/// Returns [`BuildCesError`] if the derived precedence relation is cyclic,
/// which cannot happen for traces produced by the exploration engine but is
/// checked defensively.
///
/// # Examples
///
/// ```
/// use ces::extract_ces;
/// use tts::{DelayInterval, EnablingTrace, Time, TimedTransitionSystem, TsBuilder};
///
/// let mut b = TsBuilder::new("t");
/// let s0 = b.add_state("s0");
/// let s1 = b.add_state("s1");
/// let s2 = b.add_state("s2");
/// let a = b.add_transition(s0, "a", s1);
/// let c = b.add_transition(s1, "c", s2);
/// b.set_initial(s0);
/// let ts = b.build()?;
/// let mut timed = TimedTransitionSystem::new(ts);
/// timed.set_delay_by_name("a", DelayInterval::new(Time::new(1), Time::new(2))?);
/// timed.set_delay_by_name("c", DelayInterval::new(Time::new(1), Time::new(2))?);
/// let trace = EnablingTrace::from_run(timed.underlying(), s0, &[(a, s1), (c, s2)])?;
/// let extracted = extract_ces(&trace, &timed)?;
/// // `c` became enabled by the firing of `a`, so the structure has the arc a -> c.
/// let a_node = extracted.fired_node(0).unwrap();
/// let c_node = extracted.fired_node(1).unwrap();
/// assert!(extracted.ces().precedes(a_node, c_node));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn extract_ces(
    trace: &EnablingTrace,
    timed: &TimedTransitionSystem,
) -> Result<ExtractedCes, BuildCesError> {
    let ts = timed.underlying();
    let steps = trace.steps();
    let n = steps.len();

    // Enabled set per trace state 0..=n.
    let enabled_at = |state_index: usize| -> Vec<EventId> {
        if state_index < n {
            steps[state_index].enabled.iter().copied().collect()
        } else {
            ts.enabled(trace.last_state()).into_iter().collect()
        }
    };

    // Compute pendency spans per event.
    struct RawSpan {
        event: EventId,
        start: usize,
        end: usize,
        fire_step: Option<usize>,
    }
    let mut raw_spans: Vec<RawSpan> = Vec::new();
    let mut open: HashMap<EventId, usize> = HashMap::new();
    // Index-driven on purpose: state `n` is the virtual post-trace state with
    // no entry in `steps`, and span ends refer back to `state_index - 1`.
    #[allow(clippy::needless_range_loop)]
    for state_index in 0..=n {
        let here: Vec<EventId> = enabled_at(state_index);
        // Close spans of events no longer enabled (disabled without firing).
        let closed: Vec<EventId> = open.keys().copied().filter(|e| !here.contains(e)).collect();
        for event in closed {
            let start = open.remove(&event).expect("span is open");
            raw_spans.push(RawSpan {
                event,
                start,
                end: state_index - 1,
                fire_step: None,
            });
        }
        // Open spans for newly enabled events.
        for &event in &here {
            open.entry(event).or_insert(state_index);
        }
        // If this state fires an event, its span closes here (and may reopen
        // at the next state if it stays enabled).
        if state_index < n {
            let fired = steps[state_index].event;
            if let Some(start) = open.remove(&fired) {
                raw_spans.push(RawSpan {
                    event: fired,
                    start,
                    end: state_index,
                    fire_step: Some(state_index),
                });
            }
        }
    }
    // Whatever is still open is pending at the end of the trace.
    for (event, start) in open {
        raw_spans.push(RawSpan {
            event,
            start,
            end: n,
            fire_step: None,
        });
    }
    // Deterministic order: by start state, then event id.
    raw_spans.sort_by_key(|s| (s.start, s.fire_step.unwrap_or(usize::MAX), s.event));

    // Build nodes.
    let mut builder = CesBuilder::new();
    let mut occurrence_counter: HashMap<EventId, u32> = HashMap::new();
    let mut spans: Vec<SpanInfo> = Vec::with_capacity(raw_spans.len());
    for raw in &raw_spans {
        let counter = occurrence_counter.entry(raw.event).or_insert(0);
        let label = ts.alphabet().name(raw.event).to_owned();
        let node = builder.add_node(
            Occurrence::new(raw.event, *counter),
            label,
            timed.delay(raw.event),
        );
        *counter += 1;
        spans.push(SpanInfo {
            event: raw.event,
            node,
            start: raw.start,
            end: raw.end,
            fire_step: raw.fire_step,
        });
    }

    // Precedence: span i precedes span j iff i fired before j became enabled.
    let precedes = |i: usize, j: usize| -> bool {
        match spans[i].fire_step {
            Some(fire) => fire < spans[j].start,
            None => false,
        }
    };
    // Transitive reduction (valid because delays are non-negative: implied
    // orderings do not change the max-plus semantics).
    for j in 0..spans.len() {
        for i in 0..spans.len() {
            if i == j || !precedes(i, j) {
                continue;
            }
            let transitive =
                (0..spans.len()).any(|k| k != i && k != j && precedes(i, k) && precedes(k, j));
            if !transitive {
                builder.add_causal_arc(spans[i].node, spans[j].node);
            }
        }
    }

    let ces = builder.build()?;
    let mut fired = vec![NodeId::from_index(0); n];
    let mut have_fired = vec![false; n];
    for span in &spans {
        if let Some(step) = span.fire_step {
            fired[step] = span.node;
            have_fired[step] = true;
        }
    }
    debug_assert!(have_fired.iter().all(|&b| b), "every step has a fired span");
    let pending = spans
        .iter()
        .filter(|s| s.fire_step.is_none() && s.end == n)
        .map(|s| (s.event, s.node))
        .collect();
    Ok(ExtractedCes {
        ces,
        fired,
        spans,
        pending,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts::{DelayInterval, Time, TsBuilder};

    fn d(l: i64, u: i64) -> DelayInterval {
        DelayInterval::new(Time::new(l), Time::new(u)).unwrap()
    }

    /// s0 --a--> s1 --b--> s2, with `c` enabled from s0 all along (pending).
    fn trace_with_pending() -> (TimedTransitionSystem, EnablingTrace) {
        let mut b = TsBuilder::new("t");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let s3 = b.add_state("s3");
        let s4 = b.add_state("s4");
        let a = b.add_transition(s0, "a", s1);
        let bb = b.add_transition(s1, "b", s2);
        let c = b.add_transition(s0, "c", s3);
        b.add_transition_by_id(s1, c, s4);
        b.add_transition_by_id(s2, c, s4);
        b.set_initial(s0);
        let ts = b.build().unwrap();
        let mut timed = TimedTransitionSystem::new(ts);
        timed.set_delay_by_name("a", d(1, 2));
        timed.set_delay_by_name("b", d(1, 2));
        timed.set_delay_by_name("c", d(5, 9));
        let trace = EnablingTrace::from_run(timed.underlying(), s0, &[(a, s1), (bb, s2)]).unwrap();
        (timed, trace)
    }

    #[test]
    fn fired_and_pending_nodes_are_extracted() {
        let (timed, trace) = trace_with_pending();
        let extracted = extract_ces(&trace, &timed).unwrap();
        assert_eq!(extracted.ces().node_count(), 3);
        let a_node = extracted.fired_node(0).unwrap();
        let b_node = extracted.fired_node(1).unwrap();
        assert!(extracted.ces().precedes(a_node, b_node));
        // `c` is pending and was enabled from the initial state, so it has no
        // causal predecessors.
        let alphabet = timed.underlying().alphabet();
        let c_id = alphabet.lookup("c").unwrap();
        let c_node = extracted.pending_node_of(c_id).unwrap();
        assert!(extracted.ces().predecessors(c_node).is_empty());
        assert_eq!(extracted.pending_nodes().len(), 1);
        // The same node is reported as active at both steps.
        assert_eq!(extracted.node_active_at(0, c_id), Some(c_node));
        assert_eq!(extracted.node_active_at(1, c_id), Some(c_node));
    }

    #[test]
    fn co_enabled_events_are_not_ordered() {
        let (timed, trace) = trace_with_pending();
        let extracted = extract_ces(&trace, &timed).unwrap();
        // `c` was co-enabled with `a` (both enabled in s0), so `a` must not be
        // a causal predecessor of `c` even though it fired earlier.
        let alphabet = timed.underlying().alphabet();
        let c_id = alphabet.lookup("c").unwrap();
        let c_node = extracted.pending_node_of(c_id).unwrap();
        let a_node = extracted.fired_node(0).unwrap();
        assert!(!extracted.ces().precedes(a_node, c_node));
    }

    #[test]
    fn disabled_spans_still_get_nodes() {
        // `victim` is enabled in s0 but firing `killer` disables it.
        let mut b = TsBuilder::new("kill");
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let s2 = b.add_state("s2");
        let victim = b.add_transition(s0, "victim", s1);
        let killer = b.add_transition(s0, "killer", s2);
        let _ = victim;
        b.set_initial(s0);
        let ts = b.build().unwrap();
        let mut timed = TimedTransitionSystem::new(ts);
        timed.set_delay_by_name("victim", d(1, 2));
        timed.set_delay_by_name("killer", d(5, 9));
        let trace = EnablingTrace::from_run(timed.underlying(), s0, &[(killer, s2)]).unwrap();
        let extracted = extract_ces(&trace, &timed).unwrap();
        // Two nodes: the fired killer span and the disabled victim span.
        assert_eq!(extracted.ces().node_count(), 2);
        let victim_id = timed.underlying().alphabet().lookup("victim").unwrap();
        let victim_node = extracted.node_active_at(0, victim_id).unwrap();
        assert_eq!(extracted.ces().delay(victim_node), d(1, 2));
        // It is not pending at the end (it was disabled), so it is not listed
        // as pending.
        assert!(extracted.pending_node_of(victim_id).is_none());
    }

    #[test]
    fn repeated_events_get_distinct_occurrences() {
        let mut b = TsBuilder::new("loop");
        let s0 = b.add_state("s0");
        let a = b.add_transition(s0, "a", s0);
        b.set_initial(s0);
        let ts = b.build().unwrap();
        let mut timed = TimedTransitionSystem::new(ts);
        timed.set_delay_by_name("a", d(1, 1));
        let trace = EnablingTrace::from_run(timed.underlying(), s0, &[(a, s0), (a, s0)]).unwrap();
        let extracted = extract_ces(&trace, &timed).unwrap();
        // Two fired occurrences plus the pending third occurrence.
        assert_eq!(extracted.ces().node_count(), 3);
        let first = extracted.fired_node(0).unwrap();
        let second = extracted.fired_node(1).unwrap();
        assert_ne!(first, second);
        assert!(extracted.ces().precedes(first, second));
        let a_id = timed.underlying().alphabet().lookup("a").unwrap();
        assert!(extracted.pending_node_of(a_id).is_some());
    }

    #[test]
    fn delays_are_carried_from_the_timed_system() {
        let (timed, trace) = trace_with_pending();
        let extracted = extract_ces(&trace, &timed).unwrap();
        let a_node = extracted.fired_node(0).unwrap();
        assert_eq!(extracted.ces().delay(a_node), d(1, 2));
        let alphabet = timed.underlying().alphabet();
        let c_id = alphabet.lookup("c").unwrap();
        let c_node = extracted.pending_node_of(c_id).unwrap();
        assert_eq!(extracted.ces().delay(c_node), d(5, 9));
    }

    #[test]
    fn empty_trace_yields_only_pending_nodes() {
        let (timed, _) = trace_with_pending();
        let s0 = timed.underlying().initial_states()[0];
        let trace = EnablingTrace::from_run(timed.underlying(), s0, &[]).unwrap();
        let extracted = extract_ces(&trace, &timed).unwrap();
        assert_eq!(extracted.fired_node(0), None);
        assert_eq!(
            extracted.ces().node_count(),
            extracted.pending_nodes().len()
        );
    }
}
