//! Pulse-level simulation of IPCMOS pipelines.
//!
//! A small discrete-event simulator that executes the timed transition system
//! of a closed pipeline with an as-soon-as-possible policy (every enabled
//! event fires at its lower delay bound, earliest deadline first). It is used
//! to regenerate the two-stage waveform of Fig. 7 of the paper, by the
//! `waveform` example, and as the witness run `verify --trace` prints.

use std::collections::HashMap;

use tts::{EventId, SignalEdge, StateId, Time, TimedTransitionSystem};

/// One fired event of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimEvent {
    /// Firing time.
    pub time: Time,
    /// Name of the fired event.
    pub event: String,
}

/// The result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTrace {
    events: Vec<SimEvent>,
}

impl SimTrace {
    /// Builds a trace from pre-computed events (e.g. a verifier's witness run
    /// annotated with firing times), so any timed trace can reuse the
    /// [`waveform`](Self::waveform) rendering.
    pub fn from_events(events: Vec<SimEvent>) -> Self {
        SimTrace { events }
    }

    /// The fired events in firing order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// The firing times of a particular event name.
    pub fn times_of(&self, event: &str) -> Vec<Time> {
        self.events
            .iter()
            .filter(|e| e.event == event)
            .map(|e| e.time)
            .collect()
    }

    /// Renders an ASCII waveform of the given signals (one row per signal,
    /// one column per fired event), in the style of Fig. 7 of the paper.
    pub fn waveform(&self, signals: &[&str], initial: &HashMap<String, bool>) -> String {
        let mut out = String::new();
        let columns = self.events.len();
        for &signal in signals {
            let mut value = initial.get(signal).copied().unwrap_or(true);
            let mut row = format!("{signal:>8} ");
            for event in &self.events {
                if let Some(edge) = SignalEdge::parse(&event.event) {
                    if edge.signal() == signal {
                        value = edge.polarity().target_value();
                    }
                }
                row.push(if value { '#' } else { '_' });
            }
            out.push_str(&row);
            out.push('\n');
        }
        let mut time_row = String::from("    time ");
        for event in &self.events {
            time_row.push_str(&format!("{}", event.time.as_i64() % 10));
        }
        out.push_str(&time_row);
        out.push('\n');
        let _ = columns;
        out
    }
}

/// A deterministic as-soon-as-possible run of `timed`: every enabled event
/// is scheduled at its enabling time plus its lower delay bound, the
/// earliest scheduled event fires (ties broken by the lower event id), and
/// the run stops after `max_events` firings or at a deadlock. Returns each
/// fired event with the state it reached and its firing time.
pub fn asap_run(timed: &TimedTransitionSystem, max_events: usize) -> Vec<(EventId, StateId, Time)> {
    let ts = timed.underlying();
    let mut state = ts.initial_states()[0];
    let mut now = Time::ZERO;
    let mut enabled_since: Vec<(EventId, Time)> =
        ts.enabled(state).into_iter().map(|e| (e, now)).collect();
    let mut steps = Vec::new();
    for _ in 0..max_events {
        let Some((fire_time, event)) = enabled_since
            .iter()
            .map(|&(event, since)| (since + timed.delay(event).lower(), event))
            .min()
        else {
            break;
        };
        now = now.max(fire_time);
        let Some(&target) = ts.successors(state, event).first() else {
            break;
        };
        steps.push((event, target, now));
        let previously_enabled = ts.enabled(state);
        state = target;
        let now_enabled = ts.enabled(state);
        enabled_since.retain(|&(e, _)| now_enabled.contains(&e));
        for &e in &now_enabled {
            let fresh = e == event || !previously_enabled.contains(&e);
            if fresh {
                enabled_since.retain(|&(other, _)| other != e);
                enabled_since.push((e, now));
            } else if !enabled_since.iter().any(|&(other, _)| other == e) {
                enabled_since.push((e, now));
            }
        }
        enabled_since.sort_by_key(|&(e, _)| e);
    }
    steps
}

/// Simulates `timed` for at most `max_events` firings: the [`asap_run`],
/// with each fired event named.
pub fn simulate(timed: &TimedTransitionSystem, max_events: usize) -> SimTrace {
    let alphabet = timed.underlying().alphabet();
    let events = asap_run(timed, max_events)
        .into_iter()
        .map(|(event, _, time)| SimEvent {
            time,
            event: alphabet.name(event).to_owned(),
        })
        .collect();
    SimTrace { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::flat_pipeline;

    #[test]
    fn two_stage_pipeline_moves_data() {
        let pipeline = flat_pipeline(2).unwrap();
        let trace = simulate(&pipeline, 80);
        assert!(trace.events().len() >= 40);
        // The supplier offers data, both stages acknowledge, and the consumer
        // acknowledges at the end of the pipeline (Fig. 7 behaviour).
        assert!(!trace.times_of("VALID0-").is_empty());
        assert!(!trace.times_of("ACK0+").is_empty());
        assert!(!trace.times_of("VALID2-").is_empty());
        assert!(!trace.times_of("ACK2+").is_empty());
        // Causality: the first acknowledge of the consumer follows the first
        // VALID pulse of the second stage.
        let v2 = trace.times_of("VALID2-")[0];
        let a2 = trace.times_of("ACK2+")[0];
        assert!(a2 > v2);
        // At least two data items make it through within the horizon.
        assert!(trace.times_of("VALID0-").len() >= 2);
    }

    #[test]
    fn waveform_renders_all_requested_signals() {
        let pipeline = flat_pipeline(1).unwrap();
        let trace = simulate(&pipeline, 30);
        let initial = HashMap::from([
            ("VALID0".to_owned(), true),
            ("ACK0".to_owned(), false),
            ("VALID1".to_owned(), true),
            ("ACK1".to_owned(), false),
        ]);
        let art = trace.waveform(&["VALID0", "ACK0", "VALID1", "ACK1"], &initial);
        assert_eq!(art.lines().count(), 5);
        assert!(art.contains("VALID0"));
        assert!(art.contains('_'));
        assert!(art.contains('#'));
    }
}
