//! The scenario library behind `transyt export` and the shipped `models/`
//! directory.
//!
//! Every file in `models/` is the canonical rendering of one of these
//! builders — a test asserts they never drift apart, so the shipped text
//! files are guaranteed to parse and to describe exactly these systems.

use tts::{DelayInterval, Time, TsBuilder};

use crate::format::{Model, ModelSource, PropertySpec};

/// A named, exportable scenario.
pub struct Scenario {
    /// File name under `models/` (e.g. `ipcmos_1stage.stg`).
    pub file: &'static str,
    /// One-line description shown by `transyt export --list`.
    pub summary: &'static str,
    /// The model itself.
    pub model: Model,
}

fn d(l: i64, u: i64) -> DelayInterval {
    DelayInterval::new(Time::new(l), Time::new(u)).expect("static delay interval")
}

/// All shipped scenarios, in `models/` listing order.
pub fn all() -> Vec<Scenario> {
    vec![
        ipcmos_pipeline(1),
        ipcmos_pipeline(2),
        ipcmos_pipeline(3),
        ipcmos_pipeline(4),
        c_element(),
        ring_pipeline(),
        intro_fig1(),
        race_overlap(),
    ]
}

/// Looks a scenario up by its file name (with or without the extension).
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| {
        s.file == name
            || s.file.strip_suffix(".stg") == Some(name)
            || s.file.strip_suffix(".tts") == Some(name)
    })
}

/// The pulse-level closed `n`-stage IPCMOS pipeline of
/// [`ipcmos::pipeline_stg`], as a verification problem: deadlock-freedom
/// plus persistency of every local clock edge.
pub fn ipcmos_pipeline(n: usize) -> Scenario {
    let exported = ipcmos::pipeline_stg(n);
    let (file, summary) = match n {
        1 => (
            "ipcmos_1stage.stg",
            "1-stage IPCMOS pipeline between pulse-driven environments (pulse-level STG)",
        ),
        2 => (
            "ipcmos_2stage.stg",
            "2-stage IPCMOS pipeline (pulse-level STG)",
        ),
        3 => (
            "ipcmos_3stage.stg",
            "3-stage IPCMOS pipeline (pulse-level STG)",
        ),
        _ => (
            "ipcmos_4stage.stg",
            "4-stage IPCMOS pipeline (pulse-level STG)",
        ),
    };
    Scenario {
        file,
        summary,
        model: Model {
            name: exported.net.name().to_owned(),
            source: ModelSource::Stg(exported.net),
            delays: exported.delays,
            property: PropertySpec {
                deadlock_free: true,
                forbid_marked: false,
                persistent: exported.persistent_events,
            },
        },
    }
}

/// A C-element closing the handshake with its own environment: both inputs
/// rise, the output rises, both inputs fall, the output falls.
pub fn c_element() -> Scenario {
    let mut b = stg::StgBuilder::new("c_element");
    let a_up = b.add_transition("A+", stg::SignalRole::Input);
    let b_up = b.add_transition("B+", stg::SignalRole::Input);
    let c_up = b.add_transition("C+", stg::SignalRole::Output);
    let a_down = b.add_transition("A-", stg::SignalRole::Input);
    let b_down = b.add_transition("B-", stg::SignalRole::Input);
    let c_down = b.add_transition("C-", stg::SignalRole::Output);
    b.connect(a_up, c_up, 0);
    b.connect(b_up, c_up, 0);
    b.connect(c_up, a_down, 0);
    b.connect(c_up, b_down, 0);
    b.connect(a_down, c_down, 0);
    b.connect(b_down, c_down, 0);
    b.connect(c_down, a_up, 1);
    b.connect(c_down, b_up, 1);
    let net = b.build().expect("C-element net is well formed");
    Scenario {
        file: "c_element.stg",
        summary: "C-element handshake: C waits for both inputs on both phases",
        model: Model {
            name: "c_element".to_owned(),
            source: ModelSource::Stg(net),
            delays: vec![
                ("A+".to_owned(), d(2, 5)),
                ("B+".to_owned(), d(2, 5)),
                ("C+".to_owned(), d(1, 2)),
                ("A-".to_owned(), d(2, 4)),
                ("B-".to_owned(), d(2, 4)),
                ("C-".to_owned(), d(1, 2)),
            ],
            property: PropertySpec {
                deadlock_free: true,
                forbid_marked: false,
                persistent: vec!["C+".to_owned(), "C-".to_owned()],
            },
        },
    }
}

/// A three-cell ring with two items in flight: cell `i` raises `Ri` when an
/// item arrives and lowers it to pass the item on; a cell accepts a new item
/// only once empty again.
pub fn ring_pipeline() -> Scenario {
    let mut b = stg::StgBuilder::new("ring_pipeline");
    let rises: Vec<_> = (0..3)
        .map(|i| b.add_transition(format!("R{i}+"), stg::SignalRole::Output))
        .collect();
    let falls: Vec<_> = (0..3)
        .map(|i| b.add_transition(format!("R{i}-"), stg::SignalRole::Output))
        .collect();
    for i in 0..3 {
        // Item in cell i: arrives with Ri+, leaves with Ri-. Cells 0 and 1
        // start full.
        b.connect(rises[i], falls[i], u32::from(i != 2));
        // Item in transit from cell i-1 to cell i.
        b.connect(falls[(i + 2) % 3], rises[i], 0);
        // The bubble: cell i may only pass its item on once cell i+1 has
        // been vacated. Only cell 2 is vacant initially.
        b.connect(falls[(i + 1) % 3], falls[i], u32::from(i == 1));
    }
    let net = b.build().expect("ring net is well formed");
    Scenario {
        file: "ring_pipeline.stg",
        summary: "three-cell ring pipeline with two items and one bubble",
        model: Model {
            name: "ring_pipeline".to_owned(),
            source: ModelSource::Stg(net),
            delays: (0..3)
                .flat_map(|i| vec![(format!("R{i}+"), d(1, 3)), (format!("R{i}-"), d(2, 4))])
                .collect(),
            property: PropertySpec {
                deadlock_free: true,
                forbid_marked: false,
                persistent: vec!["R0+".to_owned(), "R0-".to_owned()],
            },
        },
    }
}

/// The introductory example of Fig. 1/2 of the paper: `g` must fire before
/// `d`, which only holds once the delay intervals are taken into account
/// (the engine needs at least one refinement).
pub fn intro_fig1() -> Scenario {
    let timed = ipcmos::intro_example();
    let (ts, delay_map) = timed.into_parts();
    let mut delays: Vec<(tts::EventId, DelayInterval)> = delay_map.into_iter().collect();
    delays.sort_by_key(|&(event, _)| event);
    let delays = delays
        .into_iter()
        .map(|(event, delay)| (ts.alphabet().name(event).to_owned(), delay))
        .collect();
    Scenario {
        file: "intro_fig1.tts",
        summary: "Fig. 1 introductory example: g before d holds only under timing",
        model: Model {
            name: ts.name().to_owned(),
            source: ModelSource::Tts(ts),
            delays,
            property: PropertySpec {
                deadlock_free: false,
                forbid_marked: true,
                persistent: Vec::new(),
            },
        },
    }
}

/// The two-event race with overlapping delays: the violating interleaving is
/// timing consistent, so verification produces a timed counterexample trace.
pub fn race_overlap() -> Scenario {
    let mut b = TsBuilder::new("race_overlap");
    let s0 = b.add_state("s0");
    let ok = b.add_state("fast-first");
    let bad = b.add_state("slow-first");
    let done = b.add_state("done");
    let fast = b.add_transition(s0, "fast", ok);
    let slow = b.add_transition(s0, "slow", bad);
    b.add_transition_by_id(ok, slow, done);
    b.add_transition_by_id(bad, fast, done);
    b.mark_violation(bad, "slow overtook fast");
    b.set_initial(s0);
    let ts = b.build().expect("race is well formed");
    Scenario {
        file: "race_overlap.tts",
        summary: "overlapping-delay race: verification fails with a timed counterexample",
        model: Model {
            name: "race_overlap".to_owned(),
            source: ModelSource::Tts(ts),
            delays: vec![("fast".to_owned(), d(1, 4)), ("slow".to_owned(), d(2, 9))],
            property: PropertySpec {
                deadlock_free: false,
                forbid_marked: true,
                persistent: Vec::new(),
            },
        },
    }
}
