//! The `.stg` / `.tts` textual model formats: parser and canonical printer.
//!
//! Both formats are line-oriented: `#` starts a comment, blank lines are
//! ignored, and every other line is a directive made of whitespace-separated
//! tokens (double-quoted, backslash-escaped strings for names that contain
//! whitespace). The grammar is specified in `docs/FILE_FORMATS.md`; in
//! short, an `.stg` file declares a signal transition graph (transitions,
//! places, arcs) and a `.tts` file an explicit timed transition system
//! (states, transitions, roles), and both carry `delay` and `property`
//! directives that turn the model into a verification problem.
//!
//! Printing is *canonical*: identifiers are renumbered `t0, t1, …` /
//! `p0, p1, …` / `s0, s1, …` in declaration order, so
//! `parse(print(m)) == m` and `print(parse(text))` is a normal form — the
//! property the round-trip tests in `tests/proptest_format.rs` check.

use std::fmt;

use explore::{CancelToken, ExploreSpec};
use stg::{ExpandError, SignalRole, Stg, StgBuilder};
use transyt::SafetyProperty;
use tts::{
    Bound, DelayInterval, EventRole, Time, TimedTransitionSystem, TransitionSystem, TsBuilder,
};

/// A parsed model file: the system description plus the delay annotations
/// and the safety property to verify.
#[derive(Debug, Clone)]
pub struct Model {
    /// The model's name (from the `stg` / `tts` header line).
    pub name: String,
    /// The system itself.
    pub source: ModelSource,
    /// Delay intervals per event label, in declaration order.
    pub delays: Vec<(String, DelayInterval)>,
    /// The property directives.
    pub property: PropertySpec,
}

/// The system described by a model file.
#[derive(Debug, Clone)]
pub enum ModelSource {
    /// A signal transition graph (`.stg`): expanded to its reachability
    /// graph before verification.
    Stg(Stg),
    /// An explicit transition system (`.tts`).
    Tts(TransitionSystem),
}

/// The `property` directives of a model file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PropertySpec {
    /// `property deadlock-free` — no reachable state may deadlock.
    pub deadlock_free: bool,
    /// `property forbid-marked` — no state carrying a violation mark may be
    /// reachable.
    pub forbid_marked: bool,
    /// `property persistent <label>…` — the named events must be persistent.
    pub persistent: Vec<String>,
}

impl PropertySpec {
    /// Returns `true` if no property directive was given.
    pub fn is_empty(&self) -> bool {
        !self.deadlock_free && !self.forbid_marked && self.persistent.is_empty()
    }
}

/// Error produced while parsing or instantiating a model file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// 1-based line the error was detected on (0 when it concerns the file
    /// as a whole, e.g. a missing header).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl ModelError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ModelError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ModelError {}

/// Splits one line into tokens: bare words and double-quoted strings with
/// `\"` / `\\` escapes; `#` outside quotes starts a comment.
fn tokenize(line: &str, number: usize) -> Result<Vec<String>, ModelError> {
    let mut tokens = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '#' => break,
            c if c.is_whitespace() => {
                chars.next();
            }
            '"' => {
                chars.next();
                let mut token = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(escaped @ ('"' | '\\')) => token.push(escaped),
                            _ => return Err(ModelError::new(number, "bad escape in string")),
                        },
                        Some(other) => token.push(other),
                        None => return Err(ModelError::new(number, "unterminated string")),
                    }
                }
                tokens.push(token);
            }
            _ => {
                let mut token = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '"' || c == '#' {
                        break;
                    }
                    token.push(c);
                    chars.next();
                }
                tokens.push(token);
            }
        }
    }
    Ok(tokens)
}

/// Renders a token, quoting it when it contains whitespace, quotes, `#`, or
/// is empty.
fn quote(token: &str) -> String {
    let needs_quoting = token.is_empty()
        || token
            .chars()
            .any(|c| c.is_whitespace() || c == '"' || c == '#' || c == '\\');
    if !needs_quoting {
        return token.to_owned();
    }
    let mut out = String::with_capacity(token.len() + 2);
    out.push('"');
    for c in token.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

fn parse_interval(token: &str, line: usize) -> Result<DelayInterval, ModelError> {
    let bad = || {
        ModelError::new(
            line,
            format!("bad delay interval `{token}` (use [l,u] or [l,inf))"),
        )
    };
    let inner = token.strip_prefix('[').ok_or_else(bad)?;
    let (lower, upper) = inner.split_once(',').ok_or_else(bad)?;
    let lower: i64 = lower.trim().parse().map_err(|_| bad())?;
    let upper = upper.trim();
    if let Some(rest) = upper.strip_suffix(')') {
        if rest != "inf" {
            return Err(bad());
        }
        DelayInterval::at_least(Time::new(lower)).map_err(|e| ModelError::new(line, e.to_string()))
    } else if let Some(rest) = upper.strip_suffix(']') {
        let upper: i64 = rest.parse().map_err(|_| bad())?;
        DelayInterval::new(Time::new(lower), Time::new(upper))
            .map_err(|e| ModelError::new(line, e.to_string()))
    } else {
        Err(bad())
    }
}

fn print_interval(delay: DelayInterval) -> String {
    match delay.upper() {
        Bound::Finite(upper) => format!("[{},{}]", delay.lower(), upper),
        Bound::Infinite => format!("[{},inf)", delay.lower()),
    }
}

impl Model {
    /// Parses a model file (either format; the header line decides).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] with the offending line on any syntax or
    /// consistency problem (unknown identifiers, duplicate ids, malformed
    /// intervals, delays or properties naming unknown labels).
    pub fn parse(text: &str) -> Result<Model, ModelError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, line)| tokenize(line, i + 1).map(|tokens| (i + 1, tokens)));
        let header = loop {
            match lines.next() {
                Some(result) => {
                    let (number, tokens) = result?;
                    if !tokens.is_empty() {
                        break (number, tokens);
                    }
                }
                None => return Err(ModelError::new(0, "empty model file")),
            }
        };
        let (header_line, header_tokens) = header;
        if header_tokens.len() != 2 {
            return Err(ModelError::new(
                header_line,
                "expected header `stg <name>` or `tts <name>`",
            ));
        }
        let name = header_tokens[1].clone();
        let body: Result<Vec<(usize, Vec<String>)>, ModelError> = lines.collect();
        let body: Vec<(usize, Vec<String>)> = body?
            .into_iter()
            .filter(|(_, tokens)| !tokens.is_empty())
            .collect();
        match header_tokens[0].as_str() {
            "stg" => parse_stg(name, &body),
            "tts" => parse_tts(name, &body),
            other => Err(ModelError::new(
                header_line,
                format!("unknown model kind `{other}` (expected `stg` or `tts`)"),
            )),
        }
    }

    /// Renders the model in canonical form (see the module docs).
    pub fn to_text(&self) -> String {
        match &self.source {
            ModelSource::Stg(net) => print_stg(self, net),
            ModelSource::Tts(ts) => print_tts(self, ts),
        }
    }

    /// The event labels of the model, in declaration order.
    pub fn labels(&self) -> Vec<String> {
        match &self.source {
            ModelSource::Stg(net) => net.transitions().map(|t| net.label(t).to_owned()).collect(),
            ModelSource::Tts(ts) => ts
                .alphabet()
                .iter()
                .map(|(_, name)| name.to_owned())
                .collect(),
        }
    }

    /// Instantiates the timed transition system the model describes: the
    /// reachability graph of the net (for `.stg`) or the explicit system
    /// (for `.tts`), with the delay annotations applied.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the net cannot be expanded.
    pub fn timed_system(&self) -> Result<TimedTransitionSystem, ModelError> {
        self.timed_system_with(&CancelToken::default())
            .map_err(|e| self.expansion_error(e))
    }

    /// [`timed_system`](Self::timed_system) with `cancel` reaching the net
    /// expansion, which stops once the token fires
    /// ([`ExpandError::Cancelled`]).
    pub(crate) fn timed_system_with(
        &self,
        cancel: &CancelToken,
    ) -> Result<TimedTransitionSystem, ExpandError> {
        let ts = match &self.source {
            ModelSource::Stg(net) => stg::expand_with(
                net,
                &ExploreSpec {
                    cancel: cancel.clone(),
                    ..ExploreSpec::default()
                },
            )?,
            ModelSource::Tts(ts) => ts.clone(),
        };
        let mut timed = TimedTransitionSystem::new(ts);
        for (label, delay) in &self.delays {
            // Labels were validated at parse time; an `.stg` transition that
            // is dead in the reachability graph can still be missing from
            // the alphabet, which is fine to ignore.
            if timed.underlying().alphabet().lookup(label).is_some() {
                timed.set_delay_by_name(label, *delay);
            }
        }
        Ok(timed)
    }

    /// The model error reporting a failed expansion of this model's net.
    pub(crate) fn expansion_error(&self, e: ExpandError) -> ModelError {
        ModelError::new(0, format!("expanding `{}`: {e}", self.name))
    }

    /// The safety property the model's `property` directives describe.
    pub fn property(&self) -> SafetyProperty {
        let mut property = SafetyProperty::new(self.name.clone());
        if self.property.forbid_marked {
            property = property.forbid_marked_states();
        }
        if self.property.deadlock_free {
            property = property.require_deadlock_freedom();
        }
        if !self.property.persistent.is_empty() {
            property = property.require_persistency(self.property.persistent.iter().cloned());
        }
        property
    }
}

/// Parses the shared `delay` / `property` directives; returns `false` if the
/// directive is not one of them.
fn parse_common(
    line: usize,
    tokens: &[String],
    labels: &dyn Fn(&str) -> bool,
    delays: &mut Vec<(String, DelayInterval)>,
    property: &mut PropertySpec,
) -> Result<bool, ModelError> {
    match tokens[0].as_str() {
        "delay" => {
            if tokens.len() != 3 {
                return Err(ModelError::new(line, "expected `delay <label> <interval>`"));
            }
            if !labels(&tokens[1]) {
                return Err(ModelError::new(
                    line,
                    format!("delay names unknown label `{}`", tokens[1]),
                ));
            }
            delays.push((tokens[1].clone(), parse_interval(&tokens[2], line)?));
            Ok(true)
        }
        "property" => {
            match tokens.get(1).map(String::as_str) {
                Some("deadlock-free") if tokens.len() == 2 => property.deadlock_free = true,
                Some("forbid-marked") if tokens.len() == 2 => property.forbid_marked = true,
                Some("persistent") if tokens.len() > 2 => {
                    for label in &tokens[2..] {
                        if !labels(label) {
                            return Err(ModelError::new(
                                line,
                                format!("property names unknown label `{label}`"),
                            ));
                        }
                        property.persistent.push(label.clone());
                    }
                }
                _ => {
                    return Err(ModelError::new(
                        line,
                        "expected `property deadlock-free`, `property forbid-marked` \
                         or `property persistent <label>…`",
                    ))
                }
            }
            Ok(true)
        }
        _ => Ok(false),
    }
}

fn parse_stg(name: String, body: &[(usize, Vec<String>)]) -> Result<Model, ModelError> {
    let mut builder = StgBuilder::new(name.clone());
    let mut transition_ids: Vec<(String, stg::TransitionId)> = Vec::new();
    let mut place_ids: Vec<(String, stg::PlaceId)> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let mut delays = Vec::new();
    let mut property = PropertySpec::default();

    let find_transition = |ids: &[(String, stg::TransitionId)], id: &str| {
        ids.iter().find(|(n, _)| n == id).map(|&(_, t)| t)
    };
    let find_place = |ids: &[(String, stg::PlaceId)], id: &str| {
        ids.iter().find(|(n, _)| n == id).map(|&(_, p)| p)
    };

    for (line, tokens) in body {
        let line = *line;
        let label_known = |label: &str| labels.iter().any(|l| l == label);
        if parse_common(line, tokens, &label_known, &mut delays, &mut property)? {
            continue;
        }
        match tokens[0].as_str() {
            "transition" => {
                if tokens.len() != 4 {
                    return Err(ModelError::new(
                        line,
                        "expected `transition <id> <label> <input|output|internal>`",
                    ));
                }
                if find_transition(&transition_ids, &tokens[1]).is_some() {
                    return Err(ModelError::new(
                        line,
                        format!("duplicate transition id `{}`", tokens[1]),
                    ));
                }
                let role = match tokens[3].as_str() {
                    "input" => SignalRole::Input,
                    "output" => SignalRole::Output,
                    "internal" => SignalRole::Internal,
                    other => return Err(ModelError::new(line, format!("unknown role `{other}`"))),
                };
                let t = builder.add_transition(tokens[2].clone(), role);
                transition_ids.push((tokens[1].clone(), t));
                labels.push(tokens[2].clone());
            }
            "place" => {
                if tokens.len() != 3 && tokens.len() != 4 {
                    return Err(ModelError::new(
                        line,
                        "expected `place <id> <initial-tokens> [<name>]`",
                    ));
                }
                if find_place(&place_ids, &tokens[1]).is_some() {
                    return Err(ModelError::new(
                        line,
                        format!("duplicate place id `{}`", tokens[1]),
                    ));
                }
                let tokens_count: u32 = tokens[2].parse().map_err(|_| {
                    ModelError::new(line, format!("bad token count `{}`", tokens[2]))
                })?;
                let place_name = tokens.get(3).cloned().unwrap_or_else(|| tokens[1].clone());
                let p = builder.add_place(place_name, tokens_count);
                place_ids.push((tokens[1].clone(), p));
            }
            "arc" => {
                if tokens.len() != 3 {
                    return Err(ModelError::new(line, "expected `arc <from> <to>`"));
                }
                let from_place = find_place(&place_ids, &tokens[1]);
                let from_transition = find_transition(&transition_ids, &tokens[1]);
                let to_place = find_place(&place_ids, &tokens[2]);
                let to_transition = find_transition(&transition_ids, &tokens[2]);
                match (from_place, from_transition, to_place, to_transition) {
                    (Some(p), _, _, Some(t)) => builder.arc_in(p, t),
                    (_, Some(t), Some(p), _) => builder.arc_out(t, p),
                    _ => {
                        return Err(ModelError::new(
                            line,
                            format!(
                                "arc must connect a place and a transition \
                                 (`{}` -> `{}`)",
                                tokens[1], tokens[2]
                            ),
                        ))
                    }
                }
            }
            "violation" => {
                if tokens.len() < 3 || tokens[1] != "when" {
                    return Err(ModelError::new(
                        line,
                        "expected `violation when <place-id>…` (a conjunction of marked places)",
                    ));
                }
                let mut conjunction = Vec::with_capacity(tokens.len() - 2);
                for id in &tokens[2..] {
                    let p = find_place(&place_ids, id).ok_or_else(|| {
                        ModelError::new(line, format!("violation names unknown place `{id}`"))
                    })?;
                    conjunction.push(p);
                }
                builder.forbid_marking(conjunction);
            }
            "connect" => {
                if tokens.len() != 3 && tokens.len() != 4 {
                    return Err(ModelError::new(
                        line,
                        "expected `connect <from-transition> <to-transition> [<initial-tokens>]`",
                    ));
                }
                let from = find_transition(&transition_ids, &tokens[1]).ok_or_else(|| {
                    ModelError::new(line, format!("unknown transition `{}`", tokens[1]))
                })?;
                let to = find_transition(&transition_ids, &tokens[2]).ok_or_else(|| {
                    ModelError::new(line, format!("unknown transition `{}`", tokens[2]))
                })?;
                let initial: u32 = match tokens.get(3) {
                    Some(t) => t
                        .parse()
                        .map_err(|_| ModelError::new(line, format!("bad token count `{t}`")))?,
                    None => 0,
                };
                builder.connect(from, to, initial);
            }
            other => {
                return Err(ModelError::new(
                    line,
                    format!("unknown directive `{other}` in an stg model"),
                ))
            }
        }
    }
    let net = builder
        .build()
        .map_err(|e| ModelError::new(0, e.to_string()))?;
    Ok(Model {
        name,
        source: ModelSource::Stg(net),
        delays,
        property,
    })
}

fn print_stg(model: &Model, net: &Stg) -> String {
    let mut out = String::new();
    out.push_str(&format!("stg {}\n", quote(&model.name)));
    out.push('\n');
    out.push_str("# transitions: <id> <label> <role>\n");
    for (i, t) in net.transitions().enumerate() {
        let role = match net.role(t) {
            SignalRole::Input => "input",
            SignalRole::Output => "output",
            SignalRole::Internal => "internal",
        };
        out.push_str(&format!("transition t{i} {} {role}\n", quote(net.label(t))));
    }
    out.push('\n');
    out.push_str("# places: <id> <initial-tokens> <name>\n");
    for i in 0..net.place_count() {
        let p = stg::PlaceId::from_index(i);
        out.push_str(&format!(
            "place p{i} {} {}\n",
            net.initial_tokens(p),
            quote(net.place_name(p))
        ));
    }
    out.push('\n');
    out.push_str("# arcs: place -> transition (preset), transition -> place (postset)\n");
    for (i, t) in net.transitions().enumerate() {
        for p in net.preset(t) {
            out.push_str(&format!("arc p{} t{i}\n", p.index()));
        }
        for p in net.postset(t) {
            out.push_str(&format!("arc t{i} p{}\n", p.index()));
        }
    }
    if !net.forbidden_markings().is_empty() {
        out.push('\n');
        out.push_str("# forbidden markings: a violation when every listed place is marked\n");
        for conjunction in net.forbidden_markings() {
            let ids: Vec<String> = conjunction
                .iter()
                .map(|p| format!("p{}", p.index()))
                .collect();
            out.push_str(&format!("violation when {}\n", ids.join(" ")));
        }
    }
    print_common(model, &mut out);
    out
}

fn parse_tts(name: String, body: &[(usize, Vec<String>)]) -> Result<Model, ModelError> {
    let mut builder = TsBuilder::new(name.clone());
    let mut state_ids: Vec<(String, tts::StateId)> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let mut delays = Vec::new();
    let mut property = PropertySpec::default();

    let find_state = |ids: &[(String, tts::StateId)], id: &str| {
        ids.iter().find(|(n, _)| n == id).map(|&(_, s)| s)
    };

    for (line, tokens) in body {
        let line = *line;
        let label_known = |label: &str| labels.iter().any(|l| l == label);
        if parse_common(line, tokens, &label_known, &mut delays, &mut property)? {
            continue;
        }
        match tokens[0].as_str() {
            "state" => {
                if tokens.len() != 2 && tokens.len() != 3 {
                    return Err(ModelError::new(line, "expected `state <id> [<name>]`"));
                }
                if find_state(&state_ids, &tokens[1]).is_some() {
                    return Err(ModelError::new(
                        line,
                        format!("duplicate state id `{}`", tokens[1]),
                    ));
                }
                let state_name = tokens.get(2).cloned().unwrap_or_else(|| tokens[1].clone());
                let s = builder.add_state(state_name);
                state_ids.push((tokens[1].clone(), s));
            }
            "initial" => {
                if tokens.len() < 2 {
                    return Err(ModelError::new(line, "expected `initial <id>…`"));
                }
                for id in &tokens[1..] {
                    let s = find_state(&state_ids, id)
                        .ok_or_else(|| ModelError::new(line, format!("unknown state `{id}`")))?;
                    builder.set_initial(s);
                }
            }
            "violation" => {
                if tokens.len() != 3 {
                    return Err(ModelError::new(line, "expected `violation <id> <message>`"));
                }
                let s = find_state(&state_ids, &tokens[1]).ok_or_else(|| {
                    ModelError::new(line, format!("unknown state `{}`", tokens[1]))
                })?;
                builder.mark_violation(s, tokens[2].clone());
            }
            "trans" => {
                if tokens.len() != 4 {
                    return Err(ModelError::new(
                        line,
                        "expected `trans <from> <label> <to>`",
                    ));
                }
                let from = find_state(&state_ids, &tokens[1]).ok_or_else(|| {
                    ModelError::new(line, format!("unknown state `{}`", tokens[1]))
                })?;
                let to = find_state(&state_ids, &tokens[3]).ok_or_else(|| {
                    ModelError::new(line, format!("unknown state `{}`", tokens[3]))
                })?;
                builder.add_transition(from, &tokens[2], to);
                if !labels.iter().any(|l| l == &tokens[2]) {
                    labels.push(tokens[2].clone());
                }
            }
            "input" | "output" => {
                if tokens.len() < 2 {
                    return Err(ModelError::new(
                        line,
                        format!("expected `{} <label>…`", tokens[0]),
                    ));
                }
                for label in &tokens[1..] {
                    if tokens[0] == "input" {
                        builder.declare_input(label);
                    } else {
                        builder.declare_output(label);
                    }
                    if !labels.iter().any(|l| l == label) {
                        labels.push(label.clone());
                    }
                }
            }
            other => {
                return Err(ModelError::new(
                    line,
                    format!("unknown directive `{other}` in a tts model"),
                ))
            }
        }
    }
    let ts = builder
        .build()
        .map_err(|e| ModelError::new(0, e.to_string()))?;
    Ok(Model {
        name,
        source: ModelSource::Tts(ts),
        delays,
        property,
    })
}

fn print_tts(model: &Model, ts: &TransitionSystem) -> String {
    let mut out = String::new();
    out.push_str(&format!("tts {}\n", quote(&model.name)));
    out.push('\n');
    out.push_str("# states: <id> <name>\n");
    for s in ts.states() {
        out.push_str(&format!(
            "state s{} {}\n",
            s.index(),
            quote(ts.state_name(s))
        ));
    }
    for s in ts.initial_states() {
        out.push_str(&format!("initial s{}\n", s.index()));
    }
    for s in ts.states() {
        for message in ts.violations(s) {
            out.push_str(&format!("violation s{} {}\n", s.index(), quote(message)));
        }
    }
    out.push('\n');
    out.push_str("# transitions: <from> <label> <to>\n");
    for (from, event, to) in ts.transitions() {
        out.push_str(&format!(
            "trans s{} {} s{}\n",
            from.index(),
            quote(ts.alphabet().name(event)),
            to.index()
        ));
    }
    for (keyword, role) in [("input", EventRole::Input), ("output", EventRole::Output)] {
        let members: Vec<String> = ts
            .alphabet()
            .iter()
            .filter(|&(id, _)| ts.role(id) == role)
            .map(|(_, name)| quote(name))
            .collect();
        if !members.is_empty() {
            out.push_str(&format!("{keyword} {}\n", members.join(" ")));
        }
    }
    print_common(model, &mut out);
    out
}

fn print_common(model: &Model, out: &mut String) {
    if !model.delays.is_empty() {
        out.push('\n');
        out.push_str("# delay intervals per event label\n");
        for (label, delay) in &model.delays {
            out.push_str(&format!(
                "delay {} {}\n",
                quote(label),
                print_interval(*delay)
            ));
        }
    }
    if !model.property.is_empty() {
        out.push('\n');
        out.push_str("# the property `transyt verify` checks\n");
        if model.property.forbid_marked {
            out.push_str("property forbid-marked\n");
        }
        if model.property.deadlock_free {
            out.push_str("property deadlock-free\n");
        }
        if !model.property.persistent.is_empty() {
            let labels: Vec<String> = model.property.persistent.iter().map(|l| quote(l)).collect();
            out.push_str(&format!("property persistent {}\n", labels.join(" ")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STG_TEXT: &str = r#"
stg toggle
transition t0 X+ output
transition t1 X- input
place p0 0 "X+->X-"
place p1 1 "X-->X+"
arc p1 t0
arc t0 p0
arc p0 t1
arc t1 p1
delay X+ [1,2]
delay X- [5,inf)
property deadlock-free
property persistent X+
"#;

    #[test]
    fn parses_and_reprints_an_stg_canonically() {
        let model = Model::parse(STG_TEXT).unwrap();
        assert_eq!(model.name, "toggle");
        let ModelSource::Stg(net) = &model.source else {
            panic!("expected an stg");
        };
        assert_eq!(net.transition_count(), 2);
        assert_eq!(net.place_count(), 2);
        assert_eq!(model.delays.len(), 2);
        assert!(model.property.deadlock_free);
        assert_eq!(model.property.persistent, vec!["X+".to_owned()]);
        // Canonical printing is a normal form.
        let printed = model.to_text();
        let reparsed = Model::parse(&printed).unwrap();
        assert_eq!(printed, reparsed.to_text());
    }

    #[test]
    fn printer_keeps_a_declared_count_the_expansion_rejects() {
        // Two tokens on one place: not 1-safe, so the expansion reports the
        // place as unbounded, but the model still prints what it declares.
        let text = "stg double\n\
                    transition t0 X+ output\ntransition t1 X- output\n\
                    place p0 2\nplace p1 0\n\
                    arc p0 t0\narc t0 p1\narc p1 t1\narc t1 p0\n";
        let model = Model::parse(text).unwrap();
        let printed = model.to_text();
        assert!(printed.contains("place p0 2 p0\n"), "{printed}");
        assert_eq!(Model::parse(&printed).unwrap().to_text(), printed);
        let err = model.timed_system().unwrap_err();
        assert_eq!(
            err.message,
            "expanding `double`: place `p0` exceeds the token bound 1"
        );
    }

    #[test]
    fn violation_when_marks_the_forbidden_marking() {
        // Two toggles; both "high" places marked at once is the violation.
        let text = "stg mutex\n\
                    transition t0 A+ output\ntransition t1 A- output\n\
                    transition t2 B+ output\ntransition t3 B- output\n\
                    place p0 1\nplace p1 0 a_high\nplace p2 1\nplace p3 0 b_high\n\
                    arc p0 t0\narc t0 p1\narc p1 t1\narc t1 p0\n\
                    arc p2 t2\narc t2 p3\narc p3 t3\narc t3 p2\n\
                    violation when p1 p3\n\
                    property forbid-marked\n";
        let model = Model::parse(text).unwrap();
        let ModelSource::Stg(net) = &model.source else {
            panic!("expected an stg");
        };
        assert_eq!(net.forbidden_markings().len(), 1);
        // Canonical printing round-trips the directive.
        let printed = model.to_text();
        assert!(printed.contains("violation when p1 p3\n"), "{printed}");
        let reparsed = Model::parse(&printed).unwrap();
        assert_eq!(reparsed.to_text(), printed);
        // The expanded system carries the violation mark and verification
        // (untimed: no delays keep the toggles apart) finds it.
        let timed = model.timed_system().unwrap();
        let marked = timed
            .underlying()
            .states()
            .filter(|&s| !timed.underlying().violations(s).is_empty())
            .count();
        assert_eq!(marked, 1);
        let verdict = transyt::verify(
            &timed,
            &model.property(),
            &transyt::VerifyOptions::default(),
        );
        assert!(matches!(verdict, transyt::Verdict::Failed { .. }));

        // Unknown places are rejected with the offending line.
        let err = Model::parse(
            "stg x\ntransition t0 A+ output\nplace p0 1\narc p0 t0\narc t0 p0\nviolation when p9\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown place"));
    }

    #[test]
    fn connect_sugar_builds_anonymous_places() {
        let text = "stg t\ntransition a X+ output\ntransition b X- output\n\
                    connect a b\nconnect b a 1\n";
        let model = Model::parse(text).unwrap();
        let ModelSource::Stg(net) = &model.source else {
            panic!("expected an stg");
        };
        assert_eq!(net.place_count(), 2);
        let ts = model.timed_system().unwrap();
        assert_eq!(ts.underlying().state_count(), 2);
    }

    #[test]
    fn parses_and_reprints_a_tts_canonically() {
        let text = "tts race\nstate s0\nstate bad \"slow first\"\nstate ok\n\
                    initial s0\nviolation bad \"slow overtook fast\"\n\
                    trans s0 fast ok\ntrans s0 slow bad\n\
                    input fast\noutput slow\n\
                    delay fast [1,4]\ndelay slow [2,9]\nproperty forbid-marked\n";
        let model = Model::parse(text).unwrap();
        let ModelSource::Tts(ts) = &model.source else {
            panic!("expected a tts");
        };
        assert_eq!(ts.state_count(), 3);
        assert_eq!(ts.transition_count(), 2);
        let printed = model.to_text();
        let reparsed = Model::parse(&printed).unwrap();
        assert_eq!(printed, reparsed.to_text());
        let timed = model.timed_system().unwrap();
        assert_eq!(
            timed.delay_by_name("fast"),
            DelayInterval::new(Time::new(1), Time::new(4)).unwrap()
        );
        assert!(model.property().checks_marked_states());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Model::parse("stg x\ntransition t0 A+ output\nfrobnicate\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("frobnicate"));
        let err = Model::parse("stg x\ndelay GHOST [1,2]\n").unwrap_err();
        assert!(err.to_string().contains("unknown label"));
        let err = Model::parse("tts x\nstate s0\ninitial s0\ntrans s0 a s0\ndelay a [5,2]\n")
            .unwrap_err();
        assert_eq!(err.line, 5);
    }

    #[test]
    fn quoting_round_trips_odd_names() {
        assert_eq!(quote("plain"), "plain");
        assert_eq!(quote("has space"), "\"has space\"");
        assert_eq!(quote("q\"uote"), "\"q\\\"uote\"");
        let tokens = tokenize("state s0 \"a \\\"b\\\" c\"", 1).unwrap();
        assert_eq!(tokens, vec!["state", "s0", "a \"b\" c"]);
    }
}
