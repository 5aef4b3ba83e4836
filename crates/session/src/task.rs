//! Typed task specifications and their canonical keys.
//!
//! A [`TaskSpec`] describes one run of the tool — which command, against
//! which interned model, with which options — and a [`TaskKey`] is its
//! canonical fingerprint: the model's content hash plus the *normalized*
//! options (per-command default limits resolved, options the command ignores
//! erased). Two specs with the same key are guaranteed to produce the same
//! result document, which is what lets a [`Session`](crate::Session)
//! deduplicate identical submissions into one underlying run.

use std::fmt;
use std::time::Duration;

use explore::{BudgetMeter, CancelToken, ExploreSpec, ProgressSink};

/// The commands a [`Session`](crate::Session) can run. (`table1` and
/// `export` are CLI conveniences built on other crates, not session tasks.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskCommand {
    /// The relative-timing verification engine (`transyt verify`).
    Verify,
    /// Untimed STG reachability (`transyt reach`).
    Reach,
    /// The conventional zone-graph exploration (`transyt zones`).
    Zones,
}

impl TaskCommand {
    /// The command's wire name: `verify`, `reach` or `zones`.
    pub fn name(self) -> &'static str {
        match self {
            TaskCommand::Verify => "verify",
            TaskCommand::Reach => "reach",
            TaskCommand::Zones => "zones",
        }
    }

    /// Parses a wire name back into a command.
    pub fn parse(name: &str) -> Option<TaskCommand> {
        match name {
            "verify" => Some(TaskCommand::Verify),
            "reach" => Some(TaskCommand::Reach),
            "zones" => Some(TaskCommand::Zones),
            _ => None,
        }
    }
}

impl fmt::Display for TaskCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The default `--limit` of `transyt reach` (markings).
pub const REACH_DEFAULT_LIMIT: usize = 100_000;

/// The default `--limit` of `transyt zones` (configurations). Deliberately
/// lower than the library default: the zone graph blows up with pipeline
/// depth (the paper's motivation), and an interactive tool should abort
/// early; raise it with `--limit`.
pub const ZONES_DEFAULT_LIMIT: usize = 50_000;

/// One task: a command, the content hash of the model to run it against, and
/// the options. Construct with the builder methods, or lower textual
/// parameters (CLI flags, server query strings) through [`TaskSpec::parse`]
/// so both front ends share one set of names, defaults and validity checks.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use transyt_session::TaskSpec;
///
/// let spec = TaskSpec::zones("0011223344556677")
///     .exact(true)
///     .with_trace(true)
///     .limit(80_000)
///     .deadline(Duration::from_secs(30));
/// assert_eq!(spec.key().canonical(),
///     "model=0011223344556677 command=zones exact=yes trace=yes \
///      limit=80000 to=- deadline=30000ms max-configs=- max-zone-bytes=-");
///
/// // Identical submissions — however they were spelled — share a key.
/// let parsed = TaskSpec::parse("zones", &[
///     ("exact".into(), "true".into()),
///     ("trace".into(), "true".into()),
///     ("limit".into(), "80000".into()),
///     ("timeout".into(), "30".into()),
/// ]).unwrap().for_model("0011223344556677");
/// assert_eq!(parsed.key(), spec.key());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Content hash of the interned model to run against.
    pub model: String,
    /// The command to run.
    pub command: TaskCommand,
    /// Explore the zone graph unabstracted — the exact oracle (`zones` only;
    /// default off: LU extrapolation and aLU coverage, see
    /// [`ExploreSpec::exact`]).
    pub exact: bool,
    /// Produce a witness / counterexample trace.
    pub trace: bool,
    /// Exploration size limit (default per command).
    pub limit: Option<usize>,
    /// Target label for `reach --to LABEL`.
    pub to_label: Option<String>,
    /// Wall-clock deadline, measured from the start of the run: the first
    /// check of the run's cancel token after it has passed stops the run,
    /// and the outcome is [`Outcome::TimedOut`](crate::Outcome::TimedOut).
    pub deadline: Option<Duration>,
    /// Configuration budget (`reach` and `zones`): the exploration is
    /// cancelled deterministically once it expands more configurations than
    /// this, and the outcome is
    /// [`Outcome::BudgetExceeded`](crate::Outcome::BudgetExceeded).
    pub max_configs: Option<usize>,
    /// Zone-memory budget in bytes (`zones` only): the exploration is
    /// cancelled deterministically once the interner has committed more
    /// distinct-zone bytes than this.
    pub max_zone_bytes: Option<usize>,
}

/// A malformed or inconsistent task parameter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl TaskSpec {
    /// A spec with the command's defaults (the unspecified-flag defaults of
    /// the CLI and the omitted-parameter defaults of the server alike).
    pub fn new(command: TaskCommand, model_hash: impl Into<String>) -> TaskSpec {
        TaskSpec {
            model: model_hash.into(),
            command,
            exact: false,
            trace: false,
            limit: None,
            to_label: None,
            deadline: None,
            max_configs: None,
            max_zone_bytes: None,
        }
    }

    /// A `verify` spec with default options.
    pub fn verify(model_hash: impl Into<String>) -> TaskSpec {
        TaskSpec::new(TaskCommand::Verify, model_hash)
    }

    /// A `reach` spec with default options.
    pub fn reach(model_hash: impl Into<String>) -> TaskSpec {
        TaskSpec::new(TaskCommand::Reach, model_hash)
    }

    /// A `zones` spec with default options.
    pub fn zones(model_hash: impl Into<String>) -> TaskSpec {
        TaskSpec::new(TaskCommand::Zones, model_hash)
    }

    /// Runs `zones` unabstracted (the exact oracle).
    #[must_use]
    pub fn exact(mut self, on: bool) -> TaskSpec {
        self.exact = on;
        self
    }

    /// Requests a witness / counterexample trace.
    #[must_use]
    pub fn with_trace(mut self, on: bool) -> TaskSpec {
        self.trace = on;
        self
    }

    /// Sets the exploration size limit.
    #[must_use]
    pub fn limit(mut self, limit: usize) -> TaskSpec {
        self.limit = Some(limit);
        self
    }

    /// Sets the `reach` goal label.
    #[must_use]
    pub fn to(mut self, label: impl Into<String>) -> TaskSpec {
        self.to_label = Some(label.into());
        self
    }

    /// Arms a wall-clock deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> TaskSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the configuration budget.
    #[must_use]
    pub fn max_configs(mut self, budget: usize) -> TaskSpec {
        self.max_configs = Some(budget);
        self
    }

    /// Sets the zone-memory budget in bytes.
    #[must_use]
    pub fn max_zone_bytes(mut self, budget: usize) -> TaskSpec {
        self.max_zone_bytes = Some(budget);
        self
    }

    /// Rebinds the spec to another interned model.
    #[must_use]
    pub fn for_model(mut self, model_hash: impl Into<String>) -> TaskSpec {
        self.model = model_hash.into();
        self
    }

    /// The parameter names `command` accepts — the single source of truth
    /// behind the CLI's per-subcommand allowed flag lists and the server's
    /// query-string validation.
    pub fn allowed_params(command: TaskCommand) -> &'static [&'static str] {
        match command {
            TaskCommand::Verify => &["trace", "timeout"],
            TaskCommand::Reach => &["trace", "to", "limit", "timeout", "max-configs"],
            TaskCommand::Zones => &[
                "exact",
                "trace",
                "limit",
                "timeout",
                "max-configs",
                "max-zone-bytes",
            ],
        }
    }

    /// Lowers textual `(name, value)` parameters into a spec: the one place
    /// where option names, defaults and per-command validity are defined.
    /// The CLI lowers its flags (stripped of `--`) through this and the
    /// server its query-string parameters, so the two can never drift.
    ///
    /// The model hash is not a parameter; bind it with
    /// [`for_model`](Self::for_model).
    ///
    /// # Errors
    ///
    /// [`SpecError`] for unknown commands, parameters the command does not
    /// accept, and malformed values.
    pub fn parse(command: &str, params: &[(String, String)]) -> Result<TaskSpec, SpecError> {
        let command = TaskCommand::parse(command).ok_or_else(|| {
            SpecError(format!(
                "unknown command `{command}` (use verify, reach or zones)"
            ))
        })?;
        let allowed = TaskSpec::allowed_params(command);
        let mut spec = TaskSpec::new(command, String::new());
        for (name, value) in params {
            if !allowed.contains(&name.as_str()) {
                return Err(SpecError(format!(
                    "`{command}` does not accept `{name}` (allowed: {})",
                    allowed.join(", ")
                )));
            }
            match name.as_str() {
                "trace" | "exact" => {
                    let on = match value.as_str() {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(SpecError(format!(
                                "bad `{name}` value `{other}` (use true|false)"
                            )))
                        }
                    };
                    if name == "trace" {
                        spec.trace = on;
                    } else {
                        spec.exact = on;
                    }
                }
                "limit" => {
                    spec.limit = Some(
                        value
                            .parse()
                            .map_err(|_| SpecError(format!("bad `limit` value `{value}`")))?,
                    );
                }
                "to" => spec.to_label = Some(value.clone()),
                "max-configs" => {
                    spec.max_configs =
                        Some(value.parse().ok().filter(|&b| b > 0).ok_or_else(|| {
                            SpecError(format!("bad `max-configs` value `{value}`"))
                        })?);
                }
                "max-zone-bytes" => {
                    spec.max_zone_bytes =
                        Some(value.parse().ok().filter(|&b| b > 0).ok_or_else(|| {
                            SpecError(format!("bad `max-zone-bytes` value `{value}`"))
                        })?);
                }
                "timeout" => {
                    let seconds: u64 = value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| SpecError(format!("bad `timeout` value `{value}`")))?;
                    spec.deadline = Some(Duration::from_secs(seconds));
                }
                _ => unreachable!("parameter validated against the allowed list"),
            }
        }
        Ok(spec)
    }

    /// Raises the spec back into the textual `(name, value)` parameters that
    /// [`parse`](Self::parse) lowers — the journaling / wire form. For a
    /// spec that came through `parse`, `parse(command.name(), &to_params())`
    /// rebinds to an equal spec (sub-second deadlines are the one lossy
    /// corner: `timeout` is whole seconds on the wire, so a deadline built
    /// in code is rounded down, minimum 1s).
    pub fn to_params(&self) -> Vec<(String, String)> {
        let allowed = TaskSpec::allowed_params(self.command);
        let mut params = Vec::new();
        if self.exact && allowed.contains(&"exact") {
            params.push(("exact".to_owned(), "true".to_owned()));
        }
        if self.trace {
            params.push(("trace".to_owned(), "true".to_owned()));
        }
        if let (true, Some(limit)) = (allowed.contains(&"limit"), self.limit) {
            params.push(("limit".to_owned(), limit.to_string()));
        }
        if let (true, Some(label)) = (allowed.contains(&"to"), &self.to_label) {
            params.push(("to".to_owned(), label.clone()));
        }
        if let Some(deadline) = self.deadline {
            params.push(("timeout".to_owned(), deadline.as_secs().max(1).to_string()));
        }
        if let (true, Some(budget)) = (allowed.contains(&"max-configs"), self.max_configs) {
            params.push(("max-configs".to_owned(), budget.to_string()));
        }
        if let (true, Some(budget)) = (allowed.contains(&"max-zone-bytes"), self.max_zone_bytes) {
            params.push(("max-zone-bytes".to_owned(), budget.to_string()));
        }
        params
    }

    /// The exploration size limit the run will actually use: the explicit
    /// limit, or the command's default.
    pub fn effective_limit(&self) -> Option<usize> {
        match self.command {
            TaskCommand::Verify => None,
            TaskCommand::Reach => Some(self.limit.unwrap_or(REACH_DEFAULT_LIMIT)),
            TaskCommand::Zones => Some(self.limit.unwrap_or(ZONES_DEFAULT_LIMIT)),
        }
    }

    /// The resource budgets the run will actually enforce, as
    /// `(max_configs, max_zone_bytes)`: budgets the command ignores are
    /// erased (`max_configs` outside `reach`/`zones`, `max_zone_bytes`
    /// outside `zones`), mirroring [`allowed_params`](Self::allowed_params).
    pub fn effective_budgets(&self) -> (Option<usize>, Option<usize>) {
        let allowed = TaskSpec::allowed_params(self.command);
        (
            self.max_configs
                .filter(|_| allowed.contains(&"max-configs")),
            self.max_zone_bytes
                .filter(|_| allowed.contains(&"max-zone-bytes")),
        )
    }

    /// A live [`BudgetMeter`] armed with the spec's
    /// [`effective_budgets`](Self::effective_budgets) — inert when the spec
    /// sets none. A search that finds it breached records the breach on the
    /// run's cancel token.
    pub fn budget_meter(&self) -> BudgetMeter {
        let (max_configs, max_zone_bytes) = self.effective_budgets();
        BudgetMeter::new(max_configs, max_zone_bytes)
    }

    /// Lowers the spec into the [`ExploreSpec`] every exploration-backed
    /// command consumes — the single point where session options become
    /// engine options. The limit is the command's
    /// [`effective_limit`](Self::effective_limit); the run's cancel token,
    /// progress sink and budget meter are supplied by the executing session
    /// (the token derived with the spec's deadline, the meter from
    /// [`budget_meter`](Self::budget_meter)); the token records why the run
    /// stopped, if it did.
    pub fn explore_spec(
        &self,
        cancel: CancelToken,
        progress: ProgressSink,
        budget: BudgetMeter,
    ) -> ExploreSpec {
        ExploreSpec {
            exact: self.exact,
            limit: self.effective_limit(),
            cancel,
            progress,
            budget,
        }
    }

    /// The canonical key of this task: model hash + normalized options.
    /// Options the command ignores are erased and default limits resolved,
    /// so two submissions that would produce the same document — however
    /// they were spelled — share a key.
    pub fn key(&self) -> TaskKey {
        let exact = match (self.command, self.exact) {
            (TaskCommand::Zones, true) => "yes",
            (TaskCommand::Zones, false) => "no",
            _ => "-",
        };
        let limit = match self.effective_limit() {
            Some(limit) => limit.to_string(),
            None => "-".to_owned(),
        };
        let to = match (self.command, &self.to_label) {
            (TaskCommand::Reach, Some(label)) => label.as_str(),
            _ => "-",
        };
        let deadline = match self.deadline {
            Some(deadline) => format!("{}ms", deadline.as_millis()),
            None => "none".to_owned(),
        };
        let erased = |budget: Option<usize>| match budget {
            Some(budget) => budget.to_string(),
            None => "-".to_owned(),
        };
        let (max_configs, max_zone_bytes) = self.effective_budgets();
        let max_configs = erased(max_configs);
        let max_zone_bytes = erased(max_zone_bytes);
        TaskKey {
            canonical: format!(
                "model={} command={} exact={exact} trace={} limit={limit} \
                 to={to} deadline={deadline} max-configs={max_configs} \
                 max-zone-bytes={max_zone_bytes}",
                self.model,
                self.command,
                if self.trace { "yes" } else { "no" },
            ),
        }
    }
}

/// The canonical identity of a task: equal keys mean "the same run" — the
/// handle the [`Session`](crate::Session) deduplicates on, the server
/// batches on and caches by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskKey {
    canonical: String,
}

impl TaskKey {
    /// The canonical, human-readable form (model hash + normalized options).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// A compact 16-hex-digit FNV-1a fingerprint of the canonical form, for
    /// logs and job listings.
    pub fn fingerprint(&self) -> String {
        crate::session::content_hash(&self.canonical)
    }
}

/// `Display` prints the fingerprint (the canonical form is available through
/// [`TaskKey::canonical`]).
impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_normalize_into_the_key() {
        // An explicit default limit and the implicit default share a key.
        let explicit = TaskSpec::zones("abc").limit(ZONES_DEFAULT_LIMIT);
        let implicit = TaskSpec::zones("abc");
        assert_eq!(explicit.key(), implicit.key());
        assert_ne!(explicit.key(), TaskSpec::zones("abc").limit(10).key());

        // Options the command ignores are erased: the exact zone mode is
        // meaningless outside `zones`.
        for spec in [TaskSpec::verify("abc"), TaskSpec::reach("abc")] {
            assert_eq!(spec.clone().exact(true).key(), spec.key());
        }
        // For `zones` the exact oracle explores a different configuration
        // set (even though verdicts agree), so it is its own run.
        assert_ne!(
            TaskSpec::zones("abc").exact(true).key(),
            TaskSpec::zones("abc").key()
        );

        // Different models never collide.
        assert_ne!(TaskSpec::verify("abc").key(), TaskSpec::verify("abd").key());
        assert_eq!(TaskSpec::verify("abc").key().fingerprint().len(), 16);
    }

    #[test]
    fn budgets_are_erased_where_the_command_ignores_them() {
        // `verify` accepts no budgets: a stray builder call never splits the
        // key (mirroring the exact-mode erasure above).
        let a = TaskSpec::verify("abc").max_configs(10).max_zone_bytes(10);
        let b = TaskSpec::verify("abc");
        assert_eq!(a.key(), b.key());
        assert!(a.budget_meter().is_inert());
        // `reach` takes max-configs but not max-zone-bytes.
        let a = TaskSpec::reach("abc").max_zone_bytes(10);
        let b = TaskSpec::reach("abc");
        assert_eq!(a.key(), b.key());
        assert_ne!(
            TaskSpec::reach("abc").max_configs(10).key(),
            TaskSpec::reach("abc").key()
        );
        // `zones` takes both, and each budget is its own run.
        assert_ne!(
            TaskSpec::zones("abc").max_configs(10).key(),
            TaskSpec::zones("abc").key()
        );
        assert_ne!(
            TaskSpec::zones("abc").max_zone_bytes(10).key(),
            TaskSpec::zones("abc").max_zone_bytes(11).key()
        );
        assert!(!TaskSpec::zones("abc")
            .max_configs(10)
            .budget_meter()
            .is_inert());
    }

    #[test]
    fn to_params_round_trips_through_parse() {
        let specs = [
            TaskSpec::verify("aa"),
            TaskSpec::verify("aa").with_trace(true),
            TaskSpec::verify("aa").deadline(Duration::from_secs(7)),
            TaskSpec::reach("aa").to("C+").limit(42).max_configs(5_000),
            TaskSpec::zones("aa"),
            TaskSpec::zones("aa")
                .exact(true)
                .limit(9)
                .with_trace(true)
                .deadline(Duration::from_secs(30))
                .max_configs(5_000)
                .max_zone_bytes(1 << 20),
        ];
        for spec in specs {
            let reparsed = TaskSpec::parse(spec.command.name(), &spec.to_params())
                .unwrap()
                .for_model(&spec.model);
            assert_eq!(reparsed, spec);
        }
        // The lossy corner: sub-second deadlines round to whole seconds on
        // the wire (never to zero, which `parse` rejects).
        let sub_second = TaskSpec::verify("aa").deadline(Duration::from_millis(250));
        let reparsed = TaskSpec::parse("verify", &sub_second.to_params())
            .unwrap()
            .for_model("aa");
        assert_eq!(reparsed.deadline, Some(Duration::from_secs(1)));
    }

    #[test]
    fn parse_checks_names_values_and_commands() {
        let pair = |name: &str, value: &str| (name.to_owned(), value.to_owned());
        assert!(TaskSpec::parse("table1", &[]).is_err());
        assert!(TaskSpec::parse("zones", &[pair("trace", "maybe")]).is_err());
        // The retired zone-abstraction knobs and thread count are unknown to
        // every command, and the refusal names what is accepted.
        for command in ["verify", "reach", "zones"] {
            let allowed = TaskSpec::allowed_params(TaskCommand::parse(command).unwrap()).join(", ");
            for (name, value) in [
                ("subsumption", "alu"),
                ("extrapolation", "lu-active"),
                ("bounds", "local"),
                ("threads", "2"),
            ] {
                let error = TaskSpec::parse(command, &[pair(name, value)]).unwrap_err();
                assert!(
                    error
                        .0
                        .contains(&format!("does not accept `{name}` (allowed: {allowed})")),
                    "{error}"
                );
            }
        }
        assert!(TaskSpec::parse("verify", &[pair("exact", "true")]).is_err());
        assert!(TaskSpec::parse("reach", &[pair("exact", "true")]).is_err());
        assert!(TaskSpec::parse("zones", &[pair("exact", "maybe")]).is_err());
        assert!(
            TaskSpec::parse("zones", &[pair("exact", "true")])
                .unwrap()
                .exact
        );
        assert!(!TaskSpec::parse("zones", &[]).unwrap().exact);
        assert!(TaskSpec::parse("verify", &[pair("timeout", "0")]).is_err());
        // Budgets: per-command validity and value checks.
        assert!(TaskSpec::parse("verify", &[pair("max-configs", "5")]).is_err());
        assert!(TaskSpec::parse("reach", &[pair("max-zone-bytes", "5")]).is_err());
        assert!(TaskSpec::parse("zones", &[pair("max-configs", "0")]).is_err());
        assert!(TaskSpec::parse("zones", &[pair("max-zone-bytes", "x")]).is_err());
        let spec = TaskSpec::parse(
            "zones",
            &[
                pair("max-configs", "5000"),
                pair("max-zone-bytes", "1048576"),
            ],
        )
        .unwrap();
        assert_eq!(spec.max_configs, Some(5_000));
        assert_eq!(spec.max_zone_bytes, Some(1 << 20));

        let spec = TaskSpec::parse(
            "reach",
            &[pair("to", "C+"), pair("limit", "7"), pair("timeout", "5")],
        )
        .unwrap()
        .for_model("ffff");
        assert_eq!(spec.command, TaskCommand::Reach);
        assert_eq!(spec.to_label.as_deref(), Some("C+"));
        assert_eq!(spec.effective_limit(), Some(7));
        assert_eq!(spec.deadline, Some(Duration::from_secs(5)));
        assert_eq!(spec.model, "ffff");
    }
}
