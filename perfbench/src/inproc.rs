//! The in-process batch workloads: `zones-pipeline` and `verify-flow`.
//!
//! A run repeats *rounds* — one seed-shuffled permutation of a fixed task
//! multiset — until `--seconds` have passed, and always finishes the round
//! it is in, so task counts never depend on where the clock stopped. Task
//! times are scaled to a fixed reference speed (see [`crate::pace`]).
//! Untraced tasks go through `Session::run_task` on a memo-less session, so
//! every repetition really runs, and Table 1 through
//! `ipcmos::experiment_k_with`. A traced session task makes the calls
//! `run_task` makes (`Model::timed_system`, `dbm::explore_timed_with` or
//! `transyt::verify`, `render::*`) itself, one span each: `run_task` offers
//! no way to time them apart. The oracle checks both paths against the same
//! pinned outputs.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbm::{ZoneExplorationOptions, ZoneOutcome};
use explore::CancelToken;
use transyt::{Verdict, VerifyOptions};
use transyt_session::{
    render, trace_of_verdict, CachedModel, Completion, Outcome, RunControl, Session, TaskCommand,
    TaskSpec, VerifyOutcome, ZonesOutcome,
};
use tts::{compose, compose_timed_all, TimedTransitionSystem};

use crate::pace::Pace;
use crate::stats::{self, Rng};
use crate::trace::{self, Tracer};
use crate::{Metrics, Workload};

/// Configuration budget of the `ipcmos_3stage` zones task: the exploration
/// aborts deterministically one configuration past it.
const THREE_STAGE_LIMIT: usize = 5_000;

/// What a task must produce. A mismatch fails the run.
#[derive(Debug, Clone)]
enum Expect {
    /// A completed zone exploration with exactly this many configurations.
    Configurations(usize),
    /// A zone exploration aborted at exactly this many configurations.
    Aborted(usize),
    /// A document byte-identical to this committed golden file.
    Golden(String),
}

#[derive(Debug, Clone)]
enum Task {
    /// A session task on an interned model, checked by every expectation.
    Session {
        model: usize,
        spec: TaskSpec,
        expect: Vec<Expect>,
    },
    /// Table 1: the five obligations in order.
    Table1,
}

struct Model {
    file: &'static str,
    text: String,
}

/// The verdict each Table 1 obligation must reach: obligations 1–4
/// verify after 0/2/2/2 refinements, obligation 5 stays inconclusive after
/// 10 (the transistor-level experiment, as modeled).
const OBLIGATIONS: [(bool, usize); 5] = [(true, 0), (true, 2), (true, 2), (true, 2), (false, 10)];

struct Plan {
    models: Vec<Model>,
    /// One round's task multiset, before shuffling.
    round: Vec<Task>,
}

fn golden(file: &str) -> Expect {
    Expect::Golden(format!("crates/cli/tests/golden/{file}"))
}

fn plan(workload: Workload, root: &Path) -> Result<Plan, String> {
    let load = |file: &'static str| -> Result<Model, String> {
        let path = root.join("models").join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Ok(Model { file, text })
    };
    let session = |model: usize, spec: TaskSpec, expect: Vec<Expect>| Task::Session {
        model,
        spec,
        expect,
    };
    match workload {
        // The DBM kernel and the seen-map/interner do nearly all the work:
        // a cache-resident model many times, the 2-stage closure, and a
        // budgeted 3-stage run whose DBMs and seen-map are larger. Each
        // heavy task is 4% of a round, so the p98 falls mid-way through the
        // 2-stage times instead of on the edge of a task class.
        Workload::ZonesPipeline => {
            let mut round = Vec::new();
            for _ in 0..23 {
                round.push(session(
                    0,
                    TaskSpec::zones(""),
                    vec![
                        Expect::Configurations(132),
                        golden("zones_ipcmos_1stage_stg.json"),
                    ],
                ));
            }
            round.push(session(
                1,
                TaskSpec::zones(""),
                vec![Expect::Configurations(7_029)],
            ));
            round.push(session(
                2,
                TaskSpec::zones("").limit(THREE_STAGE_LIMIT),
                vec![Expect::Aborted(THREE_STAGE_LIMIT + 1)],
            ));
            Ok(Plan {
                models: vec![
                    load("ipcmos_1stage.stg")?,
                    load("ipcmos_2stage.stg")?,
                    load("ipcmos_3stage.stg")?,
                ],
                round,
            })
        }
        // The relative-timing flow: Table 1 and the 3-stage expansion each
        // take about half the host time; `dbm` does no work here.
        Workload::VerifyFlow => {
            let mut round = vec![Task::Table1; 20];
            round.push(session(
                0,
                TaskSpec::verify("").with_trace(true),
                vec![golden("verify_ipcmos_3stage_stg.json")],
            ));
            // 25 tasks a round: the 3-stage verify is 4% of them, so the
            // p98 falls mid-way through its times.
            for _ in 0..4 {
                round.push(session(
                    1,
                    TaskSpec::verify("").with_trace(true),
                    vec![golden("verify_intro_fig1_tts.json")],
                ));
            }
            Ok(Plan {
                models: vec![load("ipcmos_3stage.stg")?, load("intro_fig1.tts")?],
                round,
            })
        }
        Workload::ServiceMix => unreachable!("the service workload runs out of process"),
    }
}

/// Parses and interns every model into a fresh memo-less session.
fn set_up(models: &[Model], tracer: &Tracer) -> Result<(Session, Vec<CachedModel>), String> {
    let session = Session::with_memo_capacity(0);
    let mut cached = Vec::new();
    for model in models {
        let (entry, _) = tracer
            .span("session.parse", || session.add_model(&model.text))
            .map_err(|e| format!("{}: {e}", model.file))?;
        cached.push(entry);
    }
    Ok((session, cached))
}

/// Per-layer counts gathered from the traced tasks' outputs.
#[derive(Default)]
struct Counts {
    configurations: u64,
    subsumed: u64,
    alu_subsumed: u64,
    extrapolated_zones: u64,
    arena_allocated: u64,
    arena_reused: u64,
    markings: u64,
    refinements: u64,
    explored_states: u64,
    constraints: u64,
}

impl Counts {
    fn zones(&mut self, outcome: &ZoneOutcome) {
        match outcome {
            ZoneOutcome::Completed(report) => {
                self.configurations += report.configurations as u64;
                self.subsumed += report.subsumed_configurations as u64;
                self.alu_subsumed += report.alu_subsumed as u64;
                self.extrapolated_zones += report.extrapolated_zones as u64;
                self.arena_allocated += report.arena.allocated as u64;
                self.arena_reused += report.arena.reused as u64;
            }
            ZoneOutcome::LimitExceeded { explored, subsumed }
            | ZoneOutcome::Cancelled { explored, subsumed } => {
                self.configurations += *explored as u64;
                self.subsumed += *subsumed as u64;
            }
        }
    }

    fn verdict(&mut self, verdict: &Verdict) {
        let report = verdict.report();
        self.refinements += report.refinements as u64;
        self.explored_states += report.explored_states as u64;
        self.constraints += report.constraints.len() as u64;
    }
}

struct Runner<'a> {
    root: &'a Path,
    models: &'a [Model],
    session: &'a Session,
    cached: &'a [CachedModel],
    tracer: Tracer,
    counts: Counts,
    goldens: std::collections::HashMap<String, String>,
}

impl Runner<'_> {
    /// Runs one task, with spans when `traced`; `Err` describes an oracle
    /// mismatch.
    fn run(&mut self, task: &Task, traced: bool) -> Result<(), String> {
        match task {
            Task::Session {
                model,
                spec,
                expect,
            } => {
                let spec = spec.clone().for_model(&self.cached[*model].hash);
                let (outcome, document) = if traced {
                    self.run_traced(*model, &spec)?
                } else {
                    match self.session.run_task(&spec, RunControl::default()) {
                        Completion::Finished(result) => {
                            let outcome = result.outcome.clone().map_err(|e| e.to_string())?;
                            (outcome, result.document.clone())
                        }
                        Completion::Detached => return Err("run detached".to_owned()),
                    }
                };
                let file = self.models[*model].file;
                for expectation in expect {
                    self.check(file, &outcome, &document, expectation)?;
                }
                Ok(())
            }
            Task::Table1 => {
                for (k, (verified, refinements)) in (1..).zip(OBLIGATIONS) {
                    let verdict = if traced {
                        self.obligation_traced(k)?
                    } else {
                        obligation(k, &VerifyOptions::default())?
                    };
                    let inconclusive = matches!(verdict, Verdict::Inconclusive { .. });
                    if verdict.is_verified() != verified
                        || (!verified && !inconclusive)
                        || verdict.report().refinements != refinements
                    {
                        return Err(format!(
                            "Table 1 obligation {k}: expected {} after {refinements} refinements, got {verdict}",
                            if verified { "verified" } else { "inconclusive" }
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    fn check(
        &mut self,
        file: &str,
        outcome: &Outcome,
        document: &str,
        expect: &Expect,
    ) -> Result<(), String> {
        let zones = match outcome {
            Outcome::Zones(zones) => Some(&zones.outcome),
            _ => None,
        };
        match expect {
            Expect::Configurations(n) => match zones {
                Some(ZoneOutcome::Completed(report)) if report.configurations == *n => Ok(()),
                other => Err(format!(
                    "{file}: expected {n} configurations, got {other:?}"
                )),
            },
            Expect::Aborted(n) => match zones {
                Some(ZoneOutcome::LimitExceeded { explored, .. }) if explored == n => Ok(()),
                other => Err(format!("{file}: expected an abort at {n}, got {other:?}")),
            },
            Expect::Golden(path) => {
                if !self.goldens.contains_key(path) {
                    let text = std::fs::read_to_string(self.root.join(path))
                        .map_err(|e| format!("reading {path}: {e}"))?;
                    self.goldens.insert(path.clone(), text);
                }
                if self.goldens[path] == document {
                    Ok(())
                } else {
                    Err(format!("{file}: document differs from {path}"))
                }
            }
        }
    }

    /// The session task, decomposed into the calls `run_task` makes.
    fn run_traced(&mut self, model: usize, spec: &TaskSpec) -> Result<(Outcome, String), String> {
        let tracer = self.tracer.clone();
        let parsed = Arc::clone(&self.cached[model].model);
        let is_stg = self.cached[model].kind == "stg";
        tracer.span("session.task", || {
            let timed = tracer
                .span(
                    if is_stg {
                        "stg.expand"
                    } else {
                        "tts.timed_system"
                    },
                    || parsed.timed_system(),
                )
                .map_err(|e| e.to_string())?;
            if is_stg {
                self.counts.markings += timed.underlying().state_count() as u64;
            }
            let explore =
                spec.explore_spec(CancelToken::default(), tracer.sink(), spec.budget_meter());
            let system = timed.underlying().to_string();
            let outcome = match spec.command {
                TaskCommand::Zones if !spec.trace => {
                    let options = ZoneExplorationOptions { spec: explore };
                    let outcome =
                        tracer.span("dbm.explore", || dbm::explore_timed_with(&timed, options));
                    self.counts.zones(&outcome);
                    Outcome::Zones(ZonesOutcome {
                        model: parsed.name.clone(),
                        system,
                        outcome,
                        goal_name: None,
                        witness: None,
                    })
                }
                TaskCommand::Verify => {
                    let property = parsed.property();
                    let options = VerifyOptions {
                        spec: explore,
                        ..VerifyOptions::default()
                    };
                    let verdict = tracer.span("core.verify", || {
                        transyt::verify(&timed, &property, &options)
                    });
                    self.counts.verdict(&verdict);
                    let trace = spec.trace.then(|| trace_of_verdict(&verdict, &timed));
                    Outcome::Verify(VerifyOutcome {
                        model: parsed.name.clone(),
                        system,
                        no_property: parsed.property.is_empty(),
                        verdict,
                        trace,
                    })
                }
                _ => unreachable!("the in-process workloads run only untraced zones and verify"),
            };
            let document = tracer.span("session.render", || {
                render::render_document(&render::document(&outcome))
            });
            Ok((outcome, document))
        })
    }

    /// Table 1 obligation `k` through `ipcmos::experiment_k_with`, with the
    /// tracer's progress sink, in a `core.verify` span. The builders and the
    /// composition it calls are then timed once more and charged to that
    /// span (`ipcmos.build`, `tts.compose`), so its net time is the
    /// refinement check alone.
    fn obligation_traced(&mut self, k: usize) -> Result<Verdict, String> {
        let tracer = self.tracer.clone();
        let mut options = VerifyOptions::default();
        options.spec.progress = tracer.sink();
        let (verdict, id) = tracer.span_with_id("core.verify", || obligation(k, &options));
        let verdict = verdict?;
        self.counts.verdict(&verdict);
        let err = |e: &dyn std::fmt::Display| format!("Table 1 obligation {k}: {e}");
        if k == 1 {
            let (a_in, a_out) = tracer.charge(id, "ipcmos.build", || {
                ipcmos::spec(0).map_err(|e| err(&e))?;
                Ok::<_, String>((
                    ipcmos::a_in(0).map_err(|e| err(&e))?,
                    ipcmos::a_out(0).map_err(|e| err(&e))?,
                ))
            })?;
            tracer
                .charge(id, "tts.compose", || compose(&a_in, &a_out))
                .map_err(|e| err(&e))?;
            return Ok(verdict);
        }
        // Obligations 2–5 compose `left ∥ stage 1 ∥ right` and (but 5)
        // check it against an abstraction.
        let (stage, left, right) = tracer.charge(id, "ipcmos.build", || {
            let stage = ipcmos::stage_model(1).map_err(|e| err(&e))?;
            let abstract_in = || ipcmos::a_in(0).map(TimedTransitionSystem::new);
            let abstract_out = || ipcmos::a_out(1).map(TimedTransitionSystem::new);
            let (left, right) = match k {
                2 => (abstract_in(), ipcmos::out_env(1)),
                3 => (ipcmos::in_env(0), abstract_out()),
                4 => (abstract_in(), abstract_out()),
                _ => (ipcmos::in_env(0), ipcmos::out_env(1)),
            };
            match k {
                2 => ipcmos::a_out(0).map(drop),
                3 | 4 => ipcmos::a_in(1).map(drop),
                _ => Ok(()),
            }
            .map_err(|e| err(&e))?;
            Ok::<_, String>((
                stage,
                left.map_err(|e| err(&e))?,
                right.map_err(|e| err(&e))?,
            ))
        })?;
        tracer
            .charge(id, "tts.compose", || {
                compose_timed_all(&[&left, stage.timed(), &right])
            })
            .map_err(|e| err(&e))?;
        Ok(verdict)
    }
}

fn obligation(k: usize, options: &VerifyOptions) -> Result<Verdict, String> {
    let run = match k {
        1 => ipcmos::experiment_1_with,
        2 => ipcmos::experiment_2_with,
        3 => ipcmos::experiment_3_with,
        4 => ipcmos::experiment_4_with,
        _ => ipcmos::experiment_5_with,
    };
    run(options).map_err(|e| format!("Table 1 obligation {k}: {e}"))
}

/// Outcome of a sequence of rounds.
#[derive(Default)]
struct Pass {
    rounds: usize,
    elapsed: Duration,
    /// Tasks per second of each round, at reference speed.
    round_rates: Vec<f64>,
    /// Each untraced task's time at reference speed, ms.
    task_ms: Vec<f64>,
    /// Measured (unscaled) times of the untraced session tasks, ms.
    session_ms: Vec<f64>,
    /// Summed measured times of the untraced and the traced runs, ms.
    untraced_ms: f64,
    traced_ms: f64,
    attempted: u64,
    failures: Vec<String>,
}

/// Runs rounds until `budget` is spent. In a traced pass every task runs
/// twice, untraced and traced, in alternating order, so the tracing
/// overhead compares the same tasks at the same moments.
fn run_rounds(
    runner: &mut Runner<'_>,
    round: &[Task],
    rng: &mut Rng,
    budget: Duration,
    pace: &mut Pace,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    // Stop before a round that would overrun the budget (at least one runs).
    while pass.rounds == 0 || started.elapsed().mul_f64(1.0 + 1.0 / pass.rounds as f64) <= budget {
        let mut order: Vec<usize> = (0..round.len()).collect();
        rng.shuffle(&mut order);
        let mut round_ms = 0.0;
        for index in order {
            let task = &round[index];
            let traced_first = traced && pass.task_ms.len() % 2 == 1;
            for run_traced in [traced_first, !traced_first] {
                if run_traced && !traced {
                    continue;
                }
                runner.tracer.set_task(pass.attempted as usize);
                let reference = pace.before();
                let charged = runner.tracer.charged_time();
                let begun = Instant::now();
                let result = runner.run(task, run_traced);
                let elapsed = begun.elapsed() - (runner.tracer.charged_time() - charged);
                pass.attempted += 1;
                if let Err(failure) = result {
                    pass.failures.push(failure);
                }
                if run_traced {
                    pass.traced_ms += stats::ms(elapsed);
                    continue;
                }
                let scaled = pace.scale(elapsed, reference);
                round_ms += scaled;
                pass.task_ms.push(scaled);
                pass.untraced_ms += stats::ms(elapsed);
                if matches!(task, Task::Session { .. }) {
                    pass.session_ms.push(stats::ms(elapsed));
                }
            }
        }
        pass.round_rates.push(round.len() as f64 * 1e3 / round_ms);
        pass.rounds += 1;
    }
    pass.elapsed = started.elapsed();
    pass
}

/// Repetitions of the set-up whose median is `setup_s`.
const SETUPS: usize = 401;

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace_on: bool,
    root: &Path,
    out_dir: &Path,
) -> Result<crate::Report, String> {
    let plan = plan(workload, root)?;
    let mut rng = Rng::new(seed);
    let tracer = if trace_on {
        Tracer::recording()
    } else {
        Tracer::default()
    };
    let mut pace = Pace::new();

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let reference = pace.before();
        let started = Instant::now();
        let built = set_up(&plan.models, &tracer)?;
        setup_s.push(pace.scale(started.elapsed(), reference) / 1e3);
        setup = Some(built);
    }
    let (session, cached) = setup.expect("at least one set-up");

    let mut runner = Runner {
        root,
        models: &plan.models,
        session: &session,
        cached: &cached,
        tracer: tracer.clone(),
        counts: Counts::default(),
        goldens: std::collections::HashMap::new(),
    };
    let budget = Duration::from_secs(seconds);
    let pass = run_rounds(
        &mut runner,
        &plan.round,
        &mut rng,
        budget,
        &mut pace,
        trace_on,
    );
    eprintln!(
        "{}: {} rounds, {} tasks in {:.2}s ({:.2} tasks/s as measured); \
         reference kernel {:.2}-{:.2} ms (median {:.2}, {} samples)",
        workload.name(),
        pass.rounds,
        pass.attempted,
        pass.elapsed.as_secs_f64(),
        pass.task_ms.len() as f64 * 1e3 / pass.untraced_ms,
        stats::quantile(&pace.samples, 0.0),
        stats::quantile(&pace.samples, 1.0),
        stats::median(&pace.samples),
        pace.samples.len(),
    );
    let mut metrics = Metrics::default();
    if !trace_on {
        let ok = pass.attempted - pass.failures.len() as u64;
        metrics.put("setup_s", stats::median(&setup_s));
        // The median round filters a transient stall.
        metrics.put("tasks_per_s", stats::median(&pass.round_rates));
        metrics.put("task_p50_ms", stats::median(&pass.task_ms));
        metrics.put("task_p98_ms", stats::quantile(&pass.task_ms, 0.98));
        metrics.put("peak_rss_mib", stats::peak_rss_mib("self").unwrap_or(0.0));
        metrics.put("ok_ratio", ok as f64 / pass.attempted as f64);
    } else {
        let spans = tracer.spans();
        // Counts are per run of the task multiset.
        let per_round = |value: u64| value as f64 / pass.rounds as f64;
        let names = trace::by_name(&spans);
        let stat = |name: &str| names.get(name).copied().unwrap_or_default();
        let events = tracer.counts();
        let counts = &runner.counts;
        let level_s = stat("explore.level").total.as_secs_f64();
        let expand = stat("stg.expand");

        metrics.put("dbm.explore_ms", stat("dbm.explore").mean_ms());
        metrics.put("dbm.configurations", per_round(counts.configurations));
        metrics.put(
            "dbm.subsumed_ratio",
            stats::ratio(
                counts.subsumed as f64,
                (counts.configurations + counts.subsumed) as f64,
            ),
        );
        metrics.put("dbm.alu_subsumed", per_round(counts.alu_subsumed));
        metrics.put(
            "dbm.extrapolated_zones",
            per_round(counts.extrapolated_zones),
        );
        metrics.put(
            "dbm.arena_reuse_ratio",
            stats::ratio(
                counts.arena_reused as f64,
                (counts.arena_allocated + counts.arena_reused) as f64,
            ),
        );
        metrics.put("explore.levels", per_round(events.levels));
        metrics.put("explore.batches", per_round(events.batches));
        metrics.put(
            "explore.subsumption_skips",
            per_round(events.subsumption_skips),
        );
        metrics.put(
            "explore.configs_per_s",
            stats::ratio(events.expanded as f64, level_s),
        );
        metrics.put("stg.expand_ms", expand.mean_ms());
        metrics.put("stg.markings", per_round(counts.markings));
        metrics.put(
            "stg.markings_per_s",
            stats::ratio(counts.markings as f64, expand.total.as_secs_f64()),
        );
        metrics.put("core.verify_ms", stat("core.verify").mean_ms());
        metrics.put("core.refinements", per_round(counts.refinements));
        metrics.put(
            "core.refinement_pass_ms",
            stat("core.refinement_pass").mean_ms(),
        );
        metrics.put("core.explored_states", per_round(counts.explored_states));
        metrics.put("core.constraints", per_round(counts.constraints));
        metrics.put("ipcmos.build_ms", stat("ipcmos.build").mean_ms());
        metrics.put("tts.compose_ms", stat("tts.compose").mean_ms());
        metrics.put("session.parse_ms", stat("session.parse").mean_ms());
        metrics.put("session.run_ms", stats::mean(&pass.session_ms));
        metrics.put("session.render_ms", stat("session.render").mean_ms());
        let stats = session.stats();
        metrics.put("session.runs_executed", per_round(stats.runs_executed));
        metrics.put("session.memo_hits", stats.memo_hits as f64);
        metrics.put("session.store_hits", stats.store_hits as f64);
        metrics.put(
            "session.dedup_ratio",
            stats::ratio(
                (stats.memo_hits + stats.store_hits + stats.runs_attached) as f64,
                (stats.runs_executed + stats.memo_hits + stats.store_hits + stats.runs_attached)
                    as f64,
            ),
        );
        metrics.put(
            "bench.trace_overhead_ratio",
            stats::ratio(pass.traced_ms, pass.untraced_ms),
        );

        let expected: &[&str] = match workload {
            Workload::ZonesPipeline => &["dbm", "explore"],
            _ => &["stg", "core", "tts", "ipcmos", "explore"],
        };
        println!(
            "{}: self time by layer over {} traced rounds\n{}",
            workload.name(),
            pass.rounds,
            trace::layer_report(trace::self_time_by_layer(&spans), expected)
        );
        let path = out_dir.join(format!("spans-{}-seed{seed}.tsv", workload.name()));
        trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(crate::Report {
        attempted: pass.attempted,
        failures: pass.failures,
        metrics,
    })
}
