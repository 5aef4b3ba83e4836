//! The repository benchmark: workloads against the release build, checked
//! against pinned outputs, printing one JSON result line.
//!
//! ```text
//! perfbench --workload zones-pipeline|verify-flow|service-mix \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` a traced run reports the per-layer metrics instead (see
//! README.md for the layer → end-to-end map). Run it from the repository
//! root (it reads `models/` and the committed goldens there); `run.sh`
//! builds everything first.

mod inproc;
mod pace;
mod service;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZonesPipeline,
    VerifyFlow,
    ServiceMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "zones-pipeline" => Some(Workload::ZonesPipeline),
            "verify-flow" => Some(Workload::VerifyFlow),
            "service-mix" => Some(Workload::ServiceMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZonesPipeline => "zones-pipeline",
            Workload::VerifyFlow => "verify-flow",
            Workload::ServiceMix => "service-mix",
        }
    }
}

/// The end-to-end metrics `--trace 0` prints, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p98_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
];

/// The per-layer metrics `--trace 1` prints, with their units. A layer a
/// workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("dbm.explore_ms", "ms"),
    ("dbm.configurations", "count"),
    ("dbm.subsumed_ratio", "ratio"),
    ("dbm.alu_subsumed", "count"),
    ("dbm.extrapolated_zones", "count"),
    ("dbm.arena_reuse_ratio", "ratio"),
    ("explore.levels", "count"),
    ("explore.batches", "count"),
    ("explore.subsumption_skips", "count"),
    ("explore.configs_per_s", "1/s"),
    ("stg.expand_ms", "ms"),
    ("stg.markings", "count"),
    ("stg.markings_per_s", "1/s"),
    ("core.verify_ms", "ms"),
    ("core.refinements", "count"),
    ("core.refinement_pass_ms", "ms"),
    ("core.explored_states", "count"),
    ("core.constraints", "count"),
    ("ipcmos.build_ms", "ms"),
    ("tts.compose_ms", "ms"),
    ("session.parse_ms", "ms"),
    ("session.run_ms", "ms"),
    ("session.render_ms", "ms"),
    ("session.runs_executed", "count"),
    ("session.memo_hits", "count"),
    ("session.store_hits", "count"),
    ("session.dedup_ratio", "ratio"),
    ("server.rtt_ms", "ms"),
    ("server.upload_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.result_ms", "ms"),
    ("gate.queue_wait_ms", "ms"),
    ("gate.rejects", "count"),
    ("gate.max_waiting", "count"),
    ("store.journal_bytes_per_job", "bytes"),
    ("store.result_bytes", "bytes"),
    ("store.compacted_bytes", "bytes"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.max_backlog", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What a workload run hands back.
pub struct Report {
    pub attempted: u64,
    /// One line per failed, refused, timed-out or wrong task.
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (use 0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn result_line(report: &Report, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let failed = (report.failures.len() as u64).min(report.attempted);
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            report.metrics.get(name)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        report.failures.is_empty(),
        report.attempted,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !Path::new("models").is_dir() || !Path::new("crates/cli/tests/golden").is_dir() {
        eprintln!("perfbench: run from the repository root (models/ and the goldens are missing)");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned()),
    )
    .join("perfbench");
    let outcome = match args.workload {
        Workload::ServiceMix => service::run(args.seed, args.seconds, args.trace, &root, &out_dir),
        workload => inproc::run(
            workload,
            args.seed,
            args.seconds,
            args.trace,
            &root,
            &out_dir,
        ),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    for failure in report.failures.iter().take(20) {
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!("{}", result_line(&report, args.trace));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
