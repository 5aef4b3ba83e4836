//! Scaling comparison (§3.2 of the paper): flat verification of an n-stage
//! pipeline (untimed state count + zone-based timed exploration) versus the
//! constant-size assume-guarantee obligations.
//!
//! The zone exploration is run as three series — the exact oracle
//! (`zone_sequential_exact`: exact zones, exact-duplicate deduplication),
//! the default abstraction (`zones-alu`: LU extrapolation, active-clock
//! reduction and aLU coverage) and the default abstraction at `--threads N`
//! (`zones-alu-parallel`) — so the report quantifies the abstraction win and
//! the parallel speedup.
//!
//! ```text
//! scaling_report [MAX_STAGES] [--threads N] [--limit N] [--json PATH]
//! ```
//!
//! With `--json PATH` a machine-readable document (the `BENCH_scaling.json`
//! artifact of CI) is written in addition to the human-readable table.

use std::time::Instant;

use bench::json::Value;
use dbm::{explore_timed_with, ExploreSpec, ZoneExplorationOptions, ZoneOutcome};

struct Series {
    name: &'static str,
    threads: usize,
    exact: bool,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut max_stages: usize = 2;
    let mut threads: usize = 4;
    let mut limit: usize = 20_000;
    let mut json_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs a number")?
            }
            "--limit" => {
                limit = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--limit needs a number")?
            }
            "--json" => json_path = Some(args.next().ok_or("--json needs a path")?),
            other => {
                max_stages = other
                    .parse()
                    .map_err(|_| format!("bad argument `{other}`"))?
            }
        }
    }

    let series = [
        Series {
            name: "zone_sequential_exact",
            threads: 1,
            exact: true,
        },
        Series {
            name: "zones-alu",
            threads: 1,
            exact: false,
        },
        Series {
            name: "zones-alu-parallel",
            threads,
            exact: false,
        },
    ];

    println!("flat (abstraction-free) pipeline growth; the paper notes that beyond 2 stages");
    println!("flat verification is impractical, which is why A_in/A_out abstractions are used\n");

    let mut json_series: Vec<Value> = Vec::new();
    let mut pipelines = Vec::new();
    for n in 1..=max_stages {
        pipelines.push((n, ipcmos::flat_pipeline(n)?));
    }

    for spec in &series {
        println!(
            "series `{}` (threads={}, exact={}):",
            spec.name, spec.threads, spec.exact
        );
        println!(
            "{:>7} {:>15} {:>15} {:>20} {:>10} {:>10}",
            "stages", "untimed states", "transitions", "zone configurations", "subsumed", "millis"
        );
        let mut points: Vec<Value> = Vec::new();
        for (n, pipeline) in &pipelines {
            let ts = pipeline.underlying();
            let started = Instant::now();
            let outcome = explore_timed_with(
                pipeline,
                ZoneExplorationOptions {
                    spec: ExploreSpec {
                        threads: spec.threads,
                        exact: spec.exact,
                        limit: Some(limit),
                        ..ExploreSpec::default()
                    },
                },
            );
            let millis = started.elapsed().as_millis();
            let (completed, configurations, subsumed, shown) = match &outcome {
                ZoneOutcome::Completed(report) => (
                    true,
                    report.configurations,
                    report.subsumed_configurations,
                    report.configurations.to_string(),
                ),
                ZoneOutcome::LimitExceeded { explored, subsumed }
                | ZoneOutcome::Cancelled { explored, subsumed } => (
                    false,
                    *explored,
                    *subsumed,
                    format!(">{explored} (aborted)"),
                ),
            };
            println!(
                "{:>7} {:>15} {:>15} {:>20} {:>10} {:>10}",
                n,
                ts.reachable_states().len(),
                ts.transition_count(),
                shown,
                subsumed,
                millis
            );
            points.push(
                Value::object()
                    .field("stages", *n)
                    .field("untimed_states", ts.reachable_states().len())
                    .field("untimed_transitions", ts.transition_count())
                    .field("completed", completed)
                    .field("configurations", configurations)
                    .field("subsumed_configurations", subsumed)
                    .field("millis", millis),
            );
        }
        println!();
        json_series.push(
            Value::object()
                .field("name", spec.name)
                .field("threads", spec.threads)
                .field("exact", spec.exact)
                .field("points", points),
        );
    }

    println!("assume-guarantee alternative: the obligations of Table 1 are independent of n");

    if let Some(path) = json_path {
        let doc = Value::object()
            .field("benchmark", "scaling")
            .field("max_stages", max_stages)
            .field("configuration_limit", limit)
            .field("series", json_series);
        std::fs::write(&path, doc.render() + "\n")?;
        println!("wrote {path}");
    }
    Ok(())
}
