//! The `transyt` binary: argument parsing and dispatch to
//! [`transyt_cli::commands`].
//!
//! Task flags (`--trace`, `--limit`, …) are collected as `(name, value)`
//! pairs and lowered through [`TaskSpec::parse`] — the same lowering the
//! server applies to its query strings — so the two front ends share one
//! set of option names, defaults and validity checks and can never drift.

use std::process::ExitCode;

use transyt_cli::commands::{cmd_table1, cmd_task, CliError, CommandResult};
use transyt_cli::format::Model;
use transyt_cli::remote::{self, SubmitArgs};
use transyt_cli::scenarios;
use transyt_server::ServerConfig;
use transyt_session::render::render_document;
use transyt_session::{ProgressEvent, ProgressSink, RunControl, TaskSpec};

const USAGE: &str = "\
transyt — relative-timing verification of timed circuits (DATE 2002 reproduction)

USAGE:
    transyt verify FILE [--trace] [--timeout SECS] [--progress] [--json PATH]
    transyt reach  FILE [--trace] [--to LABEL] [--limit N] [--timeout SECS]
                        [--max-configs N] [--progress] [--json PATH]
    transyt zones  FILE [--exact] [--trace] [--limit N] [--timeout SECS]
                        [--max-configs N] [--max-zone-bytes N] [--progress] [--json PATH]
    transyt table1      [--progress] [--json PATH]
    transyt export NAME [--out PATH]     # or: transyt export --list / --all --dir DIR
    transyt serve       [--addr HOST:PORT] [--workers N] [--queue-depth N]
                        [--keep-results N] [--data-dir DIR]
    transyt store ls    --data-dir DIR
    transyt submit FILE --server HOST:PORT [--command verify|reach|zones] [--wait]
                        [--watch] [--exact] [--trace] [--limit N] [--to LABEL]
                        [--timeout SECS] [--max-configs N] [--max-zone-bytes N]
                        [--json PATH]
    transyt status [JOBID] --server HOST:PORT

FILE is a textual model in the .stg or .tts format (see docs/FILE_FORMATS.md;
shipped examples live in models/). `zones` abstracts the zone graph with LU
extrapolation and aLU coverage; --exact runs it unabstracted instead (the
oracle, which may not terminate). --timeout cancels the run at the deadline,
--max-configs / --max-zone-bytes bound its resources (a breach ends the job
as `budget_exceeded`), --progress streams exploration progress to stderr.
`serve` runs the long-lived verification server (model cache +
deduplicated FIFO job queue with admission control and LRU result eviction;
docs/SERVER.md); with --data-dir it journals every job and stores
models/results on disk, surviving even SIGKILL with full recovery (a restart
applies --keep-results to the stored results), and `store ls` inspects such
a data dir offline. `submit` and `status` are thin clients for the server:
`submit` backs off and retries when the queue is full (429 + Retry-After),
`--watch` streams the job's live progress events, and `submit --wait --json
PATH` writes a document byte-identical to the one-shot command's --json
output. The embeddable library API behind all of this is `transyt-session`
(docs/API.md).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing subcommand".to_owned()));
    };
    match command.as_str() {
        "verify" | "reach" | "zones" => {
            let parsed = collect_args(&args[1..], command)?;
            // One shared lowering with the server's query-string path: the
            // spec owns names, per-command acceptance and defaults.
            let spec = TaskSpec::parse(command, &parsed.pairs)
                .map_err(|e| CliError::Usage(e.to_string()))?;
            let file = parsed.file.ok_or_else(|| {
                CliError::Usage(format!("`{command}` needs a model file argument"))
            })?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| CliError::Run(format!("reading {file}: {e}")))?;
            let model = Model::parse(&text)?;
            let control = RunControl {
                progress: parsed.progress.then(progress_printer).unwrap_or_default(),
                ..RunControl::default()
            };
            emit(cmd_task(&model, spec, control)?, parsed.json_path)
        }
        "table1" => {
            let parsed = collect_args(&args[1..], command)?;
            if parsed.file.is_some() {
                return Err(CliError::Usage("`table1` takes no model file".to_owned()));
            }
            if let Some((name, _)) = parsed.pairs.first() {
                return Err(CliError::Usage(format!(
                    "`table1` does not accept `--{name}` (allowed: --progress, --json)"
                )));
            }
            let progress = parsed.progress.then(progress_printer).unwrap_or_default();
            emit(cmd_table1(progress)?, parsed.json_path)
        }
        "export" => run_export(&args[1..]),
        "serve" => run_serve(&args[1..]),
        "store" => run_store(&args[1..]),
        "submit" => run_submit(&args[1..]),
        "status" => run_status(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// A `--progress` sink: level, refinement and cancellation milestones on
/// stderr (batch events are deliberately skipped — they fire every 32
/// expansions, which is too chatty for a terminal).
fn progress_printer() -> ProgressSink {
    ProgressSink::new(|event| match event {
        ProgressEvent::Level { index, frontier } => {
            eprintln!("progress: level {index} done, next frontier {frontier}");
        }
        ProgressEvent::Refinement { iteration } => {
            eprintln!("progress: refinement pass {iteration}");
        }
        ProgressEvent::Cancelled { expanded } => {
            eprintln!("progress: cancelled after {expanded} configurations");
        }
        ProgressEvent::Batch { .. } => {}
    })
}

fn emit(result: CommandResult, json_path: Option<String>) -> Result<(), CliError> {
    print!("{}", result.text);
    if let Some(path) = json_path {
        // The one canonical rendering — the same bytes the server serves.
        std::fs::write(&path, render_document(&result.json))
            .map_err(|e| CliError::Run(format!("writing {path}: {e}")))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Flags collected from a task subcommand's arguments: task parameters as
/// `(name, value)` pairs for [`TaskSpec::parse`], plus the CLI-only bits.
struct CollectedArgs {
    file: Option<String>,
    pairs: Vec<(String, String)>,
    json_path: Option<String>,
    progress: bool,
}

/// Task flags that take a value (lowered as `(name, value)` pairs).
const VALUE_FLAGS: &[&str] = &["limit", "to", "timeout", "max-configs", "max-zone-bytes"];

fn collect_args(args: &[String], command: &str) -> Result<CollectedArgs, CliError> {
    let mut collected = CollectedArgs {
        file: None,
        pairs: Vec::new(),
        json_path: None,
        progress: false,
    };
    let mut iter = args.iter();
    let missing = |flag: &str| CliError::Usage(format!("{flag} needs a value"));
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => {
                collected.json_path = Some(iter.next().ok_or_else(|| missing("--json"))?.clone());
            }
            "--progress" => collected.progress = true,
            "--trace" | "--exact" => collected.pairs.push((arg[2..].to_owned(), "true".into())),
            flag if flag.starts_with("--") && VALUE_FLAGS.contains(&&flag[2..]) => {
                let value = iter.next().ok_or_else(|| missing(flag))?.clone();
                collected.pairs.push((flag[2..].to_owned(), value));
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "`{command}` does not accept `{other}`"
                )));
            }
            other => {
                if collected.file.replace(other.to_owned()).is_some() {
                    return Err(CliError::Usage(format!(
                        "`{command}` takes a single model file"
                    )));
                }
            }
        }
    }
    Ok(collected)
}

fn run_serve(args: &[String]) -> Result<(), CliError> {
    let mut config = ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--addr needs a value".to_owned()))?
                    .clone();
            }
            "--workers" => {
                config.workers = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&w| w > 0)
                    .ok_or_else(|| {
                        CliError::Usage("--workers needs a positive number".to_owned())
                    })?;
            }
            "--queue-depth" => {
                config.queue_depth = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        CliError::Usage("--queue-depth needs a positive number".to_owned())
                    })?;
            }
            "--keep-results" => {
                config.keep_results = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| {
                        CliError::Usage("--keep-results needs a positive number".to_owned())
                    })?;
            }
            "--data-dir" => {
                config.data_dir = Some(
                    iter.next()
                        .ok_or_else(|| CliError::Usage("--data-dir needs a value".to_owned()))?
                        .clone(),
                );
            }
            other => {
                return Err(CliError::Usage(format!(
                    "`serve` does not accept `{other}` \
                     (allowed: --addr, --workers, --queue-depth, --keep-results, --data-dir)"
                )))
            }
        }
    }
    remote::cmd_serve(&config)
}

fn run_store(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("ls") => {}
        Some(other) => {
            return Err(CliError::Usage(format!(
                "`store` does not accept `{other}` (use `store ls --data-dir DIR`)"
            )))
        }
        None => return Err(CliError::Usage("use `store ls --data-dir DIR`".to_owned())),
    }
    let mut data_dir = None;
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--data-dir" => {
                data_dir = Some(
                    iter.next()
                        .ok_or_else(|| CliError::Usage("--data-dir needs a value".to_owned()))?
                        .clone(),
                );
            }
            other => {
                return Err(CliError::Usage(format!(
                    "`store ls` does not accept `{other}`"
                )))
            }
        }
    }
    let data_dir =
        data_dir.ok_or_else(|| CliError::Usage("`store` needs --data-dir DIR".to_owned()))?;
    transyt_cli::store_admin::cmd_ls(&data_dir)
}

fn run_submit(args: &[String]) -> Result<(), CliError> {
    let mut file = None;
    let mut server = None;
    let mut command = "verify".to_owned();
    let mut wait = false;
    let mut watch = false;
    let mut json_path = None;
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut iter = args.iter();
    let missing = |flag: &str| CliError::Usage(format!("{flag} needs a value"));
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--server" => server = Some(iter.next().ok_or_else(|| missing("--server"))?.clone()),
            "--command" => {
                command = iter.next().ok_or_else(|| missing("--command"))?.clone();
            }
            "--wait" => wait = true,
            "--watch" => watch = true,
            "--json" => {
                json_path = Some(iter.next().ok_or_else(|| missing("--json"))?.clone());
            }
            "--trace" | "--exact" => pairs.push((arg[2..].to_owned(), "true".into())),
            flag if flag.starts_with("--") && VALUE_FLAGS.contains(&&flag[2..]) => {
                let value = iter.next().ok_or_else(|| missing(flag))?.clone();
                pairs.push((flag[2..].to_owned(), value));
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "`submit` does not accept `{other}`"
                )))
            }
            other => {
                if file.replace(other.to_owned()).is_some() {
                    return Err(CliError::Usage(
                        "`submit` takes a single model file".to_owned(),
                    ));
                }
            }
        }
    }
    // The same lowering the server applies to the query string, so a spec
    // the client refuses is exactly a spec the server would refuse.
    let spec = TaskSpec::parse(&command, &pairs).map_err(|e| CliError::Usage(e.to_string()))?;
    // `--watch` streams events until the job settles, so it implies the
    // wait-for-the-result behavior.
    let wait = wait || watch;
    if json_path.is_some() && !wait {
        return Err(CliError::Usage(
            "`submit --json` needs `--wait` (the document exists once the job is done)".to_owned(),
        ));
    }
    let args = SubmitArgs {
        server: server
            .ok_or_else(|| CliError::Usage("`submit` needs --server HOST:PORT".to_owned()))?,
        file: file.ok_or_else(|| CliError::Usage("`submit` needs a model file".to_owned()))?,
        spec,
        wait,
        watch,
        json_path,
    };
    remote::cmd_submit(&args)
}

fn run_status(args: &[String]) -> Result<(), CliError> {
    let mut server = None;
    let mut job = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--server" => {
                server = Some(
                    iter.next()
                        .ok_or_else(|| CliError::Usage("--server needs a value".to_owned()))?
                        .clone(),
                )
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "`status` does not accept `{other}`"
                )))
            }
            other => {
                let id = other.parse().map_err(|_| {
                    CliError::Usage(format!("job id must be a number, got `{other}`"))
                })?;
                if job.replace(id).is_some() {
                    return Err(CliError::Usage("`status` takes a single job id".to_owned()));
                }
            }
        }
    }
    let server =
        server.ok_or_else(|| CliError::Usage("`status` needs --server HOST:PORT".to_owned()))?;
    remote::cmd_status(&server, job)
}

fn run_export(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("--list") => {
            for scenario in scenarios::all() {
                println!("{:<22} {}", scenario.file, scenario.summary);
            }
            Ok(())
        }
        Some("--all") => {
            let dir = match (args.get(1).map(String::as_str), args.get(2)) {
                (Some("--dir"), Some(dir)) => dir.clone(),
                _ => return Err(CliError::Usage("use `export --all --dir DIR`".to_owned())),
            };
            std::fs::create_dir_all(&dir)
                .map_err(|e| CliError::Run(format!("creating {dir}: {e}")))?;
            for scenario in scenarios::all() {
                let path = format!("{dir}/{}", scenario.file);
                std::fs::write(&path, scenario.model.to_text())
                    .map_err(|e| CliError::Run(format!("writing {path}: {e}")))?;
                println!("wrote {path}");
            }
            Ok(())
        }
        Some(name) if !name.starts_with('-') => {
            let scenario = scenarios::find(name).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown scenario `{name}` (try `transyt export --list`)"
                ))
            })?;
            let rendered = scenario.model.to_text();
            match (args.get(1).map(String::as_str), args.get(2)) {
                (Some("--out"), Some(path)) => {
                    std::fs::write(path, rendered)
                        .map_err(|e| CliError::Run(format!("writing {path}: {e}")))?;
                    println!("wrote {path}");
                }
                (None, _) => print!("{rendered}"),
                _ => return Err(CliError::Usage("use `export NAME [--out PATH]`".to_owned())),
            }
            Ok(())
        }
        _ => Err(CliError::Usage(
            "use `export NAME`, `export --list` or `export --all --dir DIR`".to_owned(),
        )),
    }
}
