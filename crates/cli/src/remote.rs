//! Server mode: `transyt serve` and the tiny `transyt submit` / `transyt
//! status` client modes.
//!
//! The server crate (`transyt-server`) owns sockets, the job table and the
//! worker pool; models and runs live in the embedded
//! [`transyt_session::Session`] — the same layer the one-shot CLI renders
//! over — so a job submitted over the wire runs through exactly the code
//! path of the one-shot CLI and its result document is byte-identical to
//! `transyt <command> --json` output. (The old `Backend` trait is gone: the
//! session layer *is* the backend now.)

use transyt_server::http::percent_encode;
use transyt_server::{client, Server, ServerConfig};
use transyt_session::TaskSpec;

use crate::commands::CliError;

/// `transyt serve`: bind, print the address, serve until SIGTERM / ctrl-c /
/// `POST /shutdown`.
pub fn cmd_serve(config: &ServerConfig) -> Result<(), CliError> {
    let server =
        Server::bind(config).map_err(|e| CliError::Run(format!("binding {}: {e}", config.addr)))?;
    println!(
        "transyt server listening on {} ({} worker{}, queue depth {}, keeping {} result{})",
        server.local_addr(),
        config.workers,
        if config.workers == 1 { "" } else { "s" },
        config.queue_depth,
        config.keep_results,
        if config.keep_results == 1 { "" } else { "s" },
    );
    if let Some(dir) = &config.data_dir {
        println!("persisting to {dir} (write-ahead journal + content-addressed store)");
    }
    println!("endpoints: POST /models, POST /jobs, GET /jobs/<id>/result (see docs/SERVER.md)");
    server
        .run()
        .map_err(|e| CliError::Run(format!("serving: {e}")))
}

/// [`client::request`] with retries: transient connection failures (refused
/// while a crashed server restarts, resets mid-read) back off exponentially
/// (100ms doubling to a 1s cap, ~30s total) before giving up. Safe for every
/// request `submit` makes — the model upload is content-addressed, job
/// submission dedupes on the server by canonical task key, and polls/fetches
/// are reads — so a retry never changes what the server computes.
fn request_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, String), String> {
    request_retry_headers(addr, method, path, body).map(|(status, _, body)| (status, body))
}

/// [`request_retry`], also returning the response headers (how the submit
/// path reads `Retry-After` off a 429).
#[allow(clippy::type_complexity)]
fn request_retry_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Vec<(String, String)>, String), String> {
    let mut backoff = std::time::Duration::from_millis(100);
    let mut attempts = 0u32;
    loop {
        match client::request_with_headers(addr, method, path, body) {
            Ok(response) => return Ok(response),
            Err(error) => {
                attempts += 1;
                if attempts >= 30 {
                    return Err(error);
                }
                if attempts == 1 {
                    eprintln!("note: {error}; retrying");
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(std::time::Duration::from_secs(1));
            }
        }
    }
}

/// `POST /jobs` honoring the admission gate: a `429 Too Many Requests`
/// answer sleeps for the server's `Retry-After` estimate (with ±25%
/// deterministic per-process jitter so a stampede of rejected clients does
/// not re-arrive in lockstep, capped at 10s per attempt) and retries, at
/// most 20 times. Any other status is returned to the caller.
fn submit_with_backoff(server: &str, path: &str) -> Result<String, CliError> {
    const MAX_ATTEMPTS: u32 = 20;
    for attempt in 1..=MAX_ATTEMPTS {
        let (status, headers, body) =
            request_retry_headers(server, "POST", path, None).map_err(CliError::Run)?;
        if status != 429 {
            if status / 100 != 2 {
                let detail = client::json_str_field(&body, "error").unwrap_or(body);
                return Err(CliError::Run(format!(
                    "submitting job: server said {status}: {detail}"
                )));
            }
            return Ok(body);
        }
        if attempt == MAX_ATTEMPTS {
            break;
        }
        let retry_after = client::header(&headers, "retry-after")
            .and_then(|value| value.parse::<u64>().ok())
            .unwrap_or(1)
            .clamp(1, 10);
        let base_ms = retry_after * 1000;
        // 75%..125% of the estimate, spread by pid and attempt (no RNG in
        // the dependency-free workspace; a hash is plenty for desynching).
        let ticks = u64::from(std::process::id())
            .wrapping_mul(2_654_435_761)
            .wrapping_add(u64::from(attempt).wrapping_mul(40_503))
            % 512;
        let sleep_ms = base_ms * 3 / 4 + base_ms * ticks / 1024;
        let queued = client::json_uint_field(&body, "queued").unwrap_or(0);
        eprintln!(
            "server busy ({queued} job{} queued); retrying in {sleep_ms}ms \
             (attempt {attempt}/{MAX_ATTEMPTS})",
            if queued == 1 { "" } else { "s" },
        );
        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
    }
    Err(CliError::Run(format!(
        "server at {server} stayed busy after {MAX_ATTEMPTS} attempts"
    )))
}

/// What `transyt submit` sends: the model file, the command, the options and
/// how to handle the result.
pub struct SubmitArgs {
    /// Server address (`HOST:PORT`).
    pub server: String,
    /// Path of the model file to upload.
    pub file: String,
    /// The job: command and options (the model hash is bound after the
    /// upload). Cancellation of remote jobs goes through
    /// `POST /jobs/<id>/cancel`.
    pub spec: TaskSpec,
    /// Poll until the job finishes and print its text output.
    pub wait: bool,
    /// Follow the job's live event stream (`GET /jobs/<id>/events`) while
    /// waiting, printing queue positions and exploration progress.
    pub watch: bool,
    /// With `wait`: write the result document (byte-identical to one-shot
    /// `--json` output) to this path.
    pub json_path: Option<String>,
}

fn expect_status(what: &str, response: Result<(u16, String), String>) -> Result<String, CliError> {
    let (status, body) = response.map_err(CliError::Run)?;
    if status / 100 != 2 {
        let detail = client::json_str_field(&body, "error").unwrap_or(body);
        return Err(CliError::Run(format!(
            "{what}: server said {status}: {detail}"
        )));
    }
    Ok(body)
}

/// `transyt submit`: upload the model, enqueue the job, optionally wait for
/// the result.
pub fn cmd_submit(args: &SubmitArgs) -> Result<(), CliError> {
    let text = std::fs::read_to_string(&args.file)
        .map_err(|e| CliError::Run(format!("reading {}: {e}", args.file)))?;
    let body = expect_status(
        "uploading model",
        request_retry(&args.server, "POST", "/models", Some(text.as_bytes())),
    )?;
    let hash = client::json_str_field(&body, "hash")
        .ok_or_else(|| CliError::Run(format!("upload response carried no hash: {body}")))?;
    let name = client::json_str_field(&body, "name").unwrap_or_default();

    // The spec's own wire form: the same parameters the server lowers back
    // through `TaskSpec::parse`.
    let command = args.spec.command;
    let mut path = format!("/jobs?model={hash}&command={command}");
    for (name, value) in args.spec.to_params() {
        path.push_str(&format!("&{name}={}", percent_encode(&value)));
    }
    let body = submit_with_backoff(&args.server, &path)?;
    let job = client::json_uint_field(&body, "job")
        .ok_or_else(|| CliError::Run(format!("submission response carried no job id: {body}")))?;
    println!("submitted job {job} ({command} {name} @ {hash})");
    if let Some(position) = client::json_uint_field(&body, "position") {
        println!("queue position {position}");
    }
    if !args.wait {
        println!("poll with: transyt status {job} --server {}", args.server);
        return Ok(());
    }

    if args.watch {
        // Follow the live stream until the server closes it at the job's
        // terminal event; the poll loop below then settles immediately.
        client::stream_events(&args.server, job, |event| {
            match client::json_str_field(event, "type").as_deref() {
                Some("queued") => {
                    if let Some(at) = client::json_uint_field(event, "position") {
                        eprintln!("watch: queued at position {at}");
                    }
                }
                Some("terminal") => {
                    let status = client::json_str_field(event, "status").unwrap_or_default();
                    eprintln!("watch: job {job} is {status}");
                }
                _ => eprintln!("watch: {event}"),
            }
        })
        .map_err(CliError::Run)?;
    }

    let mut recovered = false;
    let status = loop {
        let body = expect_status(
            "polling job",
            request_retry(&args.server, "GET", &format!("/jobs/{job}"), None),
        )?;
        // Durable servers flag jobs replayed from the journal after a
        // restart; surface that to the submitter once the job settles.
        recovered |= client::json_bool_field(&body, "recovered") == Some(true);
        let status = client::json_str_field(&body, "status").unwrap_or_default();
        if matches!(
            status.as_str(),
            "done" | "failed" | "cancelled" | "timed_out" | "budget_exceeded"
        ) {
            break status;
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
    };
    if recovered {
        println!("job {job} was recovered from the server's journal");
    }
    match status.as_str() {
        "done" => {
            let text = expect_status(
                "fetching job text",
                request_retry(&args.server, "GET", &format!("/jobs/{job}/text"), None),
            )?;
            print!("{text}");
            if let Some(path) = &args.json_path {
                // The document itself stays byte-identical to one-shot
                // `--json` output — recovery is reported on stdout and in
                // the status JSON, never spliced into the result.
                let document = expect_status(
                    "fetching job result",
                    request_retry(&args.server, "GET", &format!("/jobs/{job}/result"), None),
                )?;
                std::fs::write(path, document)
                    .map_err(|e| CliError::Run(format!("writing {path}: {e}")))?;
                println!("wrote {path}");
            }
            Ok(())
        }
        "cancelled" => {
            println!("job {job} was cancelled");
            Ok(())
        }
        "timed_out" => {
            // The partial text (what the run saw before the deadline) is
            // still fetchable; surface it, then report the timeout.
            if let Ok(text) =
                client::request(&args.server, "GET", &format!("/jobs/{job}/text"), None)
            {
                if text.0 == 200 {
                    print!("{}", text.1);
                }
            }
            Err(CliError::Run(format!("job {job} timed out")))
        }
        "budget_exceeded" => {
            // Same shape as a timeout: partial text if any, then the breach.
            if let Ok(text) =
                client::request(&args.server, "GET", &format!("/jobs/{job}/text"), None)
            {
                if text.0 == 200 {
                    print!("{}", text.1);
                }
            }
            let body = expect_status(
                "reading job",
                request_retry(&args.server, "GET", &format!("/jobs/{job}"), None),
            )?;
            let resource =
                client::json_str_field(&body, "resource").unwrap_or_else(|| "resource".to_owned());
            let used = client::json_uint_field(&body, "used").unwrap_or(0);
            let limit = client::json_uint_field(&body, "limit").unwrap_or(0);
            Err(CliError::Run(format!(
                "job {job} exceeded its {resource} budget (used {used}, limit {limit})"
            )))
        }
        _ => {
            let body = expect_status(
                "reading job error",
                client::request(&args.server, "GET", &format!("/jobs/{job}"), None),
            )?;
            let error = client::json_str_field(&body, "error")
                .unwrap_or_else(|| "unknown error".to_owned());
            Err(CliError::Run(format!("job {job} failed: {error}")))
        }
    }
}

/// `transyt status`: print the status document of one job, or the job list.
pub fn cmd_status(server: &str, job: Option<usize>) -> Result<(), CliError> {
    let path = match job {
        Some(id) => format!("/jobs/{id}"),
        None => "/jobs".to_owned(),
    };
    let body = expect_status(
        "fetching status",
        client::request(server, "GET", &path, None),
    )?;
    print!("{body}");
    Ok(())
}
