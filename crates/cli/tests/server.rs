//! Integration tests of `transyt serve`: a real server on a real socket,
//! concurrent jobs, cancellation mid-flight, and — above all — result
//! documents byte-identical to the one-shot CLI's `--json` output.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use transyt_cli::commands::cmd_task;
use transyt_cli::format::Model;
use transyt_server::{client, JobStatus, Server, ServerConfig, ServerHandle};
use transyt_session::render::render_document;
use transyt_session::{RunControl, TaskSpec};

fn models_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models")
}

fn model_text(file: &str) -> String {
    let path = models_dir().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn start_server(workers: usize) -> (ServerHandle, String) {
    start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        ..ServerConfig::default()
    })
}

fn start_server_with(config: ServerConfig) -> (ServerHandle, String) {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let handle = server.spawn();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn upload(addr: &str, text: &str) -> String {
    let (status, body) =
        client::request(addr, "POST", "/models", Some(text.as_bytes())).expect("upload");
    assert_eq!(status, 200, "{body}");
    client::json_str_field(&body, "hash").expect("hash in upload response")
}

fn submit(addr: &str, query: &str) -> u64 {
    let (status, body) =
        client::request(addr, "POST", &format!("/jobs?{query}"), None).expect("submit");
    assert_eq!(status, 202, "{body}");
    client::json_uint_field(&body, "job").expect("job id in response")
}

fn job_status(addr: &str, job: u64) -> String {
    let (status, body) =
        client::request(addr, "GET", &format!("/jobs/{job}"), None).expect("status");
    assert_eq!(status, 200, "{body}");
    client::json_str_field(&body, "status").expect("status field")
}

fn wait_for(addr: &str, job: u64, predicate: impl Fn(&str) -> bool, what: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = job_status(addr, job);
        if predicate(&status) {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for job {job} to be {what} (status {status})"
        );
        std::thread::sleep(Duration::from_millis(15));
    }
}

fn terminal(status: &str) -> bool {
    matches!(
        status,
        "done" | "failed" | "cancelled" | "timed_out" | "budget_exceeded"
    )
}

/// The document the one-shot CLI writes for `verify FILE --trace --json`.
fn cli_verify_document(file: &str) -> String {
    let model = Model::parse(&model_text(file)).expect("model parses");
    let spec = TaskSpec::verify("").with_trace(true);
    let result = cmd_task(&model, spec, RunControl::default()).expect("cli verify runs");
    render_document(&result.json)
}

/// The headline check: ≥4 concurrent verification jobs over a real
/// socket — passing and failing models mixed, one job cancelled mid-flight —
/// and every returned document is byte-identical to the one-shot CLI's.
#[test]
fn concurrent_jobs_match_the_one_shot_cli_byte_for_byte() {
    let (handle, addr) = start_server(4);

    // A long-running zones job first, so a worker picks it up immediately
    // and the cancellation lands mid-exploration: the 2-stage pipeline's
    // zone graph runs far beyond this test's patience without the cancel.
    let big = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let cancel_job = submit(&addr, &format!("model={big}&command=zones&limit=100000000"));

    // A mix of passing and failing models, all with traces.
    let verify_files = [
        "ipcmos_1stage.stg",
        "race_overlap.tts",
        "c_element.stg",
        "intro_fig1.tts",
        "ring_pipeline.stg",
    ];
    let jobs: Vec<(u64, &str)> = verify_files
        .iter()
        .map(|file| {
            let hash = upload(&addr, &model_text(file));
            (
                submit(&addr, &format!("model={hash}&command=verify&trace=true")),
                *file,
            )
        })
        .collect();

    // Cancel the zones job once it is running (with 4 workers it starts
    // immediately; the verify jobs share the remaining workers).
    wait_for(&addr, cancel_job, |s| s != "queued", "running");
    let (status, _) =
        client::request(&addr, "POST", &format!("/jobs/{cancel_job}/cancel"), None).unwrap();
    assert_eq!(status, 200);
    let cancelled = wait_for(&addr, cancel_job, terminal, "terminal");
    assert_eq!(cancelled, "cancelled", "cancel stops the exploration early");
    // A cancelled job serves no result document.
    let (status, _) =
        client::request(&addr, "GET", &format!("/jobs/{cancel_job}/result"), None).unwrap();
    assert_eq!(status, 409);

    for (job, file) in &jobs {
        let status = wait_for(&addr, *job, terminal, "terminal");
        assert_eq!(status, "done", "{file}");
        let (status, document) =
            client::request(&addr, "GET", &format!("/jobs/{job}/result"), None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            document,
            cli_verify_document(file),
            "{file}: server document differs from one-shot CLI --json output"
        );
    }

    // The failing model's document carries the replayable counterexample.
    let race = jobs
        .iter()
        .find(|(_, file)| *file == "race_overlap.tts")
        .unwrap();
    let (_, document) =
        client::request(&addr, "GET", &format!("/jobs/{}/result", race.0), None).unwrap();
    assert!(document.contains("\"verdict\":\"failed\""), "{document}");
    assert!(
        document.contains("\"kind\":\"counterexample\""),
        "{document}"
    );

    handle.shutdown().expect("graceful shutdown");
}

/// Cancelling a queued job (single worker, long job hogging it) prevents it
/// from ever running; shutting down cancels the rest of the queue.
#[test]
fn queued_jobs_cancel_without_running() {
    let (handle, addr) = start_server(1);
    let big = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let running = submit(&addr, &format!("model={big}&command=zones&limit=100000000"));
    let small = upload(&addr, &model_text("race_overlap.tts"));
    let queued = submit(&addr, &format!("model={small}&command=verify"));
    let stays_queued = submit(&addr, &format!("model={small}&command=verify"));

    wait_for(&addr, running, |s| s == "running", "running");
    assert_eq!(job_status(&addr, queued), "queued");
    let (status, body) =
        client::request(&addr, "POST", &format!("/jobs/{queued}/cancel"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(job_status(&addr, queued), "cancelled");

    // Graceful shutdown while the long job still occupies the only worker:
    // everything queued is cancelled without ever running. Then cancel the
    // running job so the worker can exit, and join. The listener is down
    // after shutdown, so inspect the shared state directly.
    let state = handle.state().clone();
    state.shutdown();
    assert_eq!(
        state.job(stays_queued as usize).unwrap().status,
        JobStatus::Cancelled
    );
    state.cancel(running as usize);
    handle.shutdown().expect("graceful shutdown");
    assert_eq!(
        state.job(queued as usize).unwrap().status,
        JobStatus::Cancelled
    );
    assert_eq!(
        state.job(running as usize).unwrap().status,
        JobStatus::Cancelled
    );
}

/// The model cache, the job listing and the error paths of the HTTP API.
#[test]
fn model_cache_and_api_errors() {
    let (handle, addr) = start_server(2);

    // healthz answers.
    let (status, body) = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""));

    // Upload is content-addressed: the second upload of the same text hits
    // the cache (parsed once), a different text gets a different hash.
    let text = model_text("c_element.stg");
    let (status, first) = client::request(&addr, "POST", "/models", Some(text.as_bytes())).unwrap();
    assert_eq!(status, 200);
    assert_eq!(client::json_str_field(&first, "cached").as_deref(), None);
    assert!(first.contains("\"cached\":false"), "{first}");
    assert!(first.contains("\"name\":\"c_element\""), "{first}");
    assert!(first.contains("\"kind\":\"stg\""), "{first}");
    let (_, second) = client::request(&addr, "POST", "/models", Some(text.as_bytes())).unwrap();
    assert!(second.contains("\"cached\":true"), "{second}");
    let other = upload(&addr, &model_text("race_overlap.tts"));
    assert_ne!(client::json_str_field(&first, "hash").unwrap(), other);

    let (status, listing) = client::request(&addr, "GET", "/models", None).unwrap();
    assert_eq!(status, 200);
    assert!(listing.contains("c_element"), "{listing}");
    assert!(listing.contains("race_overlap"), "{listing}");

    // Error paths: bad model, unknown hash, unknown command, retired
    // parameters, unknown job, unknown route, wrong method.
    let (status, body) = client::request(&addr, "POST", "/models", Some(b"not a model")).unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, body) =
        client::request(&addr, "POST", "/jobs?model=feedbeef&command=verify", None).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown model hash"), "{body}");
    let (status, body) = client::request(
        &addr,
        "POST",
        &format!("/jobs?model={other}&command=table1"),
        None,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown command"), "{body}");
    for param in [
        "subsumption=alu",
        "extrapolation=lu-active",
        "bounds=local",
        "threads=2",
        "priority=interactive",
    ] {
        let query = format!("/jobs?model={other}&command=zones&{param}");
        let (status, body) = client::request(&addr, "POST", &query, None).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("(allowed: exact, trace, limit"), "{body}");
    }
    let (status, _) = client::request(&addr, "GET", "/jobs/99", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "GET", "/frobnicate", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "DELETE", "/models", None).unwrap();
    assert_eq!(status, 405);

    // A reach job with --to through the full query-string path.
    let c_element = client::json_str_field(&first, "hash").unwrap();
    let job = submit(&addr, &format!("model={c_element}&command=reach&to=C%2B"));
    assert_eq!(wait_for(&addr, job, terminal, "terminal"), "done");
    let (status, document) =
        client::request(&addr, "GET", &format!("/jobs/{job}/result"), None).unwrap();
    assert_eq!(status, 200);
    assert!(document.contains("\"path_found\":true"), "{document}");
    assert!(document.contains("\"path\":[\"A+\",\"B+\"]"), "{document}");

    handle.shutdown().expect("graceful shutdown");
}

/// Two identical concurrent submissions are batched into **one** underlying
/// run: the session executes once, and both jobs hold references to the
/// same result document.
#[test]
fn identical_concurrent_submissions_share_one_run() {
    let (handle, addr) = start_server(2);
    // The 2-stage pipeline zone exploration is slow enough that the second
    // submission arrives while the first run is still in flight.
    let hash = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let query = format!("model={hash}&command=zones&limit=3000");
    let first = submit(&addr, &query);
    let second = submit(&addr, &query);
    assert_eq!(wait_for(&addr, first, terminal, "terminal"), "done");
    assert_eq!(wait_for(&addr, second, terminal, "terminal"), "done");

    let state = handle.state().clone();
    let stats = state.session().stats();
    assert_eq!(stats.runs_executed, 1, "one underlying run: {stats:?}");
    assert_eq!(
        stats.runs_attached + stats.memo_hits,
        1,
        "the duplicate attached or hit the memo: {stats:?}"
    );
    // Both jobs reference the *same* result allocation (not merely equal
    // bytes).
    let (_, a) = state.fetch_result(first as usize).unwrap();
    let (_, b) = state.fetch_result(second as usize).unwrap();
    assert!(std::sync::Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
    // And the same document over the wire.
    let (_, doc_a) = client::request(&addr, "GET", &format!("/jobs/{first}/result"), None).unwrap();
    let (_, doc_b) =
        client::request(&addr, "GET", &format!("/jobs/{second}/result"), None).unwrap();
    assert_eq!(doc_a, doc_b);
    // A differently-spelled but identical spec also reuses the completed
    // run through the memo (still one execution): `exact=false` is the
    // default the first submissions already ran under.
    let third = submit(&addr, &format!("{query}&exact=false&trace=false"));
    assert_eq!(wait_for(&addr, third, terminal, "terminal"), "done");
    assert_eq!(state.session().stats().runs_executed, 1);
    // The exact oracle is a different zones task — it must NOT be served
    // from the abstracted run.
    let fourth = submit(&addr, &format!("{query}&exact=true"));
    assert_eq!(wait_for(&addr, fourth, terminal, "terminal"), "done");
    assert_eq!(
        state.session().stats().runs_executed,
        2,
        "an exact zones job must run separately from the abstracted run"
    );

    handle.shutdown().expect("graceful shutdown");
}

/// A `timeout=SECS` submission whose run exceeds the deadline surfaces as
/// status `timed_out` and a 409-with-reason on the result endpoint. The
/// unabstracted (`exact=true`) 2-stage zone graph never completes, so the
/// deadline fires whatever the build profile or the host speed.
#[test]
fn job_deadlines_surface_as_timed_out() {
    let (handle, addr) = start_server(1);
    let hash = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let job = submit(
        &addr,
        &format!("model={hash}&command=zones&exact=true&limit=100000000&timeout=1"),
    );
    assert_eq!(wait_for(&addr, job, terminal, "terminal"), "timed_out");
    let (status, body) =
        client::request(&addr, "GET", &format!("/jobs/{job}/result"), None).unwrap();
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("timed out"), "{body}");
    // The partial text (explored-so-far summary) is still available.
    let (status, text) = client::request(&addr, "GET", &format!("/jobs/{job}/text"), None).unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("TIMED OUT"), "{text}");
    handle.shutdown().expect("graceful shutdown");
}

/// The result store evicts beyond `--keep-results`: the oldest document is
/// dropped, `GET /jobs` reports the evicted id, and its result endpoint
/// answers 410.
#[test]
fn result_store_evicts_by_lru_cap() {
    let (handle, addr) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        keep_results: 1,
        ..ServerConfig::default()
    });
    let hash = upload(&addr, &model_text("race_overlap.tts"));
    // Distinct keys (a far-off timeout) so both actually run.
    let first = submit(&addr, &format!("model={hash}&command=verify"));
    let second = submit(&addr, &format!("model={hash}&command=verify&timeout=3600"));
    assert_eq!(wait_for(&addr, first, terminal, "terminal"), "done");
    assert_eq!(wait_for(&addr, second, terminal, "terminal"), "done");

    let (status, listing) = client::request(&addr, "GET", "/jobs", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        listing.contains(&format!("\"evicted\":[{first}]")),
        "{listing}"
    );
    let (status, body) =
        client::request(&addr, "GET", &format!("/jobs/{first}/result"), None).unwrap();
    assert_eq!(status, 410, "{body}");
    assert!(body.contains("evicted"), "{body}");
    // The younger job still serves.
    let (status, _) =
        client::request(&addr, "GET", &format!("/jobs/{second}/result"), None).unwrap();
    assert_eq!(status, 200);
    handle.shutdown().expect("graceful shutdown");
}

/// The `transyt submit` / `transyt status` client modes drive a server
/// end-to-end, and `submit --wait --json` writes the byte-identical document.
#[test]
fn submit_and_status_client_modes_round_trip() {
    let (handle, addr) = start_server(2);
    let binary = env!("CARGO_BIN_EXE_transyt");
    let model = models_dir().join("race_overlap.tts");
    let json_path =
        std::env::temp_dir().join(format!("transyt_submit_{}.json", std::process::id()));

    let output = Command::new(binary)
        .args([
            "submit",
            model.to_str().unwrap(),
            "--server",
            &addr,
            "--trace",
            "--wait",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("submitted job 0"), "{stdout}");
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains("counterexample trace:"), "{stdout}");

    let document = std::fs::read_to_string(&json_path).unwrap();
    assert_eq!(document, cli_verify_document("race_overlap.tts"));
    let _ = std::fs::remove_file(&json_path);

    let output = Command::new(binary)
        .args(["status", "0", "--server", &addr])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"status\":\"done\""), "{stdout}");
    let output = Command::new(binary)
        .args(["status", "--server", &addr])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("\"jobs\":["));

    handle.shutdown().expect("graceful shutdown");
}

/// The admission gate: with 1 worker and queue depth 4, the sixth
/// submission (one running + four queued) is refused with `429 Too Many
/// Requests` and a computed `Retry-After` header.
#[test]
fn admission_gate_refuses_with_429_and_retry_after() {
    let (handle, addr) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    let big = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let running = submit(&addr, &format!("model={big}&command=zones&limit=100000000"));
    wait_for(&addr, running, |s| s == "running", "running");

    // Four distinct verify tasks (keyed apart by far-off timeouts) fill the
    // queue exactly to its depth.
    let small = upload(&addr, &model_text("race_overlap.tts"));
    let queued: Vec<u64> = (3601..=3604)
        .map(|timeout| {
            submit(
                &addr,
                &format!("model={small}&command=verify&timeout={timeout}"),
            )
        })
        .collect();

    let (status, headers, body) = client::request_with_headers(
        &addr,
        "POST",
        &format!("/jobs?model={small}&command=verify&timeout=3605"),
        None,
    )
    .unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");
    assert_eq!(client::json_uint_field(&body, "queued"), Some(4), "{body}");
    let retry_after: u64 = client::header(&headers, "retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!(retry_after >= 1, "Retry-After floors at one second");

    // Freeing the worker drains the queue; admission opens again.
    let (status, _) =
        client::request(&addr, "POST", &format!("/jobs/{running}/cancel"), None).unwrap();
    assert_eq!(status, 200);
    for job in queued {
        assert_eq!(wait_for(&addr, job, terminal, "terminal"), "done");
    }
    let reopened = submit(&addr, &format!("model={small}&command=verify&timeout=3605"));
    assert_eq!(wait_for(&addr, reopened, terminal, "terminal"), "done");
    handle.shutdown().expect("graceful shutdown");
}

/// A `max-configs` budget breach is deterministic: two runs of the same
/// budgeted zones task (keyed apart by far-off timeouts, so both run) stop
/// at the same configuration count, and surface as `budget_exceeded` plus a
/// 409-with-reason on the result endpoint.
#[test]
fn budget_breaches_are_deterministic_across_runs() {
    let (handle, addr) = start_server(2);
    let hash = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let breached_used = |timeout: u64| {
        let job = submit(
            &addr,
            &format!(
                "model={hash}&command=zones&limit=100000000&max-configs=5000&timeout={timeout}"
            ),
        );
        assert_eq!(
            wait_for(&addr, job, terminal, "terminal"),
            "budget_exceeded"
        );
        let (status, document) =
            client::request(&addr, "GET", &format!("/jobs/{job}"), None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            client::json_str_field(&document, "resource").as_deref(),
            Some("configs"),
            "{document}"
        );
        assert_eq!(
            client::json_uint_field(&document, "limit"),
            Some(5000),
            "{document}"
        );
        let (status, body) =
            client::request(&addr, "GET", &format!("/jobs/{job}/result"), None).unwrap();
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("exceeded its configs budget"), "{body}");
        client::json_uint_field(&document, "used").expect("breach carries `used`")
    };
    let first = breached_used(3600);
    let second = breached_used(3601);
    assert!(first >= 5000, "the breach fires at or past the limit");
    assert_eq!(first, second, "budget enforcement must not vary by run");
    handle.shutdown().expect("graceful shutdown");
}

/// Arrival order over a real socket: with a single worker busy, five jobs
/// queue up. Once the worker is released it claims them first come, first
/// served. The jobs are too quick to catch running, so the order is read
/// from the journal, where the one worker records each claim before it
/// runs the job.
#[test]
fn queued_jobs_are_claimed_in_arrival_order() {
    let dir = std::env::temp_dir().join(format!("transyt-fifo-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, addr) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        data_dir: Some(dir.to_str().unwrap().to_owned()),
        ..ServerConfig::default()
    });
    let big = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let occupant = submit(&addr, &format!("model={big}&command=zones&limit=100000000"));
    wait_for(&addr, occupant, |s| s == "running", "running");

    let small = upload(&addr, &model_text("race_overlap.tts"));
    let queued: Vec<u64> = (3602..=3606)
        .map(|timeout| {
            submit(
                &addr,
                &format!("model={small}&command=verify&timeout={timeout}"),
            )
        })
        .collect();

    let (status, _) =
        client::request(&addr, "POST", &format!("/jobs/{occupant}/cancel"), None).unwrap();
    assert_eq!(status, 200);
    for &job in &queued {
        assert_eq!(wait_for(&addr, job, terminal, "terminal"), "done");
    }
    let journal = std::fs::read_to_string(dir.join("journal.log")).expect("journal");
    let claimed: Vec<u64> = journal
        .lines()
        .filter_map(|line| {
            line.strip_prefix("v1 run ")?
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
        .filter(|&id| id != occupant)
        .collect();
    assert_eq!(claimed, queued, "{journal}");
    handle.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One atomic snapshot of the job table (`GET /jobs`): `(id, status)` pairs
/// in submission order.
fn job_table(addr: &str) -> Vec<(u64, String)> {
    let (status, body) = client::request(addr, "GET", "/jobs", None).expect("job list");
    assert_eq!(status, 200, "{body}");
    body.split("{\"job\":")
        .skip(1)
        .map(|entry| {
            let id = entry
                .split(',')
                .next()
                .and_then(|id| id.parse().ok())
                .expect("job id");
            let status = client::json_str_field(entry, "status").expect("job status");
            (id, status)
        })
        .collect()
}

/// No starvation over a real socket: with one worker and queue depth 4, a
/// job queued first is claimed before any later submission, even though two
/// clients keep the queue full, retrying through 429s. Every job the stream
/// got admitted, and the early job, ends `done`.
#[test]
fn an_early_job_is_claimed_first_under_a_retrying_stream() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let (handle, addr) = start_server_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    let hash = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let occupant = submit(
        &addr,
        &format!("model={hash}&command=zones&limit=100000000"),
    );
    wait_for(&addr, occupant, |s| s == "running", "running");
    // Long enough that the job table is sampled while it runs, which
    // freezes the claim count: the single worker claims nothing else.
    let early = submit(&addr, &format!("model={hash}&command=zones&limit=1000"));

    let next = AtomicUsize::new(0);
    let rejects = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let admitted = Mutex::new(Vec::new());
    let stream = || {
        while !stop.load(Ordering::Relaxed) {
            // Distinct limits give every submission its own task key, so
            // no run is deduplicated; all stay above the net's 2,400
            // markings, so every reach completes.
            let path = format!(
                "/jobs?model={hash}&command=reach&limit={}",
                10_000 + next.fetch_add(1, Ordering::Relaxed)
            );
            loop {
                let (status, headers, body) =
                    client::request_with_headers(&addr, "POST", &path, None).expect("submit");
                if status == 202 {
                    let id = client::json_uint_field(&body, "job").expect("job id");
                    admitted.lock().unwrap().push(id);
                    break;
                }
                assert_eq!(status, 429, "{body}");
                rejects.fetch_add(1, Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                // Honour the hint's proportion, scaled from seconds to tens
                // of milliseconds: a polite client would let the queue
                // drain, and this test needs it kept full.
                let retry_after: u64 = client::header(&headers, "retry-after")
                    .and_then(|secs| secs.parse().ok())
                    .expect("429 carries Retry-After");
                std::thread::sleep(Duration::from_millis(25 * retry_after.min(4)));
            }
        }
    };

    /// Stops the stream when the watching thread leaves the scope, panics
    /// included, so a failed assertion fails the test instead of hanging it.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    std::thread::scope(|scope| {
        scope.spawn(stream);
        scope.spawn(stream);
        let _stop_stream = StopOnDrop(&stop);

        // The queue is full (the early job + three of the stream's) once a
        // submission bounced; only then does the worker start claiming.
        let deadline = Instant::now() + Duration::from_secs(60);
        while rejects.load(Ordering::Relaxed) == 0 {
            assert!(
                Instant::now() < deadline,
                "the stream never filled the queue"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let (status, _) =
            client::request(&addr, "POST", &format!("/jobs/{occupant}/cancel"), None).unwrap();
        assert_eq!(status, 200);

        let status_of = |table: &[(u64, String)], id: u64| {
            table
                .iter()
                .find(|(job, _)| *job == id)
                .map(|(_, status)| status.clone())
                .expect("job in table")
        };
        let table = loop {
            let table = job_table(&addr);
            if status_of(&table, early) != "queued" {
                break table;
            }
            assert!(Instant::now() < deadline, "the early job starved");
            std::thread::sleep(Duration::from_millis(5));
        };
        stop.store(true, Ordering::Relaxed);
        assert_eq!(
            status_of(&table, early),
            "running",
            "the early job must be sampled while it runs: {table:?}"
        );
        // Jobs after the early one are the stream's. One worker runs jobs
        // in claim order, so any that left the queue was claimed ahead of
        // the early job.
        let claimed_ahead = table
            .iter()
            .filter(|(id, status)| *id > early && status != "queued")
            .count();
        assert_eq!(
            claimed_ahead, 0,
            "later submissions claimed ahead of the early job: {table:?}"
        );
    });

    assert_eq!(wait_for(&addr, occupant, terminal, "terminal"), "cancelled");
    let admitted = admitted.into_inner().unwrap();
    for job in admitted.iter().copied().chain([early]) {
        assert_eq!(
            wait_for(&addr, job, terminal, "terminal"),
            "done",
            "job {job}"
        );
    }
    handle.shutdown().expect("graceful shutdown");
}

/// The `/jobs/{id}/events` stream replays a deterministic run lifecycle:
/// two runs of the same zones task (keyed apart by far-off timeouts, so both
/// run) stream the identical event sequence (queue-position frames aside),
/// opening with `running` and closing with a terminal frame.
#[test]
fn event_streams_are_identical_across_runs() {
    let (handle, addr) = start_server(2);
    let hash = upload(&addr, &model_text("ipcmos_2stage.stg"));
    let lifecycle = |timeout: u64| {
        let job = submit(
            &addr,
            &format!("model={hash}&command=zones&limit=3000&timeout={timeout}"),
        );
        let events = client::stream_events(&addr, job, |_| ()).expect("event stream");
        events
            .into_iter()
            .filter(|event| !event.contains("\"queued\""))
            .collect::<Vec<_>>()
    };
    let first = lifecycle(3600);
    let second = lifecycle(3601);
    assert_eq!(
        first.first().map(String::as_str),
        Some("{\"type\":\"running\"}")
    );
    assert_eq!(
        first.last().map(String::as_str),
        Some("{\"type\":\"terminal\",\"status\":\"done\"}")
    );
    assert!(
        first.iter().any(|event| event.contains("\"batch\"")),
        "{first:?}"
    );
    assert_eq!(first, second, "the progress stream must not vary by run");
    handle.shutdown().expect("graceful shutdown");
}

/// The data-dir lock: while one server owns a data dir, a second server
/// refuses to start on it (the lock file names the owning pid).
#[test]
fn second_server_refuses_a_locked_data_dir() {
    let dir = std::env::temp_dir().join(format!("transyt-lock-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        data_dir: Some(dir.to_str().unwrap().to_owned()),
        ..ServerConfig::default()
    };
    let first = Server::bind(&config).expect("first server owns the dir");
    let error = match Server::bind(&config) {
        Err(error) => error.to_string(),
        Ok(_) => panic!("a second server started on a locked data dir"),
    };
    assert!(error.contains("locked by running process"), "{error}");
    let handle = first.spawn();
    handle.shutdown().expect("graceful shutdown");
    // With the first server gone the dir opens again.
    let reopened = Server::bind(&config).expect("lock released on shutdown");
    reopened.spawn().shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
