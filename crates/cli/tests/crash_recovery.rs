//! Crash-recovery integration test: a real `transyt serve --data-dir`
//! process on a real socket is SIGKILLed mid-queue and restarted over the
//! same directory. The acceptance criteria of the durable-serving work:
//!
//! * completed jobs answer `GET /jobs/{id}/result` after the restart with
//!   the **byte-identical** pre-crash document, without re-running;
//! * queued / running jobs at the moment of the kill are re-enqueued and —
//!   determinism — re-run to documents byte-identical to the one-shot CLI;
//! * resubmitting an already-completed spec is answered from the on-disk
//!   store with **zero** new runs;
//! * a torn journal tail (garbage appended after the kill) is dropped, not
//!   trusted.
//!
//! The same child-process harness checks what only a whole process shows:
//! that `POST /shutdown` and SIGTERM end its blocked accept loop, and how
//! many threads an idle-connection flood leaves it with.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use transyt_cli::commands::cmd_task;
use transyt_cli::format::Model;
use transyt_server::{client, MAX_CONNECTIONS};
use transyt_session::render::render_document;
use transyt_session::{RunControl, TaskSpec};

fn models_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models")
}

fn model_text(file: &str) -> String {
    let path = models_dir().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// A `transyt serve` child process; killed on drop so a failing assert never
/// leaks a listener.
struct ServeProc {
    child: Child,
    addr: String,
}

impl ServeProc {
    /// Spawns `transyt serve --addr 127.0.0.1:0 --workers 1 --data-dir
    /// {data_dir}` and parses the bound address from its stdout banner.
    fn start(data_dir: &str) -> ServeProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_transyt"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--data-dir",
                data_dir,
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("serve spawns");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve prints its banner")
                .expect("stdout readable");
            if let Some(rest) = line.strip_prefix("transyt server listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address in banner")
                    .to_owned();
            }
        };
        // Drain the rest of the banner in the background so the child never
        // blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        ServeProc { child, addr }
    }

    /// SIGKILL — no shutdown hooks, no flush beyond what fsync guaranteed.
    fn kill(mut self) {
        self.child.kill().expect("kill serve");
        self.child.wait().expect("reap serve");
        std::mem::forget(self); // already reaped
    }

    fn shutdown(mut self) {
        let (status, _) = client::request(&self.addr, "POST", "/shutdown", None).expect("shutdown");
        assert_eq!(status, 200);
        self.child.wait().expect("serve exits");
        std::mem::forget(self);
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
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

fn job_body(addr: &str, job: u64) -> String {
    let (status, body) =
        client::request(addr, "GET", &format!("/jobs/{job}"), None).expect("status");
    assert_eq!(status, 200, "{body}");
    body
}

fn wait_for(addr: &str, job: u64, predicate: impl Fn(&str) -> bool, what: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = client::json_str_field(&job_body(addr, job), "status").expect("status field");
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

fn result_document(addr: &str, job: u64) -> String {
    let (status, document) =
        client::request(addr, "GET", &format!("/jobs/{job}/result"), None).expect("result");
    assert_eq!(status, 200, "{document}");
    document
}

fn healthz_stat(addr: &str, field: &str) -> u64 {
    let (status, body) = client::request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{body}");
    client::json_uint_field(&body, field)
        .unwrap_or_else(|| panic!("healthz carries `{field}`: {body}"))
}

/// The document the one-shot CLI writes for the given task.
fn one_shot_document(file: &str, spec: TaskSpec) -> String {
    let model = Model::parse(&model_text(file)).expect("model parses");
    let result = cmd_task(&model, spec, RunControl::default()).expect("cli command runs");
    render_document(&result.json)
}

#[test]
fn sigkill_mid_queue_recovers_to_byte_identical_results() {
    let data_dir =
        std::env::temp_dir().join(format!("transyt-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let data_dir = data_dir.to_str().expect("utf-8 temp dir").to_owned();

    // ---- Phase 1: a single-worker durable server takes four jobs. ----
    let server = ServeProc::start(&data_dir);
    let fig1 = upload(&server.addr, &model_text("intro_fig1.tts"));
    let pipeline = upload(&server.addr, &model_text("ipcmos_2stage.stg"));

    // Job 0 completes before the crash; its document is the recovery oracle.
    let job0 = submit(
        &server.addr,
        &format!("model={fig1}&command=verify&trace=true"),
    );
    assert_eq!(
        wait_for(&server.addr, job0, |s| s == "done", "done"),
        "done"
    );
    let job0_doc = result_document(&server.addr, job0);
    assert_eq!(
        job0_doc,
        one_shot_document("intro_fig1.tts", TaskSpec::verify("").with_trace(true))
    );

    // Job 1 is running at the kill (the 2-stage zone exploration is slow
    // enough to still be in flight); jobs 2 and 3 sit queued behind it on
    // the single worker.
    let job1 = submit(
        &server.addr,
        &format!("model={pipeline}&command=zones&limit=3000"),
    );
    let job2 = submit(&server.addr, &format!("model={fig1}&command=verify"));
    let job3 = submit(
        &server.addr,
        &format!("model={pipeline}&command=zones&limit=500"),
    );
    wait_for(&server.addr, job1, |s| s != "queued", "claimed");
    assert!(
        client::json_str_field(&job_body(&server.addr, job2), "status")
            .is_some_and(|s| s == "queued")
    );

    // ---- SIGKILL, then corrupt the journal tail like a torn write. ----
    server.kill();
    let journal = PathBuf::from(&data_dir).join("journal.log");
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    bytes.extend_from_slice(b"v1 done 99 deadbeefdead"); // bad checksum, no newline
    std::fs::write(&journal, &bytes).expect("append torn tail");

    // `transyt store ls` reads the dir offline (and never repairs it).
    let output = Command::new(env!("CARGO_BIN_EXE_transyt"))
        .args(["store", "ls", "--data-dir", &data_dir])
        .output()
        .expect("store ls runs");
    assert!(output.status.success());
    let listing = String::from_utf8_lossy(&output.stdout);
    assert!(listing.contains("#0 done verify"), "{listing}");
    assert!(listing.contains("torn trailing bytes"), "{listing}");

    // ---- Phase 2: restart over the same dir. ----
    let server = ServeProc::start(&data_dir);

    // The torn tail was dropped, not trusted.
    assert!(healthz_stat(&server.addr, "torn_bytes_dropped") > 0);
    let persisted = healthz_stat(&server.addr, "stored_models");
    assert_eq!(persisted, 2, "both uploaded models persisted");

    // The completed job answers byte-identically from the store — zero runs
    // have happened in this process when we ask.
    let body = job_body(&server.addr, job0);
    assert!(body.contains("\"recovered\":true"), "{body}");
    assert_eq!(result_document(&server.addr, job0), job0_doc);
    // Interrupted jobs (one running, two queued at the kill) were
    // re-enqueued and re-run to byte-identical documents.
    for (job, file, spec) in [
        (job1, "ipcmos_2stage.stg", TaskSpec::zones("").limit(3000)),
        (job2, "intro_fig1.tts", TaskSpec::verify("")),
        (job3, "ipcmos_2stage.stg", TaskSpec::zones("").limit(500)),
    ] {
        assert_eq!(
            wait_for(&server.addr, job, |s| s == "done", "done"),
            "done",
            "job {job} after restart"
        );
        let body = job_body(&server.addr, job);
        assert!(body.contains("\"recovered\":true"), "{body}");
        assert_eq!(
            result_document(&server.addr, job),
            one_shot_document(file, spec),
            "{file}: recovered document differs from one-shot CLI output"
        );
    }

    // Job 0's result was never re-run: only the three interrupted jobs
    // executed in this process.
    let runs_after_replay = healthz_stat(&server.addr, "runs_executed");
    assert_eq!(runs_after_replay, 3);

    // ---- Duplicate submission dedupes across the restart. ----
    let dup = submit(
        &server.addr,
        &format!("model={fig1}&command=verify&trace=true"),
    );
    assert_eq!(wait_for(&server.addr, dup, |s| s == "done", "done"), "done");
    assert_eq!(result_document(&server.addr, dup), job0_doc);
    assert_eq!(
        healthz_stat(&server.addr, "runs_executed"),
        runs_after_replay,
        "the duplicate must not run"
    );
    assert!(healthz_stat(&server.addr, "store_hits") >= 1);
    // The duplicate is a fresh submission, not a replayed one.
    let body = job_body(&server.addr, dup);
    assert!(!body.contains("\"recovered\""), "{body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

fn cancel(addr: &str, job: u64) {
    let (status, body) =
        client::request(addr, "POST", &format!("/jobs/{job}/cancel"), None).expect("cancel");
    assert_eq!(status, 200, "{body}");
}

fn jobs_body(addr: &str) -> String {
    let (status, body) = client::request(addr, "GET", "/jobs", None).expect("jobs");
    assert_eq!(status, 200, "{body}");
    body
}

#[test]
fn job_documents_read_the_same_after_a_restart() {
    let data_dir =
        std::env::temp_dir().join(format!("transyt-job-documents-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let data_dir = data_dir.to_str().expect("utf-8 temp dir").to_owned();

    let server = ServeProc::start(&data_dir);
    let two = upload(&server.addr, &model_text("ipcmos_2stage.stg"));
    let four = upload(&server.addr, &model_text("ipcmos_4stage.stg"));
    let over_budget = submit(
        &server.addr,
        &format!("model={two}&command=zones&max-configs=3000"),
    );
    wait_for(
        &server.addr,
        over_budget,
        |s| s != "queued" && s != "running",
        "finished",
    );
    // Cancelled as soon as it is claimed: during the net expansion of the
    // 960,000-marking model.
    let cancelled = submit(&server.addr, &format!("model={four}&command=verify"));
    wait_for(&server.addr, cancelled, |s| s != "queued", "claimed");
    cancel(&server.addr, cancelled);
    wait_for(&server.addr, cancelled, |s| s == "cancelled", "cancelled");
    let before = jobs_body(&server.addr);
    assert!(
        before.contains("\"status\":\"budget_exceeded\""),
        "{before}"
    );
    server.shutdown();

    let server = ServeProc::start(&data_dir);
    let after = jobs_body(&server.addr);
    assert!(after.contains("\"recovered\":true"), "{after}");
    // A restart adds the documented `recovered` flag and changes nothing
    // else.
    assert_eq!(after.replace(",\"recovered\":true", ""), before);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A fresh, empty data dir path for one test.
fn fresh_data_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("transyt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().expect("utf-8 temp dir").to_owned()
}

/// The exit status of `child` if it exits within `limit`.
fn exit_within(child: &mut Child, limit: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            return Some(status);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The accept loop blocks with nothing pending, and both ways of stopping
/// the server still end it: `POST /shutdown`, answered before the process
/// goes, and SIGTERM, for which a blocked `accept` does not wake by itself.
#[test]
fn post_shutdown_and_sigterm_end_a_blocked_accept() {
    let data_dir = fresh_data_dir("shutdown");
    for by_signal in [false, true] {
        let mut server = ServeProc::start(&data_dir);
        // Served, so the loop is past startup and back in `accept`.
        healthz_stat(&server.addr, "queued");
        if by_signal {
            let pid = server.child.id().to_string();
            let kill = Command::new("kill").args(["-TERM", &pid]).status();
            assert!(kill.expect("kill runs").success());
        } else {
            let (status, body) =
                client::request(&server.addr, "POST", "/shutdown", None).expect("shutdown");
            assert_eq!(status, 200, "{body}");
        }
        let exited = exit_within(&mut server.child, Duration::from_secs(5));
        assert!(
            exited.is_some_and(|status| status.success()),
            "signal {by_signal}: {exited:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Connections past `MAX_CONNECTIONS` get a `503` from the accept thread
/// instead of a thread each: an idle flood leaves the process at most the
/// cap plus its worker, its accept thread and its shutdown watcher (and one
/// spare), `/healthz` is answered at once, and with `200` again once the
/// flood is gone.
#[test]
fn an_idle_connection_flood_is_capped() {
    let data_dir = fresh_data_dir("flood");
    let server = ServeProc::start(&data_dir);
    let flood: Vec<TcpStream> = (0..MAX_CONNECTIONS + 16)
        .map(|_| TcpStream::connect(&server.addr).expect("connect"))
        .collect();
    let asked = Instant::now();
    let (status, body) =
        client::request(&server.addr, "GET", "/healthz", None).expect("healthz during flood");
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "{:?}",
        asked.elapsed()
    );
    assert!(status == 200 || status == 503, "{status}: {body}");
    let threads = std::fs::read_dir(format!("/proc/{}/task", server.child.id()))
        .expect("the server's task list")
        .count();
    let workers = 1;
    assert!(
        threads <= MAX_CONNECTIONS + workers + 3,
        "{threads} threads"
    );

    drop(flood);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _) =
            client::request(&server.addr, "GET", "/healthz", None).expect("healthz after flood");
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "healthz still answers {status}");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}
