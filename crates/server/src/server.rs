//! The HTTP front end: socket handling, routing and the worker pool.

use std::io::{self, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use transyt_session::json::Value;
use transyt_session::{Session, TaskSpec};

use crate::http::{Request, Response};
use crate::state::{JobStatus, JobView, ServerState, SubmitError};

/// Connections served at once, each on a thread of its own. The accept
/// thread answers a connection past this cap itself, with `503` and
/// `Retry-After: 1`, and closes it: a flood of idle clients cannot grow the
/// server's threads without bound. A count rather than a fixed pool,
/// because an `/events` stream holds its connection for its job's lifetime.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a connection may take to send its request.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the accept thread waits for a connection it refused to close.
const REFUSE_LINGER: Duration = Duration::from_millis(10);

/// How often the shutdown watcher looks for SIGTERM / SIGINT.
const SIGNAL_POLL: Duration = Duration::from_millis(10);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7171` (port `0` picks a free port —
    /// handy for tests).
    pub addr: String,
    /// Worker threads draining the job queue: at most this many jobs run
    /// concurrently; further submissions wait and are claimed in arrival
    /// order. Each job explores on its worker thread alone, so keep
    /// `workers` at or below the machine's cores.
    pub workers: usize,
    /// Admission depth (`serve --queue-depth N`): at most this many jobs
    /// wait in the queue; further submissions are refused with `429 Too
    /// Many Requests` and a load-derived `Retry-After` header.
    pub queue_depth: usize,
    /// Result-store cap, the server's one retention rule: keep at most
    /// this many result documents, evicting the least recently fetched
    /// (`serve --keep-results N`). On a durable server a restart applies
    /// it to the stored results too.
    pub keep_results: usize,
    /// Data dir for durable serving (`serve --data-dir DIR`): models,
    /// result documents and the write-ahead job journal live here, every
    /// write is fsync'd before it is reported durable, and the server
    /// recovers its full job table from it on startup. `None` (the
    /// default) serves ephemerally.
    pub data_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".to_owned(),
            workers: 4,
            queue_depth: 64,
            keep_results: 256,
            data_dir: None,
        }
    }
}

/// A bound (but not yet serving) verification server.
pub struct Server {
    state: Arc<ServerState>,
    listener: TcpListener,
    addr: SocketAddr,
    workers: usize,
}

/// Handle to a server running on background threads (see [`Server::spawn`]).
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (for in-process inspection in tests).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Initiates a graceful shutdown and waits for the server to finish.
    pub fn shutdown(self) -> io::Result<()> {
        self.state.shutdown();
        self.thread.join().expect("server thread panicked")
    }
}

impl Server {
    /// Binds the listening socket and prepares the shared state around a
    /// fresh embedded [`Session`]; with a data dir, opens its store (fsync
    /// on) and recovers the job table from it.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission, …) and the
    /// data dir's open errors (locked by a live process, filesystem).
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let session = Arc::new(Session::new());
        let state = match &config.data_dir {
            None => ServerState::new(session, config),
            Some(dir) => {
                let (persist, recovery) = transyt_store::Store::open(dir, true)?;
                ServerState::recovered(session, config, Arc::new(persist), &recovery)
            }
        };
        Ok(Server {
            state: Arc::new(state),
            listener,
            addr,
            workers: config.workers.max(1),
        })
    }

    /// The bound address (the actual port when the config asked for `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until shutdown, blocking the calling thread. SIGTERM and
    /// SIGINT (ctrl-c) trigger the same graceful shutdown as `POST
    /// /shutdown`: the listener stops accepting, queued jobs are cancelled,
    /// running jobs finish (or observe their fired cancel token), the worker
    /// pool drains and `run` returns. Connections still being served are
    /// not waited for.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the accept loop.
    pub fn run(self) -> io::Result<()> {
        crate::sys::install_shutdown_signals();
        self.run_inner(true)
    }

    /// Runs the server on a background thread (no signal handlers — for
    /// tests and embedding) and returns a handle to poll and stop it.
    pub fn spawn(self) -> ServerHandle {
        let state = Arc::clone(&self.state);
        let addr = self.addr;
        let thread = thread::spawn(move || self.run_inner(false));
        ServerHandle {
            state,
            addr,
            thread,
        }
    }

    fn run_inner(self, watch_signals: bool) -> io::Result<()> {
        let mut workers = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let state = Arc::clone(&self.state);
            workers.push(thread::spawn(move || state.worker_loop()));
        }
        let watcher = {
            let state = Arc::clone(&self.state);
            let wake = loopback(self.addr);
            thread::spawn(move || wake_on_shutdown(&state, wake, watch_signals))
        };

        // `accept` blocks; a shutdown wakes it with a connection of its own.
        let live = Arc::new(AtomicUsize::new(0));
        let served = loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                // The peer gave up between its handshake and this accept.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => break Err(e),
            };
            if self.state.is_shutdown() {
                break Ok(());
            }
            if live.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
                live.fetch_sub(1, Ordering::SeqCst);
                refuse(stream);
                continue;
            }
            let slot = Slot(Arc::clone(&live));
            let state = Arc::clone(&self.state);
            // A connection no thread could be started for closes unanswered;
            // its slot goes with the dropped closure.
            let _ = thread::Builder::new().spawn(move || {
                let _slot = slot;
                handle_connection(&state, stream);
            });
        };

        // Idempotent: cancels queued jobs and wakes idle workers and the
        // watcher.
        self.state.shutdown();
        watcher.join().expect("shutdown watcher panicked");
        for worker in workers {
            worker.join().expect("worker thread panicked");
        }
        served
    }
}

/// One live connection of the [`MAX_CONNECTIONS`] count, released when its
/// thread ends, however it ends.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The address that reaches a listener bound to `addr`: the loopback
/// address of its family when it is bound to all interfaces.
fn loopback(addr: SocketAddr) -> SocketAddr {
    let mut wake = addr;
    if addr.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// Wakes the accept loop once the server is shutting down, by connecting
/// to it: the loop then sees [`ServerState::is_shutdown`]. No signal wakes
/// a blocked `accept` (the handlers restart interrupted calls, and std
/// retries `EINTR`), so with `watch_signals` this thread also turns SIGTERM
/// and SIGINT into the shutdown.
fn wake_on_shutdown(state: &ServerState, wake: SocketAddr, watch_signals: bool) {
    let poll = if watch_signals {
        SIGNAL_POLL
    } else {
        Duration::from_secs(3600)
    };
    while !state.wait_shutdown(poll) {
        if watch_signals && crate::sys::signal_received() {
            state.shutdown();
        }
    }
    // Bounded: with a full backlog the loop wakes for another connection
    // anyway, and it joins this thread before it returns.
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

/// Answers a connection past [`MAX_CONNECTIONS`] with `503` on the accept
/// thread, then reads what the client sends until it closes, for at most
/// [`REFUSE_LINGER`]: a socket closed with unread input is reset, and the
/// reset could overtake the answer.
fn refuse(mut stream: TcpStream) {
    let _ = error_response(503, "too many connections")
        .with_header("Retry-After", "1".to_owned())
        .write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(REFUSE_LINGER));
    let deadline = Instant::now() + REFUSE_LINGER;
    let mut sink = [0; 1024];
    while Instant::now() < deadline && matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let request = match Request::read_from(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(e) => {
            let _ = error_response(400, &format!("bad request: {e}")).write_to(&mut stream);
            return;
        }
    };
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        // The one streaming endpoint: it writes its response incrementally.
        ("GET", ["jobs", id, "events"]) => {
            let _ = match parse_id(id) {
                Ok(id) => stream_events(state, &mut stream, id),
                Err(response) => response.write_to(&mut stream),
            };
        }
        // Answered before the shutdown starts: from then on the process may
        // exit at any moment.
        ("POST", ["shutdown"]) => {
            let _ = Response::json(
                200,
                Value::object().field("status", "shutting down").render() + "\n",
            )
            .write_to(&mut stream);
            state.shutdown();
        }
        _ => {
            let _ = route(state, &request, &segments).write_to(&mut stream);
        }
    }
}

/// Streams a job's event log as server-sent events (`data: <json>\n\n`
/// frames): a replay of everything logged so far, then live follow until
/// the terminal event. While the job still waits in the queue the stream
/// interleaves synthesized `{"type":"queued","position":N}` frames every
/// time its position improves. Each frame, and each batch of logged frames,
/// leaves in one write.
fn stream_events(state: &ServerState, stream: &mut TcpStream, id: usize) -> io::Result<()> {
    let Some(log) = state.job_events(id) else {
        return error_response(404, &format!("no job {id}")).write_to(stream);
    };
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
          Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    let mut last_position = None;
    let mut from = 0;
    let mut frames = String::new();
    loop {
        // Queue-position frames are synthesized per connection (they depend
        // on when the subscriber attached); the log itself holds only the
        // deterministic run lifecycle.
        let position = state.queue_position(id);
        if position.is_some() && position != last_position {
            let at = position.unwrap_or_default();
            stream.write_all(
                format!("data: {{\"type\":\"queued\",\"position\":{at}}}\n\n").as_bytes(),
            )?;
            last_position = position;
        }
        let (lines, done) = log.wait(from, Duration::from_millis(100));
        from += lines.len();
        frames.clear();
        for line in &lines {
            frames.push_str("data: ");
            frames.push_str(line);
            frames.push_str("\n\n");
        }
        stream.write_all(frames.as_bytes())?;
        if done {
            return Ok(());
        }
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        Value::object().field("error", message).render() + "\n",
    )
}

fn job_document(view: &JobView) -> Value {
    let mut doc = Value::object()
        .field("job", view.id)
        .field("status", view.status.to_string())
        .field("command", view.spec.command.name())
        .field("model", view.spec.model.as_str())
        .field("model_name", view.model_name.as_str())
        .field("trace", view.spec.trace)
        .field("key", view.key.fingerprint())
        .field("evicted", view.evicted)
        .field("done", view.status.is_terminal());
    // Only on durable servers, so ephemeral documents stay byte-identical
    // to the pre-persistence wire format.
    if view.recovered {
        doc = doc.field("recovered", true);
    }
    if let JobStatus::BudgetExceeded {
        resource,
        used,
        limit,
    } = &view.status
    {
        doc = doc.field(
            "breach",
            Value::object()
                .field("resource", resource.as_str())
                .field("used", *used)
                .field("limit", *limit),
        );
    }
    if let Some(error) = &view.error {
        doc = doc.field("error", error.as_str());
    }
    doc
}

fn route(state: &ServerState, request: &Request, segments: &[&str]) -> Response {
    match (request.method.as_str(), segments) {
        ("GET", ["healthz"]) => {
            let (queued, running) = state.load();
            let gate = state.gate_stats();
            let mut doc = Value::object()
                .field("status", "ok")
                .field("queued", queued)
                .field("running", running)
                .field(
                    "queue",
                    Value::object()
                        .field("depth", gate.depth)
                        .field("waiting", gate.queued)
                        .field(
                            "avg_run_ms",
                            gate.avg_run.map_or(0, |avg| avg.as_millis() as usize),
                        )
                        .field("samples", gate.samples),
                );
            // The persistence block (and the session counters the recovery
            // tests read) only exists on durable servers: the ephemeral
            // healthz document stays byte-identical to the pre-persistence
            // wire format.
            if let Some(info) = state.persistence() {
                let stats = state.session().stats();
                doc = doc
                    .field(
                        "persistence",
                        Value::object()
                            .field("data_dir", info.data_dir.as_str())
                            .field("journal_entries", info.journal.entries as usize)
                            .field("journal_bytes", info.journal.bytes as usize)
                            .field("compacted_bytes", info.journal.compacted_bytes as usize)
                            .field(
                                "torn_bytes_dropped",
                                info.journal.torn_bytes_dropped as usize,
                            )
                            .field("stored_models", info.disk.models)
                            .field("stored_results", info.disk.results)
                            .field("result_bytes", info.disk.result_bytes as usize),
                    )
                    .field(
                        "stats",
                        Value::object()
                            .field("runs_executed", stats.runs_executed as usize)
                            .field("runs_attached", stats.runs_attached as usize)
                            .field("memo_hits", stats.memo_hits as usize)
                            .field("store_hits", stats.store_hits as usize),
                    );
            }
            Response::json(200, doc.render() + "\n")
        }
        ("POST", ["models"]) => {
            let text = match String::from_utf8(request.body.clone()) {
                Ok(text) => text,
                Err(_) => return error_response(400, "model body is not UTF-8"),
            };
            match state.upload_model(&text) {
                Ok((model, cached)) => Response::json(
                    200,
                    Value::object()
                        .field("hash", model.hash.as_str())
                        .field("name", model.name.as_str())
                        .field("kind", model.kind)
                        .field("cached", cached)
                        .render()
                        + "\n",
                ),
                Err(message) => error_response(400, &message),
            }
        }
        ("GET", ["models"]) => {
            let models: Vec<Value> = state
                .models()
                .iter()
                .map(|m| {
                    Value::object()
                        .field("hash", m.hash.as_str())
                        .field("name", &*m.name)
                        .field("kind", m.kind)
                        .field("bytes", m.bytes)
                })
                .collect();
            Response::json(200, Value::object().field("models", models).render() + "\n")
        }
        ("POST", ["jobs"]) => {
            let spec = match parse_job_request(request) {
                Ok(spec) => spec,
                Err(message) => return error_response(400, &message),
            };
            match state.submit(spec) {
                Ok(id) => {
                    let mut doc = Value::object().field("job", id).field("status", "queued");
                    if let Some(position) = state.queue_position(id) {
                        doc = doc.field("position", position);
                    }
                    Response::json(202, doc.render() + "\n")
                }
                Err(SubmitError::Busy {
                    retry_after,
                    queued,
                }) => {
                    let secs = retry_after.as_secs().max(1);
                    Response::json(
                        429,
                        Value::object()
                            .field("error", "queue full")
                            .field("queued", queued)
                            .field("retry_after", secs as usize)
                            .render()
                            + "\n",
                    )
                    .with_header("Retry-After", secs.to_string())
                }
                Err(SubmitError::Refused(message)) => error_response(400, &message),
            }
        }
        ("GET", ["jobs"]) => {
            let jobs: Vec<Value> = state.jobs().iter().map(job_document).collect();
            let evicted: Vec<Value> = state
                .evicted_jobs()
                .into_iter()
                .map(|id| Value::UInt(id as u128))
                .collect();
            Response::json(
                200,
                Value::object()
                    .field("jobs", jobs)
                    .field("evicted", evicted)
                    .render()
                    + "\n",
            )
        }
        ("GET", ["jobs", id]) => match lookup(state, id) {
            Ok(view) => Response::json(200, job_document(&view).render() + "\n"),
            Err(response) => response,
        },
        ("GET", ["jobs", id, "result"]) => {
            let id = match parse_id(id) {
                Ok(id) => id,
                Err(response) => return response,
            };
            match state.fetch_result(id) {
                // The raw document, byte-identical to the CLI's --json file.
                Some((_, Some(result))) => Response::json(200, result.document.clone()),
                Some((view, None)) => {
                    let reason = match &view.status {
                        JobStatus::Done { .. } if view.evicted => {
                            return error_response(
                                410,
                                &format!("job {} result evicted (LRU cap)", view.id),
                            )
                        }
                        JobStatus::TimedOut => format!(
                            "job {} timed out after {:?}",
                            view.id,
                            view.spec.deadline.unwrap_or_default()
                        ),
                        JobStatus::BudgetExceeded {
                            resource,
                            used,
                            limit,
                        } => format!(
                            "job {} exceeded its {resource} budget (used {used}, limit {limit})",
                            view.id
                        ),
                        status if status.is_terminal() => {
                            format!("job {} produced no document (status {status})", view.id)
                        }
                        status => format!("job {} is still {status}", view.id),
                    };
                    error_response(409, &reason)
                }
                None => error_response(404, &format!("no job {id}")),
            }
        }
        ("GET", ["jobs", id, "text"]) => match lookup(state, id) {
            // Failed runs store a result whose text is empty — serving an
            // empty 200 would read as success, so only non-empty text
            // answers 200.
            Ok(view) => match &view.result {
                Some(result) if !result.text.is_empty() => Response::text(200, result.text.clone()),
                _ => error_response(409, &format!("job {} is {}", view.id, view.status)),
            },
            Err(response) => response,
        },
        ("POST", ["jobs", id, "cancel"]) => {
            let id = match id.parse::<usize>() {
                Ok(id) => id,
                Err(_) => return error_response(400, "job id must be a number"),
            };
            match state.cancel(id) {
                Some(status) => Response::json(
                    200,
                    Value::object()
                        .field("job", id)
                        .field("status", status.to_string())
                        .render()
                        + "\n",
                ),
                None => error_response(404, &format!("no job {id}")),
            }
        }
        (_, ["healthz" | "models" | "jobs" | "shutdown", ..]) => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, &format!("no route for {}", request.path)),
    }
}

fn parse_id(id: &str) -> Result<usize, Response> {
    id.parse()
        .map_err(|_| error_response(400, "job id must be a number"))
}

fn lookup(state: &ServerState, id: &str) -> Result<JobView, Response> {
    let id = parse_id(id)?;
    state
        .job(id)
        .ok_or_else(|| error_response(404, &format!("no job {id}")))
}

/// Lowers the query string into a [`TaskSpec`] through the session layer's
/// shared [`TaskSpec::parse`] — the same names, defaults and validity
/// checks the CLI flags lower through, so the two can never drift.
fn parse_job_request(request: &Request) -> Result<TaskSpec, String> {
    let command = request
        .query_param("command")
        .ok_or("missing `command` parameter")?
        .to_owned();
    let model_hash = request
        .query_param("model")
        .ok_or("missing `model` parameter (upload via POST /models first)")?
        .to_owned();
    let params: Vec<(String, String)> = request
        .query
        .iter()
        .filter(|(name, _)| name != "command" && name != "model")
        .cloned()
        .collect();
    let spec = TaskSpec::parse(&command, &params).map_err(|e| e.to_string())?;
    Ok(spec.for_model(model_hash))
}
