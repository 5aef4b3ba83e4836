//! The service workload (`service-mix`): a live `transyt serve --workers 2
//! --data-dir <fresh dir>` (fsync on, as shipped) driven over HTTP by one
//! generator process with two threads and at most two connections open.
//!
//! * **Paced phase** — open-loop, Poisson-like arrivals (exponential gaps,
//!   stratified; see [`generate`]) at [`PACED_RATE`]: each job is timed
//!   from its *scheduled* send time to the moment its result document has
//!   been fetched, so a stall also charges the jobs queued behind it.
//! * **Burst phase** — batches of [`BURST_SIZE`] back-to-back submissions
//!   (below the default queue depth of 64); throughput is jobs per second
//!   of drain time.
//!
//! Every document is compared byte for byte with an in-process `Session`
//! rendering of the same spec, and the shipped models' documents also with
//! the committed goldens.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use transyt_server::client;
use transyt_session::{content_hash, render, Session, TaskSpec};

use crate::stats::{self, Rng};
use crate::trace::{self, Tracer};
use crate::{Metrics, Report};

/// Jobs per second of the paced phase. Every request waits for the
/// server's accept loop (it sleeps 20 ms whenever no connection is
/// pending), so two client connections carry about 60 jobs per second; at
/// this rate they are about a third busy and a host hiccup does not snowball
/// into a backlog.
pub const PACED_RATE: f64 = 20.0;
/// Share of `--seconds` the paced phase is scheduled to take; bursts fill
/// the rest.
const PACED_SHARE: f64 = 0.9;
pub const BURST_SIZE: usize = 48;
/// Slices of the arrival-gap distribution (see [`generate`]).
const GAP_STRATA: usize = 8;

/// What each run of eight submissions holds, dealt in a seed-shuffled
/// order: two repeat one of the last [`REPEAT_WINDOW`] task keys, two run on
/// a fresh delay-window perturbation of a shipped model (a new upload, so
/// model and result writes happen), four on a shipped model as is. Dealing
/// from shuffled decks (here and for the model × command × trace
/// combinations) keeps the job mix of every seed the same and varies only
/// its order and details.
const KINDS: [Kind; 8] = [
    Kind::Repeat,
    Kind::Repeat,
    Kind::Perturbed,
    Kind::Perturbed,
    Kind::Shipped,
    Kind::Shipped,
    Kind::Shipped,
    Kind::Shipped,
];
/// How far back a repeat reaches: past the session memo's 64 results, so
/// older keys come back from the result store on disk (it keeps 256).
const REPEAT_WINDOW: usize = 200;
/// [`Job::variant`] of the schedule's first job; later jobs count up from
/// it.
const FIRST_VARIANT: u64 = 1_000_000;
/// Repetitions of the server set-up whose median is `setup_s`.
const SETUPS: usize = 9;
/// A run whose generator ran later than this (p99) is invalid.
const MAX_LAG_P99_MS: f64 = 1_000.0;
/// Traced runs follow one traced job in this many through its status polls.
const STATUS_SAMPLE: usize = 8;
/// Traced runs poll `/healthz` this often.
const HEALTH_EVERY: Duration = Duration::from_millis(500);
/// A job that has not finished this long after its due time failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The shipped models the jobs start from, with the goldens that pin their
/// documents: `(model, command, trace) -> golden file`.
const BASE_MODELS: [&str; 5] = [
    "c_element.stg",
    "race_overlap.tts",
    "intro_fig1.tts",
    "ring_pipeline.stg",
    "ipcmos_1stage.stg",
];

fn golden_for(file: &str, command: &str, trace: bool) -> Option<String> {
    let stem = file.replace('.', "_");
    match (command, trace) {
        ("verify", true) => Some(format!("verify_{stem}.json")),
        ("zones", false) if file == "ipcmos_1stage.stg" => Some(format!("zones_{stem}.json")),
        ("zones", true) if file == "race_overlap.tts" => Some(format!("zones_{stem}.json")),
        ("reach", false) if file == "ring_pipeline.stg" => Some(format!("reach_{stem}.json")),
        _ => None,
    }
}

/// One submission of the generated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Offset of the scheduled send time from the phase start.
    pub at: Duration,
    /// Index into [`Schedule::models`].
    pub model: usize,
    pub command: &'static str,
    pub trace: bool,
    /// A per-job value of an option that is part of the task key but far
    /// beyond what these runs reach (`timeout` seconds for `verify`, the
    /// configuration `limit` otherwise), so every job that is not a repeat
    /// has a key of its own and really runs.
    pub variant: u64,
}

impl Job {
    fn params(&self) -> Vec<(String, String)> {
        let option = if self.command == "verify" {
            "timeout"
        } else {
            "limit"
        };
        let mut params = vec![(option.to_owned(), self.variant.to_string())];
        if self.trace {
            params.push(("trace".to_owned(), "true".to_owned()));
        }
        params
    }
}

/// Everything the seed decides: model texts (the shipped ones first, then
/// perturbations), the paced arrivals and the burst sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub models: Vec<String>,
    pub paced: Vec<Job>,
    pub bursts: Vec<Vec<Job>>,
}

/// Shifts one random delay bound of about half the `delay` lines by -1..+2,
/// keeping every window valid (`0 ≤ lower ≤ upper`, `upper ≥ 1`).
fn perturb(text: &str, rng: &mut Rng) -> String {
    let mut changed = false;
    let mut lines: Vec<String> = Vec::new();
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let window = tokens
            .get(2)
            .filter(|_| tokens.first() == Some(&"delay"))
            .and_then(|w| w.strip_prefix('['))
            .and_then(|w| w.split_once(','));
        let Some((lower, upper)) = window else {
            lines.push(line.to_owned());
            continue;
        };
        let (Ok(lower), upper) = (lower.parse::<i64>(), upper.trim_end_matches([']', ')'])) else {
            lines.push(line.to_owned());
            continue;
        };
        if !rng.chance(0.5) {
            lines.push(line.to_owned());
            continue;
        }
        let new_lower = (lower + rng.below(3) as i64 - 1).max(0);
        let new_window = match upper.parse::<i64>() {
            Ok(upper) => {
                let new_upper = (upper + rng.below(4) as i64 - 1).max(new_lower).max(1);
                format!("[{new_lower},{new_upper}]")
            }
            Err(_) => format!("[{new_lower},inf)"),
        };
        changed |= new_window != tokens[2];
        let mut rebuilt = vec![tokens[0], tokens[1], &new_window];
        rebuilt.extend(&tokens[3..]);
        lines.push(rebuilt.join(" "));
    }
    let mut result = lines.join("\n") + "\n";
    if !changed {
        // No window moved: a trailing blank line still makes the upload
        // fresh (a new content hash for the same model).
        result.push('\n');
    }
    result
}

/// Model texts with an index, so a perturbation that repeats an earlier one
/// reuses its model.
struct Models {
    texts: Vec<String>,
    index: HashMap<String, usize>,
}

impl Models {
    fn intern(&mut self, text: String) -> usize {
        if let Some(&existing) = self.index.get(&text) {
            return existing;
        }
        self.texts.push(text.clone());
        self.index.insert(text, self.texts.len() - 1);
        self.texts.len() - 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Repeat,
    Perturbed,
    Shipped,
}

/// Items dealt in a seed-shuffled order, reshuffled once exhausted.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        let next = items.len();
        Deck { items, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1].clone()
    }
}

struct Generator {
    rng: Rng,
    models: Models,
    history: Vec<Job>,
    kinds: Deck<Kind>,
    /// `(shipped model, command, trace)`; `reach` only on `.stg` models.
    combos: Deck<(usize, &'static str, bool)>,
}

impl Generator {
    fn draw(&mut self, at: Duration) -> Job {
        let kind = self.kinds.deal(&mut self.rng);
        if kind == Kind::Repeat && !self.history.is_empty() {
            let window = self.history.len().min(REPEAT_WINDOW);
            let earlier = &self.history[self.history.len() - 1 - self.rng.below(window)];
            let job = Job {
                at,
                ..earlier.clone()
            };
            self.history.push(job.clone());
            return job;
        }
        let (base, command, trace) = self.combos.deal(&mut self.rng);
        let model = if kind == Kind::Perturbed {
            let text = perturb(&self.models.texts[base], &mut self.rng);
            self.models.intern(text)
        } else {
            base
        };
        let job = Job {
            at,
            model,
            command,
            trace,
            variant: FIRST_VARIANT + self.history.len() as u64,
        };
        self.history.push(job.clone());
        job
    }
}

/// Generates the seed's schedule: `paced` Poisson-like arrivals at
/// [`PACED_RATE`], then `bursts` burst sets of [`BURST_SIZE`].
pub fn generate(seed: u64, base: &[String], paced: usize, bursts: usize) -> Schedule {
    let mut models = Models {
        texts: Vec::new(),
        index: HashMap::new(),
    };
    for text in base {
        models.intern(text.clone());
    }
    let mut combos = Vec::new();
    for (model, file) in BASE_MODELS.iter().enumerate() {
        let commands: &[&'static str] = if file.ends_with(".stg") {
            &["verify", "zones", "reach"]
        } else {
            &["verify", "zones"]
        };
        for &command in commands {
            combos.push((model, command, false));
            combos.push((model, command, true));
        }
    }
    let mut generator = Generator {
        rng: Rng::new(seed),
        models,
        history: Vec::new(),
        kinds: Deck::new(KINDS.to_vec()),
        combos: Deck::new(combos),
    };
    // Poisson-like arrivals: exponential gaps, each drawn within one of
    // GAP_STRATA equally likely slices of the distribution, the slices
    // dealt from a seed-shuffled deck. Every seed then has the same mix of
    // short and long gaps, and runs of short gaps stay short. With free
    // draws each seed had its own share and clustering of close arrivals,
    // and that alone moved the p98 latency by a quarter from seed to seed
    // (IQR / median 0.23 over ten seeds; 0.14 with 32 slices, 0.08 with 8).
    let mut slices = Deck::new((0..GAP_STRATA).collect());
    let mut t = 0.0;
    let mut paced_jobs = Vec::with_capacity(paced);
    for _ in 0..paced {
        let slice = slices.deal(&mut generator.rng);
        let u = (slice as f64 + generator.rng.unit()) / GAP_STRATA as f64;
        t += -(1.0 - u).ln() / PACED_RATE;
        paced_jobs.push(generator.draw(Duration::from_secs_f64(t)));
    }
    let burst_sets = (0..bursts)
        .map(|_| {
            (0..BURST_SIZE)
                .map(|_| generator.draw(Duration::ZERO))
                .collect()
        })
        .collect();
    Schedule {
        models: generator.models.texts,
        paced: paced_jobs,
        bursts: burst_sets,
    }
}

/// The generator's self-test: a seed pins its schedule, and another seed
/// gives another one.
fn self_test(seed: u64, base: &[String]) -> Result<(), String> {
    let a = generate(seed, base, 100, 2);
    if a != generate(seed, base, 100, 2) {
        return Err("schedule generator: the same seed gave two schedules".to_owned());
    }
    if a == generate(seed.wrapping_add(1), base, 100, 2) {
        return Err("schedule generator: two seeds gave the same schedule".to_owned());
    }
    Ok(())
}

/// A spawned `transyt serve` child.
struct Server {
    child: Child,
    addr: String,
    data_dir: PathBuf,
    stdout: Option<thread::JoinHandle<()>>,
}

impl Server {
    fn spawn(binary: &Path, data_dir: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&data_dir);
        std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
        let mut child = Command::new(binary)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--data-dir",
            ])
            .arg(&data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("reading server output: {e}"))?;
            if let Some(rest) = line.strip_prefix("transyt server listening on ") {
                addr = rest.split_whitespace().next().map(str::to_owned);
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("the server exited before listening".to_owned());
        };
        // Drain the rest of its output so the child never blocks on a full
        // pipe.
        let stdout = thread::spawn(move || for _ in lines {});
        Ok(Server {
            child,
            addr,
            data_dir,
            stdout: Some(stdout),
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful shutdown; waits for the process and removes its data dir.
    fn stop(mut self) -> Result<(), String> {
        let _ = request(&self.addr, "POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(stdout) = self.stdout.take() {
            let _ = stdout.join();
        }
        std::fs::remove_dir_all(&self.data_dir)
            .map_err(|e| format!("removing {}: {e}", self.data_dir.display()))
    }
}

/// An error path dropped a running server: kill it, reap it, and let its
/// output thread end on the closed pipe.
impl Drop for Server {
    fn drop(&mut self) {
        if let Some(stdout) = self.stdout.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = stdout.join();
            let _ = std::fs::remove_dir_all(&self.data_dir);
        }
    }
}

/// One HTTP/1.1 request in the server's one-request-per-connection dialect;
/// returns `(status, body)`. The request leaves in a single write, so the
/// generator adds no small-segment (Nagle) stall of its own to what it
/// measures.
fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    stream
        .write_all(&bytes)
        .map_err(|e| format!("writing {method} {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("reading {method} {path}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok((status, body.to_owned()))
}

/// Uploads a model text; returns its hash.
fn upload(addr: &str, text: &str) -> Result<String, String> {
    let (status, body) = request(addr, "POST", "/models", text.as_bytes())?;
    if status != 200 {
        return Err(format!("upload answered {status}: {}", body.trim()));
    }
    client::json_str_field(&body, "hash")
        .ok_or_else(|| format!("upload answer without hash: {body}"))
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    /// Due-to-result latency of finished untraced jobs, ms.
    latency_ms: Vec<f64>,
    /// The same for traced jobs (traced runs trace every other paced job).
    traced_latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    max_backlog: usize,
    attempted: u64,
    failures: Vec<String>,
    rejects: u64,
    /// Every finished job with its served document.
    documents: Vec<(Job, String)>,
    max_waiting: u64,
    journal_growth: u64,
    finished: u64,
    /// Bracketed queue waits of status-sampled jobs (traced runs).
    queue_wait_ms: Vec<f64>,
    /// Wall time from the first submission to the last result (bursts).
    drain: Duration,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.traced_latency_ms.extend(other.traced_latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.max_backlog = self.max_backlog.max(other.max_backlog);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.rejects += other.rejects;
        self.documents.extend(other.documents);
        self.max_waiting = self.max_waiting.max(other.max_waiting);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.journal_growth += other.journal_growth;
        self.finished += other.finished;
        self.drain += other.drain;
    }
}

/// A submitted job awaiting its result.
struct Pending {
    job: Job,
    id: u64,
    due: Instant,
    acked: Instant,
    /// Its requests become spans.
    traced: bool,
    /// It polls its status until done first, to bracket its queue wait.
    sampled: bool,
    last_queued: Option<Instant>,
    first_running: Option<Instant>,
    /// When a status poll first saw the job done.
    done: Option<Instant>,
}

struct Driver<'a> {
    addr: &'a str,
    schedule: &'a Schedule,
    hashes: &'a [String],
    /// One cell per schedule model, set once its upload finished: a thread
    /// that needs a model another thread is still uploading waits for it.
    uploads: &'a [OnceLock<Result<(), String>>],
    /// Records spans in traced runs; inert otherwise.
    tracer: &'a Tracer,
    /// A traced run: it traces every other paced job and every burst job,
    /// and polls `/healthz`.
    traced: bool,
    /// Journal size at the last `/healthz` poll.
    last_journal: &'a Mutex<Option<u64>>,
}

impl Driver<'_> {
    /// Uploads the job's model unless the server already has it.
    fn ensure_uploaded(&self, job: &Job) -> Result<(), String> {
        self.uploads[job.model]
            .get_or_init(|| {
                let begun = Instant::now();
                let hash = upload(self.addr, &self.schedule.models[job.model])?;
                self.tracer
                    .record("server.upload", begun, Instant::now(), job.model);
                if hash != self.hashes[job.model] {
                    return Err(format!("server hashed model {} as {hash}", job.model));
                }
                Ok(())
            })
            .clone()
    }

    /// Submits a job whose model the server has. `Ok(None)` is a 429
    /// refusal.
    fn submit(&self, job: &Job, traced: bool) -> Result<Option<(u64, Instant)>, String> {
        let mut path = format!(
            "/jobs?model={}&command={}",
            self.hashes[job.model], job.command
        );
        for (name, value) in job.params() {
            path.push_str(&format!("&{name}={value}"));
        }
        let begun = Instant::now();
        let (status, body) = request(self.addr, "POST", &path, b"")?;
        let acked = Instant::now();
        if traced {
            self.tracer.record("server.submit", begun, acked, job.model);
        }
        match status {
            202 => client::json_uint_field(&body, "job")
                .map(|id| Some((id, acked)))
                .ok_or_else(|| format!("submission answer without job id: {body}")),
            429 => Ok(None),
            other => Err(format!("submission answered {other}: {}", body.trim())),
        }
    }

    /// One poll of a pending job: `Ok(Some(document))` once it is done. A
    /// sampled job is followed through its status first, to bracket its
    /// queue wait.
    fn poll(&self, pending: &mut Pending, phase: &mut Phase) -> Result<Option<String>, String> {
        if pending.sampled && pending.done.is_none() {
            let begun = Instant::now();
            let (status, body) = request(self.addr, "GET", &format!("/jobs/{}", pending.id), b"")?;
            let seen = Instant::now();
            self.tracer
                .record("server.status", begun, seen, pending.id as usize);
            if status != 200 {
                return Err(format!("job {} status answered {status}", pending.id));
            }
            match client::json_str_field(&body, "status").as_deref() {
                Some("queued") => {
                    pending.last_queued = Some(seen);
                    return Ok(None);
                }
                Some("running") => {
                    pending.first_running.get_or_insert(seen);
                    return Ok(None);
                }
                Some("done") => {
                    pending.done = Some(seen);
                    // The claim happened between the last observation of
                    // "queued" (or the submit answer) and the first later
                    // one: charge the midpoint. Only the observed parts
                    // become spans.
                    let queued_until = pending.last_queued.unwrap_or(pending.acked);
                    let left_queue = pending.first_running.unwrap_or(seen);
                    phase.queue_wait_ms.push(stats::ms(
                        queued_until - pending.acked + (left_queue - queued_until) / 2,
                    ));
                    if let Some(queued) = pending.last_queued {
                        self.tracer.record(
                            "gate.queue",
                            pending.acked,
                            queued,
                            pending.id as usize,
                        );
                    }
                    if let Some(running) = pending.first_running {
                        self.tracer
                            .record("session.run", running, seen, pending.id as usize);
                    }
                }
                other => return Err(format!("job {} ended {other:?}", pending.id)),
            }
        }
        let begun = Instant::now();
        let (status, body) = request(
            self.addr,
            "GET",
            &format!("/jobs/{}/result", pending.id),
            b"",
        )?;
        if pending.traced {
            self.tracer
                .record("server.result", begun, Instant::now(), pending.id as usize);
        }
        match status {
            200 => Ok(Some(body)),
            409 if body.contains("is still") => Ok(None),
            other => Err(format!(
                "job {} result answered {other}: {}",
                pending.id,
                body.trim()
            )),
        }
    }

    /// Polls `/healthz`, recording its round trip, and folds the queue and
    /// journal counters into `phase`.
    fn health(&self, phase: &mut Phase) -> Result<(), String> {
        let begun = Instant::now();
        let (status, body) = request(self.addr, "GET", "/healthz", b"")?;
        self.tracer.record("server.rtt", begun, Instant::now(), 0);
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        let field = |name| client::json_uint_field(&body, name).unwrap_or(0);
        phase.max_waiting = phase.max_waiting.max(field("waiting"));
        let bytes = field("journal_bytes");
        let mut last_journal = self.last_journal.lock().expect("journal size poisoned");
        if let Some(last) = *last_journal {
            // A compaction shrinks the file: count what was appended since.
            phase.journal_growth += if bytes >= last {
                bytes - last
            } else {
                bytes.saturating_sub(field("compacted_bytes"))
            };
        }
        *last_journal = Some(bytes);
        Ok(())
    }

    /// Polls every pending job once; finished ones leave the queue.
    fn collect_pass(&self, pending: &mut VecDeque<Pending>, phase: &mut Phase) -> usize {
        let mut finished = 0;
        for _ in 0..pending.len() {
            let mut job = pending.pop_front().expect("counted");
            match self.poll(&mut job, phase) {
                Ok(Some(document)) => {
                    phase.documents.push((job.job.clone(), document));
                    phase.finished += 1;
                    finished += 1;
                }
                Ok(None) if job.due.elapsed() < JOB_TIMEOUT => pending.push_back(job),
                Ok(None) => phase.failures.push(format!("job {} timed out", job.id)),
                Err(e) => phase.failures.push(e),
            }
        }
        finished
    }

    /// Runs one job to its verdict: upload if needed, submit, poll until the
    /// result document arrives. Returns the document.
    fn drive(
        &self,
        job: &Job,
        due: Instant,
        (traced, sampled): (bool, bool),
        phase: &mut Phase,
    ) -> Option<String> {
        phase.attempted += 1;
        let (id, acked) = match self.submit(job, traced) {
            Ok(Some(submitted)) => submitted,
            Ok(None) => {
                phase.rejects += 1;
                phase.failures.push("submission refused (429)".to_owned());
                return None;
            }
            Err(e) => {
                phase.failures.push(e);
                return None;
            }
        };
        let mut pending = Pending {
            job: job.clone(),
            id,
            due,
            acked,
            traced,
            sampled,
            last_queued: None,
            first_running: None,
            done: None,
        };
        loop {
            match self.poll(&mut pending, phase) {
                Ok(Some(document)) => {
                    phase.finished += 1;
                    return Some(document);
                }
                Ok(None) if due.elapsed() < JOB_TIMEOUT => thread::sleep(Duration::from_millis(1)),
                Ok(None) => {
                    phase.failures.push(format!("job {id} timed out"));
                    return None;
                }
                Err(e) => {
                    phase.failures.push(e);
                    return None;
                }
            }
        }
    }

    /// The open-loop phase: two client threads take the schedule's jobs in
    /// order, each waiting for its job's due time, and drive it to its
    /// verdict. A job's latency runs from its due time, so time it spent
    /// waiting for a free client thread counts too. A traced run traces
    /// every other job, so traced and untraced jobs share the same moments,
    /// store state and `/healthz` polls.
    fn paced(&self, jobs: &[Job]) -> Phase {
        let start = Instant::now() + Duration::from_millis(5);
        let next = AtomicUsize::new(0);
        let clients: Vec<Phase> = thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|client| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut phase = Phase::default();
                        let mut last_health = Instant::now();
                        loop {
                            let index = next.fetch_add(1, Ordering::SeqCst);
                            let Some(job) = jobs.get(index) else { break };
                            // A job's latency runs from submission: its
                            // model goes up beforehand, while the thread
                            // would otherwise sleep.
                            if let Err(e) = self.ensure_uploaded(job) {
                                phase.attempted += 1;
                                phase.failures.push(e);
                                continue;
                            }
                            let due = start + job.at;
                            let now = Instant::now();
                            if due > now {
                                thread::sleep(due - now);
                            }
                            let now = Instant::now();
                            phase
                                .lag_ms
                                .push(stats::ms(now.saturating_duration_since(due)));
                            let elapsed = now.saturating_duration_since(start);
                            let backlog = jobs[index..].partition_point(|j| j.at <= elapsed);
                            phase.max_backlog = phase.max_backlog.max(backlog);
                            let traced = self.traced && index % 2 == 1;
                            let sampled = traced && (index / 2).is_multiple_of(STATUS_SAMPLE);
                            if let Some(document) =
                                self.drive(job, due, (traced, sampled), &mut phase)
                            {
                                let latency = stats::ms(due.elapsed());
                                if traced {
                                    phase.traced_latency_ms.push(latency);
                                } else {
                                    phase.latency_ms.push(latency);
                                }
                                phase.documents.push((job.clone(), document));
                            }
                            if self.traced && client == 0 && last_health.elapsed() >= HEALTH_EVERY {
                                if let Err(e) = self.health(&mut phase) {
                                    phase.failures.push(e);
                                }
                                last_health = Instant::now();
                            }
                        }
                        if self.traced && client == 0 {
                            if let Err(e) = self.health(&mut phase) {
                                phase.failures.push(e);
                            }
                        }
                        phase
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut phase = Phase::default();
        for client in clients {
            phase.absorb(client);
        }
        phase
    }

    /// One burst: two threads each submit half the set back to back, then
    /// collect their own results. A traced run traces every burst job.
    fn burst(&self, jobs: &[Job]) -> Phase {
        for job in jobs {
            if let Err(e) = self.ensure_uploaded(job) {
                return Phase {
                    failures: vec![e],
                    ..Phase::default()
                };
            }
        }
        let start = Instant::now();
        let halves: Vec<Phase> = thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|half| {
                    scope.spawn(move || {
                        let mut phase = Phase::default();
                        let mut pending = VecDeque::new();
                        for (index, job) in jobs.iter().enumerate().skip(half).step_by(2) {
                            phase.attempted += 1;
                            match self.submit(job, self.traced) {
                                Ok(Some((id, acked))) => pending.push_back(Pending {
                                    job: job.clone(),
                                    id,
                                    due: start,
                                    acked,
                                    traced: self.traced,
                                    sampled: self.traced && index.is_multiple_of(STATUS_SAMPLE),
                                    last_queued: None,
                                    first_running: None,
                                    done: None,
                                }),
                                Ok(None) => {
                                    phase.rejects += 1;
                                    phase.failures.push("submission refused (429)".to_owned());
                                }
                                Err(e) => phase.failures.push(e),
                            }
                        }
                        // The queue is fullest right after the submissions.
                        if self.traced && half == 0 {
                            if let Err(e) = self.health(&mut phase) {
                                phase.failures.push(e);
                            }
                        }
                        while !pending.is_empty() {
                            if self.collect_pass(&mut pending, &mut phase) == 0 {
                                thread::sleep(Duration::from_millis(1));
                            }
                        }
                        phase.drain = start.elapsed();
                        phase
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("burst thread panicked"))
                .collect()
        });
        let mut phase = Phase::default();
        let drain = halves.iter().map(|h| h.drain).max().unwrap_or_default();
        for half in halves {
            phase.absorb(half);
        }
        phase.drain = drain;
        phase
    }
}

/// Healthz counters read at the end of the measured phases.
fn final_health(addr: &str) -> Result<HashMap<&'static str, f64>, String> {
    let (status, body) = request(addr, "GET", "/healthz", b"")?;
    if status != 200 {
        return Err(format!("/healthz answered {status}"));
    }
    let mut values = HashMap::new();
    for name in [
        "result_bytes",
        "compacted_bytes",
        "runs_executed",
        "runs_attached",
        "memo_hits",
        "store_hits",
    ] {
        values.insert(
            name,
            client::json_uint_field(&body, name).unwrap_or(0) as f64,
        );
    }
    Ok(values)
}

/// The dominant-layer check: where the paced jobs' latency went. The
/// compute layers' part (`stg` expansion, `dbm`/`explore` search, the `core`
/// refinement engine) is measured by running each paced job the server
/// executed once more in process, on a memo-less session, best of three;
/// it includes rendering, so it errs towards compute. The rest of the
/// latency belongs to the service layers: HTTP accept and parse
/// (`server`), admission (`gate`), journal and result files (`store`),
/// dedup and rendering (`session`). Also returns the mean re-run time per
/// executed job.
fn layer_shares(schedule: &Schedule, paced: &Phase) -> Result<(String, f64), String> {
    const COMPUTE: &str = "compute: stg, dbm, explore, core";
    const SERVICE: &str = "service: server, gate, store, session";
    let session = Session::with_memo_capacity(0);
    let mut by_spec: HashMap<(usize, &'static str, bool), f64> = HashMap::new();
    let mut executed = HashSet::new();
    let mut compute_ms = 0.0;
    for (job, _) in &paced.documents {
        // A repeat carries its original's variant and was answered from the
        // memo or the result store.
        if !executed.insert(job.variant) {
            continue;
        }
        let key = (job.model, job.command, job.trace);
        if let Some(ms) = by_spec.get(&key) {
            compute_ms += ms;
        } else {
            let (cached, _) = session
                .add_model(&schedule.models[job.model])
                .map_err(|e| e.to_string())?;
            let spec = TaskSpec::parse(job.command, &job.params())
                .map_err(|e| e.to_string())?
                .for_model(&cached.hash);
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let begun = Instant::now();
                session.run(&spec).map_err(|e| e.to_string())?;
                best = best.min(stats::ms(begun.elapsed()));
            }
            by_spec.insert(key, best);
            compute_ms += best;
        }
    }
    let latency_ms: f64 = paced
        .latency_ms
        .iter()
        .chain(&paced.traced_latency_ms)
        .sum();
    let layers = [
        (COMPUTE, compute_ms),
        (SERVICE, (latency_ms - compute_ms).max(0.0)),
    ]
    .into_iter()
    .map(|(name, ms)| (name, Duration::from_secs_f64(ms / 1e3)))
    .collect();
    let report = format!(
        "  {} paced jobs, {} executed by the server\n{}",
        paced.documents.len(),
        executed.len(),
        trace::layer_report(layers, &[SERVICE])
    );
    Ok((report, stats::ratio(compute_ms, executed.len() as f64)))
}

/// Compares every served document with an in-process rendering of the same
/// spec, and the shipped models' documents with the committed goldens.
fn check_documents(root: &Path, schedule: &Schedule, documents: &[(Job, String)]) -> Vec<String> {
    let session = Session::new();
    let mut expected: HashMap<(usize, &'static str, bool), String> = HashMap::new();
    let mut failures = Vec::new();
    for (job, document) in documents {
        let wanted = expected
            .entry((job.model, job.command, job.trace))
            .or_insert_with(|| {
                let rendered = session
                    .add_model(&schedule.models[job.model])
                    .map_err(|e| e.to_string())
                    .and_then(|(cached, _)| {
                        let spec = TaskSpec::parse(job.command, &job.params())
                            .map_err(|e| e.to_string())?
                            .for_model(&cached.hash);
                        let outcome = session.run(&spec).map_err(|e| e.to_string())?;
                        Ok(render::render_document(&render::document(&outcome)))
                    })
                    .unwrap_or_else(|e| {
                        failures.push(format!("in-process oracle for model {}: {e}", job.model));
                        String::new()
                    });
                if let Some(golden) = BASE_MODELS
                    .get(job.model)
                    .and_then(|file| golden_for(file, job.command, job.trace))
                {
                    let path = root.join("crates/cli/tests/golden").join(&golden);
                    match std::fs::read_to_string(&path) {
                        Ok(text) if text == rendered => {}
                        Ok(_) => failures.push(format!("{golden}: in-process document differs")),
                        Err(e) => failures.push(format!("{}: {e}", path.display())),
                    }
                }
                rendered
            });
        if wanted != document {
            failures.push(format!(
                "model {} {} trace={}: served document differs from the in-process one",
                job.model, job.command, job.trace
            ));
        }
    }
    failures
}

pub fn run(
    seed: u64,
    seconds: u64,
    trace_on: bool,
    root: &Path,
    out_dir: &Path,
) -> Result<Report, String> {
    let binary = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("transyt");
    let base: Vec<String> = BASE_MODELS
        .iter()
        .map(|file| {
            let path = root.join("models").join(file);
            std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    self_test(seed, &base)?;

    let paced_jobs = (PACED_RATE * PACED_SHARE * seconds as f64).round() as usize;
    // More burst sets than a run can use: bursts repeat until `--seconds`
    // have passed.
    let schedule = generate(seed, &base, paced_jobs.max(2), seconds as usize + 1);
    let budget = Duration::from_secs(seconds);
    let hashes: Vec<String> = schedule.models.iter().map(|m| content_hash(m)).collect();

    // Set-up: spawn, wait for /healthz, upload the shipped models.
    let mut setup_s = Vec::new();
    let mut server = None;
    for attempt in 0..SETUPS {
        if let Some(previous) = server.take() {
            Server::stop(previous)?;
        }
        let data_dir = out_dir.join(format!("data-{}-{attempt}", std::process::id()));
        let started = Instant::now();
        let spawned = Server::spawn(&binary, data_dir)?;
        loop {
            match request(&spawned.addr, "GET", "/healthz", b"") {
                Ok((200, _)) => break,
                _ if started.elapsed() < Duration::from_secs(30) => {
                    thread::sleep(Duration::from_millis(1))
                }
                other => return Err(format!("server never became healthy: {other:?}")),
            }
        }
        for (index, text) in base.iter().enumerate() {
            let hash = upload(&spawned.addr, text)?;
            if hash != hashes[index] {
                return Err(format!(
                    "{}: server hash {hash} differs",
                    BASE_MODELS[index]
                ));
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
        server = Some(spawned);
    }
    let server = server.expect("at least one set-up");
    let uploads: Vec<OnceLock<Result<(), String>>> = (0..schedule.models.len())
        .map(|model| {
            let cell = OnceLock::new();
            if model < base.len() {
                let _ = cell.set(Ok(()));
            }
            cell
        })
        .collect();

    let last_journal = Mutex::new(None);
    let tracer = if trace_on {
        Tracer::recording()
    } else {
        Tracer::default()
    };
    let driver = Driver {
        addr: &server.addr,
        schedule: &schedule,
        hashes: &hashes,
        uploads: &uploads,
        tracer: &tracer,
        traced: trace_on,
        last_journal: &last_journal,
    };

    let mut metrics = Metrics::default();
    let started = Instant::now();
    let paced = driver.paced(&schedule.paced);
    let mut burst = Phase::default();
    for set in &schedule.bursts {
        burst.absorb(driver.burst(set));
        if started.elapsed() >= budget {
            break;
        }
    }
    eprintln!(
        "service-mix: {} paced jobs (p98 over {} samples), {} burst jobs in {:.2}s of drain, \
         generator lag p99 {:.1} ms, max backlog {}",
        paced.attempted,
        paced.latency_ms.len(),
        burst.attempted,
        burst.drain.as_secs_f64(),
        stats::quantile(&paced.lag_ms, 0.99),
        paced.max_backlog,
    );
    if !trace_on {
        metrics.put("setup_s", stats::median(&setup_s));
        metrics.put(
            "tasks_per_s",
            burst.finished as f64 / burst.drain.as_secs_f64(),
        );
        metrics.put("task_p50_ms", stats::median(&paced.latency_ms));
        metrics.put("task_p98_ms", stats::quantile(&paced.latency_ms, 0.98));
        metrics.put(
            "peak_rss_mib",
            stats::peak_rss_mib(&server.pid()).unwrap_or(0.0),
        );
    } else {
        if let Err(e) = driver.health(&mut burst) {
            burst.failures.push(e);
        }
        let health = final_health(&server.addr)?;
        let spans = tracer.spans();
        let median_of = |name: &str| {
            let values: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| stats::ms(s.duration()))
                .collect();
            stats::median(&values)
        };
        let mut waits = paced.queue_wait_ms.clone();
        waits.extend(&burst.queue_wait_ms);
        metrics.put("server.rtt_ms", median_of("server.rtt"));
        metrics.put("server.upload_ms", median_of("server.upload"));
        metrics.put("server.submit_ms", median_of("server.submit"));
        metrics.put("server.result_ms", median_of("server.result"));
        metrics.put("gate.queue_wait_ms", stats::median(&waits));
        metrics.put("gate.rejects", (paced.rejects + burst.rejects) as f64);
        metrics.put(
            "gate.max_waiting",
            paced.max_waiting.max(burst.max_waiting) as f64,
        );
        metrics.put(
            "store.journal_bytes_per_job",
            stats::ratio(
                (paced.journal_growth + burst.journal_growth) as f64,
                (paced.attempted + burst.attempted) as f64,
            ),
        );
        metrics.put("store.result_bytes", health["result_bytes"]);
        metrics.put("store.compacted_bytes", health["compacted_bytes"]);
        let lookups = health["runs_executed"]
            + health["runs_attached"]
            + health["memo_hits"]
            + health["store_hits"];
        metrics.put("session.runs_executed", health["runs_executed"]);
        metrics.put("session.memo_hits", health["memo_hits"]);
        metrics.put("session.store_hits", health["store_hits"]);
        metrics.put(
            "session.dedup_ratio",
            stats::ratio(lookups - health["runs_executed"], lookups),
        );
        metrics.put(
            "bench.generator_lag_p99_ms",
            stats::quantile(&paced.lag_ms, 0.99),
        );
        metrics.put("bench.max_backlog", paced.max_backlog as f64);
        metrics.put(
            "bench.trace_overhead_ratio",
            stats::ratio(
                stats::median(&paced.traced_latency_ms),
                stats::median(&paced.latency_ms),
            ),
        );
        let (shares, run_ms) = layer_shares(&schedule, &paced)?;
        metrics.put("session.run_ms", run_ms);
        println!("service-mix: where a paced job's time goes\n{shares}");
        println!("  client-observed spans:");
        for (name, stat) in &trace::by_name(&spans) {
            println!(
                "    {name:<16} {:>6} spans, mean {:.3} ms",
                stat.count,
                stat.mean_ms()
            );
        }
        let path = out_dir.join(format!("spans-service-mix-seed{seed}.tsv"));
        trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let mut all = paced;
    all.absorb(burst);
    if stats::quantile(&all.lag_ms, 0.99) > MAX_LAG_P99_MS {
        let _ = server.stop();
        return Err(format!(
            "invalid run: the generator fell behind its schedule (lag p99 {:.0} ms, max backlog {})",
            stats::quantile(&all.lag_ms, 0.99),
            all.max_backlog
        ));
    }
    server.stop()?;

    let mut failures = all.failures;
    failures.extend(check_documents(root, &schedule, &all.documents));
    let attempted = all.attempted;
    if !trace_on {
        let failed = failures.len().min(attempted as usize) as u64;
        metrics.put("ok_ratio", (attempted - failed) as f64 / attempted as f64);
    }
    Ok(Report {
        attempted,
        failures,
        metrics,
    })
}
