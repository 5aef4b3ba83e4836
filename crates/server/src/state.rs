//! The server's shared state: the job table, the bounded FIFO queue the
//! worker pool drains (a submission beyond its depth is refused with a
//! load-derived `Retry-After` estimate), and the result store with LRU
//! eviction.
//!
//! Models and runs themselves live in the embedded
//! [`transyt_session::Session`]: the server schedules [`TaskSpec`]s by
//! their canonical [`TaskKey`], so queued duplicate jobs attach to the
//! in-flight run (or hit the session's memo) and share one result document.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use transyt_session::{
    CancelToken, Completion, Outcome, ProgressEvent, ProgressSink, RestoredOutcome, RunControl,
    Session, StoreHook, TaskKey, TaskResult, TaskSpec,
};
use transyt_store::{DiskStats, JournalStats, Lsn, Record, Recovery, Store};

use crate::events::{render_progress, EventLog};
use crate::server::ServerConfig;

pub use transyt_session::{CachedModel, ModelInfo};
pub use transyt_store::JobStatus;

/// A job's externally visible state.
#[derive(Debug, Clone)]
pub struct JobView {
    /// The job id.
    pub id: usize,
    /// The task as submitted.
    pub spec: TaskSpec,
    /// The task's canonical key.
    pub key: TaskKey,
    /// The name of the model the job runs against.
    pub model_name: String,
    /// Current lifecycle state, with the payload of its journal line (the
    /// result fingerprint, the error message, the budget breach).
    pub status: JobStatus,
    /// The shared result, once the job finished (also present for
    /// `Cancelled` / `TimedOut` jobs that produced a partial document —
    /// fetchable through `/text`, but not served as `/result`).
    pub result: Option<Arc<TaskResult>>,
    /// The error message of a `Failed` job (the payload of its journal
    /// line, so it reads the same after a restart).
    pub error: Option<String>,
    /// `true` once the result store evicted this job's document (LRU cap).
    pub evicted: bool,
    /// `true` when the job was replayed from the write-ahead journal after
    /// a restart (completed jobs answer from the on-disk store; interrupted
    /// ones were re-enqueued).
    pub recovered: bool,
}

/// One row of the job table. A finished job keeps nothing of its run but
/// its result while the store holds it: its key is recomputed from the
/// spec, its cancel token is the inert default, and its progress log goes
/// once only its terminal frame is left to stream.
struct Job {
    spec: TaskSpec,
    /// Shared with the session's listing of the model.
    model_name: Arc<str>,
    status: JobStatus,
    result: Option<Arc<TaskResult>>,
    evicted: bool,
    /// Fired by a cancel request while the job is queued or running.
    cancel: CancelToken,
    recovered: bool,
    /// The progress log, while the job can still append to it or holds a
    /// result with it; `None` once its stream is the terminal frame alone,
    /// which [`ServerState::job_events`] renders on demand.
    events: Option<Arc<EventLog>>,
}

/// The last frame of every event stream.
fn terminal_frame(status: &JobStatus) -> String {
    format!("{{\"type\":\"terminal\",\"status\":\"{status}\"}}")
}

impl Job {
    fn new(spec: TaskSpec, model_name: Arc<str>) -> Job {
        Job {
            spec,
            model_name,
            status: JobStatus::Queued,
            result: None,
            evicted: false,
            cancel: CancelToken::new(),
            recovered: false,
            events: Some(Arc::new(EventLog::new())),
        }
    }

    fn view(&self, id: usize) -> JobView {
        JobView {
            id,
            spec: self.spec.clone(),
            key: self.spec.key(),
            model_name: self.model_name.to_string(),
            status: self.status.clone(),
            result: self.result.clone(),
            error: match &self.status {
                JobStatus::Failed { error } => Some(error.clone()),
                _ => None,
            },
            evicted: self.evicted,
            recovered: self.recovered,
        }
    }

    /// The journal record of the job's submission.
    fn job_record(&self, id: usize) -> Record {
        Record::Job {
            id,
            command: self.spec.command.name().to_owned(),
            model: self.spec.model.clone(),
            params: self.spec.to_params(),
        }
    }

    /// Moves the job to a terminal `status`: its token goes inert, and its
    /// event stream gets the terminal marker and is sealed. A log holding
    /// nothing else is dropped (subscribers keep theirs).
    fn end(&mut self, status: JobStatus) {
        self.status = status;
        self.cancel = CancelToken::default();
        if let Some(log) = self.events.take() {
            log.push(terminal_frame(&self.status));
            log.close();
            if log.len() > 1 {
                self.events = Some(log);
            }
        }
    }
}

struct Inner {
    jobs: Vec<Job>,
    /// Ids of the waiting jobs, in arrival order.
    queue: VecDeque<usize>,
    /// Recently observed run durations, feeding `Retry-After` estimates.
    recent: LatencyRing,
    /// Job ids holding a result, least recently accessed first.
    access: Vec<usize>,
    /// Jobs a worker is running.
    running: usize,
    shutdown: bool,
}

/// Persistence counters of a durable server, served through `/healthz`.
#[derive(Debug, Clone)]
pub struct PersistenceInfo {
    /// The data dir backing the server.
    pub data_dir: String,
    /// Write-ahead journal size counters.
    pub journal: JournalStats,
    /// On-disk model / result counts and byte totals.
    pub disk: DiskStats,
}

/// Why [`ServerState::submit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at depth; retry after the estimate.
    Busy {
        /// The load-derived `Retry-After` estimate.
        retry_after: Duration,
        /// Jobs waiting when the submission was refused.
        queued: usize,
    },
    /// Any other rejection (unknown model, shutdown, bad spec).
    Refused(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy {
                retry_after,
                queued,
            } => write!(
                f,
                "queue full ({queued} waiting); retry after {}s",
                retry_after.as_secs()
            ),
            SubmitError::Refused(message) => f.write_str(message),
        }
    }
}

/// Queue and latency counters, served through `/healthz`.
#[derive(Debug, Clone, Copy)]
pub struct GateStats {
    /// Admission depth (max waiting jobs).
    pub depth: usize,
    /// Jobs waiting.
    pub queued: usize,
    /// Mean of the recently observed run durations, if any finished yet.
    pub avg_run: Option<Duration>,
    /// Run-duration samples held.
    pub samples: usize,
}

/// A fixed-size ring of recently observed job durations, feeding the
/// [`retry_after`] estimate.
#[derive(Debug, Clone)]
struct LatencyRing {
    samples: VecDeque<Duration>,
    cap: usize,
}

impl Default for LatencyRing {
    fn default() -> Self {
        LatencyRing::new(32)
    }
}

impl LatencyRing {
    /// A ring keeping the `cap` most recent samples.
    fn new(cap: usize) -> LatencyRing {
        LatencyRing {
            samples: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Records one finished job's duration, evicting the oldest sample at
    /// capacity.
    fn record(&mut self, duration: Duration) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(duration);
    }

    /// Samples currently held.
    fn len(&self) -> usize {
        self.samples.len()
    }

    /// Mean of the held samples; `None` before the first record.
    fn average(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: Duration = self.samples.iter().sum();
        Some(total / self.samples.len() as u32)
    }
}

/// The `Retry-After` estimate handed to a rejected client:
/// `ceil(average duration × (queued + running) / workers)`, clamped to at
/// least one second. With no samples yet the average defaults to one
/// second — a fresh server suggests a short retry rather than none.
fn retry_after(recent: &LatencyRing, queued: usize, running: usize, workers: usize) -> Duration {
    let avg = recent.average().unwrap_or(Duration::from_secs(1));
    let backlog = (queued + running) as u32;
    let estimate = avg * backlog / workers.max(1) as u32;
    let ceil_secs = estimate
        .as_secs()
        .saturating_add(u64::from(estimate.subsec_nanos() > 0));
    Duration::from_secs(ceil_secs.max(1))
}

/// The shared state behind the HTTP front end and the worker pool.
pub struct ServerState {
    session: Arc<Session>,
    keep_results: usize,
    queue_depth: usize,
    workers: usize,
    persist: Option<Arc<Store>>,
    inner: Mutex<Inner>,
    work: Condvar,
    /// Signalled once by [`shutdown`](ServerState::shutdown).
    stopped: Condvar,
}

impl ServerState {
    /// Creates empty state around a session, sized by `config`: at most
    /// [`queue_depth`](ServerConfig::queue_depth) jobs wait,
    /// [`workers`](ServerConfig::workers) is the size of the pool that will
    /// drain the queue (it scales the `Retry-After` estimates handed to
    /// rejected clients), and at most
    /// [`keep_results`](ServerConfig::keep_results) documents are kept.
    pub fn new(session: Arc<Session>, config: &ServerConfig) -> ServerState {
        ServerState {
            session,
            keep_results: config.keep_results.max(1),
            queue_depth: config.queue_depth.max(1),
            workers: config.workers.max(1),
            persist: None,
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                queue: VecDeque::new(),
                recent: LatencyRing::default(),
                access: Vec::new(),
                running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            stopped: Condvar::new(),
        }
    }

    /// Creates durable state over an opened [`Store`], replaying `recovery`
    /// (the store's own [`Store::open`] result):
    ///
    /// * stored models are re-interned into the session (then the session's
    ///   persistence hook is installed, so new models and results keep
    ///   flowing to disk);
    /// * completed jobs reload their documents from the store —
    ///   byte-identical to what was served before the crash;
    /// * jobs that were queued or running at the kill are **re-enqueued**
    ///   in id order (the stack is deterministic, so the re-run reproduces
    ///   the same document);
    /// * failed / cancelled / timed-out jobs keep their terminal status.
    ///
    /// Ends with the startup GC: the LRU cap applied to the recovered
    /// results (which enter the LRU in job-id order), an orphan-file sweep
    /// and a journal compaction.
    pub fn recovered(
        session: Arc<Session>,
        config: &ServerConfig,
        persist: Arc<Store>,
        recovery: &Recovery,
    ) -> ServerState {
        for hash in &recovery.models {
            match persist.model_text(hash) {
                Some(text) => {
                    if let Err(e) = session.add_model(&text) {
                        eprintln!("transyt-server: stored model {hash} no longer parses: {e}");
                    }
                }
                None => eprintln!("transyt-server: stored model {hash} is missing or corrupt"),
            }
        }
        // Installed only after the replay: re-interning stored models must
        // not re-journal them.
        session.set_store_hook(Arc::clone(&persist) as Arc<dyn StoreHook>);

        let mut jobs: Vec<Job> = Vec::with_capacity(recovery.jobs.len());
        let mut queue = VecDeque::new();
        for recovered in &recovery.jobs {
            let id = jobs.len();
            // Journals written before the thread-count knob was retired carry
            // a `threads=N` pair on every job (the old `to_params` always
            // wrote it), and the knob never changed a result: drop it, so
            // those jobs replay instead of failing as unrecoverable.
            let params: Vec<(String, String)> = recovered
                .params
                .iter()
                .filter(|(name, _)| name != "threads")
                .cloned()
                .collect();
            let (spec, spec_error) = match TaskSpec::parse(&recovered.command, &params) {
                Ok(spec) => (spec.for_model(&recovered.model), None),
                // A journal from a future/older version: keep the job
                // visible (ids stay dense) but terminal.
                Err(e) => (TaskSpec::verify(&recovered.model), Some(e.to_string())),
            };
            let model_name = session
                .model_info(&recovered.model)
                .map(|m| m.name)
                .unwrap_or_else(|| Arc::from(recovered.model.as_str()));
            let mut job = Job {
                evicted: recovered.evicted,
                recovered: true,
                ..Job::new(spec, model_name)
            };
            match spec_error {
                Some(error) => job.end(JobStatus::Failed {
                    error: format!("unrecoverable journaled spec: {error}"),
                }),
                // Queued or running at the kill. Re-admitted without the
                // depth check: the job was admitted before the restart.
                None if !recovered.status.is_terminal() => queue.push_back(id),
                None => {
                    // A terminal recovered job's event stream is already
                    // over: subscribers get the terminal marker at once.
                    job.end(recovered.status.clone());
                    if matches!(job.status, JobStatus::Done { .. }) && !job.evicted {
                        match persist.result(&job.spec.key()) {
                            Some(doc) => {
                                job.result = Some(Arc::new(TaskResult {
                                    outcome: Ok(Outcome::Restored(RestoredOutcome {
                                        model: job.model_name.to_string(),
                                        command: job.spec.command,
                                    })),
                                    text: doc.text,
                                    document: doc.document,
                                }));
                            }
                            None => job.evicted = true,
                        }
                    }
                }
            }
            jobs.push(job);
        }

        // LRU order of the recovered results: lowest job id first.
        let access: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| job.result.is_some())
            .map(|(id, _)| id)
            .collect();

        let state = ServerState {
            persist: Some(persist),
            inner: Mutex::new(Inner {
                jobs,
                queue,
                recent: LatencyRing::default(),
                access,
                running: 0,
                shutdown: false,
            }),
            ..ServerState::new(session, config)
        };

        // Startup GC: the LRU cap the live server applies, now also
        // dropping the disk copies; then sweep result files no job
        // references and compact the replayed journal.
        {
            let mut inner = state.lock();
            while inner.access.len() > state.keep_results {
                let oldest = inner.access[0];
                state.evict_one(&mut inner, oldest);
            }
            if let Some(persist) = &state.persist {
                let referenced: HashSet<String> = inner
                    .jobs
                    .iter()
                    .filter(|job| matches!(job.status, JobStatus::Done { .. }) && !job.evicted)
                    .map(|job| job.spec.key().fingerprint())
                    .collect();
                persist.remove_unreferenced(&referenced);
                if let Err(e) = persist.compact(state.snapshot(&inner)) {
                    eprintln!("transyt-server: journal compaction failed: {e}");
                }
            }
        }
        state
    }

    /// Persistence counters (`None` for an ephemeral server).
    pub fn persistence(&self) -> Option<PersistenceInfo> {
        self.persist.as_ref().map(|store| PersistenceInfo {
            data_dir: store.root().display().to_string(),
            journal: store.journal_stats(),
            disk: store.disk_stats(),
        })
    }

    /// Writes one journal record, best effort: a full disk degrades
    /// durability, never availability. The record is durable once a
    /// [`commit`](Self::commit) to its place returns; writing does not
    /// wait for the disk, so it may happen under the state lock.
    fn journal(&self, record: &Record) -> Lsn {
        let Some(store) = &self.persist else {
            return Lsn::default();
        };
        store.write(record).unwrap_or_else(|e| {
            eprintln!("transyt-server: journal write failed: {e}");
            Lsn::default()
        })
    }

    /// Waits until the journal is durable up to `lsn` (the next commit
    /// tick). Never called under the state lock.
    fn commit(&self, lsn: Lsn) {
        if let Some(store) = &self.persist {
            if let Err(e) = store.commit(lsn) {
                eprintln!("transyt-server: journal sync failed: {e}");
            }
        }
    }

    /// The compacted journal image of the current state, drawn record by
    /// record: the model records, then per job its `job` record, the status
    /// it has reached and its eviction.
    fn snapshot<'a>(&self, inner: &'a Inner) -> impl Iterator<Item = Record> + 'a {
        let models = self.session.models().into_iter();
        let jobs = inner.jobs.iter().enumerate().flat_map(|(id, job)| {
            let status = (job.status != JobStatus::Queued).then(|| Record::Status {
                id,
                status: job.status.clone(),
            });
            std::iter::once(job.job_record(id))
                .chain(status)
                .chain(job.evicted.then_some(Record::Evict { id }))
        });
        models
            .map(|model| Record::Model { hash: model.hash })
            .chain(jobs)
    }

    /// Rewrites the journal to the compacted image once its size trigger
    /// fires. Holds the state lock across the rewrite so no job transition
    /// can slip between snapshot and replacement (a concurrently interned
    /// model could — its record lands in the replaced file and is lost —
    /// but recovery re-adopts model files the journal does not mention).
    fn maybe_compact(&self) {
        let Some(store) = &self.persist else {
            return;
        };
        if !store.should_compact() {
            return;
        }
        let inner = self.lock();
        if let Err(e) = store.compact(self.snapshot(&inner)) {
            eprintln!("transyt-server: journal compaction failed: {e}");
        }
    }

    /// The embedded session (models, dedup stats) — also the seam the tests
    /// use to assert that duplicate submissions shared one run.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("server state poisoned")
    }

    /// Validates and interns a model text. Returns the cache entry and
    /// whether it was already interned.
    ///
    /// # Errors
    ///
    /// The parse error message for unparseable texts.
    pub fn upload_model(&self, text: &str) -> Result<(CachedModel, bool), String> {
        self.session.add_model(text).map_err(|e| e.to_string())
    }

    /// The interned models, oldest first.
    pub fn models(&self) -> Vec<ModelInfo> {
        self.session.models()
    }

    /// Looks an interned model up by content hash.
    pub fn model(&self, hash: &str) -> Option<ModelInfo> {
        self.session.model_info(hash)
    }

    /// Enqueues a job at the back of the queue. Returns its id, or a
    /// [`SubmitError`]: `Busy` (with a `Retry-After` estimate) when the
    /// queue is at depth, `Refused` when the model hash is unknown or the
    /// server is shutting down.
    ///
    /// # Errors
    ///
    /// Nothing is enqueued or journaled on any error.
    pub fn submit(&self, spec: TaskSpec) -> Result<usize, SubmitError> {
        let model_name = self
            .session
            .model_info(&spec.model)
            .map(|m| m.name)
            .ok_or_else(|| SubmitError::Refused(format!("unknown model hash `{}`", spec.model)))?;
        let mut inner = self.lock();
        if inner.shutdown {
            return Err(SubmitError::Refused("server is shutting down".to_owned()));
        }
        // Admission check before anything is allocated: an over-depth
        // submission costs the server one queue-length comparison and the
        // client gets told when capacity is likely to be back.
        let queued = inner.queue.len();
        if queued >= self.queue_depth {
            return Err(SubmitError::Busy {
                retry_after: retry_after(&inner.recent, queued, inner.running, self.workers),
                queued,
            });
        }
        let id = inner.jobs.len();
        // Journaled under the lock that assigned the id: replay requires
        // `job` records in dense id order, so two racing submissions must
        // not interleave their appends. The record is durable before the id
        // is revealed to the client; a worker may start meanwhile, and its
        // own records land after this one.
        let job = Job::new(spec, model_name);
        let lsn = self.journal(&job.job_record(id));
        inner.jobs.push(job);
        inner.queue.push_back(id);
        drop(inner);
        self.work.notify_one();
        self.commit(lsn);
        self.maybe_compact();
        Ok(id)
    }

    /// How many waiting jobs arrived before `id` (0 = next up). `None` once
    /// the job is no longer waiting.
    pub fn queue_position(&self, id: usize) -> Option<usize> {
        self.lock().queue.iter().position(|&queued| queued == id)
    }

    /// The live event stream of a job, if the id exists. A finished job
    /// that kept no log gets a closed one holding its terminal frame.
    pub fn job_events(&self, id: usize) -> Option<Arc<EventLog>> {
        let inner = self.lock();
        let job = inner.jobs.get(id)?;
        Some(job.events.clone().unwrap_or_else(|| {
            let log = EventLog::new();
            log.push(terminal_frame(&job.status));
            log.close();
            Arc::new(log)
        }))
    }

    /// Queue and latency counters for `/healthz`.
    pub fn gate_stats(&self) -> GateStats {
        let inner = self.lock();
        GateStats {
            depth: self.queue_depth,
            queued: inner.queue.len(),
            avg_run: inner.recent.average(),
            samples: inner.recent.len(),
        }
    }

    /// The externally visible state of one job. Counts as a result-store
    /// access only through [`fetch_result`](Self::fetch_result).
    pub fn job(&self, id: usize) -> Option<JobView> {
        self.lock().jobs.get(id).map(|job| job.view(id))
    }

    /// All jobs, in submission order.
    pub fn jobs(&self) -> Vec<JobView> {
        self.lock()
            .jobs
            .iter()
            .enumerate()
            .map(|(id, job)| job.view(id))
            .collect()
    }

    /// Ids of jobs whose result document has been evicted.
    pub fn evicted_jobs(&self) -> Vec<usize> {
        self.lock()
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| job.evicted)
            .map(|(id, _)| id)
            .collect()
    }

    /// Fetches a `Done` job's result document and refreshes its LRU
    /// position. `None` for unknown ids; for known jobs without a servable
    /// document the view tells why (still running, failed, cancelled,
    /// timed out, or evicted).
    pub fn fetch_result(&self, id: usize) -> Option<(JobView, Option<Arc<TaskResult>>)> {
        let mut inner = self.lock();
        let job = inner.jobs.get(id)?;
        let view = job.view(id);
        let servable = matches!(job.status, JobStatus::Done { .. }) && !job.evicted;
        let result = servable.then(|| job.result.clone()).flatten();
        if result.is_some() {
            inner.access.retain(|&j| j != id);
            inner.access.push(id);
        }
        Some((view, result))
    }

    /// Cancels a job: a queued job never starts, a running job's cancel
    /// token fires so its run stops at the next batch boundary (or, if the
    /// job is attached to a shared run, detaches from it). Returns the
    /// status after the cancellation request, or `None` for unknown ids.
    pub fn cancel(&self, id: usize) -> Option<JobStatus> {
        let mut inner = self.lock();
        let job = inner.jobs.get_mut(id)?;
        let mut lsn = Lsn::default();
        match job.status {
            JobStatus::Queued => {
                job.end(JobStatus::Cancelled);
                inner.queue.retain(|&queued| queued != id);
                // A queued job's cancellation is its terminal record (a
                // running one's is written by the worker when the run
                // returns).
                lsn = self.journal(&Record::Status {
                    id,
                    status: JobStatus::Cancelled,
                });
            }
            JobStatus::Running => {
                // The worker observes the fired token when the run returns
                // and records the terminal `Cancelled` state.
                job.cancel.cancel();
            }
            _ => {}
        }
        let status = inner.jobs[id].status.clone();
        drop(inner);
        self.commit(lsn);
        Some(status)
    }

    /// Asks the worker pool (and the accept loop, woken by a watcher of
    /// [`wait_shutdown`](Self::wait_shutdown)) to stop. Running jobs finish
    /// (or observe their cancel token); queued jobs are cancelled.
    pub fn shutdown(&self) {
        let mut inner = self.lock();
        inner.shutdown = true;
        let mut lsn = Lsn::default();
        for id in std::mem::take(&mut inner.queue) {
            let job = &mut inner.jobs[id];
            if job.status == JobStatus::Queued {
                job.end(JobStatus::Cancelled);
                lsn = self.journal(&Record::Status {
                    id,
                    status: JobStatus::Cancelled,
                });
            }
        }
        drop(inner);
        self.commit(lsn);
        self.work.notify_all();
        self.stopped.notify_all();
    }

    /// Returns `true` once [`shutdown`](Self::shutdown) has been called.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Blocks until [`shutdown`](Self::shutdown) has been called or
    /// `timeout` has passed; returns whether it has been called.
    pub fn wait_shutdown(&self, timeout: Duration) -> bool {
        let inner = self.lock();
        let (inner, _) = self
            .stopped
            .wait_timeout_while(inner, timeout, |inner| !inner.shutdown)
            .expect("server state poisoned");
        inner.shutdown
    }

    /// Counts of (queued, running) jobs.
    pub fn load(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.queue.len(), inner.running)
    }

    /// Drops one job's result from memory — and, on a durable server, from
    /// disk: the stored file goes too (unless another live `done` job
    /// shares it) and an `evict` record makes the eviction survive a
    /// restart, so the job answers 410 afterwards instead of resurrecting.
    /// The job's progress log goes too: from now on its `/events` stream is
    /// the terminal frame alone, as a recovered job's is (a connection
    /// already streaming reads the old log to its end).
    fn evict_one(&self, inner: &mut Inner, id: usize) {
        let job = &mut inner.jobs[id];
        job.result = None;
        job.evicted = true;
        job.events = None;
        let was_done = matches!(job.status, JobStatus::Done { .. });
        inner.access.retain(|&j| j != id);
        if !was_done {
            // Partial documents of failed / cancelled / timed-out jobs are
            // memory-only: nothing on disk, nothing to journal.
            return;
        }
        if let Some(store) = &self.persist {
            let fingerprint = inner.jobs[id].spec.key().fingerprint();
            // A job is `done` and unevicted exactly when it holds a result
            // in `access`, so the result store is all there is to scan.
            let shared = inner.access.iter().any(|&other| {
                matches!(&inner.jobs[other].status, JobStatus::Done { result } if *result == fingerprint)
            });
            if !shared {
                store.remove_result(&fingerprint);
            }
            // Not waited for: a restart that misses this record finds the
            // file gone and marks the job evicted all the same.
            self.journal(&Record::Evict { id });
        }
    }

    /// Records a finished run (status, result, duration for the
    /// `Retry-After` estimator), seals the event stream, and enforces the
    /// LRU cap.
    fn finish(
        &self,
        id: usize,
        status: JobStatus,
        result: Option<Arc<TaskResult>>,
        elapsed: Duration,
    ) {
        let mut inner = self.lock();
        inner.recent.record(elapsed);
        inner.running -= 1;
        let job = &mut inner.jobs[id];
        job.result = result;
        job.end(status);
        // Every stored result — including the partial documents of failed,
        // cancelled and timed-out jobs — enters the store, so the LRU cap
        // bounds *all* retained documents, not just those of `done` jobs.
        if job.result.is_some() {
            inner.access.push(id);
            while inner.access.len() > self.keep_results {
                let oldest = inner.access[0];
                self.evict_one(&mut inner, oldest);
            }
        }
    }

    /// One worker's loop: claim jobs off the queue until shutdown. Run by
    /// every thread of the pool. Identical (model, options) submissions
    /// resolve to the same [`TaskKey`], so a worker claiming a duplicate of
    /// an in-flight job attaches to that run instead of starting another.
    pub fn worker_loop(&self) {
        loop {
            let (id, spec, cancel, events) = {
                let mut inner = self.lock();
                loop {
                    if inner.shutdown {
                        return;
                    }
                    // Skip ids whose job was cancelled while queued.
                    match inner.queue.pop_front() {
                        Some(id) if inner.jobs[id].status == JobStatus::Queued => {
                            inner.running += 1;
                            let job = &mut inner.jobs[id];
                            job.status = JobStatus::Running;
                            let events = job.events.clone().expect("a queued job has a log");
                            break (id, job.spec.clone(), job.cancel.clone(), events);
                        }
                        Some(_) => continue,
                        None => inner = self.work.wait(inner).expect("server state poisoned"),
                    }
                }
            };
            // A `run` record turns "queued at the crash" into "running at
            // the crash" — recovery re-enqueues both, but operators see
            // which jobs actually lost work. Not waited for: the terminal
            // record's commit covers it.
            self.journal(&Record::Status {
                id,
                status: JobStatus::Running,
            });
            events.push("{\"type\":\"running\"}".to_owned());
            let started = Instant::now();

            let event_sink = Arc::clone(&events);
            // The driver emits progress from its one sequential loop, so the
            // streamed sequence is deterministic.
            let progress = ProgressSink::new(move |event: &ProgressEvent| {
                event_sink.push(render_progress(event));
            });
            // The session isolates panics and deduplicates: this either
            // executes the run or attaches to an identical in-flight one.
            let completion = self.session.run_task(
                &spec,
                RunControl {
                    cancel: cancel.clone(),
                    progress,
                },
            );

            let (status, result) = match completion {
                // Attached to a shared run and cancelled out of it.
                Completion::Detached => (JobStatus::Cancelled, None),
                Completion::Finished(result) => {
                    let status = match &result.outcome {
                        // The job's own token fires only on a cancel
                        // request, which wins any race with completion: an
                        // interrupted run returns a *partial* document that
                        // must not be served as the job's result. Whatever
                        // output exists stays fetchable through the /text
                        // endpoint.
                        _ if cancel.is_cancelled() => JobStatus::Cancelled,
                        Ok(Outcome::TimedOut(_)) => JobStatus::TimedOut,
                        Ok(Outcome::BudgetExceeded(exceeded)) => JobStatus::BudgetExceeded {
                            resource: exceeded.breach.resource.name().to_owned(),
                            used: exceeded.breach.used,
                            limit: exceeded.breach.limit,
                        },
                        // A shared run another job cancelled: duplicates
                        // share its fate.
                        Ok(outcome) if outcome.was_cancelled() => JobStatus::Cancelled,
                        Ok(_) => JobStatus::Done {
                            result: spec.key().fingerprint(),
                        },
                        // Same sharing for cancellations that surface as
                        // errors (e.g. a cancelled `reach` expansion).
                        Err(transyt_session::SessionError::Cancelled) => JobStatus::Cancelled,
                        Err(error) => JobStatus::Failed {
                            error: error.to_string(),
                        },
                    };
                    (status, Some(result))
                }
            };
            if let Some(store) = &self.persist {
                if let (JobStatus::Done { .. }, Some(result)) = (&status, &result) {
                    // The document is on disk before its `done` line is
                    // journaled (a duplicate whose key already has a file
                    // keeps that file).
                    if let Err(e) =
                        store.save_result_if_absent(&spec.key(), &result.text, &result.document)
                    {
                        eprintln!("transyt-server: persisting result of job {id}: {e}");
                    }
                }
                let lsn = self.journal(&Record::Status {
                    id,
                    status: status.clone(),
                });
                self.commit(lsn);
            }
            self.finish(id, status, result, started.elapsed());
            self.maybe_compact();
        }
    }
}

/// Re-exported so the binary and the tests share one hash implementation.
pub use transyt_session::content_hash;

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal verifiable model (the engine's race example).
    const RACE: &str = "tts race\n\
        state s0 s0\n\
        state s1 bad\n\
        state s2 ok\n\
        state s3 done\n\
        initial s0\n\
        violation s1 \"slow overtook fast\"\n\
        trans s0 fast s2\n\
        trans s0 slow s1\n\
        trans s2 slow s3\n\
        trans s1 fast s3\n\
        delay fast [1,2]\n\
        delay slow [5,9]\n\
        property forbid-marked\n";

    /// A result cap no test reaches.
    const KEEP_ALL: usize = 256;

    /// A one-worker config keeping at most `keep_results` documents.
    fn config(keep_results: usize) -> ServerConfig {
        ServerConfig {
            workers: 1,
            keep_results,
            ..ServerConfig::default()
        }
    }

    fn state_with(keep_results: usize) -> ServerState {
        ServerState::new(Arc::new(Session::new()), &config(keep_results))
    }

    /// A `verify` spec whose key differs for every `n`: a far-off deadline
    /// that never fires splits the keys without changing the document.
    fn keyed(hash: &str, n: u64) -> TaskSpec {
        TaskSpec::verify(hash).deadline(Duration::from_secs(3600 + n))
    }

    fn drain(state: &ServerState) {
        std::thread::scope(|scope| {
            scope.spawn(|| state.worker_loop());
            let done = |state: &ServerState| state.jobs().iter().all(|j| j.status.is_terminal());
            while !done(state) {
                std::thread::yield_now();
            }
            state.shutdown();
        });
    }

    #[test]
    fn content_hash_is_stable_and_distinguishes() {
        assert_eq!(content_hash(""), "cbf29ce484222325");
        assert_ne!(content_hash("a"), content_hash("b"));
        assert_eq!(content_hash("model"), content_hash("model"));
    }

    #[test]
    fn upload_deduplicates_by_content() {
        let state = state_with(KEEP_ALL);
        let (first, cached) = state.upload_model(RACE).unwrap();
        assert!(!cached);
        let (second, cached) = state.upload_model(RACE).unwrap();
        assert!(cached);
        assert_eq!(first.hash, second.hash);
        assert_eq!(state.models().len(), 1);
        assert!(state.upload_model("not a model").is_err());
        assert!(state.model(&first.hash).is_some());
        assert!(state.model("bogus").is_none());
    }

    #[test]
    fn jobs_flow_queued_running_done_and_duplicates_share_a_run() {
        let state = state_with(KEEP_ALL);
        let (model, _) = state.upload_model(RACE).unwrap();
        assert!(state.submit(TaskSpec::verify("missing")).is_err());
        let id = state.submit(TaskSpec::verify(&model.hash)).unwrap();
        assert_eq!(state.job(id).unwrap().status, JobStatus::Queued);
        let twin = state.submit(TaskSpec::verify(&model.hash)).unwrap();
        let cancelled = state.submit(keyed(&model.hash, 2)).unwrap();
        state.cancel(cancelled);
        drain(&state);

        let done = state.job(id).unwrap();
        assert_eq!(done.status.word(), "done");
        let twin_view = state.job(twin).unwrap();
        assert_eq!(twin_view.status.word(), "done");
        // The duplicate shares the very same result allocation.
        assert!(Arc::ptr_eq(
            done.result.as_ref().unwrap(),
            twin_view.result.as_ref().unwrap()
        ));
        let stats = state.session().stats();
        assert_eq!(stats.runs_executed, 1, "{stats:?}");
        assert_eq!(stats.runs_attached + stats.memo_hits, 1, "{stats:?}");
        assert!(done
            .result
            .unwrap()
            .document
            .contains("\"verdict\":\"verified\""));
        // The job cancelled while queued never ran.
        assert_eq!(state.job(cancelled).unwrap().status, JobStatus::Cancelled);
        assert!(state.job(cancelled).unwrap().result.is_none());
    }

    #[test]
    fn shutdown_cancels_queued_jobs_and_stops_workers() {
        let state = state_with(KEEP_ALL);
        let (model, _) = state.upload_model(RACE).unwrap();
        let id = state.submit(TaskSpec::verify(&model.hash)).unwrap();
        state.shutdown();
        assert!(state.is_shutdown());
        assert_eq!(state.job(id).unwrap().status, JobStatus::Cancelled);
        // Submissions after shutdown are refused.
        assert!(state.submit(TaskSpec::verify(&model.hash)).is_err());
        // A worker started after shutdown returns immediately.
        state.worker_loop();
    }

    #[test]
    fn lru_cap_evicts_the_oldest_result() {
        let state = state_with(2);
        let (model, _) = state.upload_model(RACE).unwrap();
        // Three distinct jobs (different deadlines → different keys),
        // drained by a single worker so they complete in submission order.
        let a = state.submit(keyed(&model.hash, 1)).unwrap();
        let b = state.submit(keyed(&model.hash, 2)).unwrap();
        let c = state.submit(keyed(&model.hash, 3)).unwrap();
        // A subscriber that attached before the eviction.
        let streaming = state.job_events(a).unwrap();
        drain(&state);
        // Cap 2, three results stored in completion order: the oldest was
        // evicted when the third arrived.
        assert_eq!(state.evicted_jobs(), vec![a]);
        let (view, result) = state.fetch_result(a).unwrap();
        assert!(view.evicted);
        assert!(result.is_none());
        assert_eq!(state.job(a).unwrap().status.word(), "done");
        // The other two still serve.
        assert!(state.fetch_result(b).unwrap().1.is_some());
        assert!(state.fetch_result(c).unwrap().1.is_some());

        // The evicted job's progress log went with its result: it now
        // streams its terminal frame alone. The early subscriber still
        // reads the whole old log, which the retained jobs' logs match.
        let lines = |log: &EventLog| {
            let (lines, closed) = log.wait(0, Duration::from_millis(1));
            assert!(closed);
            lines
        };
        assert_eq!(
            lines(&state.job_events(a).unwrap()),
            vec!["{\"type\":\"terminal\",\"status\":\"done\"}"]
        );
        let full = lines(&streaming);
        assert_eq!(full.first().unwrap(), "{\"type\":\"running\"}");
        assert_eq!(
            full.last().unwrap(),
            "{\"type\":\"terminal\",\"status\":\"done\"}"
        );
        assert!(full.len() > 2, "{full:?}");
        for retained in [b, c] {
            assert_eq!(lines(&state.job_events(retained).unwrap()), full);
        }
    }

    /// Unique scratch data dir per test.
    fn test_data_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "transyt-server-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_state(dir: &std::path::Path, keep_results: usize) -> ServerState {
        let (persist, recovery) = Store::open(dir, false).unwrap();
        ServerState::recovered(
            Arc::new(Session::new()),
            &config(keep_results),
            Arc::new(persist),
            &recovery,
        )
    }

    #[test]
    fn durable_state_recovers_completed_and_interrupted_jobs() {
        let dir = test_data_dir("recover");

        // Run one job to completion, then "crash" (drop without cleanup).
        let state = durable_state(&dir, KEEP_ALL);
        let (model, _) = state.upload_model(RACE).unwrap();
        let done = state
            .submit(TaskSpec::verify(&model.hash).with_trace(true))
            .unwrap();
        drain(&state);
        let first_doc = state.job(done).unwrap().result.unwrap().document.clone();
        assert!(!state.job(done).unwrap().recovered);
        drop(state);

        // Restart: enqueue two more jobs and die with them still queued
        // (no worker ran, no shutdown — the SIGKILL shape of the journal).
        let state = durable_state(&dir, KEEP_ALL);
        let recovered_done = state.job(done).unwrap();
        assert_eq!(recovered_done.status.word(), "done");
        assert!(recovered_done.recovered);
        assert_eq!(recovered_done.result.unwrap().document, first_doc);
        let queued_a = state.submit(keyed(&model.hash, 2)).unwrap();
        let queued_b = state.submit(keyed(&model.hash, 3)).unwrap();
        drop(state);

        // Second restart: the interrupted jobs are re-enqueued and re-run
        // to byte-identical documents; the completed one still serves the
        // original bytes; a duplicate of it is answered from the store
        // with zero new runs.
        let state = durable_state(&dir, KEEP_ALL);
        assert_eq!(state.job(queued_a).unwrap().status, JobStatus::Queued);
        assert!(state.job(queued_b).unwrap().recovered);
        drain(&state);
        let reference = Session::new();
        reference.add_model(RACE).unwrap();
        for (id, n) in [(queued_a, 2), (queued_b, 3)] {
            let view = state.job(id).unwrap();
            assert_eq!(view.status.word(), "done");
            let fresh = reference.run(&keyed(&model.hash, n)).unwrap();
            assert_eq!(
                view.result.unwrap().document,
                transyt_session::render::render_document(&transyt_session::render::document(
                    &fresh
                ))
            );
        }
        drop(state);

        // Final restart: a duplicate of the long-completed job is answered
        // from the on-disk store — zero runs executed in this process.
        let state = durable_state(&dir, KEEP_ALL);
        let runs_before = state.session().stats().runs_executed;
        assert_eq!(runs_before, 0);
        let duplicate = state
            .submit(TaskSpec::verify(&model.hash).with_trace(true))
            .unwrap();
        // A single worker pass serves the duplicate from the store.
        std::thread::scope(|scope| {
            scope.spawn(|| state.worker_loop());
            while !state.job(duplicate).unwrap().status.is_terminal() {
                std::thread::yield_now();
            }
            state.shutdown();
        });
        let view = state.job(duplicate).unwrap();
        assert_eq!(view.status.word(), "done");
        assert_eq!(view.result.unwrap().document, first_doc);
        let stats = state.session().stats();
        assert_eq!(stats.runs_executed, runs_before, "{stats:?}");
        assert_eq!(stats.store_hits, 1, "{stats:?}");
        assert!(state.persistence().unwrap().journal.entries > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_evictions_survive_restart() {
        let dir = test_data_dir("evict");
        let state = durable_state(&dir, 1);
        let (model, _) = state.upload_model(RACE).unwrap();
        let a = state.submit(keyed(&model.hash, 1)).unwrap();
        let b = state.submit(keyed(&model.hash, 2)).unwrap();
        drain(&state);
        assert_eq!(state.evicted_jobs(), vec![a]);
        // The evicted job's file is gone from disk too.
        assert_eq!(state.persistence().unwrap().disk.results, 1);
        drop(state);

        let state = durable_state(&dir, 1);
        let evicted = state.job(a).unwrap();
        assert_eq!(evicted.status.word(), "done");
        assert!(evicted.evicted, "eviction must survive the restart");
        assert!(evicted.result.is_none());
        let kept = state.job(b).unwrap();
        assert_eq!(kept.status.word(), "done");
        assert!(kept.result.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two `done` duplicates share one stored file. At a cap of one the
    /// second's result evicts the first, and the file stays: the second
    /// still holds it, and serves it again after a restart.
    #[test]
    fn evicting_one_of_two_duplicates_keeps_their_file() {
        let dir = test_data_dir("duplicates");
        let state = durable_state(&dir, 1);
        let (model, _) = state.upload_model(RACE).unwrap();
        let spec = TaskSpec::verify(&model.hash).with_trace(true);
        let first = state.submit(spec.clone()).unwrap();
        let second = state.submit(spec.clone()).unwrap();
        drain(&state);
        assert_eq!(state.evicted_jobs(), vec![first]);
        let file = dir
            .join("results")
            .join(format!("{}.res", spec.key().fingerprint()));
        assert!(file.exists(), "evicting a duplicate took its twin's file");
        let document = state
            .fetch_result(second)
            .unwrap()
            .1
            .unwrap()
            .document
            .clone();
        drop(state);

        let state = durable_state(&dir, 1);
        assert!(state.job(first).unwrap().evicted);
        let (view, result) = state.fetch_result(second).unwrap();
        assert!(!view.evicted);
        assert_eq!(result.unwrap().document, document);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A data dir holding one job in each terminal state, an evicted `done`
    /// job and a queued one, as a previous server journaled them. A restart
    /// restores each job's status with its payload, its error and its
    /// evicted flag, and runs the queued job; a second restart over the
    /// compacted journal gives the same table.
    #[test]
    fn every_lifecycle_state_survives_restarts() {
        let dir = test_data_dir("lifecycle");
        let (model, _) = Session::new().add_model(RACE).unwrap();
        let hash = &model.hash;
        let specs = [
            TaskSpec::verify(hash).with_trace(true),
            keyed(hash, 1),
            keyed(hash, 2),
            TaskSpec::zones(hash).deadline(Duration::from_millis(1)),
            TaskSpec::zones(hash).max_configs(50),
            keyed(hash, 5),
            keyed(hash, 6),
        ];
        let done = |spec: &TaskSpec| JobStatus::Done {
            result: spec.key().fingerprint(),
        };
        let error = "model error: no `property` line & 100% spaces";
        let journaled = [
            done(&specs[0]),
            JobStatus::Failed {
                error: error.to_owned(),
            },
            JobStatus::Cancelled,
            JobStatus::TimedOut,
            JobStatus::BudgetExceeded {
                resource: "configs".to_owned(),
                used: 51,
                limit: 50,
            },
            done(&specs[5]),
            JobStatus::Queued,
        ];
        let (persist, _) = Store::open(&dir, false).unwrap();
        persist.save_model_text(hash, RACE).unwrap();
        let stored = "{\"stored\":true}\n";
        persist
            .save_result_if_absent(&specs[0].key(), "stored text\n", stored)
            .unwrap();
        for (id, (spec, status)) in specs.iter().zip(&journaled).enumerate() {
            persist
                .append(&Job::new(spec.clone(), Arc::from("")).job_record(id))
                .unwrap();
            if status.is_terminal() {
                for status in [JobStatus::Running, status.clone()] {
                    persist.append(&Record::Status { id, status }).unwrap();
                }
            }
        }
        // Job 5's result was evicted, file and all.
        persist.append(&Record::Evict { id: 5 }).unwrap();
        drop(persist);

        let table = |state: &ServerState| -> Vec<(JobStatus, Option<String>, bool)> {
            state
                .jobs()
                .into_iter()
                .map(|job| (job.status, job.error, job.evicted))
                .collect()
        };
        let state = durable_state(&dir, KEEP_ALL);
        let expected: Vec<(JobStatus, Option<String>, bool)> = journaled
            .iter()
            .enumerate()
            .map(|(id, status)| (status.clone(), (id == 1).then(|| error.to_owned()), id == 5))
            .collect();
        assert_eq!(table(&state), expected);
        assert!(state.jobs().iter().all(|job| job.recovered));
        assert_eq!(state.fetch_result(0).unwrap().1.unwrap().document, stored);
        assert!(state.fetch_result(5).unwrap().1.is_none());
        for (id, status) in journaled[..6].iter().enumerate() {
            let (lines, closed) = state
                .job_events(id)
                .unwrap()
                .wait(0, Duration::from_millis(1));
            assert!(closed);
            assert_eq!(
                lines,
                vec![format!("{{\"type\":\"terminal\",\"status\":\"{status}\"}}")]
            );
        }
        assert_eq!(state.queue_position(6), Some(0));
        drain(&state);
        let mut expected = expected;
        expected[6].0 = done(&specs[6]);
        assert_eq!(table(&state), expected);
        drop(state);

        let state = durable_state(&dir, KEEP_ALL);
        assert_eq!(table(&state), expected);
        assert_eq!(state.fetch_result(0).unwrap().1.unwrap().document, stored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The startup GC is the only collection of a data dir: a restart with
    /// a lower cap evicts recovered results in job-id order, sweeps result
    /// files no job references, and compacts the journal so that the next
    /// restart replays the same state.
    #[test]
    fn startup_gc_caps_recovered_results_and_sweeps_orphans() {
        let dir = test_data_dir("startup-gc");
        let state = durable_state(&dir, KEEP_ALL);
        let (model, _) = state.upload_model(RACE).unwrap();
        let ids: Vec<usize> = (1..=3)
            .map(|n| state.submit(keyed(&model.hash, n)).unwrap())
            .collect();
        drain(&state);
        assert_eq!(state.persistence().unwrap().disk.results, 3);
        drop(state);

        let result_file = |key: &TaskKey| {
            dir.join("results")
                .join(format!("{}.res", key.fingerprint()))
        };
        let files: Vec<std::path::PathBuf> = (1..=3)
            .map(|n| result_file(&keyed(&model.hash, n).key()))
            .collect();
        // The lowest id's file is the most recently written on disk, so a
        // cap applied by file age would evict job 1 instead.
        std::fs::File::options()
            .write(true)
            .open(&files[0])
            .unwrap()
            .set_modified(std::time::SystemTime::now() + Duration::from_secs(3600))
            .unwrap();
        // A result file no job references.
        let orphan = TaskSpec::zones(&model.hash).key();
        let (persist, _) = Store::open(&dir, false).unwrap();
        persist
            .save_result_if_absent(&orphan, "o\n", "{}\n")
            .unwrap();
        drop(persist);
        assert!(result_file(&orphan).exists());

        for restart in 0..2 {
            let state = durable_state(&dir, 2);
            let evicted = state.job(ids[0]).unwrap();
            assert_eq!(evicted.status.word(), "done", "restart {restart}");
            assert!(evicted.evicted, "restart {restart}");
            assert!(state.fetch_result(ids[0]).unwrap().1.is_none());
            assert!(!files[0].exists(), "restart {restart}");
            for &id in &ids[1..] {
                assert!(
                    state.fetch_result(id).unwrap().1.is_some(),
                    "restart {restart}"
                );
                assert!(files[id].exists(), "restart {restart}");
            }
            assert!(!result_file(&orphan).exists(), "restart {restart}");
            assert_eq!(state.evicted_jobs(), vec![ids[0]], "restart {restart}");
            assert_eq!(state.persistence().unwrap().disk.results, 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Zones jobs journaled before the zone-abstraction knobs collapsed
    /// into `exact` carry `subsumption`, `extrapolation` and `bounds`
    /// params, which `TaskSpec::parse` now refuses. Replay keeps such a job
    /// visible but terminal, ids stay dense, and service goes on.
    ///
    /// Every job journaled before the thread-count knob was retired carries
    /// `threads=1`: replay drops it, so a queued job re-runs, and a done
    /// job, whose result file sits under the old key form, reads as evicted
    /// while the startup sweep deletes that file.
    #[test]
    fn journaled_spec_with_retired_params_recovers_as_failed() {
        let dir = test_data_dir("retired");
        let (model, _) = Session::new().add_model(RACE).unwrap();
        let (persist, _) = Store::open(&dir, false).unwrap();
        persist.save_model_text(&model.hash, RACE).unwrap();
        persist
            .append(&Record::Model {
                hash: model.hash.clone(),
            })
            .unwrap();
        let pair = |name: &str, value: &str| (name.to_owned(), value.to_owned());
        let journaled = [
            ("zones", vec![pair("threads", "1"), pair("bounds", "local")]),
            ("verify", vec![pair("threads", "1")]),
            ("verify", vec![pair("threads", "1"), pair("trace", "true")]),
        ];
        for (id, (command, params)) in journaled.into_iter().enumerate() {
            persist
                .append(&Record::Job {
                    id,
                    command: command.to_owned(),
                    model: model.hash.clone(),
                    params,
                })
                .unwrap();
        }
        // Job 2 finished before the upgrade: its result file is addressed by
        // the old key form, which spelled out `threads=1`.
        let key = TaskSpec::verify(&model.hash).with_trace(true).key();
        let old_key = key.canonical().replacen(" exact=", " threads=1 exact=", 1);
        let old_result = content_hash(&old_key);
        let old_file = dir.join("results").join(format!("{old_result}.res"));
        std::fs::write(
            &old_file,
            format!("transyt-result v1\nkey {old_key}\ntext 0\ndocument 0\n\n"),
        )
        .unwrap();
        persist
            .append(&Record::Status {
                id: 2,
                status: JobStatus::Done { result: old_result },
            })
            .unwrap();
        drop(persist);

        let state = durable_state(&dir, KEEP_ALL);
        let done = state.job(2).unwrap();
        assert_eq!(done.status.word(), "done");
        assert!(done.evicted, "an old-form result reads as evicted");
        assert!(!old_file.exists(), "the startup sweep removes the old file");
        let retired = state.job(0).unwrap();
        assert_eq!(retired.status.word(), "failed");
        let error = retired.error.unwrap();
        assert!(
            error.starts_with("unrecoverable journaled spec: `zones` does not accept `bounds`"),
            "{error}"
        );
        // The job after it replays normally, and a new submission takes the
        // next dense id.
        assert_eq!(state.job(1).unwrap().status, JobStatus::Queued);
        let next = state.submit(TaskSpec::zones(&model.hash)).unwrap();
        assert_eq!(next, 3);
        drain(&state);
        assert_eq!(state.job(1).unwrap().status.word(), "done");
        assert_eq!(state.job(next).unwrap().status.word(), "done");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every `job` line journaled while scheduling classes existed ends in a
    /// class token. Replay ignores it: queued jobs re-run in id order
    /// whatever their old class, and since the class was never part of the
    /// task key, a done job still serves its stored document.
    #[test]
    fn journaled_prio_tokens_replay_in_id_order() {
        let dir = test_data_dir("prio");
        let (model, _) = Session::new().add_model(RACE).unwrap();
        let (persist, _) = Store::open(&dir, false).unwrap();
        persist.save_model_text(&model.hash, RACE).unwrap();
        persist
            .append(&Record::Model {
                hash: model.hash.clone(),
            })
            .unwrap();
        let key = TaskSpec::verify(&model.hash).with_trace(true).key();
        let stored = "{\"stored\":true}\n";
        let result = persist
            .save_result_if_absent(&key, "stored text\n", stored)
            .unwrap();
        drop(persist);
        let hash = &model.hash;
        let lines: String = [
            format!("v1 job 0 verify {hash} trace=true batch"),
            format!("v1 done 0 {result}"),
            format!("v1 job 1 verify {hash} timeout=3601 background"),
            format!("v1 job 2 verify {hash} timeout=3602 interactive"),
        ]
        .iter()
        .map(|body| format!("{body} {}\n", content_hash(body)))
        .collect();
        let journal = dir.join(transyt_store::JOURNAL_FILE);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        std::io::Write::write_all(&mut file, lines.as_bytes()).unwrap();
        drop(file);

        let state = durable_state(&dir, KEEP_ALL);
        assert!(state.jobs().iter().all(|job| job.status.word() != "failed"));
        let (done, document) = state.fetch_result(0).unwrap();
        assert_eq!(done.status.word(), "done");
        assert!(!done.evicted);
        assert_eq!(document.unwrap().document, stored);
        // The background job arrived first, so it leaves the queue first.
        assert_eq!(state.queue_position(1), Some(0));
        assert_eq!(state.queue_position(2), Some(1));
        // The startup compaction rewrote every `job` line without the token.
        let compacted = std::fs::read_to_string(&journal).unwrap();
        let job_lines: Vec<&str> = compacted
            .lines()
            .filter(|line| line.starts_with("v1 job "))
            .collect();
        assert_eq!(job_lines.len(), 3, "{compacted}");
        for line in job_lines {
            assert_eq!(line.split(' ').count(), 7, "{line}");
        }
        drain(&state);
        for id in [1, 2] {
            assert_eq!(state.job(id).unwrap().status.word(), "done");
        }
        let replayed = std::fs::read_to_string(&journal).unwrap();
        let claimed = |id: usize| replayed.find(&format!("v1 run {id} ")).unwrap();
        assert!(claimed(1) < claimed(2), "{replayed}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_marks_jobs_timed_out() {
        let state = state_with(KEEP_ALL);
        // The 2-stage pipeline zone graph runs far beyond 1ms.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../models/ipcmos_2stage.stg"
        ))
        .unwrap();
        let (model, _) = state.upload_model(&text).unwrap();
        let spec = TaskSpec::zones(&model.hash)
            .limit(100_000_000)
            .deadline(Duration::from_millis(1));
        let id = state.submit(spec).unwrap();
        drain(&state);
        let view = state.job(id).unwrap();
        assert_eq!(view.status, JobStatus::TimedOut);
        assert!(matches!(
            view.result.as_ref().unwrap().outcome,
            Ok(Outcome::TimedOut(_))
        ));
        // Timed-out jobs serve no /result document.
        assert!(state.fetch_result(id).unwrap().1.is_none());
    }

    #[test]
    fn admission_gate_refuses_beyond_depth_with_retry_after() {
        let state = ServerState::new(
            Arc::new(Session::new()),
            &ServerConfig {
                queue_depth: 2,
                ..config(KEEP_ALL)
            },
        );
        let (model, _) = state.upload_model(RACE).unwrap();
        // No worker is draining, so both admitted jobs stay queued.
        let first = state.submit(keyed(&model.hash, 1)).unwrap();
        state.submit(keyed(&model.hash, 2)).unwrap();
        match state.submit(keyed(&model.hash, 3)) {
            Err(SubmitError::Busy {
                retry_after,
                queued,
            }) => {
                assert_eq!(queued, 2);
                assert!(retry_after >= Duration::from_secs(1));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // The refused submission left no trace in the job table.
        assert_eq!(state.jobs().len(), 2);
        // Cancelling a queued job frees its slot.
        assert_eq!(state.cancel(first), Some(JobStatus::Cancelled));
        let admitted = state.submit(keyed(&model.hash, 3)).unwrap();
        assert_eq!(state.queue_position(admitted), Some(1));
        assert!(matches!(
            state.submit(keyed(&model.hash, 4)),
            Err(SubmitError::Busy { queued: 2, .. })
        ));
        state.shutdown();
    }

    #[test]
    fn queue_positions_follow_arrival_order() {
        let state = state_with(KEEP_ALL);
        let (model, _) = state.upload_model(RACE).unwrap();
        let ids: Vec<usize> = (1..=4)
            .map(|n| state.submit(keyed(&model.hash, n)).unwrap())
            .collect();
        for (at, &id) in ids.iter().enumerate() {
            assert_eq!(state.queue_position(id), Some(at));
        }
        assert_eq!(state.queue_position(99), None);
        // Cancelling the head moves every other job up by one.
        state.cancel(ids[0]);
        assert_eq!(state.queue_position(ids[0]), None);
        for (at, &id) in ids[1..].iter().enumerate() {
            assert_eq!(state.queue_position(id), Some(at));
        }
        drain(&state);
        for &id in &ids[1..] {
            assert_eq!(state.queue_position(id), None);
            assert_eq!(state.job(id).unwrap().status.word(), "done");
        }
    }

    #[test]
    fn retry_after_scales_with_backlog_and_floors_at_one_second() {
        let mut ring = LatencyRing::new(4);
        assert_eq!(ring.average(), None);
        // No samples: the 1s default average still produces an estimate.
        assert_eq!(retry_after(&ring, 0, 0, 2), Duration::from_secs(1));
        for millis in [2_000, 4_000] {
            ring.record(Duration::from_millis(millis));
        }
        assert_eq!(ring.average(), Some(Duration::from_secs(3)));
        // avg 3s × backlog 4 / 2 workers = 6s.
        assert_eq!(retry_after(&ring, 3, 1, 2), Duration::from_secs(6));
        // Fractional estimates round up.
        assert_eq!(retry_after(&ring, 1, 0, 2), Duration::from_secs(2));
        // The floor holds even for tiny jobs.
        let mut fast = LatencyRing::new(4);
        fast.record(Duration::from_millis(1));
        assert_eq!(retry_after(&fast, 1, 0, 8), Duration::from_secs(1));
    }

    #[test]
    fn ring_keeps_only_the_most_recent_samples() {
        let mut ring = LatencyRing::new(2);
        ring.record(Duration::from_secs(100));
        ring.record(Duration::from_secs(2));
        ring.record(Duration::from_secs(4));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.average(), Some(Duration::from_secs(3)));
    }

    #[test]
    fn budget_breach_is_terminal_and_streams_its_lifecycle() {
        let state = state_with(KEEP_ALL);
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../models/ipcmos_2stage.stg"
        ))
        .unwrap();
        let (model, _) = state.upload_model(&text).unwrap();
        let spec = TaskSpec::zones(&model.hash)
            .limit(100_000_000)
            .max_configs(50);
        let id = state.submit(spec).unwrap();
        drain(&state);
        let view = state.job(id).unwrap();
        let JobStatus::BudgetExceeded {
            resource,
            used,
            limit,
        } = view.status
        else {
            panic!("expected a budget breach, got {:?}", view.status);
        };
        assert_eq!(resource, "configs");
        assert_eq!(limit, 50);
        assert!(used >= limit, "breach reports usage at the check: {used}");
        // No /result document — only status plus the breach triple.
        assert!(state.fetch_result(id).unwrap().1.is_none());
        // The event stream is complete: claim marker first, terminal last.
        let log = state.job_events(id).unwrap();
        let (lines, done) = log.wait(0, Duration::from_millis(1));
        assert!(done);
        assert_eq!(lines.first().unwrap(), "{\"type\":\"running\"}");
        assert_eq!(
            lines.last().unwrap(),
            "{\"type\":\"terminal\",\"status\":\"budget_exceeded\"}"
        );
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"batch\"")));
    }

    #[test]
    fn partial_results_are_never_persisted() {
        let dir = test_data_dir("partial");
        let state = durable_state(&dir, KEEP_ALL);
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../models/ipcmos_2stage.stg"
        ))
        .unwrap();
        let (model, _) = state.upload_model(&text).unwrap();
        let timed_out = state
            .submit(TaskSpec::zones(&model.hash).deadline(Duration::from_nanos(1)))
            .unwrap();
        let over_budget = state
            .submit(TaskSpec::zones(&model.hash).max_configs(50))
            .unwrap();
        drain(&state);
        assert_eq!(state.job(timed_out).unwrap().status, JobStatus::TimedOut);
        assert_eq!(
            state.job(over_budget).unwrap().status.word(),
            "budget_exceeded"
        );
        // Neither a deadline nor a budget breach fires a job's own token
        // (that token fires only on a cancel request): a fired one would
        // have made both statuses above `cancelled`.
        // Partial results leave no file and no `done` line.
        let results = std::fs::read_dir(dir.join("results")).unwrap().count();
        assert_eq!(results, 0);
        let journal = std::fs::read_to_string(dir.join("journal.log")).unwrap();
        assert!(!journal.contains(" done "), "{journal}");
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
