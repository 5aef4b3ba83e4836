//! The [`Session`]: interned models, deduplicated task runs, deadlines and
//! progress fan-out.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use explore::{CancelToken, ProgressEvent, ProgressSink, StopReason};

use crate::format::{Model, ModelError, ModelSource};
use crate::outcome::{BudgetExceededOutcome, Outcome, RestoredOutcome, TimedOutOutcome};
use crate::persist::StoreHook;
use crate::render;
use crate::task::{TaskKey, TaskSpec};

/// Content hash of a model text: 64-bit FNV-1a, printed as 16 hex digits.
/// Not cryptographic — it keys a cache of files the operator controls.
pub fn content_hash(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Parsed models a [`Session`] keeps resident, like its memo of results:
/// the most recently used ones. Every interned text stays; a model that
/// fell out of this cache is parsed again from it when a run needs it.
pub const MODEL_CACHE: usize = 64;

/// A model interned in a [`Session`] with its parsed form, addressed by the
/// FNV-1a hash of its text so re-uploads are free and tasks can name models
/// without re-sending them.
#[derive(Debug, Clone)]
pub struct CachedModel {
    /// Content hash (16 hex digits).
    pub hash: String,
    /// The model's declared name.
    pub name: String,
    /// The model kind: `"stg"` or `"tts"`.
    pub kind: &'static str,
    /// The parsed model, shared by every run against it while it stays in
    /// the session's cache of [`MODEL_CACHE`] parsed models.
    pub model: Arc<Model>,
}

/// What a [`Session`] keeps of every model it interned, without the parsed
/// form: what a listing shows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Content hash (16 hex digits).
    pub hash: String,
    /// The model's declared name, shared by every copy of this listing.
    pub name: Arc<str>,
    /// The model kind: `"stg"` or `"tts"`.
    pub kind: &'static str,
    /// Length of the interned text in bytes.
    pub bytes: usize,
}

/// Why a task could not produce an [`Outcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The model text could not be parsed or instantiated.
    Model(ModelError),
    /// The spec is inconsistent with the model or the command (a usage
    /// error, not a tool failure).
    Spec(String),
    /// The run itself failed (expansion limits, internal errors).
    Run(String),
    /// The run's cancel token fired before it produced any result (the
    /// cancellable explorations return partial *outcomes*; this variant is
    /// for paths — e.g. `reach` expansion — whose cancellation is an
    /// error).
    Cancelled,
    /// The spec names a content hash this session has not interned.
    UnknownModel(String),
    /// The run panicked (the panic is contained; the session stays usable).
    Panicked,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Model(e) => write!(f, "model error: {e}"),
            SessionError::Spec(msg) => write!(f, "usage error: {msg}"),
            SessionError::Run(msg) => write!(f, "{msg}"),
            SessionError::Cancelled => write!(f, "run cancelled"),
            SessionError::UnknownModel(hash) => write!(f, "unknown model hash `{hash}`"),
            SessionError::Panicked => write!(f, "job panicked"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ModelError> for SessionError {
    fn from(e: ModelError) -> Self {
        SessionError::Model(e)
    }
}

/// A finished task: the structured outcome plus the two canonical renderings
/// (rendered once per underlying run and shared — duplicate submissions hold
/// references to the *same* result).
#[derive(Debug)]
pub struct TaskResult {
    /// The structured outcome, or why the run failed.
    pub outcome: Result<Outcome, SessionError>,
    /// The canonical human-readable text ([`render::text`]).
    pub text: String,
    /// The canonical JSON document bytes ([`render::document`] through
    /// [`render::render_document`]), empty when the run failed.
    pub document: String,
}

/// How one call to [`Session::run_task`] finished.
#[derive(Debug)]
pub enum Completion {
    /// The run finished (executed here, attached to an in-flight duplicate,
    /// or served from the memo); the result is shared between all of them.
    Finished(Arc<TaskResult>),
    /// This caller was *attached* to an in-flight duplicate run and its own
    /// [`RunControl::cancel`] token fired while waiting: the caller detached
    /// and the underlying run keeps going for the others.
    Detached,
}

/// Per-call knobs of [`Session::run_task`]: this caller's cancel token and
/// progress sink. The defaults are inert.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Cancels this caller's interest in the task. For the caller that ends
    /// up *executing* the run, the run's own token is derived from it, so
    /// firing it stops the run; for callers attached to an in-flight
    /// duplicate it detaches them (the run continues for the executor).
    /// Nothing the run records (a deadline, a budget breach) fires it.
    pub cancel: CancelToken,
    /// Receives this caller's progress events. Attached callers start
    /// receiving events from the moment they attach.
    pub progress: ProgressSink,
}

/// Counters of a session's deduplication behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Runs actually executed.
    pub runs_executed: u64,
    /// Calls attached to an in-flight identical run.
    pub runs_attached: u64,
    /// Calls served from the completed-run memo without any run.
    pub memo_hits: u64,
    /// Calls served from the persistent store ([`StoreHook`]) without any
    /// run — duplicate submissions deduplicated across process restarts.
    pub store_hits: u64,
}

struct RunShared {
    sinks: Arc<Mutex<Vec<ProgressSink>>>,
    done: Mutex<Option<Arc<TaskResult>>>,
    finished: Condvar,
}

/// One interned model: its listing and the text it is parsed from.
struct Interned {
    info: ModelInfo,
    text: Arc<str>,
}

struct Inner {
    /// Every interned model, oldest first.
    models: Vec<Interned>,
    /// Parsed forms of at most [`MODEL_CACHE`] of them, by index into
    /// `models`, least recently used first.
    parsed: VecDeque<(usize, Arc<Model>)>,
    inflight: HashMap<TaskKey, Arc<RunShared>>,
    memo: VecDeque<(TaskKey, Arc<TaskResult>)>,
    stats: SessionStats,
    store: Option<Arc<dyn StoreHook>>,
}

impl Inner {
    fn position(&self, hash: &str) -> Option<usize> {
        self.models.iter().position(|m| m.info.hash == hash)
    }

    /// The cached parsed form of model `index`, now the most recently used.
    fn cached(&mut self, index: usize) -> Option<Arc<Model>> {
        let at = self
            .parsed
            .iter()
            .position(|(cached, _)| *cached == index)?;
        let entry = self.parsed.remove(at).expect("position in range");
        let model = Arc::clone(&entry.1);
        self.parsed.push_back(entry);
        Some(model)
    }

    /// Caches `model` as the parsed form of model `index`, evicting the
    /// least recently used one at [`MODEL_CACHE`]. A form another thread
    /// cached first wins, so every caller shares one.
    fn remember(&mut self, index: usize, model: Arc<Model>) -> Arc<Model> {
        if let Some(cached) = self.cached(index) {
            return cached;
        }
        if self.parsed.len() >= MODEL_CACHE {
            self.parsed.pop_front();
        }
        self.parsed.push_back((index, Arc::clone(&model)));
        model
    }

    fn entry(&self, index: usize, model: Arc<Model>) -> CachedModel {
        let info = &self.models[index].info;
        CachedModel {
            hash: info.hash.clone(),
            name: info.name.to_string(),
            kind: info.kind,
            model,
        }
    }
}

/// An embedding-friendly handle on the verification stack: a `Session` owns
/// models (interned by content hash) and runs [`TaskSpec`]s against them,
/// deduplicating identical submissions into one underlying run.
///
/// * [`add_model`](Session::add_model) / [`insert_model`](Session::insert_model)
///   intern a model once; every task names it by hash. Its text stays for
///   the session's lifetime, its parsed form while it is among the
///   [`MODEL_CACHE`] most recently used.
/// * [`run`](Session::run) is the simple blocking entry point;
///   [`run_task`](Session::run_task) adds cancellation and progress events.
/// * Two calls whose specs share a [`TaskKey`] are served by a single run:
///   the second **attaches** to the first (sharing its progress stream and,
///   on completion, the very same [`TaskResult`]), or hits the bounded memo
///   of recently completed runs. Partial results (cancelled or timed-out
///   runs) are never memoized.
///
/// # Examples
///
/// ```
/// use transyt_session::{render, Outcome, Session, TaskSpec};
///
/// let session = Session::new();
/// let (cached, _fresh) = session.add_model(
///     "tts race\n\
///      state s0 s0\n\
///      state s1 bad\n\
///      state s2 ok\n\
///      state s3 done\n\
///      initial s0\n\
///      violation s1 \"slow overtook fast\"\n\
///      trans s0 fast s2\n\
///      trans s0 slow s1\n\
///      trans s2 slow s3\n\
///      trans s1 fast s3\n\
///      delay fast [1,2]\n\
///      delay slow [5,9]\n\
///      property forbid-marked\n",
/// ).unwrap();
/// let spec = TaskSpec::verify(&cached.hash).with_trace(true);
/// let outcome = session.run(&spec).unwrap();
/// let Outcome::Verify(verify) = &outcome else { panic!("verify outcome") };
/// assert!(verify.verdict.is_verified());
/// // The canonical renderings are what the CLI prints / serves.
/// assert!(render::text(&outcome).contains("VERIFIED"));
/// assert!(render::render_document(&render::document(&outcome))
///     .contains("\"verdict\":\"verified\""));
/// ```
pub struct Session {
    inner: Mutex<Inner>,
    memo_capacity: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session with the default completed-run memo (64 results).
    pub fn new() -> Session {
        Session::with_memo_capacity(64)
    }

    /// An empty session whose completed-run memo keeps at most
    /// `memo_capacity` results (`0` disables result reuse entirely; only
    /// concurrent duplicates are then deduplicated).
    pub fn with_memo_capacity(memo_capacity: usize) -> Session {
        Session {
            inner: Mutex::new(Inner {
                models: Vec::new(),
                parsed: VecDeque::new(),
                inflight: HashMap::new(),
                memo: VecDeque::new(),
                stats: SessionStats::default(),
                store: None,
            }),
            memo_capacity,
        }
    }

    /// Installs the persistence hook (see [`StoreHook`]): freshly interned
    /// models are pushed into it, and task submissions consult it — after
    /// the in-memory memo misses — before a run is scheduled, so duplicates
    /// dedupe across process restarts.
    pub fn set_store_hook(&self, hook: Arc<dyn StoreHook>) {
        self.lock().store = Some(hook);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("session state poisoned")
    }

    /// Parses and interns a model text. Returns the cache entry and `true`
    /// when the text was already interned.
    ///
    /// # Errors
    ///
    /// The parse error for unparseable texts; nothing is interned.
    pub fn add_model(&self, text: &str) -> Result<(CachedModel, bool), ModelError> {
        let hash = content_hash(text);
        if let Some(existing) = self.model(&hash) {
            return Ok((existing, true));
        }
        let model = Model::parse(text)?;
        Ok(self.intern(hash, text, model))
    }

    /// Interns an already-parsed model under the hash of its canonical text
    /// (the one-shot CLI path, and embedders that build models in code).
    pub fn insert_model(&self, model: Model) -> CachedModel {
        let text = model.to_text();
        let hash = content_hash(&text);
        self.intern(hash, &text, model).0
    }

    /// Double-checked interning under the session lock. Returns the entry
    /// and `true` when the hash was already interned (possibly by another
    /// thread racing this call).
    fn intern(&self, hash: String, text: &str, model: Model) -> (CachedModel, bool) {
        let info = ModelInfo {
            hash,
            name: Arc::from(model.name.as_str()),
            kind: kind_of(&model),
            bytes: text.len(),
        };
        let model = Arc::new(model);
        let mut inner = self.lock();
        if let Some(index) = inner.position(&info.hash) {
            let model = inner.remember(index, model);
            return (inner.entry(index, model), true);
        }
        inner.models.push(Interned {
            info,
            text: Arc::from(text),
        });
        let index = inner.models.len() - 1;
        let model = inner.remember(index, model);
        let entry = inner.entry(index, model);
        let hook = inner.store.as_ref().map(Arc::clone);
        drop(inner);
        if let Some(hook) = hook {
            hook.save_model(&entry.hash, text);
        }
        (entry, false)
    }

    /// The interned models, oldest first.
    pub fn models(&self) -> Vec<ModelInfo> {
        self.lock().models.iter().map(|m| m.info.clone()).collect()
    }

    /// Looks an interned model up by content hash, without parsing it.
    pub fn model_info(&self, hash: &str) -> Option<ModelInfo> {
        let inner = self.lock();
        let index = inner.position(hash)?;
        Some(inner.models[index].info.clone())
    }

    /// Looks an interned model up by content hash, with its parsed form:
    /// from the cache of [`MODEL_CACHE`] parsed models, or parsed again
    /// from the interned text (outside the session lock) and cached.
    pub fn model(&self, hash: &str) -> Option<CachedModel> {
        let mut inner = self.lock();
        let index = inner.position(hash)?;
        if let Some(model) = inner.cached(index) {
            return Some(inner.entry(index, model));
        }
        let text = Arc::clone(&inner.models[index].text);
        drop(inner);
        // Parsing is deterministic and the text parsed when it was
        // interned (a model inserted in code through its printed text,
        // which the format's round-trip properties pin).
        let model = Arc::new(Model::parse(&text).ok()?);
        let mut inner = self.lock();
        let model = inner.remember(index, model);
        Some(inner.entry(index, model))
    }

    /// The session's deduplication counters.
    pub fn stats(&self) -> SessionStats {
        self.lock().stats
    }

    /// Runs a task to completion on the calling thread and returns its
    /// structured outcome. Identical concurrent or recent submissions share
    /// one underlying run (see [`run_task`](Session::run_task) for the
    /// sharing semantics and for cancellation / progress events).
    ///
    /// # Errors
    ///
    /// [`SessionError`] as recorded in the shared [`TaskResult`].
    pub fn run(&self, spec: &TaskSpec) -> Result<Outcome, SessionError> {
        match self.run_task(spec, RunControl::default()) {
            Completion::Finished(result) => result.outcome.clone(),
            Completion::Detached => {
                unreachable!("the inert default cancel token never detaches a caller")
            }
        }
    }

    /// Runs a task with explicit cancellation and progress control,
    /// deduplicating by [`TaskKey`]:
    ///
    /// * If an identical run is **in flight**, this call attaches to it:
    ///   `control.progress` joins the run's fan-out and the call blocks
    ///   until the shared result exists. Firing `control.cancel` while
    ///   attached *detaches* this caller ([`Completion::Detached`]) without
    ///   stopping the run.
    /// * If an identical run **recently completed**, the memoized
    ///   [`TaskResult`] is returned immediately.
    /// * Otherwise this call **executes** the run on the calling thread,
    ///   under a run token derived from `control.cancel` and the spec's
    ///   [`TaskSpec::deadline`]. Cancelling `control.cancel` stops the
    ///   exploration (every attached caller sees the partial result). A
    ///   search that stops records why on the run token: a passed deadline
    ///   wraps the result in [`Outcome::TimedOut`], a budget breach in
    ///   [`Outcome::BudgetExceeded`].
    ///
    /// Errors (unknown hash, usage errors, panics) are delivered through the
    /// shared [`TaskResult::outcome`], so duplicates of a failing run share
    /// the failure too.
    pub fn run_task(&self, spec: &TaskSpec, control: RunControl) -> Completion {
        let key = spec.key();
        let shared = {
            let mut inner = self.lock();
            if let Some(position) = inner.memo.iter().position(|(k, _)| *k == key) {
                inner.stats.memo_hits += 1;
                // Refresh the LRU position.
                let entry = inner.memo.remove(position).expect("position in range");
                let result = Arc::clone(&entry.1);
                inner.memo.push_back(entry);
                return Completion::Finished(result);
            }
            if let Some(shared) = inner.inflight.get(&key).map(Arc::clone) {
                inner.stats.runs_attached += 1;
                if !control.progress.is_inert() {
                    shared
                        .sinks
                        .lock()
                        .expect("progress sinks poisoned")
                        .push(control.progress.clone());
                }
                drop(inner);
                return wait_attached(&shared, &control.cancel);
            }
            // Memo and inflight both missed: ask the persistent store before
            // committing to a run. The lookup deliberately happens under the
            // session lock — it is one small file read, and racing lookups
            // of the same key would otherwise both miss and run twice.
            if let Some(hook) = inner.store.as_ref().map(Arc::clone) {
                if let Some(stored) = hook.load_result(&key) {
                    inner.stats.store_hits += 1;
                    let model = inner
                        .position(&spec.model)
                        .map(|index| inner.models[index].info.name.to_string())
                        .unwrap_or_else(|| spec.model.clone());
                    let result = Arc::new(TaskResult {
                        outcome: Ok(Outcome::Restored(RestoredOutcome {
                            model,
                            command: spec.command,
                        })),
                        text: stored.text,
                        document: stored.document,
                    });
                    if self.memo_capacity > 0 {
                        if inner.memo.len() >= self.memo_capacity {
                            inner.memo.pop_front();
                        }
                        inner.memo.push_back((key, Arc::clone(&result)));
                    }
                    return Completion::Finished(result);
                }
            }
            inner.stats.runs_executed += 1;
            let shared = Arc::new(RunShared {
                sinks: Arc::new(Mutex::new(if control.progress.is_inert() {
                    Vec::new()
                } else {
                    vec![control.progress.clone()]
                })),
                done: Mutex::new(None),
                finished: Condvar::new(),
            });
            inner.inflight.insert(key.clone(), Arc::clone(&shared));
            shared
        };

        // Execute outside the session lock. The fan-out sink forwards every
        // event to the sinks registered at that moment, so late attachers
        // start receiving events mid-run.
        let fan_out = {
            let sinks = Arc::clone(&shared.sinks);
            ProgressSink::new(move |event: &ProgressEvent| {
                for sink in sinks.lock().expect("progress sinks poisoned").iter() {
                    sink.emit(event);
                }
            })
        };
        let outcome = self.execute_guarded(spec, &control.cancel.child(spec.deadline), &fan_out);
        // Rendering runs over model-derived data too: guard it like the run
        // itself, so a panic still publishes a result and attached
        // duplicates never hang on an inflight entry that would otherwise
        // leak.
        let result = match catch_unwind(AssertUnwindSafe(|| {
            let text = outcome.as_ref().map(render::text).unwrap_or_default();
            let document = outcome
                .as_ref()
                .map(|outcome| render::render_document(&render::document(outcome)))
                .unwrap_or_default();
            (text, document)
        })) {
            Ok((text, document)) => Arc::new(TaskResult {
                text,
                document,
                outcome,
            }),
            Err(_) => Arc::new(TaskResult {
                text: String::new(),
                document: String::new(),
                outcome: Err(SessionError::Panicked),
            }),
        };

        let mut inner = self.lock();
        inner.inflight.remove(&key);
        let cacheable = matches!(&result.outcome, Ok(outcome) if !outcome.was_cancelled());
        if cacheable && self.memo_capacity > 0 {
            if inner.memo.len() >= self.memo_capacity {
                inner.memo.pop_front();
            }
            inner.memo.push_back((key, Arc::clone(&result)));
        }
        drop(inner);
        *shared.done.lock().expect("run result poisoned") = Some(Arc::clone(&result));
        shared.finished.notify_all();
        Completion::Finished(result)
    }

    /// Runs the task once, with panic isolation, under the run token
    /// `cancel`. A search that stopped early recorded why on the token, at
    /// the check that stopped it: a deadline becomes [`Outcome::TimedOut`]
    /// and a budget breach [`Outcome::BudgetExceeded`], each keeping the
    /// partial outcome (`None` when the run stopped before it had one). A
    /// run whose token recorded no reason keeps its full result.
    fn execute_guarded(
        &self,
        spec: &TaskSpec,
        cancel: &CancelToken,
        progress: &ProgressSink,
    ) -> Result<Outcome, SessionError> {
        let Some(cached) = self.model(&spec.model) else {
            return Err(SessionError::UnknownModel(spec.model.clone()));
        };
        let explore = spec.explore_spec(cancel.clone(), progress.clone(), spec.budget_meter());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::run::execute(&cached.model, spec, &explore)
        }))
        .unwrap_or(Err(SessionError::Panicked));
        let partial = match outcome {
            Ok(outcome) if outcome.was_cancelled() => Some(Box::new(outcome)),
            Err(SessionError::Cancelled) => None,
            finished => return finished,
        };
        let (model, command) = (cached.name, spec.command);
        match (cancel.reason(), spec.deadline) {
            (Some(StopReason::Deadline), Some(deadline)) => {
                Ok(Outcome::TimedOut(TimedOutOutcome {
                    model,
                    command,
                    deadline,
                    partial,
                }))
            }
            (Some(StopReason::Budget(breach)), _) => {
                Ok(Outcome::BudgetExceeded(BudgetExceededOutcome {
                    model,
                    command,
                    breach,
                    partial,
                }))
            }
            // Cancelled by the caller: the interrupted run as it stopped.
            _ => partial.map_or(Err(SessionError::Cancelled), |outcome| Ok(*outcome)),
        }
    }
}

/// Blocks an attached caller until the shared result exists, or detaches it
/// once its own token fires (the run continues for the others).
fn wait_attached(shared: &RunShared, cancel: &CancelToken) -> Completion {
    let mut done = shared.done.lock().expect("run result poisoned");
    loop {
        if let Some(result) = done.as_ref() {
            return Completion::Finished(Arc::clone(result));
        }
        if cancel.is_cancelled() {
            return Completion::Detached;
        }
        let (guard, _timeout) = shared
            .finished
            .wait_timeout(done, Duration::from_millis(25))
            .expect("run result poisoned");
        done = guard;
    }
}

fn kind_of(model: &Model) -> &'static str {
    match model.source {
        ModelSource::Stg(_) => "stg",
        ModelSource::Tts(_) => "tts",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::ZonesOutcome;
    use dbm::ZoneOutcome;

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

    #[test]
    fn submissions_differing_only_in_an_ignored_option_share_one_run() {
        let session = Session::new();
        let (cached, _) = session.add_model(RACE).unwrap();

        // `verify` ignores the exact zone mode, so the two specs normalize
        // to the same key and the second call is a memo hit.
        let a = TaskSpec::verify(&cached.hash);
        let b = TaskSpec::verify(&cached.hash).exact(true);
        assert_eq!(a.key(), b.key());
        let first = session.run(&a).unwrap();
        let second = session.run(&b).unwrap();
        assert_eq!(
            session.stats(),
            SessionStats {
                runs_executed: 1,
                runs_attached: 0,
                memo_hits: 1,
                store_hits: 0,
            }
        );
        assert_eq!(
            crate::render::document(&first),
            crate::render::document(&second)
        );

        // For `zones` the mode is load-bearing: distinct keys, distinct runs.
        let a = TaskSpec::zones(&cached.hash);
        let b = TaskSpec::zones(&cached.hash).exact(true);
        assert_ne!(a.key(), b.key());
        session.run(&a).unwrap();
        session.run(&b).unwrap();
        assert_eq!(session.stats().runs_executed, 3);
    }

    /// In-memory [`StoreHook`]: what a persistent store looks like to the
    /// session, minus the disk.
    #[derive(Default)]
    struct MapStore {
        results: Mutex<HashMap<String, crate::persist::StoredResult>>,
        models: Mutex<Vec<String>>,
    }

    impl crate::persist::StoreHook for MapStore {
        fn load_result(&self, key: &TaskKey) -> Option<crate::persist::StoredResult> {
            self.results.lock().unwrap().get(key.canonical()).cloned()
        }

        fn save_model(&self, hash: &str, _text: &str) {
            self.models.lock().unwrap().push(hash.to_owned());
        }
    }

    #[test]
    fn store_hook_sees_models_and_results_and_answers_duplicates() {
        let store = Arc::new(MapStore::default());
        let session = Session::new();
        session.set_store_hook(Arc::clone(&store) as Arc<dyn crate::persist::StoreHook>);
        let (cached, _) = session.add_model(RACE).unwrap();
        assert_eq!(*store.models.lock().unwrap(), vec![cached.hash.clone()]);
        // Re-interning the same text is not a fresh intern: no second save.
        session.add_model(RACE).unwrap();
        assert_eq!(store.models.lock().unwrap().len(), 1);

        let spec = TaskSpec::verify(&cached.hash).with_trace(true);
        let first = match session.run_task(&spec, RunControl::default()) {
            Completion::Finished(result) => result,
            Completion::Detached => unreachable!(),
        };
        // A duplicate in the same session hits the memo, not the store.
        session.run(&spec).unwrap();
        assert_eq!(session.stats().memo_hits, 1);
        assert_eq!(session.stats().store_hits, 0);

        // A fresh session over a store holding the result (saved by the
        // embedder, as the server saves a `done` job's document): the
        // duplicate is answered from the store, byte-identical, with zero
        // runs executed.
        store.results.lock().unwrap().insert(
            spec.key().canonical().to_owned(),
            crate::persist::StoredResult {
                text: first.text.clone(),
                document: first.document.clone(),
            },
        );
        let restarted = Session::new();
        restarted.set_store_hook(Arc::clone(&store) as Arc<dyn crate::persist::StoreHook>);
        restarted.add_model(RACE).unwrap();
        let replayed = match restarted.run_task(&spec, RunControl::default()) {
            Completion::Finished(result) => result,
            Completion::Detached => unreachable!(),
        };
        assert_eq!(restarted.stats().runs_executed, 0);
        assert_eq!(restarted.stats().store_hits, 1);
        assert_eq!(replayed.text, first.text);
        assert_eq!(replayed.document, first.document);
        let Ok(Outcome::Restored(restored)) = &replayed.outcome else {
            panic!("expected a restored outcome, got {:?}", replayed.outcome);
        };
        assert_eq!(restored.model, "race");
        // ... and the store hit is memoized: the next duplicate never
        // touches the store again.
        restarted.run(&spec).unwrap();
        assert_eq!(restarted.stats().memo_hits, 1);
        assert_eq!(restarted.stats().store_hits, 1);
    }

    #[test]
    fn an_attached_duplicate_detaches_when_its_own_token_fires() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        let session = Session::new();
        let (cached, _) = session.add_model(RACE).unwrap();
        let spec = TaskSpec::verify(&cached.hash);
        // The executor's first progress event meets the test thread twice:
        // once to say the run is in flight, once to let it go on. The
        // duplicate attaches, and is cancelled, in between.
        let gate = Arc::new(Barrier::new(2));
        let held = AtomicBool::new(false);
        let progress = {
            let gate = Arc::clone(&gate);
            ProgressSink::new(move |_| {
                if !held.swap(true, Ordering::SeqCst) {
                    gate.wait();
                    gate.wait();
                }
            })
        };
        let own = CancelToken::new();
        std::thread::scope(|scope| {
            let executor = scope.spawn(|| {
                session.run_task(
                    &spec,
                    RunControl {
                        progress,
                        ..RunControl::default()
                    },
                )
            });
            gate.wait();
            let duplicate = scope.spawn(|| {
                session.run_task(
                    &spec,
                    RunControl {
                        cancel: own.clone(),
                        ..RunControl::default()
                    },
                )
            });
            while session.stats().runs_attached == 0 {
                std::thread::yield_now();
            }
            own.cancel();
            assert!(matches!(duplicate.join().unwrap(), Completion::Detached));
            gate.wait();
            let Completion::Finished(result) = executor.join().unwrap() else {
                panic!("the executing caller is never detached");
            };
            let Ok(Outcome::Verify(verify)) = &result.outcome else {
                panic!("expected a verify outcome, got {:?}", result.outcome);
            };
            assert!(verify.verdict.is_verified(), "{:?}", verify.verdict);
            // The full result is memoized: the next duplicate is a memo hit
            // sharing the very same result.
            let Completion::Finished(again) = session.run_task(&spec, RunControl::default()) else {
                panic!("a memo hit is never detached");
            };
            assert!(Arc::ptr_eq(&result, &again));
        });
        assert_eq!(
            session.stats(),
            SessionStats {
                runs_executed: 1,
                runs_attached: 1,
                memo_hits: 1,
                store_hits: 0,
            }
        );
    }

    #[test]
    fn at_most_model_cache_parsed_models_stay_resident() {
        let session = Session::new();
        let texts: Vec<String> = (0..100)
            .map(|n| RACE.replace("delay slow [5,9]", &format!("delay slow [5,{}]", 9 + n)))
            .collect();
        let parsed: Vec<std::sync::Weak<Model>> = texts
            .iter()
            .map(|text| {
                let (cached, interned) = session.add_model(text).unwrap();
                assert!(!interned);
                Arc::downgrade(&cached.model)
            })
            .collect();
        assert_eq!(session.models().len(), 100);
        // Only the most recently used parsed forms are still alive.
        let resident: Vec<bool> = parsed.iter().map(|m| m.strong_count() > 0).collect();
        assert_eq!(resident.iter().filter(|&&alive| alive).count(), MODEL_CACHE);
        assert!(resident[100 - MODEL_CACHE..].iter().all(|&alive| alive));

        // A job on the first model parses it again from its interned text,
        // to the document a session that never dropped it gives.
        let spec = TaskSpec::verify(content_hash(&texts[0])).with_trace(true);
        let document = |session: &Session| match session.run_task(&spec, RunControl::default()) {
            Completion::Finished(result) => result.document.clone(),
            Completion::Detached => unreachable!("the inert token never detaches"),
        };
        let fresh = Session::new();
        fresh.add_model(&texts[0]).unwrap();
        assert_eq!(document(&session), document(&fresh));
        assert_eq!(
            session.model_info(&spec.model).unwrap().bytes,
            texts[0].len()
        );
    }

    #[test]
    fn a_traced_zones_run_meets_the_budget_an_untraced_run_meets() {
        // The traced run is the untraced exploration, read for a witness,
        // so it charges each zone's bytes once and meets every budget the
        // untraced run meets.
        let session = Session::new();
        let (cached, _) = session
            .add_model(include_str!("../../../models/race_overlap.tts"))
            .unwrap();
        for budget in [100, 150, 250] {
            let run = |trace: bool| {
                let spec = TaskSpec::zones(&cached.hash)
                    .max_zone_bytes(budget)
                    .with_trace(trace);
                session.run(&spec).unwrap()
            };
            match (run(false), run(true)) {
                (Outcome::BudgetExceeded(untraced), Outcome::BudgetExceeded(traced))
                    if budget == 100 =>
                {
                    assert_eq!(traced.breach, untraced.breach);
                }
                (Outcome::Zones(untraced), Outcome::Zones(traced)) if budget > 100 => {
                    assert_eq!(traced.outcome, untraced.outcome);
                    assert!(traced.witness.is_some());
                }
                other => panic!("budget {budget}: {other:?}"),
            }
        }
    }

    /// A `zones` run of `spec`, with the progress events it streamed.
    fn zones_with_events(session: &Session, spec: &TaskSpec) -> (ZonesOutcome, Vec<ProgressEvent>) {
        let events: Arc<Mutex<Vec<ProgressEvent>>> = Arc::default();
        let sink = Arc::clone(&events);
        let control = RunControl {
            progress: ProgressSink::new(move |event| sink.lock().unwrap().push(*event)),
            ..RunControl::default()
        };
        let Completion::Finished(result) = session.run_task(spec, control) else {
            panic!("the executing caller is never detached");
        };
        let Ok(Outcome::Zones(zones)) = &result.outcome else {
            panic!("expected a zones outcome, got {:?}", result.outcome);
        };
        let events = events.lock().unwrap().clone();
        (zones.clone(), events)
    }

    #[test]
    fn a_traced_zones_run_streams_the_untraced_runs_events() {
        // One exploration answers a traced run: the same progress events
        // and configuration count as the untraced run, on every shipped
        // model (the pipelines of two stages or more stop at the limit).
        let models = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models");
        let mut files: Vec<_> = std::fs::read_dir(&models)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        files.sort();
        assert!(files.len() >= 8, "{files:?}");
        let session = Session::new();
        let mut witnesses = 0;
        for file in &files {
            let (cached, _) = session
                .add_model(&std::fs::read_to_string(file).unwrap())
                .unwrap();
            let spec = TaskSpec::zones(&cached.hash).limit(2_000);
            let (untraced, untraced_events) = zones_with_events(&session, &spec);
            let (traced, traced_events) = zones_with_events(&session, &spec.with_trace(true));
            let file = file.display();
            assert_eq!(traced.outcome, untraced.outcome, "{file}");
            assert_eq!(traced_events, untraced_events, "{file}");
            assert!(!traced_events.is_empty(), "{file}");
            witnesses += usize::from(traced.witness.is_some());
        }
        assert_eq!(witnesses, 1, "only race_overlap.tts reaches its goal");

        // A limit that stops the exploration after the violating state (the
        // third configuration) was expanded keeps the witness.
        let (cached, _) = session
            .add_model(include_str!("../../../models/race_overlap.tts"))
            .unwrap();
        let traced = |limit: usize| {
            let spec = TaskSpec::zones(&cached.hash).limit(limit).with_trace(true);
            zones_with_events(&session, &spec).0
        };
        let stopped = traced(3);
        assert_eq!(
            stopped.outcome,
            ZoneOutcome::LimitExceeded {
                explored: 4,
                subsumed: 0
            }
        );
        assert_eq!(stopped.witness, traced(10).witness);
        assert!(stopped.witness.is_some());
        assert_eq!(traced(2).witness, None);
    }

    #[test]
    fn a_deadline_already_passed_stops_verify_and_zones_in_the_net_expansion() {
        // The run token carries the deadline, so the expansion's first check
        // of the token sees it passed: the same outcome on every run, with
        // no exploration to keep as a partial result.
        let session = Session::new();
        let (cached, _) = session
            .add_model(include_str!("../../../models/ipcmos_1stage.stg"))
            .unwrap();
        for spec in [
            TaskSpec::verify(&cached.hash),
            TaskSpec::zones(&cached.hash),
        ] {
            let spec = spec.deadline(Duration::from_nanos(1));
            for run in 0..20 {
                let outcome = session.run(&spec);
                assert!(
                    matches!(
                        &outcome,
                        Ok(Outcome::TimedOut(TimedOutOutcome { partial: None, .. }))
                    ),
                    "{:?} run {run}: {outcome:?}",
                    spec.command
                );
            }
        }
        // Timed-out results are never memoized.
        assert_eq!(session.stats().runs_executed, 40);
        assert_eq!(session.stats().memo_hits, 0);
    }

    #[test]
    fn a_fired_token_stops_verify_and_zones_in_the_net_expansion() {
        // The run's token reaches the expansion of an `.stg` model: fired
        // before the run starts, it stops the run there, so no partial
        // exploration comes back (an expansion under an inert token would
        // finish and hand the fired token to the exploration instead).
        let session = Session::new();
        let (cached, _) = session
            .add_model(include_str!("../../../models/ipcmos_1stage.stg"))
            .unwrap();
        for spec in [
            TaskSpec::verify(&cached.hash),
            TaskSpec::zones(&cached.hash),
        ] {
            let control = RunControl {
                cancel: CancelToken::new(),
                ..RunControl::default()
            };
            control.cancel.cancel();
            let Completion::Finished(result) = session.run_task(&spec, control) else {
                panic!("the executing caller is never detached");
            };
            assert!(
                matches!(result.outcome, Err(SessionError::Cancelled)),
                "{:?}: {:?}",
                spec.command,
                result.outcome
            );
        }
    }
}
