//! `transyt-store` — durable serving state for `transyt serve --data-dir`.
//!
//! Three pieces, all dependency-free and crash-safe by construction:
//!
//! * A **content-addressed store**: model texts under
//!   `models/<hash>.model` (the session's FNV-1a content hash) and finished
//!   result documents under `results/<fingerprint>.res` (the canonical
//!   [`TaskKey`] fingerprint). Every file is written via temp-file +
//!   atomic rename, so a SIGKILL mid-write leaves the old state, never a
//!   torn file.
//! * The **job lifecycle**, [`JobStatus`]: the one value the server's job
//!   table, the journal's status lines and `transyt store ls` share.
//! * A **write-ahead job [`Journal`]**: one checksummed record per
//!   submission (`job`), per state a job enters (one [`JobStatus`]:
//!   `run` → `done`/`fail`/`cancel`/`timeout`/`budget`), per `model`
//!   interning and per `evict`ion, fsync'd by group commit on a fixed
//!   [`COMMIT_INTERVAL`]. Recovery replays the journal front to
//!   back, dropping only a torn tail; a startup compaction and a
//!   size-triggered [`Journal::rewrite`] keep it bounded.
//! * The session's persistence seam: [`Store`] implements
//!   [`transyt_session::StoreHook`], so a [`Session`] wired to a store
//!   persists every freshly interned model, and answers duplicate
//!   submissions **across restarts** from the results on disk (the server
//!   saves each `done` job's document with
//!   [`Store::save_result_if_absent`]) with zero new runs — the on-disk
//!   store is keyed by the same normalized [`TaskKey`] the in-memory memo
//!   uses.
//!
//! Because the whole stack is deterministic (byte-identical documents on
//! every run), recovery is testable to the byte: a stored document
//! equals the pre-crash one exactly, and a re-run of an interrupted job
//! reproduces it exactly.
//!
//! [`Session`]: transyt_session::Session
//! [`TaskKey`]: transyt_session::TaskKey

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod content;
mod fsio;
mod journal;

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use transyt_session::{content_hash, StoreHook, StoredResult, TaskKey};

pub use content::ResultDoc;
pub use journal::{
    JobStatus, Journal, JournalStats, Lsn, Record, COMMIT_INTERVAL, COMPACT_MIN_BYTES,
};

/// The journal's file name inside the data dir.
pub const JOURNAL_FILE: &str = "journal.log";

/// The exclusive-ownership lock file inside the data dir. Holds the owning
/// process id; created at [`Store::open`], removed on drop.
pub const LOCK_FILE: &str = "lock";

/// Exclusive ownership of a data dir: a `lock` file created with
/// `create_new` (so two racing opens cannot both win) holding the owner's
/// pid. A lock left behind by a SIGKILLed process is detected as stale —
/// its pid no longer exists under `/proc` — and reclaimed; a lock held by
/// a live process is a clear contention error, not a corrupted journal.
#[derive(Debug)]
struct LockFile {
    path: PathBuf,
}

impl LockFile {
    fn acquire(root: &Path) -> io::Result<LockFile> {
        use std::io::Write;
        let path = root.join(LOCK_FILE);
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    writeln!(file, "{}", std::process::id())?;
                    file.sync_all()?;
                    return Ok(LockFile { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path).unwrap_or_default();
                    let pid: Option<u32> = holder.trim().parse().ok();
                    let alive = pid.is_some_and(|pid| Path::new(&format!("/proc/{pid}")).exists());
                    if alive {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!(
                                "data dir {} is locked by running process {} \
                                 (stop it, or point --data-dir elsewhere)",
                                root.display(),
                                holder.trim()
                            ),
                        ));
                    }
                    // Stale: the recorded pid is gone (or the file is
                    // unreadable garbage). Reclaim and retry the atomic
                    // create — a concurrent reclaimer may still beat us,
                    // in which case the next round sees its live pid.
                    let _ = fs::remove_file(&path);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// A job reconstructed from the journal at [`Store::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJob {
    /// The stable job id (the pre-crash submission index).
    pub id: usize,
    /// The command name as journaled.
    pub command: String,
    /// The model's content hash.
    pub model: String,
    /// The textual task parameters, ready for
    /// [`TaskSpec::parse`](transyt_session::TaskSpec::parse).
    pub params: Vec<(String, String)>,
    /// The last journaled lifecycle state. `Queued` and `Running` jobs were
    /// interrupted by the crash; the server re-enqueues both (determinism
    /// makes the re-run produce the same document).
    pub status: JobStatus,
    /// `true` when the job's stored result was garbage-collected.
    pub evicted: bool,
}

/// Everything [`Store::open`] replayed from the data dir.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Interned model hashes, oldest first (journal order; model files the
    /// journal does not mention — a crash between file write and record —
    /// are adopted at the end). Texts load through [`Store::model_text`].
    pub models: Vec<String>,
    /// The pre-crash job table, dense by id.
    pub jobs: Vec<RecoveredJob>,
    /// Torn-tail bytes dropped from the journal.
    pub dropped_bytes: u64,
}

/// On-disk object counts, served through `/healthz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Stored model files.
    pub models: usize,
    /// Total model bytes.
    pub model_bytes: u64,
    /// Stored result files.
    pub results: usize,
    /// Total result bytes.
    pub result_bytes: u64,
}

/// Read-only snapshot of a data dir (`transyt store ls`): never writes,
/// never truncates, safe next to a live server.
#[derive(Debug, Clone, Default)]
pub struct Inspection {
    /// `(hash, bytes)` per stored model, sorted by hash.
    pub models: Vec<(String, u64)>,
    /// `(fingerprint, bytes, age)` per stored result, sorted by fingerprint.
    pub results: Vec<(String, u64, Option<Duration>)>,
    /// The replayed job table.
    pub jobs: Vec<RecoveredJob>,
    /// Valid journal records.
    pub journal_entries: usize,
    /// Journal file bytes (including any torn tail still on disk).
    pub journal_bytes: u64,
    /// Trailing journal bytes that fail to decode (what the next
    /// read-write open will truncate).
    pub torn_bytes: u64,
}

/// Replays journal records into the model list and the dense job table.
/// Records are applied defensively: a `job` record whose id is not the next
/// dense one, a transition out of a terminal state and any record naming an
/// unknown id are ignored rather than trusted.
fn fold(records: &[Record]) -> (Vec<String>, Vec<RecoveredJob>) {
    let mut models: Vec<String> = Vec::new();
    let mut jobs: Vec<RecoveredJob> = Vec::new();
    for record in records {
        match record {
            Record::Model { hash } => {
                if !models.iter().any(|m| m == hash) {
                    models.push(hash.clone());
                }
            }
            Record::Job {
                id,
                command,
                model,
                params,
            } => {
                if *id == jobs.len() {
                    jobs.push(RecoveredJob {
                        id: *id,
                        command: command.clone(),
                        model: model.clone(),
                        params: params.clone(),
                        status: JobStatus::Queued,
                        evicted: false,
                    });
                }
            }
            Record::Status { id, status } => {
                if let Some(job) = jobs.get_mut(*id) {
                    if !job.status.is_terminal() {
                        job.status = status.clone();
                    }
                }
            }
            Record::Evict { id } => {
                if let Some(job) = jobs.get_mut(*id) {
                    job.evicted = true;
                }
            }
        }
    }
    (models, jobs)
}

fn dir_entries(dir: &Path, extension: &str) -> Vec<(String, u64, Option<Duration>)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut listed: Vec<(String, u64, Option<Duration>)> = entries
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(extension) {
                return None;
            }
            let stem = path.file_stem()?.to_str()?.to_owned();
            let meta = entry.metadata().ok()?;
            let age = meta.modified().ok().and_then(|m| m.elapsed().ok());
            Some((stem, meta.len(), age))
        })
        .collect();
    listed.sort_by(|a, b| a.0.cmp(&b.0));
    listed
}

/// The open data dir: journal plus content-addressed model/result files.
/// One process must own a data dir at a time (the journal is append-only
/// per file handle); `transyt store ls` uses the read-only
/// [`inspect`](Store::inspect) path instead.
pub struct Store {
    root: PathBuf,
    fsync: bool,
    journal: Journal,
    /// Held for the store's lifetime; removing the file on drop releases
    /// the data dir to the next owner.
    _lock: LockFile,
}

impl Store {
    /// Opens (creating if needed) the data dir at `root`, takes its
    /// exclusive [`LOCK_FILE`], replays the journal — truncating a torn
    /// tail — and returns the store plus the recovered state. `fsync`
    /// controls whether journal appends and content writes are flushed to
    /// disk before being reported durable: the server always passes `true`;
    /// tests pass `false` for throwaway dirs.
    ///
    /// # Errors
    ///
    /// `AddrInUse` when another live process holds the data dir (its pid is
    /// in the error message); a lock left by a dead process is reclaimed
    /// silently. Plus filesystem errors creating the layout or reading the
    /// journal.
    pub fn open(root: impl Into<PathBuf>, fsync: bool) -> io::Result<(Store, Recovery)> {
        let root = root.into();
        fs::create_dir_all(root.join("models"))?;
        fs::create_dir_all(root.join("results"))?;
        // The lock precedes the journal open: exactly one process may hold
        // the append handle (and truncate torn tails) at a time.
        let lock = LockFile::acquire(&root)?;
        let (journal, records) = Journal::open(&root.join(JOURNAL_FILE), fsync)?;
        let dropped_bytes = journal.stats().torn_bytes_dropped;
        let (mut models, jobs) = fold(&records);
        // Adopt model files the journal missed (a crash can land between
        // the atomic file write and the journal append).
        for (hash, _, _) in dir_entries(&root.join("models"), "model") {
            if !models.contains(&hash) {
                models.push(hash);
            }
        }
        Ok((
            Store {
                root,
                fsync,
                journal,
                _lock: lock,
            },
            Recovery {
                models,
                jobs,
                dropped_bytes,
            },
        ))
    }

    /// The data dir this store owns.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn model_path(&self, hash: &str) -> PathBuf {
        self.root.join("models").join(format!("{hash}.model"))
    }

    fn result_path(&self, fingerprint: &str) -> PathBuf {
        self.root.join("results").join(format!("{fingerprint}.res"))
    }

    /// Persists a model text under its content hash (atomic write + journal
    /// record) unless it is already stored. Returns `true` when the model
    /// was freshly written.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when `hash` is not the text's content hash, plus
    /// filesystem errors.
    pub fn save_model_text(&self, hash: &str, text: &str) -> io::Result<bool> {
        if content_hash(text) != hash {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("hash `{hash}` does not match the model text"),
            ));
        }
        let path = self.model_path(hash);
        if path.exists() {
            return Ok(false);
        }
        fsio::write_atomic(&path, text.as_bytes(), self.fsync)?;
        // The file is durable on its own, and a restart adopts a model file
        // the journal missed: the record need not wait for a commit.
        self.journal.write(&Record::Model {
            hash: hash.to_owned(),
        })?;
        Ok(true)
    }

    /// Loads a stored model text, verifying it still hashes to `hash`.
    pub fn model_text(&self, hash: &str) -> Option<String> {
        let text = fs::read_to_string(self.model_path(hash)).ok()?;
        (content_hash(&text) == hash).then_some(text)
    }

    /// Persists a finished result under its key fingerprint unless already
    /// stored (duplicate keys share one file; re-runs after an eviction
    /// re-create it). Returns the fingerprint.
    ///
    /// # Errors
    ///
    /// Filesystem errors writing the file.
    pub fn save_result_if_absent(
        &self,
        key: &TaskKey,
        text: &str,
        document: &str,
    ) -> io::Result<String> {
        let fingerprint = key.fingerprint();
        let path = self.result_path(&fingerprint);
        if !path.exists() {
            fsio::write_atomic(
                &path,
                &content::encode_result(key.canonical(), text, document),
                self.fsync,
            )?;
        }
        Ok(fingerprint)
    }

    /// Loads the stored result for `key`, verifying the full canonical key
    /// in the file header (fingerprints are not trusted against collision
    /// or staleness).
    pub fn result(&self, key: &TaskKey) -> Option<ResultDoc> {
        let bytes = fs::read(self.result_path(&key.fingerprint())).ok()?;
        let doc = content::decode_result(&bytes)?;
        (doc.key == key.canonical()).then_some(doc)
    }

    /// Removes a stored result file. Returns `true` when a file was
    /// actually deleted.
    pub fn remove_result(&self, fingerprint: &str) -> bool {
        fs::remove_file(self.result_path(fingerprint)).is_ok()
    }

    /// Appends one journal record and waits until it is durable (with
    /// fsync): [`Journal::append`].
    ///
    /// # Errors
    ///
    /// Filesystem errors writing or syncing the journal.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        self.journal.append(record)
    }

    /// Writes one journal record without waiting for it to be durable:
    /// [`Journal::write`].
    ///
    /// # Errors
    ///
    /// Filesystem errors writing the journal.
    pub fn write(&self, record: &Record) -> io::Result<Lsn> {
        self.journal.write(record)
    }

    /// Waits until the journal is durable up to `lsn`: [`Journal::commit`].
    ///
    /// # Errors
    ///
    /// Filesystem errors syncing the journal.
    pub fn commit(&self, lsn: Lsn) -> io::Result<()> {
        self.journal.commit(lsn)
    }

    /// Compacts the journal to exactly `records`, streamed in order (atomic
    /// rewrite).
    ///
    /// # Errors
    ///
    /// Filesystem errors writing the replacement journal.
    pub fn compact(&self, records: impl IntoIterator<Item = Record>) -> io::Result<()> {
        self.journal.rewrite(records)
    }

    /// `true` once the journal's size trigger asks for a compaction.
    pub fn should_compact(&self) -> bool {
        self.journal.should_compact()
    }

    /// The journal's size counters.
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// Counts and byte totals of the stored models and results.
    pub fn disk_stats(&self) -> DiskStats {
        let models = dir_entries(&self.root.join("models"), "model");
        let results = dir_entries(&self.root.join("results"), "res");
        DiskStats {
            models: models.len(),
            model_bytes: models.iter().map(|(_, bytes, _)| bytes).sum(),
            results: results.len(),
            result_bytes: results.iter().map(|(_, bytes, _)| bytes).sum(),
        }
    }

    /// Deletes result files whose fingerprint is not in `referenced` (the
    /// orphan sweep of startup GC). Returns the removed fingerprints.
    pub fn remove_unreferenced(&self, referenced: &HashSet<String>) -> Vec<String> {
        let mut removed = Vec::new();
        for (fingerprint, _, _) in dir_entries(&self.root.join("results"), "res") {
            if !referenced.contains(&fingerprint) && self.remove_result(&fingerprint) {
                removed.push(fingerprint);
            }
        }
        removed
    }

    /// Read-only snapshot of the data dir at `root` — no truncation, no
    /// lock, safe to run while a server owns the dir.
    ///
    /// # Errors
    ///
    /// `NotFound` when `root` is not a directory, plus filesystem errors
    /// reading the journal.
    pub fn inspect(root: impl Into<PathBuf>) -> io::Result<Inspection> {
        let root = root.into();
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no data dir at {}", root.display()),
            ));
        }
        let journal_path = root.join(JOURNAL_FILE);
        let (records, torn_bytes) = Journal::replay(&journal_path)?;
        let journal_bytes = fs::metadata(&journal_path).map(|m| m.len()).unwrap_or(0);
        let (_, jobs) = fold(&records);
        Ok(Inspection {
            models: dir_entries(&root.join("models"), "model")
                .into_iter()
                .map(|(hash, bytes, _)| (hash, bytes))
                .collect(),
            results: dir_entries(&root.join("results"), "res"),
            jobs,
            journal_entries: records.len(),
            journal_bytes,
            torn_bytes,
        })
    }
}

/// The persistence seam: a [`Session`](transyt_session::Session) wired to a
/// store (via [`Session::set_store_hook`]) persists models as they are
/// interned and serves duplicate submissions from the stored results across
/// restarts. Hook failures are reported on stderr and never fail the run —
/// persistence degrades, verification does not.
///
/// [`Session::set_store_hook`]: transyt_session::Session::set_store_hook
impl StoreHook for Store {
    fn load_result(&self, key: &TaskKey) -> Option<StoredResult> {
        self.result(key).map(|doc| StoredResult {
            text: doc.text,
            document: doc.document,
        })
    }

    fn save_model(&self, hash: &str, text: &str) {
        if let Err(e) = self.save_model_text(hash, text) {
            eprintln!("transyt-store: persisting model {hash}: {e}");
        }
    }
}

/// Unique per-test scratch dir under the system temp dir.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "transyt-store-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use transyt_session::TaskSpec;

    fn job_record(id: usize, command: &str) -> Record {
        Record::Job {
            id,
            command: command.to_owned(),
            model: "00ff00ff00ff00ff".to_owned(),
            params: vec![("threads".to_owned(), "1".to_owned())],
        }
    }

    fn status(id: usize, status: JobStatus) -> Record {
        Record::Status { id, status }
    }

    #[test]
    fn fold_replays_lifecycles_defensively() {
        let done = JobStatus::Done {
            result: "fp0".to_owned(),
        };
        let breach = JobStatus::BudgetExceeded {
            resource: "configs".to_owned(),
            used: 5_001,
            limit: 5_000,
        };
        let failed = JobStatus::Failed {
            error: "model error: no `property` line".to_owned(),
        };
        let (models, jobs) = fold(&[
            Record::Model {
                hash: "aa".to_owned(),
            },
            Record::Model {
                hash: "aa".to_owned(),
            },
            job_record(0, "verify"),
            job_record(1, "zones"),
            job_record(5, "zones"), // out-of-order id: ignored
            status(0, JobStatus::Running),
            status(0, done.clone()),
            status(0, JobStatus::Cancelled), // transition on a terminal job: ignored
            status(1, JobStatus::Running),
            Record::Evict { id: 0 },
            status(99, JobStatus::Running), // unknown id: ignored
            Record::Evict { id: 99 },       // unknown id: ignored
            job_record(2, "zones"),
            status(2, breach.clone()),
            job_record(3, "verify"),
            status(3, failed.clone()),
            status(3, JobStatus::Running), // no way back out of a terminal state
            status(4, JobStatus::Cancelled), // before its `job` record: ignored
            job_record(4, "verify"),
        ]);
        assert_eq!(models, vec!["aa"]);
        let statuses: Vec<&JobStatus> = jobs.iter().map(|job| &job.status).collect();
        assert_eq!(
            statuses,
            vec![
                &done,
                &JobStatus::Running,
                &breach,
                &failed,
                &JobStatus::Queued
            ]
        );
        let evicted: Vec<bool> = jobs.iter().map(|job| job.evicted).collect();
        assert_eq!(evicted, vec![true, false, false, false, false]);
    }

    #[test]
    fn models_and_results_survive_reopen_byte_identical() {
        let dir = test_dir("store-roundtrip");
        let text = "tts m\nstate s0 s0\ninitial s0\n";
        let hash = content_hash(text);
        let key = TaskSpec::verify(&hash).key();
        {
            let (store, recovery) = Store::open(&dir, true).unwrap();
            assert!(recovery.models.is_empty() && recovery.jobs.is_empty());
            assert!(store.save_model_text(&hash, text).unwrap());
            assert!(!store.save_model_text(&hash, text).unwrap());
            assert!(store.save_model_text("0000", text).is_err());
            store
                .save_result_if_absent(&key, "the text\n", "{\"doc\":1}\n")
                .unwrap();
        }
        let (store, recovery) = Store::open(&dir, false).unwrap();
        assert_eq!(recovery.models, vec![hash.clone()]);
        assert_eq!(store.model_text(&hash).as_deref(), Some(text));
        let doc = store.result(&key).unwrap();
        assert_eq!(doc.text, "the text\n");
        assert_eq!(doc.document, "{\"doc\":1}\n");
        // A different key never reads another key's file, even if the
        // fingerprint file existed.
        assert!(store.result(&TaskSpec::reach(&hash).key()).is_none());
        let stats = store.disk_stats();
        assert_eq!((stats.models, stats.results), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_files_missing_from_the_journal_are_adopted() {
        let dir = test_dir("store-adopt");
        let text = "tts m\nstate s0 s0\ninitial s0\n";
        let hash = content_hash(text);
        fs::create_dir_all(dir.join("models")).unwrap();
        fs::write(dir.join("models").join(format!("{hash}.model")), text).unwrap();
        let (store, recovery) = Store::open(&dir, false).unwrap();
        assert_eq!(recovery.models, vec![hash.clone()]);
        assert_eq!(store.model_text(&hash).as_deref(), Some(text));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_file_grants_exclusive_ownership_and_reclaims_stale_locks() {
        let dir = test_dir("store-lock");
        let (store, _) = Store::open(&dir, false).unwrap();
        let lock_path = dir.join(LOCK_FILE);
        assert_eq!(
            fs::read_to_string(&lock_path).unwrap().trim(),
            std::process::id().to_string()
        );
        // A second open while this (live) process holds the lock is refused
        // with a message naming the holder.
        let contended = Store::open(&dir, false);
        let error = contended.err().expect("second open must be refused");
        assert_eq!(error.kind(), io::ErrorKind::AddrInUse);
        assert!(error.to_string().contains("locked by running process"));
        // Dropping the store releases the dir.
        drop(store);
        assert!(!lock_path.exists());
        // A stale lock (dead pid — beyond Linux's pid_max) is reclaimed.
        fs::write(&lock_path, "4294967295\n").unwrap();
        let (store, _) = Store::open(&dir, false).unwrap();
        assert_eq!(
            fs::read_to_string(&lock_path).unwrap().trim(),
            std::process::id().to_string()
        );
        drop(store);
        // Unreadable garbage counts as stale too.
        fs::write(&lock_path, "not a pid").unwrap();
        let (store, _) = Store::open(&dir, false).unwrap();
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_is_read_only_and_reports_torn_tails() {
        let dir = test_dir("store-inspect");
        assert!(Store::inspect(dir.join("missing")).is_err());
        {
            let (store, _) = Store::open(&dir, false).unwrap();
            store.append(&job_record(0, "verify")).unwrap();
        }
        // Garbage after the valid prefix.
        let journal = dir.join(JOURNAL_FILE);
        let mut bytes = fs::read(&journal).unwrap();
        bytes.extend_from_slice(b"v1 torn");
        fs::write(&journal, &bytes).unwrap();
        let inspection = Store::inspect(&dir).unwrap();
        assert_eq!(inspection.journal_entries, 1);
        assert_eq!(inspection.torn_bytes, 7);
        assert_eq!(inspection.jobs.len(), 1);
        // Read-only: the torn tail is still there afterwards.
        assert_eq!(fs::read(&journal).unwrap(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }
}
