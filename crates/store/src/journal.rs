//! The append-only write-ahead job journal.
//!
//! One line per record, each carrying its own FNV-1a checksum:
//!
//! ```text
//! v1 <type> <fields…> <crc16hex>\n
//! ```
//!
//! Fields that may contain arbitrary text (job parameters, error messages)
//! are `%XX`-escaped so a record never spans lines and tokens never contain
//! spaces. Appends are fsync'd (configurable) by group commit on a fixed
//! [`COMMIT_INTERVAL`], so a record that made it to disk is complete or
//! absent. Recovery scans the file front to back and stops at the first
//! line that fails to decode — a torn tail (the partial record a SIGKILL or
//! power loss can leave) is dropped and truncated away, and every record
//! before it is kept.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use transyt_session::content_hash;

use crate::codec::{escape, unescape};

/// The lifecycle of a job, defined once: the server's job table holds it,
/// the journal's status lines record it, and `transyt store ls` prints it.
/// Each variant carries exactly what its journal line carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the FIFO queue. Has no journal line of its own: the `job`
    /// record is that state.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished with a document, stored at `results/<result>.res`.
    Done {
        /// The task-key fingerprint addressing the stored result.
        result: String,
    },
    /// Finished with an error message.
    Failed {
        /// The error message.
        error: String,
    },
    /// Cancelled before or while running.
    Cancelled,
    /// The job's deadline expired before the run finished.
    TimedOut,
    /// The job's resource budget (`max-configs` / `max-zone-bytes`) was
    /// breached and the run aborted deterministically.
    BudgetExceeded {
        /// The breached resource (`configs` / `zone-bytes`).
        resource: String,
        /// Usage observed at the breach.
        used: usize,
        /// The configured budget.
        limit: usize,
    },
}

impl JobStatus {
    /// The status word of the server's job documents, event streams and
    /// `store ls` (`queued` … `budget_exceeded`).
    pub fn word(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed_out",
            JobStatus::BudgetExceeded { .. } => "budget_exceeded",
        }
    }

    /// Returns `true` once the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.word())
    }
}

/// One journal record: a model interning, a submission, a job state
/// transition or an eviction. The grammar is documented in
/// `docs/SERVER.md` ("Persistence & recovery").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A model was interned; its text lives at `models/<hash>.model`.
    Model {
        /// The model's content hash.
        hash: String,
    },
    /// A job was submitted. `id` is the job's stable index, `params` the
    /// textual `(name, value)` pairs [`TaskSpec::parse`] lowers (the same
    /// vocabulary the server's query strings use), so replay re-normalizes
    /// through exactly the submission path.
    ///
    /// [`TaskSpec::parse`]: transyt_session::TaskSpec::parse
    Job {
        /// The job id (dense: the submission index).
        id: usize,
        /// The command name (`verify` / `reach` / `zones`).
        command: String,
        /// The model's content hash.
        model: String,
        /// Textual task parameters.
        params: Vec<(String, String)>,
    },
    /// The job entered `status`: a `run`, `done`, `fail`, `cancel`,
    /// `timeout` or `budget` line. Never [`JobStatus::Queued`], whose line
    /// is the `job` record; encoding one panics.
    Status {
        /// The job id.
        id: usize,
        /// The state entered.
        status: JobStatus,
    },
    /// The job's stored result document was garbage-collected (the LRU
    /// cap); fetches answer `410 Gone` after replay, like before the
    /// restart.
    Evict {
        /// The job id.
        id: usize,
    },
}

fn encode_params(params: &[(String, String)]) -> String {
    if params.is_empty() {
        return "-".to_owned();
    }
    params
        .iter()
        .map(|(name, value)| format!("{}={}", escape(name), escape(value)))
        .collect::<Vec<_>>()
        .join("&")
}

fn decode_params(field: &str) -> Vec<(String, String)> {
    if field == "-" {
        return Vec::new();
    }
    field
        .split('&')
        .map(|pair| match pair.split_once('=') {
            Some((name, value)) => (unescape(name), unescape(value)),
            None => (unescape(pair), String::new()),
        })
        .collect()
}

fn encode_text(text: &str) -> String {
    if text.is_empty() {
        "-".to_owned()
    } else {
        escape(text)
    }
}

fn decode_text(field: &str) -> String {
    if field == "-" {
        String::new()
    } else {
        unescape(field)
    }
}

impl Record {
    /// Encodes the record as its checksummed journal line (trailing `\n`).
    pub fn encode(&self) -> String {
        let body = match self {
            Record::Model { hash } => format!("v1 model {hash}"),
            Record::Job {
                id,
                command,
                model,
                params,
            } => format!("v1 job {id} {command} {model} {}", encode_params(params)),
            Record::Status { id, status } => match status {
                JobStatus::Queued => unreachable!("a queued job's line is its `job` record"),
                JobStatus::Running => format!("v1 run {id}"),
                JobStatus::Done { result } => format!("v1 done {id} {result}"),
                JobStatus::Failed { error } => format!("v1 fail {id} {}", encode_text(error)),
                JobStatus::Cancelled => format!("v1 cancel {id}"),
                JobStatus::TimedOut => format!("v1 timeout {id}"),
                JobStatus::BudgetExceeded {
                    resource,
                    used,
                    limit,
                } => format!("v1 budget {id} {} {used} {limit}", encode_text(resource)),
            },
            Record::Evict { id } => format!("v1 evict {id}"),
        };
        let crc = content_hash(&body);
        format!("{body} {crc}\n")
    }

    /// Decodes one journal line (without the trailing `\n`). `None` for
    /// torn, corrupted or checksum-mismatching lines.
    pub fn decode(line: &str) -> Option<Record> {
        let (body, crc) = line.rsplit_once(' ')?;
        if content_hash(body) != crc {
            return None;
        }
        let mut tokens = body.split(' ');
        if tokens.next()? != "v1" {
            return None;
        }
        let kind = tokens.next()?;
        fn id(tokens: &mut std::str::Split<'_, char>) -> Option<usize> {
            tokens.next()?.parse().ok()
        }
        let record = match kind {
            "model" => Record::Model {
                hash: tokens.next()?.to_owned(),
            },
            "job" => {
                let record = Record::Job {
                    id: id(&mut tokens)?,
                    command: tokens.next()?.to_owned(),
                    model: tokens.next()?.to_owned(),
                    params: decode_params(tokens.next()?),
                };
                // Lines journaled while the server had scheduling classes
                // end in the job's class name (`batch` by default), and the
                // checksum above covers that token too. The queue is FIFO
                // now, so the token is read past and ignored: old data dirs
                // replay, and the next compaction drops it.
                tokens.next();
                record
            }
            "evict" => Record::Evict {
                id: id(&mut tokens)?,
            },
            status => {
                let id = id(&mut tokens)?;
                let status = match status {
                    "run" => JobStatus::Running,
                    "done" => JobStatus::Done {
                        result: tokens.next()?.to_owned(),
                    },
                    "fail" => JobStatus::Failed {
                        error: decode_text(tokens.next()?),
                    },
                    "cancel" => JobStatus::Cancelled,
                    "timeout" => JobStatus::TimedOut,
                    "budget" => JobStatus::BudgetExceeded {
                        resource: decode_text(tokens.next()?),
                        used: tokens.next()?.parse().ok()?,
                        limit: tokens.next()?.parse().ok()?,
                    },
                    _ => return None,
                };
                Record::Status { id, status }
            }
        };
        tokens.next().is_none().then_some(record)
    }
}

/// Size counters of a [`Journal`], served through `/healthz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records currently in the journal file.
    pub entries: u64,
    /// Bytes currently in the journal file.
    pub bytes: u64,
    /// Records right after the last compaction (or open).
    pub compacted_entries: u64,
    /// Bytes right after the last compaction (or open) — the baseline the
    /// size-triggered rewrite compares against.
    pub compacted_bytes: u64,
    /// Torn-tail bytes dropped when the journal was opened.
    pub torn_bytes_dropped: u64,
}

/// A journal only compacts once it outgrows this floor (small journals are
/// not worth rewriting).
pub const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// How often an fsync'd journal flushes: one `fdatasync` on each tick of
/// this clock covers every record written since the one before (group
/// commit), and a caller waiting for its record to be durable waits for
/// the next tick. A tick an order of magnitude longer than a flush on a
/// busy disk (0.1 ms typical, a few ms at worst) almost never overruns, so
/// durable writes keep the journal's pace rather than the disk's, which
/// varies from one moment to the next, and concurrent writers share one
/// flush.
pub const COMMIT_INTERVAL: Duration = Duration::from_millis(10);

/// A record's place in its [`Journal`], counted from the open: what
/// [`Journal::commit`] waits to see durable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lsn(u64);

struct JournalInner {
    file: File,
    stats: JournalStats,
    /// The last record written.
    written: Lsn,
}

/// Group-commit progress of a [`Journal`].
struct Flushed {
    /// Every record up to this one is on disk.
    durable: Lsn,
    /// A caller is flushing the file.
    flushing: bool,
    /// Flushes since the open.
    flushes: u64,
}

/// The open write-ahead journal: replay happens at [`Journal::open`];
/// afterwards records are written one line at a time, made durable by
/// group commit ([`Journal::commit`]), and [`Journal::rewrite`] compacts
/// the file in place (atomic rename).
pub struct Journal {
    path: PathBuf,
    fsync: bool,
    inner: Mutex<JournalInner>,
    flushed: Mutex<Flushed>,
    /// Signalled when a flush ends.
    flush_done: Condvar,
    /// Commit ticks fall on whole [`COMMIT_INTERVAL`]s after this.
    epoch: Instant,
}

/// Scans raw journal bytes: the decoded records of the longest valid prefix,
/// plus that prefix's byte length.
fn scan(bytes: &[u8]) -> (Vec<Record>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let line = &bytes[pos..pos + nl];
        let Some(record) = std::str::from_utf8(line).ok().and_then(Record::decode) else {
            break;
        };
        records.push(record);
        pos += nl + 1;
    }
    (records, pos as u64)
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays it and truncates
    /// away any torn tail. Returns the journal and the replayed records.
    ///
    /// # Errors
    ///
    /// Filesystem errors opening, reading or truncating the file.
    pub fn open(path: &Path, fsync: bool) -> io::Result<(Journal, Vec<Record>)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, valid_len) = scan(&bytes);
        let dropped = bytes.len() as u64 - valid_len;
        if dropped > 0 {
            // Drop the torn tail so the next append starts a well-formed
            // line.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let stats = JournalStats {
            entries: records.len() as u64,
            bytes: valid_len,
            compacted_entries: records.len() as u64,
            compacted_bytes: valid_len,
            torn_bytes_dropped: dropped,
        };
        Ok((
            Journal {
                path: path.to_path_buf(),
                fsync,
                inner: Mutex::new(JournalInner {
                    file,
                    stats,
                    written: Lsn::default(),
                }),
                flushed: Mutex::new(Flushed {
                    durable: Lsn::default(),
                    flushing: false,
                    flushes: 0,
                }),
                flush_done: Condvar::new(),
                epoch: Instant::now(),
            },
            records,
        ))
    }

    /// Replays the journal at `path` without opening it for writing and
    /// without truncating a torn tail — the read-only path behind
    /// `transyt store ls`, safe to run next to a live server. Returns the
    /// valid records and the number of trailing bytes that failed to decode.
    ///
    /// # Errors
    ///
    /// Filesystem errors reading the file (a missing journal is empty, not
    /// an error).
    pub fn replay(path: &Path) -> io::Result<(Vec<Record>, u64)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, valid_len) = scan(&bytes);
        Ok((records, bytes.len() as u64 - valid_len))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        self.inner.lock().expect("journal poisoned")
    }

    fn flushed(&self) -> std::sync::MutexGuard<'_, Flushed> {
        self.flushed.lock().expect("journal poisoned")
    }

    /// Appends one record and waits until it is durable: [`write`](Self::write)
    /// then [`commit`](Self::commit).
    ///
    /// # Errors
    ///
    /// Filesystem errors writing or syncing.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        let lsn = self.write(record)?;
        self.commit(lsn)
    }

    /// Writes one record to the file, where a reader sees it at once, and
    /// returns its place; it is durable after a [`commit`](Self::commit)
    /// to that place or to a later one. Cheap enough to call under a lock.
    ///
    /// # Errors
    ///
    /// Filesystem errors writing.
    pub fn write(&self, record: &Record) -> io::Result<Lsn> {
        let line = record.encode();
        let mut inner = self.lock();
        inner.file.write_all(line.as_bytes())?;
        inner.stats.entries += 1;
        inner.stats.bytes += line.len() as u64;
        inner.written.0 += 1;
        Ok(inner.written)
    }

    /// Waits until every record up to `lsn` is on disk (at once for a
    /// journal opened without fsync). Unless a flush already covered it,
    /// that is the next tick of the [`COMMIT_INTERVAL`] clock, where the
    /// first caller to arrive flushes the file for everyone waiting.
    ///
    /// # Errors
    ///
    /// Filesystem errors syncing.
    pub fn commit(&self, lsn: Lsn) -> io::Result<()> {
        if !self.fsync || self.flushed().durable >= lsn {
            return Ok(());
        }
        let now = Instant::now();
        let tick = COMMIT_INTERVAL.as_nanos();
        let ticks = now.duration_since(self.epoch).as_nanos() / tick + 1;
        let next = self.epoch + Duration::from_nanos((ticks * tick) as u64);
        thread::sleep(next - now);
        let mut flushed = self.flushed();
        while flushed.durable < lsn {
            if flushed.flushing {
                flushed = self.flush_done.wait(flushed).expect("journal poisoned");
                continue;
            }
            flushed.flushing = true;
            drop(flushed);
            // A second handle flushes outside the write lock, so writers go
            // on appending (for the next tick) meanwhile.
            let flush = {
                let inner = self.lock();
                inner.file.try_clone().map(|file| (file, inner.written))
            };
            let flush = flush.and_then(|(file, upto)| file.sync_data().map(|()| upto));
            flushed = self.flushed();
            flushed.flushing = false;
            self.flush_done.notify_all();
            let upto = flush?;
            flushed.durable = flushed.durable.max(upto);
            flushed.flushes += 1;
        }
        Ok(())
    }

    /// Compacts the journal to exactly `records` via an atomic temp-file +
    /// rename rewrite, resetting the size baseline the next
    /// [`should_compact`](Self::should_compact) compares against. Each
    /// record's line streams into the temp file as it is drawn, so the
    /// whole image never sits in memory; appends wait for the rewrite and
    /// land in the new file. The rewritten file is durable (with fsync), so
    /// everything written before it counts as committed.
    ///
    /// # Errors
    ///
    /// Filesystem errors writing the replacement file.
    pub fn rewrite(&self, records: impl IntoIterator<Item = Record>) -> io::Result<()> {
        let mut inner = self.lock();
        let (mut entries, mut bytes) = (0, 0);
        crate::fsio::write_atomic_with(&self.path, self.fsync, |file| {
            for record in records {
                let line = record.encode();
                file.write_all(line.as_bytes())?;
                entries += 1;
                bytes += line.len() as u64;
            }
            Ok(())
        })?;
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        let mut flushed = self.flushed();
        flushed.durable = flushed.durable.max(inner.written);
        drop(flushed);
        self.flush_done.notify_all();
        inner.stats.entries = entries;
        inner.stats.bytes = bytes;
        inner.stats.compacted_entries = entries;
        inner.stats.compacted_bytes = bytes;
        Ok(())
    }

    /// `true` once the journal has grown past [`COMPACT_MIN_BYTES`] *and*
    /// past 4× its size at the last compaction — the size trigger for a
    /// [`rewrite`](Self::rewrite).
    pub fn should_compact(&self) -> bool {
        let stats = self.lock().stats;
        stats.bytes > COMPACT_MIN_BYTES && stats.bytes > 4 * stats.compacted_bytes.max(1)
    }

    /// How many flushes [`commit`](Self::commit) has made since the open.
    pub fn flushes(&self) -> u64 {
        self.flushed().flushes
    }

    /// Current size counters.
    pub fn stats(&self) -> JournalStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(id: usize, status: JobStatus) -> Record {
        Record::Status { id, status }
    }

    /// One record of each kind, with the line the journal has always
    /// written for it: `job` with and without params, and a `fail` message
    /// that needs escaping.
    fn sample_lines() -> Vec<(Record, &'static str)> {
        vec![
            (
                Record::Model {
                    hash: "00ff00ff00ff00ff".to_owned(),
                },
                "v1 model 00ff00ff00ff00ff a25555776497957f\n",
            ),
            (
                Record::Job {
                    id: 0,
                    command: "reach".to_owned(),
                    model: "00ff00ff00ff00ff".to_owned(),
                    params: vec![
                        ("to".to_owned(), "C+".to_owned()),
                        ("trace".to_owned(), "true".to_owned()),
                    ],
                },
                "v1 job 0 reach 00ff00ff00ff00ff to=C%2B&trace=true 6afc29e3fa54d252\n",
            ),
            (
                Record::Job {
                    id: 1,
                    command: "verify".to_owned(),
                    model: "00ff00ff00ff00ff".to_owned(),
                    params: Vec::new(),
                },
                "v1 job 1 verify 00ff00ff00ff00ff - 7d3c285a7c7b8f68\n",
            ),
            (status(0, JobStatus::Running), "v1 run 0 741c4ff7206a71a5\n"),
            (
                status(
                    0,
                    JobStatus::Done {
                        result: "a1b2c3d4e5f60718".to_owned(),
                    },
                ),
                "v1 done 0 a1b2c3d4e5f60718 68d7dbfe0360ab5a\n",
            ),
            (
                status(
                    1,
                    JobStatus::Failed {
                        error: "model error: no `property` line & 100% spaces\nsecond line"
                            .to_owned(),
                    },
                ),
                "v1 fail 1 model%20error%3A%20no%20%60property%60%20line%20%26%20100%25%20\
                 spaces%0Asecond%20line 603480a3f977b4cc\n",
            ),
            (
                status(2, JobStatus::Cancelled),
                "v1 cancel 2 d9e5ad1b59ce360c\n",
            ),
            (
                status(3, JobStatus::TimedOut),
                "v1 timeout 3 c6789d90d9eb5a46\n",
            ),
            (
                status(
                    4,
                    JobStatus::BudgetExceeded {
                        resource: "zone-bytes".to_owned(),
                        used: 1_048_640,
                        limit: 1_048_576,
                    },
                ),
                "v1 budget 4 zone-bytes 1048640 1048576 2ed374a386797a83\n",
            ),
            (Record::Evict { id: 0 }, "v1 evict 0 133e81025fcc3301\n"),
        ]
    }

    fn sample_records() -> Vec<Record> {
        sample_lines()
            .into_iter()
            .map(|(record, _)| record)
            .collect()
    }

    #[test]
    fn pre_priority_job_lines_still_decode() {
        let expected = Record::Job {
            id: 3,
            command: "verify".to_owned(),
            model: "00ff00ff00ff00ff".to_owned(),
            params: vec![("threads".to_owned(), "2".to_owned())],
        };
        // The first wire shape has no class token; lines journaled while
        // scheduling classes existed end in one. All decode alike.
        for body in [
            "v1 job 3 verify 00ff00ff00ff00ff threads=2",
            "v1 job 3 verify 00ff00ff00ff00ff threads=2 batch",
            "v1 job 3 verify 00ff00ff00ff00ff threads=2 interactive",
        ] {
            let line = format!("{body} {}", content_hash(body));
            assert_eq!(Record::decode(&line), Some(expected.clone()), "{body}");
        }
        // Encoding writes the token-free shape.
        assert_eq!(
            expected.encode(),
            format!(
                "v1 job 3 verify 00ff00ff00ff00ff threads=2 {}\n",
                content_hash("v1 job 3 verify 00ff00ff00ff00ff threads=2")
            )
        );
    }

    #[test]
    fn records_encode_to_checksummed_lines_and_round_trip() {
        // Word for word the lines the journal has always written.
        for (record, line) in sample_lines() {
            assert_eq!(record.encode(), line);
            assert_eq!(Record::decode(line.trim_end_matches('\n')), Some(record));
        }
        // A flipped byte fails the checksum.
        let line = status(7, JobStatus::Running).encode();
        let tampered = line.replace("run 7", "run 8");
        assert_eq!(Record::decode(tampered.trim_end_matches('\n')), None);
        assert_eq!(Record::decode(""), None);
        assert_eq!(Record::decode("v1 run"), None);
    }

    #[test]
    fn open_replays_appends_and_truncates_torn_tails() {
        let dir = crate::test_dir("journal");
        let path = dir.join("journal.log");
        {
            let (journal, replayed) = Journal::open(&path, true).unwrap();
            assert!(replayed.is_empty());
            for record in sample_records() {
                journal.append(&record).unwrap();
            }
        }
        // Simulate a torn write: a partial record without checksum/newline.
        let mut bytes = fs::read(&path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(b"v1 done 9 a1b2");
        fs::write(&path, &bytes).unwrap();

        let (journal, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(replayed, sample_records());
        let stats = journal.stats();
        assert_eq!(stats.torn_bytes_dropped, 14);
        assert_eq!(stats.bytes as usize, intact);
        // The torn tail is physically gone: appends after recovery decode.
        journal.append(&status(4, JobStatus::Running)).unwrap();
        drop(journal);
        let (reopened, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(replayed.len(), sample_records().len() + 1);
        assert_eq!(reopened.stats().torn_bytes_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_line_drops_that_line_and_everything_after() {
        let dir = crate::test_dir("journal-corrupt");
        let path = dir.join("journal.log");
        let good = status(1, JobStatus::Running).encode();
        let bad = "v1 run 2 0000000000000000\n"; // wrong checksum
        let after = status(3, JobStatus::Running).encode();
        fs::write(&path, format!("{good}{bad}{after}")).unwrap();
        let (journal, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(replayed, vec![status(1, JobStatus::Running)]);
        assert_eq!(
            journal.stats().torn_bytes_dropped as usize,
            bad.len() + after.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_flushes_every_record_written_before_it_once() {
        let dir = crate::test_dir("journal-commit");
        let path = dir.join("journal.log");
        let (journal, _) = Journal::open(&path, true).unwrap();
        let records = sample_records();
        let lsns: Vec<Lsn> = records.iter().map(|r| journal.write(r).unwrap()).collect();
        assert!(lsns.windows(2).all(|pair| pair[0] < pair[1]));
        // Written records are in the file before any commit.
        assert_eq!(Journal::replay(&path).unwrap().0, records);
        assert_eq!(journal.flushes(), 0);
        // One flush on the tick covers the last place and every earlier one.
        journal.commit(lsns[lsns.len() - 1]).unwrap();
        journal.commit(lsns[0]).unwrap();
        assert_eq!(journal.flushes(), 1);
        // A rewrite is durable itself: what it covers needs no flush.
        let lsn = journal.write(&status(7, JobStatus::Running)).unwrap();
        journal.rewrite(sample_records()).unwrap();
        journal.commit(lsn).unwrap();
        assert_eq!(journal.flushes(), 1);

        // Concurrent appenders all return with their records on file, in
        // each one's order.
        let (journal, _) = Journal::open(&dir.join("concurrent.log"), true).unwrap();
        std::thread::scope(|scope| {
            for writer in 0..4 {
                let journal = &journal;
                scope.spawn(move || {
                    for step in 0..5 {
                        journal
                            .append(&status(writer * 100 + step, JobStatus::Running))
                            .unwrap();
                    }
                });
            }
        });
        let (replayed, torn) = Journal::replay(&dir.join("concurrent.log")).unwrap();
        assert_eq!((replayed.len(), torn), (20, 0));
        for writer in 0..4 {
            let ids: Vec<usize> = replayed
                .iter()
                .filter_map(|record| match record {
                    Record::Status { id, .. } if id / 100 == writer => Some(id % 100),
                    _ => None,
                })
                .collect();
            assert_eq!(ids, (0..5).collect::<Vec<_>>());
        }
        assert!(journal.flushes() <= 20);

        // Without fsync nothing waits and nothing flushes.
        let (journal, _) = Journal::open(&dir.join("volatile.log"), false).unwrap();
        journal.append(&status(0, JobStatus::Running)).unwrap();
        assert_eq!(journal.flushes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_compacts_and_resets_the_size_trigger() {
        let dir = crate::test_dir("journal-compact");
        let path = dir.join("journal.log");
        let (journal, _) = Journal::open(&path, false).unwrap();
        let filler = status(
            0,
            JobStatus::Failed {
                error: "x".repeat(200),
            },
        );
        while !journal.should_compact() {
            journal.append(&filler).unwrap();
        }
        assert!(journal.stats().bytes > COMPACT_MIN_BYTES);
        journal.rewrite(sample_records()).unwrap();
        // The streamed image is the records' lines back to back.
        let image: String = sample_lines().into_iter().map(|(_, line)| line).collect();
        assert_eq!(fs::read_to_string(&path).unwrap(), image);
        let stats = journal.stats();
        assert_eq!(stats.entries, sample_records().len() as u64);
        assert_eq!(stats.bytes, image.len() as u64);
        journal.rewrite([status(0, JobStatus::Running)]).unwrap();
        assert!(!journal.should_compact());
        let stats = journal.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.compacted_bytes, stats.bytes);
        // The rewritten file replays to exactly the compacted records, and
        // post-compaction appends land after them.
        journal.append(&status(0, JobStatus::Cancelled)).unwrap();
        drop(journal);
        let (_, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(
            replayed,
            vec![
                status(0, JobStatus::Running),
                status(0, JobStatus::Cancelled)
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
