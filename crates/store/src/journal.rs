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
//! spaces. Appends are fsync'd (configurable), so a record that made it to
//! disk is complete or absent. Recovery scans the file front to back and
//! stops at the first line that fails to decode — a torn tail (the partial
//! record a SIGKILL or power loss can leave) is dropped and truncated away,
//! and every record before it is kept.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use transyt_session::content_hash;

use crate::codec::{escape, unescape};

/// One journal record: a model interning or a job state transition. The
/// grammar is documented in `docs/SERVER.md` ("Persistence & recovery").
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
    /// A worker claimed the job.
    Run {
        /// The job id.
        id: usize,
    },
    /// The job completed; its document lives at `results/<result>.res`.
    Done {
        /// The job id.
        id: usize,
        /// The task-key fingerprint addressing the stored result.
        result: String,
    },
    /// The job failed with an error message.
    Fail {
        /// The job id.
        id: usize,
        /// The error message.
        error: String,
    },
    /// The job was cancelled.
    Cancel {
        /// The job id.
        id: usize,
    },
    /// The job's deadline expired.
    Timeout {
        /// The job id.
        id: usize,
    },
    /// The job's resource budget was breached and the run aborted.
    Budget {
        /// The job id.
        id: usize,
        /// The breached resource (`configs` / `zone-bytes`).
        resource: String,
        /// Usage observed at the breach.
        used: usize,
        /// The configured budget.
        limit: usize,
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
            Record::Run { id } => format!("v1 run {id}"),
            Record::Done { id, result } => format!("v1 done {id} {result}"),
            Record::Fail { id, error } => format!("v1 fail {id} {}", encode_text(error)),
            Record::Cancel { id } => format!("v1 cancel {id}"),
            Record::Timeout { id } => format!("v1 timeout {id}"),
            Record::Budget {
                id,
                resource,
                used,
                limit,
            } => format!("v1 budget {id} {} {used} {limit}", encode_text(resource)),
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
            "run" => Record::Run {
                id: id(&mut tokens)?,
            },
            "done" => Record::Done {
                id: id(&mut tokens)?,
                result: tokens.next()?.to_owned(),
            },
            "fail" => Record::Fail {
                id: id(&mut tokens)?,
                error: decode_text(tokens.next()?),
            },
            "cancel" => Record::Cancel {
                id: id(&mut tokens)?,
            },
            "timeout" => Record::Timeout {
                id: id(&mut tokens)?,
            },
            "budget" => Record::Budget {
                id: id(&mut tokens)?,
                resource: decode_text(tokens.next()?),
                used: id(&mut tokens)?,
                limit: id(&mut tokens)?,
            },
            "evict" => Record::Evict {
                id: id(&mut tokens)?,
            },
            _ => return None,
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

struct JournalInner {
    file: File,
    stats: JournalStats,
}

/// The open write-ahead journal: replay happens at [`Journal::open`];
/// afterwards records are appended one fsync'd line at a time and
/// [`Journal::rewrite`] compacts the file in place (atomic rename).
pub struct Journal {
    path: PathBuf,
    fsync: bool,
    inner: Mutex<JournalInner>,
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
                inner: Mutex::new(JournalInner { file, stats }),
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

    /// Appends one record (fsync'd when the journal was opened with fsync).
    ///
    /// # Errors
    ///
    /// Filesystem errors writing or syncing.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        let line = record.encode();
        let mut inner = self.lock();
        inner.file.write_all(line.as_bytes())?;
        if self.fsync {
            inner.file.sync_data()?;
        }
        inner.stats.entries += 1;
        inner.stats.bytes += line.len() as u64;
        Ok(())
    }

    /// Compacts the journal to exactly `records` via an atomic temp-file +
    /// rename rewrite, resetting the size baseline the next
    /// [`should_compact`](Self::should_compact) compares against.
    ///
    /// # Errors
    ///
    /// Filesystem errors writing the replacement file.
    pub fn rewrite(&self, records: &[Record]) -> io::Result<()> {
        let mut content = String::new();
        for record in records {
            content.push_str(&record.encode());
        }
        let mut inner = self.lock();
        crate::fsio::write_atomic(&self.path, content.as_bytes(), self.fsync)?;
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        inner.stats.entries = records.len() as u64;
        inner.stats.bytes = content.len() as u64;
        inner.stats.compacted_entries = inner.stats.entries;
        inner.stats.compacted_bytes = inner.stats.bytes;
        Ok(())
    }

    /// `true` once the journal has grown past [`COMPACT_MIN_BYTES`] *and*
    /// past 4× its size at the last compaction — the size trigger for a
    /// [`rewrite`](Self::rewrite).
    pub fn should_compact(&self) -> bool {
        let stats = self.lock().stats;
        stats.bytes > COMPACT_MIN_BYTES && stats.bytes > 4 * stats.compacted_bytes.max(1)
    }

    /// Current size counters.
    pub fn stats(&self) -> JournalStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Model {
                hash: "00ff00ff00ff00ff".to_owned(),
            },
            Record::Job {
                id: 0,
                command: "zones".to_owned(),
                model: "00ff00ff00ff00ff".to_owned(),
                params: vec![
                    ("threads".to_owned(), "2".to_owned()),
                    ("trace".to_owned(), "true".to_owned()),
                ],
            },
            Record::Run { id: 0 },
            Record::Done {
                id: 0,
                result: "a1b2c3d4e5f60718".to_owned(),
            },
            Record::Job {
                id: 1,
                command: "verify".to_owned(),
                model: "00ff00ff00ff00ff".to_owned(),
                params: Vec::new(),
            },
            Record::Fail {
                id: 1,
                error: "model error: no `property` line & spaces".to_owned(),
            },
            Record::Cancel { id: 2 },
            Record::Timeout { id: 3 },
            Record::Budget {
                id: 4,
                resource: "zone-bytes".to_owned(),
                used: 1_048_640,
                limit: 1_048_576,
            },
            Record::Evict { id: 0 },
        ]
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
        for record in sample_records() {
            let line = record.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "{line}");
            let decoded = Record::decode(line.trim_end_matches('\n')).unwrap();
            assert_eq!(decoded, record);
        }
        // A flipped byte fails the checksum.
        let line = Record::Run { id: 7 }.encode();
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
        journal.append(&Record::Run { id: 4 }).unwrap();
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
        let good = Record::Run { id: 1 }.encode();
        let bad = "v1 run 2 0000000000000000\n"; // wrong checksum
        let after = Record::Run { id: 3 }.encode();
        fs::write(&path, format!("{good}{bad}{after}")).unwrap();
        let (journal, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(replayed, vec![Record::Run { id: 1 }]);
        assert_eq!(
            journal.stats().torn_bytes_dropped as usize,
            bad.len() + after.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_compacts_and_resets_the_size_trigger() {
        let dir = crate::test_dir("journal-compact");
        let path = dir.join("journal.log");
        let (journal, _) = Journal::open(&path, false).unwrap();
        let filler = Record::Fail {
            id: 0,
            error: "x".repeat(200),
        };
        while !journal.should_compact() {
            journal.append(&filler).unwrap();
        }
        assert!(journal.stats().bytes > COMPACT_MIN_BYTES);
        journal.rewrite(&[Record::Run { id: 0 }]).unwrap();
        assert!(!journal.should_compact());
        let stats = journal.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.compacted_bytes, stats.bytes);
        // The rewritten file replays to exactly the compacted records, and
        // post-compaction appends land after them.
        journal.append(&Record::Cancel { id: 0 }).unwrap();
        drop(journal);
        let (_, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(
            replayed,
            vec![Record::Run { id: 0 }, Record::Cancel { id: 0 }]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
