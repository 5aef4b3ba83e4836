//! Per-job progress event logs behind `GET /jobs/{id}/events`.
//!
//! Every job owns an [`EventLog`]: an append-only sequence of rendered
//! server-sent-event data lines, kept in one string. The worker running the
//! job appends one line per [`explore::ProgressEvent`] (plus lifecycle
//! markers) and closes the log when the job reaches a terminal state;
//! any number of `/events` connections replay the log from the start and
//! then long-poll for more — late subscribers see exactly the same
//! sequence as early ones. A finished job whose stream is its terminal
//! frame alone (it never ran, or its result was evicted) keeps no log.
//!
//! Because the exploration driver emits its progress events from its one
//! sequential loop, the logged sequence is deterministic: every run of the
//! same job streams the same events.

use explore::ProgressEvent;
use std::sync::{Condvar, Mutex};

/// Renders one driver progress event as the JSON data line streamed over
/// `/jobs/{id}/events`. The grammar is part of the server API (documented
/// in `SERVER.md`), so tests compare whole lines.
pub fn render_progress(event: &ProgressEvent) -> String {
    match event {
        ProgressEvent::Batch {
            expanded,
            discovered,
            subsumption_skips,
        } => format!(
            "{{\"type\":\"batch\",\"expanded\":{expanded},\"discovered\":{discovered},\
             \"subsumption_skips\":{subsumption_skips}}}"
        ),
        ProgressEvent::Level { index, frontier } => {
            format!("{{\"type\":\"level\",\"index\":{index},\"frontier\":{frontier}}}")
        }
        ProgressEvent::Refinement { iteration } => {
            format!("{{\"type\":\"refinement\",\"iteration\":{iteration}}}")
        }
        ProgressEvent::Cancelled { expanded } => {
            format!("{{\"type\":\"cancelled\",\"expanded\":{expanded}}}")
        }
    }
}

struct LogInner {
    /// Every line appended so far, back to back.
    text: String,
    /// The end offset in `text` of each line.
    ends: Vec<usize>,
    closed: bool,
}

impl LogInner {
    fn line(&self, index: usize) -> &str {
        let start = index
            .checked_sub(1)
            .map_or(0, |previous| self.ends[previous]);
        &self.text[start..self.ends[index]]
    }
}

/// An append-only, waitable event sequence. Writers [`push`](EventLog::push)
/// and finally [`close`](EventLog::close); readers page through it with
/// [`wait`](EventLog::wait).
pub struct EventLog {
    inner: Mutex<LogInner>,
    grew: Condvar,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

impl EventLog {
    /// An empty, open log.
    pub fn new() -> EventLog {
        EventLog {
            inner: Mutex::new(LogInner {
                text: String::new(),
                ends: Vec::new(),
                closed: false,
            }),
            grew: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().expect("event log poisoned")
    }

    /// Appends one event line and wakes waiting readers. Appends to a
    /// closed log are dropped (a cancelled job's straggler events).
    pub fn push(&self, line: String) {
        let mut inner = self.lock();
        if inner.closed {
            return;
        }
        inner.text.push_str(&line);
        let end = inner.text.len();
        inner.ends.push(end);
        drop(inner);
        self.grew.notify_all();
    }

    /// Marks the sequence complete, releases its spare capacity (a closed
    /// log never grows again) and wakes waiting readers.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.text.shrink_to_fit();
        inner.ends.shrink_to_fit();
        drop(inner);
        self.grew.notify_all();
    }

    /// `true` once [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Lines appended so far.
    pub fn len(&self) -> usize {
        self.lock().ends.len()
    }

    /// `true` while no event has been appended.
    pub fn is_empty(&self) -> bool {
        self.lock().ends.is_empty()
    }

    /// Returns the lines from index `from` on, blocking up to `timeout`
    /// for growth when the log is still open and has nothing new. The
    /// boolean is `true` once the log is closed **and** everything has
    /// been returned.
    pub fn wait(&self, from: usize, timeout: std::time::Duration) -> (Vec<String>, bool) {
        let mut inner = self.lock();
        if inner.ends.len() <= from && !inner.closed {
            let (guard, _) = self
                .grew
                .wait_timeout(inner, timeout)
                .expect("event log poisoned");
            inner = guard;
        }
        let fresh: Vec<String> = (from..inner.ends.len())
            .map(|index| inner.line(index).to_owned())
            .collect();
        let done = inner.closed && from + fresh.len() == inner.ends.len();
        (fresh, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn readers_replay_then_follow_then_observe_close() {
        let log = Arc::new(EventLog::new());
        log.push("a".to_owned());
        log.push("b".to_owned());
        let (lines, done) = log.wait(0, Duration::from_millis(1));
        assert_eq!(lines, vec!["a", "b"]);
        assert!(!done);

        // A reader at the tip blocks until the writer appends.
        let follower = Arc::clone(&log);
        let handle = std::thread::spawn(move || follower.wait(2, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        log.push("c".to_owned());
        let (lines, done) = handle.join().unwrap();
        assert_eq!(lines, vec!["c"]);
        assert!(!done);

        log.close();
        let (lines, done) = log.wait(3, Duration::from_millis(1));
        assert!(lines.is_empty());
        assert!(done);
        // Late subscribers still replay the full, identical sequence.
        let (lines, done) = log.wait(0, Duration::from_millis(1));
        assert_eq!(lines, vec!["a", "b", "c"]);
        assert!(done);
        // Stragglers after close are dropped.
        log.push("dropped".to_owned());
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn wait_times_out_on_an_idle_open_log() {
        let log = EventLog::new();
        let (lines, done) = log.wait(0, Duration::from_millis(5));
        assert!(lines.is_empty());
        assert!(!done);
        assert!(!log.is_closed());
        assert!(log.is_empty());
    }
}
