//! Progress reporting for in-flight explorations.

use std::fmt;
use std::sync::Arc;

/// A milestone of an in-flight exploration, delivered through a
/// [`ProgressSink`].
///
/// Events are emitted by the driver's sequential loop (and, for
/// [`ProgressEvent::Refinement`], by the refinement loop of the `transyt`
/// engine), so the sequence of events is identical on every run — only
/// their wall-clock spacing differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressEvent {
    /// Another 32 configurations were expanded, or a level ended: the
    /// counters describe the prefix explored so far.
    Batch {
        /// Configurations expanded so far.
        expanded: usize,
        /// Configurations discovered (stored in the seen set) so far.
        discovered: usize,
        /// Enqueued configurations skipped by pop-time subsumption so far.
        subsumption_skips: usize,
    },
    /// A breadth-first level finished.
    Level {
        /// Zero-based index of the completed level.
        index: usize,
        /// Number of configurations enqueued for the next level.
        frontier: usize,
    },
    /// A refinement iteration of the relative-timing engine started (the
    /// first pass is iteration `0`; each derived constraint set increments
    /// it). Emitted by `transyt::verify`, not by the driver itself.
    Refinement {
        /// Zero-based index of the starting exploration pass.
        iteration: usize,
    },
    /// The exploration observed its fired [`CancelToken`](crate::CancelToken)
    /// and stopped.
    Cancelled {
        /// Configurations expanded when the search stopped.
        expanded: usize,
    },
}

type Callback = dyn Fn(&ProgressEvent) + Send + Sync;

/// A callback receiving [`ProgressEvent`]s from in-flight explorations.
///
/// Sinks are cheap to clone (clones share one callback). The default sink is
/// *inert*: it receives nothing and costs one branch to check, so callers
/// that do not observe progress pay nothing. Mirrors the design of
/// [`CancelToken`](crate::CancelToken).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use explore::{ProgressEvent, ProgressSink};
///
/// let seen = Arc::new(AtomicUsize::new(0));
/// let counter = Arc::clone(&seen);
/// let sink = ProgressSink::new(move |event| {
///     if let ProgressEvent::Batch { expanded, .. } = event {
///         counter.store(*expanded, Ordering::Relaxed);
///     }
/// });
/// sink.emit(&ProgressEvent::Batch { expanded: 7, discovered: 9, subsumption_skips: 0 });
/// assert_eq!(seen.load(Ordering::Relaxed), 7);
///
/// // The inert sink swallows everything.
/// ProgressSink::default().emit(&ProgressEvent::Level { index: 0, frontier: 3 });
/// ```
#[derive(Clone, Default)]
pub struct ProgressSink(Option<Arc<Callback>>);

impl ProgressSink {
    /// Wraps a callback into a live sink.
    pub fn new(callback: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> Self {
        ProgressSink(Some(Arc::new(callback)))
    }

    /// Delivers one event. No-op on the inert default sink.
    pub fn emit(&self, event: &ProgressEvent) {
        if let Some(callback) = &self.0 {
            callback(event);
        }
    }

    /// Returns `true` for the inert default sink (no callback attached).
    pub fn is_inert(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "ProgressSink(inert)"),
            Some(_) => write!(f, "ProgressSink(live)"),
        }
    }
}

/// Sinks compare by identity, like `CancelToken`: two sinks are equal when
/// they deliver to the same callback (or both are inert). This keeps option
/// structs embedding a sink comparable.
impl PartialEq for ProgressSink {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for ProgressSink {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn clones_share_one_callback_and_compare_by_identity() {
        let hits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hits);
        let sink = ProgressSink::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let clone = sink.clone();
        assert_eq!(sink, clone);
        assert!(!sink.is_inert());
        clone.emit(&ProgressEvent::Refinement { iteration: 0 });
        sink.emit(&ProgressEvent::Cancelled { expanded: 1 });
        assert_eq!(hits.load(Ordering::Relaxed), 2);

        let other = ProgressSink::new(|_| {});
        assert_ne!(sink, other);
        assert_eq!(ProgressSink::default(), ProgressSink::default());
        assert_ne!(sink, ProgressSink::default());
        assert!(ProgressSink::default().is_inert());
    }
}
