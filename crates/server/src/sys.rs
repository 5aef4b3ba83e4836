//! Graceful-shutdown signal handling (SIGTERM / ctrl-c) with no libc crate:
//! the handler registration goes straight through the C `signal` symbol the
//! Rust standard library already links.

use std::sync::atomic::{AtomicBool, Ordering};

static SIGNAL: AtomicBool = AtomicBool::new(false);

/// Returns `true` once SIGTERM or SIGINT has been received (always `false`
/// before [`install_shutdown_signals`] ran, or on non-Unix platforms).
pub fn signal_received() -> bool {
    SIGNAL.load(Ordering::SeqCst)
}

/// The async-signal-safe handler: a single atomic store, observed by the
/// server's shutdown watcher at its next poll.
unsafe extern "C" fn on_signal(_signum: i32) {
    SIGNAL.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM / SIGINT handlers. Idempotent; no-op off Unix.
#[cfg(unix)]
pub fn install_shutdown_signals() {
    type Handler = unsafe extern "C" fn(i32);
    extern "C" {
        // `sighandler_t signal(int signum, sighandler_t handler)` from libc,
        // which std already links. The previous handler is returned as an
        // opaque word; we never restore it.
        fn signal(signum: i32, handler: Handler) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` only performs an atomic store, which is
    // async-signal-safe, and the handler stays valid for the process
    // lifetime (it is a plain fn item).
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Installs the SIGTERM / SIGINT handlers. Idempotent; no-op off Unix.
#[cfg(not(unix))]
pub fn install_shutdown_signals() {
    let _ = on_signal;
}
