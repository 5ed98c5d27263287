//! SIGINT wiring for interruptible mining.
//!
//! A single process-wide `Arc<AtomicBool>` is handed to [`dc_floc::FlocConfig`]
//! (via `mine`), and a minimal raw `signal(2)` binding flips it from the
//! SIGINT handler. The handler does nothing but an atomic store — the only
//! kind of work that is async-signal-safe — so the mining loop notices the
//! flag at its next safe boundary, finishes bookkeeping, and returns the
//! best result found so far instead of dying mid-iteration.
//!
//! A **second** SIGINT means the user is done waiting for the drain: the
//! handler calls `_exit(3)` directly (also async-signal-safe — no atexit
//! hooks, no unwinding, no allocator). Exit 3 is the workspace's
//! "interrupted with a checkpoint" code: every durable write in the
//! workspace is write-fsync-rename, so whatever checkpoint was completed
//! last is intact on disk and a restart resumes from it.
//!
//! The workspace vendors no `libc` crate, so the binding is a one-line
//! `extern "C"` declaration of `signal`, gated to Unix. On other platforms
//! [`install`] is a no-op and ctrl-c keeps its default behavior.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

/// The process-wide interrupt flag. Created on first use; the same handle
/// is returned forever after, so wiring it into a config before or after
/// [`install`] both work.
pub fn flag() -> Arc<AtomicBool> {
    FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone()
}

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    // Async-signal-safe: a relaxed swap on an already-initialized atomic,
    // and on the second signal a raw `_exit` (no unwinding, no hooks).
    if let Some(f) = FLAG.get() {
        if f.swap(true, Ordering::Relaxed) {
            // Second SIGINT: force-quit with the interrupted-with-checkpoint
            // code. Durable state is whatever atomic rename landed last.
            extern "C" {
                fn _exit(code: i32) -> !;
            }
            unsafe { _exit(3) }
        }
    }
}

/// Installs the SIGINT handler. Call once, early in `main`.
#[cfg(unix)]
pub fn install() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    // Initialize the flag *before* the handler can fire.
    let _ = flag();
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

/// No-op outside Unix; ctrl-c falls back to default process termination.
#[cfg(not(unix))]
pub fn install() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_is_shared_and_sticky() {
        let a = flag();
        let b = flag();
        a.store(true, Ordering::Relaxed);
        assert!(b.load(Ordering::Relaxed));
        // Reset so other tests in this process see a clean flag.
        a.store(false, Ordering::Relaxed);
    }
}
