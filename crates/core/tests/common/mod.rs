//! Helpers shared by the integration suites.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Runs `f` on a worker thread and panics if it does not finish within
/// `limit` — the explicit hang detector of the chaos, recovery and
/// pipeline suites. A panic inside `f` (a failed assertion) is re-raised
/// as itself; only a real timeout is reported as a hang.
pub fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => {
            worker.join().expect("watchdog worker");
            v
        }
        // The sender was dropped unsent: `f` panicked.
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: test exceeded {limit:?} — the runtime hung")
        }
    }
}
