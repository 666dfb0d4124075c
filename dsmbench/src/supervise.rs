//! Runs one unit of work (a KV pass or an app run) on a thread of its own,
//! so that a panic — or a worker left waiting forever at a barrier after its
//! peer panicked — becomes a counted failure instead of killing or hanging
//! the benchmark.
//!
//! A panic inside a DSM worker thread does not always end the run: the
//! surviving worker can stay blocked on a barrier's condition variable, and
//! `Dsm::run` then never returns.  The benchmark's panic hook records the
//! first genuine panic; the supervisor gives the run [`GRACE`] to come back
//! after it, and otherwise leaves the blocked threads behind (they sleep on a
//! condition variable and use no CPU until the process exits).  A run that
//! failed by panicking is timed up to its first panic, so a hang costs no
//! measured time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long a run may take to come back after its first panic before it is
/// declared hung.
const GRACE: Duration = Duration::from_millis(200);
/// Longest a run may take without panicking before it is declared hung.
const DEADLOCK: Duration = Duration::from_secs(20);
/// How often the supervisor checks for a recorded panic.
const POLL: Duration = Duration::from_millis(20);

/// The first genuine panic since the last [`supervise`] call started.
static FIRST_PANIC: Mutex<Option<(Instant, String)>> = Mutex::new(None);

/// How a supervised run ended.
#[derive(Debug)]
pub enum Outcome<T> {
    /// The closure returned.
    Done(T),
    /// A thread panicked and the run came back by unwinding.
    Panicked(String),
    /// A thread panicked (or nothing returned within the deadlock limit) and
    /// the run never came back; its threads were left blocked.
    Hung(String),
}

/// Installs the panic hook that records genuine panics.  Call before the
/// first DSM run: the runtime's own hook for injected crashes then wraps this
/// one and passes on only the panics that are not injected crashes.  Panics
/// whose payload is not a message (the injected crash is one) go to the
/// previous hook unrecorded.
pub fn install_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        match msg {
            Some(msg) => {
                let at = info
                    .location()
                    .map(|l| format!(" at {}:{}", l.file(), l.line()))
                    .unwrap_or_default();
                let mut first = FIRST_PANIC.lock().unwrap_or_else(|e| e.into_inner());
                if first.is_none() {
                    *first = Some((Instant::now(), format!("{msg}{at}")));
                }
            }
            None => prev(info),
        }
    }));
}

fn take_first_panic() -> Option<(Instant, String)> {
    FIRST_PANIC.lock().unwrap_or_else(|e| e.into_inner()).take()
}

/// Runs `work` on a fresh thread and returns how it ended, when it started,
/// and its host duration: from that start to its return, or to its first
/// panic when it failed.
pub fn supervise<T, F>(work: F) -> (Outcome<T>, Instant, Duration)
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    take_first_panic();
    let started: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let (tx, rx) = mpsc::channel();
    let start_slot = Arc::clone(&started);
    let handle = std::thread::Builder::new()
        .name("bench-run".into())
        .spawn(move || {
            let t0 = *start_slot.get_or_init(Instant::now);
            let result = catch_unwind(AssertUnwindSafe(work));
            let elapsed = t0.elapsed();
            let _ = tx.send((result, elapsed));
        })
        .expect("spawn the supervised run thread");
    let spawned = Instant::now();
    loop {
        match rx.recv_timeout(POLL) {
            Ok((result, elapsed)) => {
                handle
                    .join()
                    .expect("supervised thread caught its own panic");
                let first = take_first_panic();
                let t0 = *started.get().expect("the run thread records its start");
                return match result {
                    Ok(value) => (Outcome::Done(value), t0, elapsed),
                    Err(_) => {
                        let (msg, took) = panic_summary(first, &started, elapsed);
                        (Outcome::Panicked(msg), t0, took)
                    }
                };
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let first = FIRST_PANIC
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone();
                let hung = match &first {
                    Some((at, _)) => at.elapsed() > GRACE,
                    None => spawned.elapsed() > DEADLOCK,
                };
                if hung {
                    // The run's threads are blocked for good; leave them.
                    drop(handle);
                    let (msg, took) =
                        panic_summary(take_first_panic(), &started, spawned.elapsed());
                    let t0 = started.get().copied().unwrap_or(spawned);
                    return (Outcome::Hung(msg), t0, took);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the run thread always sends before it exits")
            }
        }
    }
}

/// The message of a failed run and its duration up to the first panic.
fn panic_summary(
    first: Option<(Instant, String)>,
    started: &OnceLock<Instant>,
    fallback: Duration,
) -> (String, Duration) {
    match (first, started.get()) {
        (Some((at, msg)), Some(t0)) => (msg, at.saturating_duration_since(*t0)),
        (Some((_, msg)), None) => (msg, fallback),
        (None, _) => ("no panic message recorded".to_string(), fallback),
    }
}
