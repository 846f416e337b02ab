//! The crate's only cross-thread primitives: poison-recovering mutex access and panic
//! payload messages for the service tier's queue/stats locks and workers, and the
//! process-wide world counter.
//!
//! The simulator itself is single-threaded — a `World` is `Send` but never shared —
//! so nothing in the engine takes a lock. The service does: its workers run slices
//! under `catch_unwind` and report back under the queue lock. When one worker panics
//! while holding a guard, `std` marks the mutex *poisoned* and every later `lock()`
//! returns `Err(PoisonError)`. Turning that into a fresh panic (`.expect("lock
//! poisoned")`) converts a single root-cause panic into a storm of secondary panics on
//! other threads — the original message is buried under dozens of "lock poisoned"
//! reports, and abort-on-double-panic can even take the process down before the root
//! cause is printed.
//!
//! [`relock`] recovers the guard instead ([`PoisonError::into_inner`]), so only the
//! first panic surfaces. The poison flag adds no integrity information for the
//! service's locks: it only records that *some* thread panicked, which the unwinding
//! thread already reports, and the crashed slice is retried from its last checkpoint.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A process-unique ordinal for each new world, from which it derives a disjoint
/// configuration-version range. Atomic because worlds are built on every service
/// worker thread.
pub(crate) fn next_world_ordinal() -> u64 {
    static NEXT_WORLD: AtomicU64 = AtomicU64::new(0);
    NEXT_WORLD.fetch_add(1, Ordering::Relaxed)
}

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// See the module docs for why recovery (rather than a secondary panic) is the right
/// behaviour. The service tier uses it for its queue/stats locks: a crashed worker must
/// not turn every later HTTP request into a 503 (callers there count recoveries in a
/// `lock_poison_recoveries` metric).
pub fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a human-readable message from a panic payload (the value returned by
/// [`std::panic::catch_unwind`]'s `Err` arm or passed to a panic hook).
///
/// `panic!("literal")` produces a `&'static str` payload, `panic!("{x}")` and
/// `std::panic::panic_any(String::from(..))` produce a `String`, and
/// `panic_any(other)` produces an arbitrary opaque type. Downcasting to only one of
/// these — the classic `payload.downcast_ref::<&str>().expect(..)` — itself panics
/// on the other two, replacing the root cause with a misleading secondary report.
/// This helper handles all three shapes and never panics: observers that report a
/// crash (the service tier's workers, the poisoned-lock test below) get the original
/// message, or a placeholder for opaque payloads.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A deliberately poisoned lock must still hand out its data, so the panic that
    /// poisoned it stays the *only* panic an observer sees (the root cause is
    /// reported by the panicking thread itself, not masked by secondary
    /// "lock poisoned" panics at every later access).
    #[test]
    fn poisoned_lock_recovers_and_keeps_root_cause() {
        let lock = Mutex::new(vec![1u8, 2, 3]);
        let root_cause = std::panic::catch_unwind(|| {
            let _guard = lock.lock().unwrap();
            panic!("root cause: worker failed mid-update");
        })
        .expect_err("the closure panics while holding the guard");
        // The original panic payload survives intact for the observer (extracted
        // through `panic_message`, which cannot itself panic on a surprising
        // payload type — the bug the old `.expect("string panic payload")` had).
        let message = panic_message(root_cause.as_ref());
        assert!(message.contains("root cause"), "got: {message}");
        // …the mutex is now poisoned…
        assert!(lock.is_poisoned());
        // …and `relock` still yields the data instead of a masking second panic.
        let guard = relock(&lock);
        assert_eq!(*guard, vec![1, 2, 3]);
        drop(guard);
        // Repeated access keeps working (no panic storm).
        relock(&lock).push(4);
        assert_eq!(*relock(&lock), vec![1, 2, 3, 4]);
    }

    /// Every payload shape a panic can carry must come back as a readable message:
    /// `panic!("literal")` (`&'static str`), `panic!("{}", ..)` (`String`), and
    /// `panic_any` of an arbitrary type (opaque placeholder). None of them may make
    /// the extractor itself panic.
    #[test]
    fn panic_message_handles_str_string_and_opaque_payloads() {
        let payload = std::panic::catch_unwind(|| panic!("literal payload")).expect_err("panics");
        assert_eq!(panic_message(payload.as_ref()), "literal payload");

        let worker = 7;
        let payload =
            std::panic::catch_unwind(|| panic!("worker {worker} failed")).expect_err("panics");
        assert_eq!(panic_message(payload.as_ref()), "worker 7 failed");

        let payload =
            std::panic::catch_unwind(|| std::panic::panic_any(String::from("owned string")))
                .expect_err("panics");
        assert_eq!(panic_message(payload.as_ref()), "owned string");

        #[derive(Debug)]
        struct Opaque(#[allow(dead_code)] u32);
        let payload =
            std::panic::catch_unwind(|| std::panic::panic_any(Opaque(3))).expect_err("panics");
        assert_eq!(
            panic_message(payload.as_ref()),
            "<non-string panic payload>"
        );
    }
}
