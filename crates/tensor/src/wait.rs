//! The one way a thread of this workspace waits for another: poll first,
//! then park.
//!
//! Waking a parked thread is a futex round trip, and on a virtualised host
//! whose idle vCPU halts that costs 25–50 µs — several times a small
//! model's pass or a rank's gradient exchange. A thread that expects its
//! answer soon therefore polls for it for a short window before it parks.
//! [`poll`] is that first half; the second — a channel's `recv_timeout`,
//! a condvar wait under the lock that guards the waiter's "parked" flag —
//! belongs to the caller, who alone knows how to be woken. `deep500-dist`'s
//! thread transport and `deep500-serve`'s two hand-offs (a client waiting
//! for its ticket, an idle worker waiting for a request) wait through it.
//! Sized by the window sweep in EXPERIMENTS E30; E32 for serve.

use std::time::{Duration, Instant};

/// How long [`poll`] keeps trying: about one park/unpark round trip on a
/// virtualised host, so an answer that comes later costs at most ~2× the
/// optimal wait and one that comes sooner saves the round trip.
const SPIN_WINDOW: Duration = Duration::from_micros(50);
/// Attempts separated by a `spin_loop` hint before `yield_now` takes over,
/// so that a waiter sharing its core with the thread it waits for hands
/// the core over.
const SPIN_POLLS: u32 = 8;

/// Call `attempt` until it returns `Some`, for at most 50 µs or `patience`,
/// whichever is shorter, and return what it returned; `None` once that
/// time has passed. `attempt` runs at least once — a zero patience is one
/// try — and never again after it succeeded. Parking after a `None` is the
/// caller's.
pub fn poll<T>(patience: Duration, mut attempt: impl FnMut() -> Option<T>) -> Option<T> {
    let start = Instant::now();
    let window = SPIN_WINDOW.min(patience);
    let mut polls = 0u32;
    loop {
        if let Some(got) = attempt() {
            return Some(got);
        }
        if start.elapsed() >= window {
            return None;
        }
        if polls < SPIN_POLLS {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        polls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_the_first_success_and_never_tries_again() {
        let mut calls = 0;
        let got = poll(Duration::MAX, || {
            calls += 1;
            (calls == 3).then_some(calls * 10)
        });
        assert_eq!((got, calls), (Some(30), 3));
    }

    #[test]
    fn gives_up_after_the_shorter_of_window_and_patience() {
        // Zero patience: exactly one try.
        let mut calls = 0;
        assert_eq!(
            poll(Duration::ZERO, || {
                calls += 1;
                None::<()>
            }),
            None
        );
        assert_eq!(calls, 1);
        // A patience under the window bounds the poll, and the window
        // bounds a longer one.
        for (patience, floor) in [
            (Duration::from_micros(10), Duration::from_micros(10)),
            (Duration::from_secs(5), SPIN_WINDOW),
        ] {
            let start = Instant::now();
            assert_eq!(poll(patience, || None::<()>), None);
            let waited = start.elapsed();
            // The ceiling is loose: a loaded host may deschedule the poller.
            assert!(
                floor <= waited && waited < Duration::from_secs(1),
                "{patience:?}: {waited:?}"
            );
        }
    }
}
