//! The one clock every timing site reads.
//!
//! [`now_ns`] is monotonic time plus a per-thread offset that only
//! [`advance_ns`] raises, so a test stage can make its own step take
//! longer with no sleep. [`reads`] counts the calling thread's reads,
//! so a test can pin how often a path reads the clock. Both live in
//! `const`-initialised thread-local `Cell`s: no lazy init, no
//! destructor, no allocation, no lock.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    static OFFSET_NS: Cell<u64> = const { Cell::new(0) };
    static READS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process-local epoch plus the calling thread's
/// [`advance_ns`] offset; monotonic per thread. Counts one [`reads`].
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let real =
        u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX);
    READS.with(|reads| reads.set(reads.get() + 1));
    real.saturating_add(OFFSET_NS.with(Cell::get))
}

/// Nanoseconds from `start_ns` (an earlier [`now_ns`] on the same
/// thread) to now: one clock read.
#[inline]
pub fn since_ns(start_ns: u64) -> u64 {
    now_ns().saturating_sub(start_ns)
}

/// Moves the calling thread's clock `ns` nanoseconds forward without
/// reading it.
pub fn advance_ns(ns: u64) {
    OFFSET_NS.with(|offset| offset.set(offset.get().saturating_add(ns)));
}

/// How many times the calling thread has called [`now_ns`].
#[must_use]
pub fn reads() -> u64 {
    READS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_counts_once_on_its_own_thread() {
        let before = reads();
        let a = now_ns();
        let b = since_ns(a);
        assert_eq!(reads() - before, 2);
        assert!(b < 60_000_000_000, "two adjacent reads are close");
        let other = std::thread::spawn(|| {
            let _ = now_ns();
            reads()
        })
        .join()
        .unwrap();
        assert_eq!(other, 1, "a fresh thread counts only its own reads");
        assert_eq!(reads() - before, 2);
    }

    #[test]
    fn advance_moves_only_the_calling_thread() {
        let before = reads();
        let start = now_ns();
        advance_ns(5_000_000_000);
        assert!(since_ns(start) >= 5_000_000_000);
        assert_eq!(reads() - before, 2, "advancing reads no clock");
        let other = std::thread::spawn(|| {
            let start = now_ns();
            since_ns(start)
        })
        .join()
        .unwrap();
        assert!(other < 5_000_000_000, "another thread's clock is not moved");
    }
}
