//! Lightweight span tracing: enter/exit timestamps into a per-thread
//! ring buffer.
//!
//! A span is opened with [`span`] and recorded when its guard drops.
//! Records land in a fixed-capacity, `const`-initialized thread-local
//! ring (no heap, no locks, no cross-thread traffic), so instrumenting
//! a hot path costs two monotonic-clock reads and a few stores — and
//! the zero-allocation proofs of the pipeline and inference engine
//! hold with tracing on.
//!
//! One switch controls tracing: the [`OBS_ENV`] environment variable
//! (`MINDFUL_OBS`), read once per process; see [`obs_override`] for
//! the accepted values. Tracing defaults to *on*; unparsable values
//! keep the default. A disabled run hands out inert guards that read
//! no clock and record nothing.
//!
//! The ring is per-thread by design: a worker drains its own spans (or
//! simply lets them be overwritten), and there is no global collector
//! to contend on. [`drain_spans`] empties the calling thread's ring.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Environment variable that switches span recording at run time.
pub const OBS_ENV: &str = "MINDFUL_OBS";

/// Capacity of each thread's span ring; older spans are overwritten.
pub const SPAN_RING_CAPACITY: usize = 256;

/// One recorded span: a static name plus enter/exit timestamps in
/// nanoseconds since an arbitrary process-local epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static label passed to [`span`].
    pub name: &'static str,
    /// Entry timestamp (ns since the process obs epoch).
    pub start_ns: u64,
    /// Exit timestamp (ns since the process obs epoch).
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Parses an [`OBS_ENV`] value into an explicit on/off override.
///
/// Accepted (case-insensitive, surrounding whitespace ignored):
/// `1`, `true`, `on`, `yes` → `Some(true)`; `0`, `false`, `off`, `no`
/// → `Some(false)`. Anything else — including empty and garbage like
/// `"maybe"` — returns `None`, deferring to the built-in default
/// (enabled) rather than guessing. The pure-parser split mirrors
/// [`crate::pool::thread_override`] so the garbage paths are testable
/// without racing on the process environment.
#[must_use]
pub fn obs_override(raw: &str) -> Option<bool> {
    crate::env::parse_flag(raw)
}

/// Whether span recording is active: not switched off via
/// [`OBS_ENV`]. The environment is read once and cached for the life
/// of the process.
#[must_use]
pub fn spans_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var(OBS_ENV)
            .ok()
            .as_deref()
            .and_then(obs_override)
            .unwrap_or(true)
    })
}

/// Nanoseconds since the process-local epoch (first use).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Ring {
    slots: [SpanRecord; SPAN_RING_CAPACITY],
    /// Next write position.
    head: usize,
    /// Live records (≤ capacity).
    len: usize,
    /// Spans overwritten before being drained.
    overwritten: u64,
}

const EMPTY: SpanRecord = SpanRecord {
    name: "",
    start_ns: 0,
    end_ns: 0,
};

impl Ring {
    const fn new() -> Self {
        Self {
            slots: [EMPTY; SPAN_RING_CAPACITY],
            head: 0,
            len: 0,
            overwritten: 0,
        }
    }

    fn push(&mut self, record: SpanRecord) {
        self.slots[self.head] = record;
        self.head = (self.head + 1) % SPAN_RING_CAPACITY;
        if self.len < SPAN_RING_CAPACITY {
            self.len += 1;
        } else {
            self.overwritten += 1;
        }
    }
}

thread_local! {
    static RING: RefCell<Ring> = const { RefCell::new(Ring::new()) };
}

/// An open span; the interval is recorded into the thread's ring when
/// the guard drops. With tracing disabled at run time the guard is
/// inert.
#[derive(Debug)]
#[must_use = "a span measures the scope of its guard; binding to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    /// Whether the guard will record on drop.
    armed: bool,
}

impl SpanGuard {
    /// Whether this guard will record a span when dropped.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let record = SpanRecord {
                name: self.name,
                start_ns: self.start_ns,
                end_ns: now_ns(),
            };
            RING.with(|ring| ring.borrow_mut().push(record));
        }
    }
}

/// Opens a span named `name` on the calling thread.
///
/// Allocation-free and lock-free; a disabled run returns an inert
/// guard whose drop does nothing.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let armed = spans_enabled();
    SpanGuard {
        name,
        start_ns: if armed { now_ns() } else { 0 },
        armed,
    }
}

/// Drains the calling thread's span ring into `out` (oldest first) and
/// returns how many spans were overwritten before they could be
/// drained.
pub fn drain_spans(out: &mut Vec<SpanRecord>) -> u64 {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        let start = (ring.head + SPAN_RING_CAPACITY - ring.len) % SPAN_RING_CAPACITY;
        for k in 0..ring.len {
            out.push(ring.slots[(start + k) % SPAN_RING_CAPACITY]);
        }
        let overwritten = ring.overwritten;
        ring.len = 0;
        ring.overwritten = 0;
        overwritten
    })
}

/// Discards the calling thread's recorded spans.
pub fn clear_spans() {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        ring.len = 0;
        ring.overwritten = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_override_parses_explicit_values_and_rejects_garbage() {
        for on in ["1", "true", "ON", " yes ", "True"] {
            assert_eq!(obs_override(on), Some(true), "{on:?}");
        }
        for off in ["0", "false", "OFF", " no ", "False"] {
            assert_eq!(obs_override(off), Some(false), "{off:?}");
        }
        for garbage in ["", "  ", "maybe", "2", "-1", "on please", "0.5"] {
            assert_eq!(obs_override(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn spans_record_and_drain_in_order() {
        clear_spans();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let mut spans = Vec::new();
        let overwritten = drain_spans(&mut spans);
        if spans_enabled() {
            assert_eq!(overwritten, 0);
            // Guards drop in reverse declaration order.
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].name, "inner");
            assert_eq!(spans[1].name, "outer");
            assert!(spans[1].end_ns >= spans[1].start_ns);
            let _ = spans[0].elapsed_ns();
        }
        // A second drain finds nothing either way.
        spans.clear();
        drain_spans(&mut spans);
        assert!(spans.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        clear_spans();
        if !spans_enabled() {
            return;
        }
        for _ in 0..SPAN_RING_CAPACITY + 10 {
            let _s = span("tick");
        }
        let mut spans = Vec::new();
        let overwritten = drain_spans(&mut spans);
        assert_eq!(spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(overwritten, 10);
    }
}
