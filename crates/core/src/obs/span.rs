//! Lightweight span tracing: enter/exit timestamps into a per-thread
//! ring buffer, recorded only inside a capture window.
//!
//! A span is opened with [`span`] and recorded when its guard drops,
//! into a fixed-capacity, `const`-initialized thread-local ring (no
//! heap, no locks), so the zero-allocation proofs hold while spans
//! record. [`clear_spans`] empties the calling thread's ring and opens
//! its capture window; [`drain_spans`] hands back the records and
//! closes it. A span outside the window (or still open when it closes)
//! reads no [`clock`] and records nothing.

use std::cell::{Cell, RefCell};

use super::clock;

/// Capacity of each thread's span ring; older spans are overwritten.
pub(crate) const SPAN_RING_CAPACITY: usize = 256;

/// One recorded span: a static name plus enter/exit timestamps in
/// nanoseconds on the [`clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static label passed to [`span`].
    pub name: &'static str,
    /// Entry timestamp ([`clock::now_ns`]).
    pub(crate) start_ns: u64,
    /// Exit timestamp ([`clock::now_ns`]).
    pub(crate) end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
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
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

fn capturing() -> bool {
    CAPTURING.with(Cell::get)
}

/// An open span; the interval is recorded into the thread's ring when
/// the guard drops. A guard opened outside a capture window is inert.
#[derive(Debug)]
#[must_use = "a span measures the scope of its guard; binding to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    /// Entry timestamp; `None` for an inert guard.
    start_ns: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start_ns) = self.start_ns {
            if capturing() {
                let record = SpanRecord {
                    name: self.name,
                    start_ns,
                    end_ns: clock::now_ns(),
                };
                RING.with(|ring| ring.borrow_mut().push(record));
            }
        }
    }
}

/// Opens a span named `name` on the calling thread.
///
/// Allocation-free and lock-free; outside a capture window it returns
/// an inert guard that reads no clock and whose drop does nothing.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start_ns: capturing().then(clock::now_ns),
    }
}

/// Drains the calling thread's span ring into `out` (oldest first),
/// closes its capture window, and returns how many spans were
/// overwritten before they could be drained.
pub fn drain_spans(out: &mut Vec<SpanRecord>) -> u64 {
    CAPTURING.with(|on| on.set(false));
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

/// Discards the calling thread's recorded spans and opens its capture
/// window: spans record from here until the next [`drain_spans`].
pub fn clear_spans() {
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        ring.len = 0;
        ring.overwritten = 0;
    });
    CAPTURING.with(|on| on.set(true));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_drain_in_order() {
        clear_spans();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let mut spans = Vec::new();
        let overwritten = drain_spans(&mut spans);
        assert_eq!(overwritten, 0);
        // Guards drop in reverse declaration order.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert!(spans[1].end_ns >= spans[1].start_ns);
        assert!(spans[1].elapsed_ns() >= spans[0].elapsed_ns());
        // A second drain finds nothing.
        spans.clear();
        drain_spans(&mut spans);
        assert!(spans.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        clear_spans();
        for _ in 0..SPAN_RING_CAPACITY + 10 {
            let _s = span("tick");
        }
        let mut spans = Vec::new();
        let overwritten = drain_spans(&mut spans);
        assert_eq!(spans.len(), SPAN_RING_CAPACITY);
        assert_eq!(overwritten, 10);
    }

    #[test]
    fn a_span_outside_the_window_records_nothing_and_reads_no_clock() {
        let mut spans = Vec::new();
        drain_spans(&mut spans);
        spans.clear();
        let reads = clock::reads();
        {
            let _s = span("unseen");
        }
        assert_eq!(clock::reads(), reads, "no clock read outside a window");
        clear_spans();
        assert_eq!(drain_spans(&mut spans), 0);
        assert!(spans.is_empty(), "nothing recorded before the window");
    }

    #[test]
    fn the_window_opens_at_clear_and_closes_at_drain() {
        let mut spans = Vec::new();
        clear_spans();
        let reads = clock::reads();
        {
            let _s = span("inside");
        }
        assert_eq!(clock::reads() - reads, 2, "enter and exit");
        drain_spans(&mut spans);
        assert_eq!(spans.len(), 1);
        {
            let _s = span("after");
        }
        spans.clear();
        drain_spans(&mut spans);
        assert!(spans.is_empty(), "the drain closed the window");
        // A guard still open when its window closes records nothing.
        clear_spans();
        let open = span("cut");
        drain_spans(&mut spans);
        let reads = clock::reads();
        drop(open);
        assert_eq!(clock::reads(), reads);
        drain_spans(&mut spans);
        assert!(spans.is_empty());
    }

    #[test]
    fn an_outer_guard_records_after_an_inner_one_drops() {
        clear_spans();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        }
        let mut spans = Vec::new();
        drain_spans(&mut spans);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["inner", "sibling", "outer"]);
        assert!(spans[2].start_ns <= spans[0].start_ns);
        assert!(spans[2].end_ns >= spans[1].end_ns);
    }
}
