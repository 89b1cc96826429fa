//! Zero-overhead observability: metrics registry, span tracing, and
//! exporters.
//!
//! The design splits the cost of observation into two phases so the
//! hot path never pays for the cold one:
//!
//! * **Setup** (allocating, locking): [`Registry::counter`] /
//!   [`Registry::gauge`] / [`Registry::histogram`] register named
//!   metrics and hand back cheap cloneable handles.
//! * **Recording** (lock-free, allocation-free): handles write through
//!   relaxed atomics into per-worker cache-padded shards
//!   ([`metrics::SHARDS`]); histograms bin into fixed log₂ buckets.
//!   Span guards ([`span()`]) stamp enter/exit times into a
//!   `const`-initialized per-thread ring inside a capture window. The
//!   zero-allocation proofs hold with all of this recording.
//! * **Scraping** (allocating, reader-side): [`Registry::snapshot`]
//!   merges shards into a deterministic, name-sorted [`Snapshot`] that
//!   exports as JSON lines ([`Snapshot::to_jsonl`], round-trippable via
//!   [`Snapshot::from_jsonl`]) or a human `Display` summary.
//!
//! Metrics answer "how much / how often"; spans answer "where did the
//! time go" between [`clear_spans`] and [`drain_spans`]. Every timer
//! reads the one [`clock`]. All of it is always compiled; see
//! DESIGN.md §10 for the architecture discussion.

pub mod clock;
pub mod export;
pub mod metrics;
pub mod names;
pub mod registry;
pub mod span;

pub use metrics::{
    bucket_index, bucket_upper_edge, Counter, Gauge, Histogram, HistogramState, BUCKETS, SHARDS,
};
pub use registry::{Registry, Snapshot};
pub use span::{clear_spans, drain_spans, span, SpanRecord};
