//! Lock-free metric primitives: sharded counters, gauges, and
//! fixed-bucket log-scale histograms.
//!
//! Every recording operation is a handful of relaxed atomic writes —
//! no locks, no heap allocation — so a warm instrumented hot path
//! (the streaming pipeline, the batched inference engine) keeps the
//! zero-allocation guarantees proven by the counting-allocator tests.
//! Counters and histograms are *sharded*: each recording thread writes
//! its own cache-padded slot, and the shards are summed only at scrape
//! time, so concurrent workers on the `crate::pool` never contend on a
//! single cache line.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of cache-padded shards per counter / histogram.
///
/// Threads are assigned shards round-robin on first use; with more
/// threads than shards two workers may share a slot (still correct —
/// the slot is atomic — just contended).
pub const SHARDS: usize = 16;

/// Number of histogram buckets: one for zero, one per power-of-two
/// decade of `u64`, so every value up to [`u64::MAX`] lands in a
/// bucket without saturating logic or panics.
pub const BUCKETS: usize = 65;

/// Maps a recorded value to its bucket index.
///
/// Bucket `0` holds exactly the value `0`; bucket `k ≥ 1` holds the
/// half-open power-of-two decade `[2^(k-1), 2^k)`. The edges are exact:
/// `2^k - 1` lands in bucket `k` and `2^k` starts bucket `k + 1`, and
/// [`u64::MAX`] lands in the last bucket (index 64) without wrapping.
#[must_use]
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper edge of bucket `index` (`u64::MAX` for the last).
///
/// Useful for rendering: a value recorded into bucket `k` is known to
/// be `≤ bucket_upper_edge(k)` and `> bucket_upper_edge(k - 1)`.
#[must_use]
pub fn bucket_upper_edge(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1_u64 << index) - 1
    }
}

/// One cache line's worth of atomic counter, so neighbouring shards
/// never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// The shard a recording thread writes by default: assigned round-robin
/// the first time a thread records anything.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

#[derive(Debug, Default)]
pub(crate) struct CounterCore {
    shards: [PaddedU64; SHARDS],
}

/// A monotonically increasing, sharded counter handle.
///
/// Handles are cheap to clone (an [`Arc`] bump) and recording is one
/// relaxed atomic add into the calling thread's shard. The merged
/// value ([`Counter::value`]) is the sum over shards, identical to what
/// single-threaded recording of the same operations would produce.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Arc<CounterCore>);

impl Counter {
    /// A free-standing counter (not registered anywhere).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.add_to_shard(thread_shard(), n);
    }

    /// Adds 1 to the calling thread's shard.
    #[inline]
    pub fn increment(&self) {
        self.add(1);
    }

    /// Adds `n` to an explicit shard — the worker-pinned form used when
    /// the caller already knows its `crate::pool` worker index (and by
    /// the shard-merge equivalence tests). `shard` is taken modulo
    /// [`SHARDS`].
    #[inline]
    pub fn add_to_shard(&self, shard: usize, n: u64) {
        self.0.shards[shard % SHARDS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The merged value: the sum of every shard.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }
}

#[derive(Debug)]
pub(crate) struct GaugeCore {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Default for GaugeCore {
    fn default() -> Self {
        Self {
            value: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }
}

/// A last-write-wins gauge with a monotone high-water mark.
///
/// Gauges are not sharded: "last write wins" has no meaningful shard
/// merge, and the high-water mark is maintained with `fetch_max`,
/// which *is* its own merge. Both operations are single relaxed
/// atomics — lock-free and allocation-free.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Arc<GaugeCore>);

impl Gauge {
    /// A free-standing gauge (not registered anywhere).
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Stores `v` and raises the high-water mark if `v` exceeds it.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// The last stored value.
    #[must_use]
    pub(crate) fn value(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The largest value ever stored.
    #[must_use]
    pub(crate) fn high_water(&self) -> u64 {
        self.0.high_water.load(Ordering::Relaxed)
    }
}

/// One shard of a histogram: padded so shards on adjacent indices do
/// not false-share their hot leading fields.
#[repr(align(64))]
struct HistogramShard {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` sentinel until the first record.
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramShard {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [0_u64; BUCKETS].map(AtomicU64::new),
        }
    }
}

impl HistogramShard {
    /// Saturating atomic add: the sum sticks at `u64::MAX` instead of
    /// wrapping, and because every operand is non-negative the final
    /// merged sum equals `min(true sum, u64::MAX)` regardless of how
    /// records were interleaved or sharded.
    fn saturating_add_sum(&self, v: u64) {
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[derive(Default)]
pub(crate) struct HistogramCore {
    shards: [HistogramShard; SHARDS],
}

impl core::fmt::Debug for HistogramCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HistogramCore").finish_non_exhaustive()
    }
}

/// A fixed-bucket log₂-scale histogram handle.
///
/// 65 buckets cover the whole `u64` range (see [`bucket_index`]), so
/// recording never saturates a bucket boundary or panics — including
/// at [`u64::MAX`]. The running sum saturates at `u64::MAX` instead of
/// wrapping. Recording touches one shard: count, sum, min, max, and
/// one bucket, all relaxed atomics.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Arc<HistogramCore>);

/// The merged, owned state of a histogram at scrape time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramState {
    /// Number of recorded values.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` sentinel while empty).
    pub min: u64,
    /// Largest recorded value (0 while empty).
    pub max: u64,
    /// Per-bucket counts (see [`bucket_index`] for the layout).
    pub buckets: [u64; BUCKETS],
}

impl HistogramState {
    /// An empty state (what a fresh histogram merges to).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Mean of the recorded values (`None` while empty). Computed from
    /// the saturating sum, so it is a lower bound after saturation.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound on the `q`-quantile (`q` in `[0, 1]`), from the
    /// cumulative bucket counts: the inclusive upper edge of the first
    /// bucket at which the running count reaches `ceil(q · count)`.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without going through floats for the common exact cases.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(bucket_upper_edge(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

impl Histogram {
    /// A free-standing histogram (not registered anywhere).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `v` into the calling thread's shard.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_to_shard(thread_shard(), v);
    }

    /// Records `v` into an explicit shard (worker-pinned form; `shard`
    /// is taken modulo [`SHARDS`]).
    #[inline]
    pub fn record_to_shard(&self, shard: usize, v: u64) {
        let s = &self.0.shards[shard % SHARDS];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.saturating_add_sum(v);
        s.min.fetch_min(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges every shard into one owned state: counts and buckets
    /// add, sums add saturating, min/max take min/max.
    #[must_use]
    pub fn state(&self) -> HistogramState {
        let mut merged = HistogramState::empty();
        for s in &self.0.shards {
            merged.count += s.count.load(Ordering::Relaxed);
            merged.sum = merged.sum.saturating_add(s.sum.load(Ordering::Relaxed));
            merged.min = merged.min.min(s.min.load(Ordering::Relaxed));
            merged.max = merged.max.max(s.max.load(Ordering::Relaxed));
            for (m, b) in merged.buckets.iter_mut().zip(&s.buckets) {
                *m += b.load(Ordering::Relaxed);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..64 {
            let edge = 1_u64 << k;
            assert_eq!(bucket_index(edge - 1), k, "2^{k} - 1 closes bucket {k}");
            assert_eq!(bucket_index(edge), k + 1, "2^{k} opens bucket {}", k + 1);
        }
        assert_eq!(bucket_index(u64::MAX), 64, "MAX lands in the last bucket");
    }

    #[test]
    fn bucket_upper_edges_match_the_index_map() {
        assert_eq!(bucket_upper_edge(0), 0);
        assert_eq!(bucket_upper_edge(1), 1);
        assert_eq!(bucket_upper_edge(10), 1023);
        assert_eq!(bucket_upper_edge(64), u64::MAX);
        for k in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_upper_edge(k)), k);
        }
    }

    #[test]
    fn counter_merges_shards_into_one_sum() {
        let c = Counter::new();
        for shard in 0..SHARDS * 2 {
            c.add_to_shard(shard, 3);
        }
        c.add(4);
        assert_eq!(c.value(), (SHARDS as u64 * 2) * 3 + 4);
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let g = Gauge::new();
        assert_eq!((g.value(), g.high_water()), (0, 0));
        g.set(7);
        g.set(3);
        assert_eq!(g.value(), 3, "last write wins");
        assert_eq!(g.high_water(), 7, "high water is monotone");
    }

    #[test]
    fn histogram_records_extremes_without_panicking() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.state();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[64], 2);
    }

    #[test]
    fn histogram_state_statistics() {
        let h = Histogram::new();
        assert_eq!(h.state().mean(), None);
        assert_eq!(h.state().quantile_upper_bound(0.5), None);
        for v in [1_u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let s = h.state();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 110);
        assert_eq!(s.mean(), Some(22.0));
        // p50: third record in cumulative bucket order → bucket of 3.
        assert_eq!(s.quantile_upper_bound(0.5), Some(3));
        // p99 rounds up to the last record, capped at the true max.
        assert_eq!(s.quantile_upper_bound(0.99), Some(100));
        assert_eq!(s.quantile_upper_bound(0.0), Some(1));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (c, h) = (c.clone(), h.clone());
                scope.spawn(move || {
                    for i in 0..1000_u64 {
                        c.add(1);
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        assert_eq!(h.state().count, 8000);
        assert_eq!(h.state().buckets.iter().sum::<u64>(), 8000);
    }
}
