//! The worker [`Scheduler`] every parallel path in the reproduction
//! dispatches on.
//!
//! The design-space sweep engine ([`crate::sweep`]), batched DNN
//! inference (`mindful_dnn::infer::Network::forward_batch`), and the
//! fleet serving layer (`mindful_pipeline::serve`, also the
//! multi-stream driver) each take a `&Scheduler` from their caller
//! and fan out on it: the scheduler owns the worker
//! budget and the dispatch accounting, the clients own only their
//! data. There is no hidden process-wide scheduler — a caller builds
//! one with [`Scheduler::new`] or [`Scheduler::with_default_threads`]
//! (construction is four plain fields, no allocation) and its
//! [`Scheduler::stats`] count every task it ran.
//!
//! Two dispatch disciplines exist:
//!
//! * [`Scheduler::map_init`] — **chunked** dispatch: the input splits
//!   into contiguous chunks, one per worker, each with private
//!   per-worker state, and results land in pre-assigned slots. Output
//!   order — and any state-dependent output — is byte-identical for
//!   every worker count and schedule.
//! * [`Scheduler::dispatch_phased`] — **work-stealing** dispatch over
//!   claimable [`TaskSlot`]s: every ready task is claimed exactly once
//!   per epoch through a shared cursor, so a worker that runs dry
//!   steals the tail of a slower worker's share, and phases run
//!   strictly one after another. This is the discipline the fleet
//!   layer uses to multiplex heterogeneous implant sessions by
//!   priority class; it is only appropriate for tasks whose output is
//!   independent of *which* worker runs them (each task owns its whole
//!   state). A flat epoch is a single phase.
//!
//! OS threads are scoped per call — the service is long-lived, the
//! workers are not — so clients can hand the scheduler borrowed data
//! without `'static` bounds, and a one-worker (or one-task) dispatch
//! runs inline on the caller's thread without spawning or allocating.
//!
//! Worker count defaults to the machine's available parallelism and
//! can be pinned with the `MINDFUL_SWEEP_THREADS` environment variable
//! (see [`default_threads`] for the precedence contract, and
//! `crate::env::parse_count` for the one shared numeric-knob
//! parser). The variable predates this module — it is named after the
//! sweep engine that introduced it — and governs every scheduler built
//! by [`Scheduler::with_default_threads`].

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable that pins the worker count for every consumer
/// of [`default_threads`] (historically named after the sweep engine).
pub const SWEEP_THREADS_ENV: &str = "MINDFUL_SWEEP_THREADS";

/// Upper bound on the worker count (env values are clamped to it).
pub(crate) const MAX_SWEEP_THREADS: usize = 256;

/// Resolves the default worker count for parallel fan-outs.
///
/// The one documented precedence for the thread knob, shared by every
/// scheduler built with [`Scheduler::with_default_threads`]:
///
/// 1. An explicit integer in [`SWEEP_THREADS_ENV`] always wins,
///    clamped into `[1, MAX_SWEEP_THREADS]` by
///    `crate::env::parse_count` — so `"0"` pins one worker and an
///    overlong value (one that overflows `usize`) pins the maximum
///    rather than being silently ignored.
/// 2. Empty, whitespace-only, or non-numeric values defer to the
///    machine's available parallelism.
/// 3. If that cannot be queried, one worker.
#[must_use]
pub fn default_threads() -> NonZeroUsize {
    if let Some(n) = std::env::var(SWEEP_THREADS_ENV)
        .ok()
        .as_deref()
        .and_then(|raw| crate::env::parse_count(raw, MAX_SWEEP_THREADS))
    {
        return n;
    }
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// A cumulative snapshot of a [`Scheduler`]'s dispatch accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Dispatch calls served (chunked maps and stealing epochs alike).
    pub epochs: u64,
    /// Tasks run across all dispatches.
    pub tasks: u64,
    /// Tasks claimed by a worker beyond its fair per-epoch share —
    /// the work-stealing ledger (always zero for chunked dispatch,
    /// which pre-assigns shares).
    pub(crate) steals: u64,
}

/// A claimable work slot for [`Scheduler::dispatch_phased`].
///
/// Interior-mutable so that *any* worker can take exclusive access to
/// the task it claims: the dispatch cursor hands each ready index to
/// exactly one worker per epoch, so the lock is uncontended by
/// construction and exists only to make the hand-off safe. Locking a
/// warm slot performs no heap allocation.
#[derive(Debug, Default)]
pub struct TaskSlot<T>(Mutex<T>);

impl<T> TaskSlot<T> {
    /// Wraps a task.
    pub fn new(task: T) -> Self {
        Self(Mutex::new(task))
    }

    /// Exclusive access without locking (requires `&mut self`, so the
    /// borrow checker proves no worker holds the slot).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the slot (used by the dispatch workers; a claimed slot is
    /// never contended).
    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A long-lived dispatch service multiplexing clients over one worker
/// budget.
///
/// The scheduler owns scheduling *policy and accounting*, not OS
/// threads: workers are scoped per dispatch call, so clients can hand
/// it borrowed data, and the serial paths (one worker or at most one
/// task) run inline without spawning or allocating. See the module
/// docs for the two dispatch disciplines and which clients use which.
#[derive(Debug)]
pub struct Scheduler {
    workers: NonZeroUsize,
    epochs: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
}

impl Scheduler {
    /// A scheduler with an explicit worker budget.
    #[must_use]
    pub fn new(workers: NonZeroUsize) -> Self {
        Self {
            workers,
            epochs: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// A scheduler sized by [`default_threads`] (the
    /// `MINDFUL_SWEEP_THREADS` precedence, resolved at construction).
    #[must_use]
    pub fn with_default_threads() -> Self {
        Self::new(default_threads())
    }

    /// The scheduler's worker budget.
    #[must_use]
    pub fn workers(&self) -> NonZeroUsize {
        self.workers
    }

    /// A snapshot of the cumulative dispatch accounting.
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            epochs: self.epochs.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    fn account(&self, tasks: usize, steals: u64) {
        self.epochs.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        if steals > 0 {
            self.steals.fetch_add(steals, Ordering::Relaxed);
        }
    }

    /// Chunked, deterministic dispatch: maps `f` over `items` on up to
    /// [`Scheduler::workers`] scoped workers, each with private state
    /// built once by `init`, returning outputs in input order.
    ///
    /// The input splits into contiguous chunks, one per worker; worker
    /// `w` owns the `w`-th chunk and writes into the matching result
    /// slots, so the output — including any state-dependent output —
    /// is byte-identical for every schedule. `f` receives the item's
    /// index alongside the item. With one worker (or at most one item)
    /// everything runs inline on the caller's thread and `init` is
    /// called once overall. Stateless clients pass `|| ()`.
    pub fn map_init<I, T, S, G, F>(&self, items: &[I], init: G, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        let n = items.len();
        self.account(n, 0);
        let workers = self.workers.get().min(n);
        if workers <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, x)| f(&mut state, i, x))
                .collect();
        }
        let chunk = n.div_ceil(workers);
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        std::thread::scope(|scope| {
            let f = &f;
            let init = &init;
            for (ci, (in_chunk, out_chunk)) in
                items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
            {
                let base = ci * chunk;
                scope.spawn(move || {
                    let mut state = init();
                    for (j, (item, slot)) in in_chunk.iter().zip(out_chunk.iter_mut()).enumerate() {
                        *slot = Some(f(&mut state, base + j, item));
                    }
                });
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every slot is written by exactly one worker"))
            .collect()
    }

    /// One epoch of phased work-stealing dispatch: runs `run` once for
    /// every index in every phase, the phases strictly in order —
    /// every task of phase `p` completes before any task of phase
    /// `p + 1` starts — while tasks *within* a phase are claimed through
    /// a shared cursor, so workers that finish their fair share steal
    /// the remainder.
    ///
    /// Each phase indexes into `slots`; each listed slot is claimed by
    /// exactly one worker (listing an index twice runs it twice,
    /// sequentially — the slot lock serializes the runs). Which worker
    /// runs which task is schedule-dependent, so this discipline is
    /// only for tasks whose output is independent of the executing
    /// worker (each task owns its whole state).
    ///
    /// This is the priority-class discipline the fleet serving layer
    /// uses: each phase is one priority class's ready list, so a
    /// realtime session can never be delayed behind best-effort work,
    /// yet workers still steal freely inside a class; a flat epoch is
    /// `&[ready]`. The barrier between phases is the scoped-thread join
    /// itself. The whole call accounts as **one** scheduling epoch
    /// (tasks and steals summed over the phases); empty phases cost
    /// nothing. With one worker (or at most one task in a phase) the
    /// phase runs inline, in ready order, without spawning or
    /// allocating — so phased serial dispatch is exactly concatenated
    /// serial dispatch, which is what makes fleet accounting
    /// worker-count invariant.
    pub fn dispatch_phased<T, F>(&self, slots: &[TaskSlot<T>], phases: &[&[usize]], run: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let mut tasks = 0_usize;
        let stolen = AtomicU64::new(0);
        for ready in phases {
            let n = ready.len();
            tasks += n;
            let workers = self.workers.get().min(n);
            if workers <= 1 {
                for &idx in *ready {
                    run(idx, &mut slots[idx].lock());
                }
                continue;
            }
            // Fair share per worker; claims beyond it are steals.
            let share = n.div_ceil(workers) as u64;
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let (cursor, stolen, run) = (&cursor, &stolen, &run);
                for _ in 0..workers {
                    scope.spawn(move || {
                        let mut claimed = 0_u64;
                        loop {
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            if k >= n {
                                break;
                            }
                            claimed += 1;
                            let idx = ready[k];
                            run(idx, &mut slots[idx].lock());
                        }
                        let over = claimed.saturating_sub(share);
                        if over > 0 {
                            stolen.fetch_add(over, Ordering::Relaxed);
                        }
                    });
                }
            });
        }
        self.account(tasks, stolen.into_inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    /// Stateless chunked map of `f` over `items` on `workers` workers.
    fn map<I: Sync, T: Send>(
        items: &[I],
        workers: usize,
        f: impl Fn(usize, &I) -> T + Sync,
    ) -> Vec<T> {
        Scheduler::new(threads(workers)).map_init(items, || (), |(), i, x| f(i, x))
    }

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 8, 64, 200] {
            let scheduler = Scheduler::new(threads(workers));
            let got = scheduler.map_init(
                &items,
                || (),
                |(), i, &x| {
                    assert_eq!(i, x);
                    x * 3
                },
            );
            assert_eq!(got, expect, "{workers} workers");
            let stats = scheduler.stats();
            assert_eq!((stats.epochs, stats.tasks, stats.steals), (1, 97, 0));
        }
    }

    #[test]
    fn par_map_handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(map(&[7_u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_init_builds_one_state_per_worker() {
        let items: Vec<u32> = (0..64).collect();
        for workers in [1, 2, 4, 16] {
            let inits = AtomicUsize::new(0);
            let got = Scheduler::new(threads(workers)).map_init(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u32>::new()
                },
                |scratch, _, &x| {
                    scratch.push(x);
                    x + scratch.len() as u32 - scratch.len() as u32 + 1
                },
            );
            let expect: Vec<u32> = items.iter().map(|x| x + 1).collect();
            assert_eq!(got, expect, "{workers} workers");
            assert!(
                inits.load(Ordering::Relaxed) <= workers.min(items.len()),
                "at most one init per worker"
            );
            assert!(inits.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn par_map_init_state_is_chunk_local() {
        // Each worker's state sees exactly its contiguous chunk, so a
        // stateful fold over the chunk is deterministic per slot.
        let items: Vec<u64> = (0..40).collect();
        let fold = |workers| {
            Scheduler::new(threads(workers)).map_init(
                &items,
                || 0_u64,
                |acc, i, &x| {
                    *acc += x;
                    (i as u64, x)
                },
            )
        };
        assert_eq!(fold(1), fold(4));
    }

    #[test]
    fn map_mut_matches_map_over_the_same_items() {
        // Warm `&mut` state goes through the chunked map as per-item
        // locks; every item is visited once.
        let base: Vec<u32> = (0..37).collect();
        for workers in [1, 2, 4, 16] {
            let items: Vec<Mutex<u32>> = base.iter().map(|&x| Mutex::new(x)).collect();
            let got = map(&items, workers, |i, x| {
                let mut x = x.lock().unwrap();
                *x += 1;
                (i, *x)
            });
            let expect: Vec<(usize, u32)> = map(&base, 1, |i, &x| (i, x + 1));
            assert_eq!(got, expect, "{workers} workers");
            let after: Vec<u32> = items.into_iter().map(|m| m.into_inner().unwrap()).collect();
            assert!(after.iter().zip(&base).all(|(a, b)| *a == b + 1));
        }
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads().get() >= 1);
    }

    #[test]
    fn dispatch_runs_every_ready_task_exactly_once() {
        for workers in [1, 2, 3, 8] {
            let scheduler = Scheduler::new(threads(workers));
            let slots: Vec<TaskSlot<u64>> = (0..29).map(|_| TaskSlot::new(0)).collect();
            let ready: Vec<usize> = (0..slots.len()).collect();
            for epoch in 1..=3_u64 {
                scheduler.dispatch_phased(&slots, &[&ready], |_, count| *count += 1);
                for (i, slot) in slots.iter().enumerate() {
                    assert_eq!(*slot.lock(), epoch, "slot {i} on {workers} workers");
                }
            }
            let stats = scheduler.stats();
            assert_eq!(stats.epochs, 3);
            assert_eq!(stats.tasks, 3 * 29);
        }
    }

    #[test]
    fn dispatch_honors_a_partial_ready_list() {
        let scheduler = Scheduler::new(threads(4));
        let mut slots: Vec<TaskSlot<u64>> = (0..10).map(|_| TaskSlot::new(0)).collect();
        let ready = [1_usize, 4, 7];
        scheduler.dispatch_phased(&slots, &[&ready], |idx, count| *count += idx as u64 + 1);
        for (i, slot) in slots.iter_mut().enumerate() {
            let expect = if ready.contains(&i) { i as u64 + 1 } else { 0 };
            assert_eq!(*slot.get_mut(), expect, "slot {i}");
        }
        // An empty epoch is a no-op.
        scheduler.dispatch_phased(&slots, &[&[]], |_, _: &mut u64| unreachable!());
    }

    #[test]
    fn dispatch_steals_when_shares_are_unbalanced() {
        // 2 workers over 8 tasks: one task sleeps, so the other worker
        // must claim (steal) most of the queue for the epoch to finish.
        let scheduler = Scheduler::new(threads(2));
        let slots: Vec<TaskSlot<u64>> = (0..8).map(|_| TaskSlot::new(0)).collect();
        let ready: Vec<usize> = (0..slots.len()).collect();
        scheduler.dispatch_phased(&slots, &[&ready], |idx, count| {
            if idx == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            *count += 1;
        });
        for slot in &slots {
            assert_eq!(*slot.lock(), 1, "every task ran despite the straggler");
        }
        let stats = scheduler.stats();
        assert_eq!(stats.tasks, 8);
        assert!(
            stats.steals >= 2,
            "the free worker stole the straggler's share (got {})",
            stats.steals
        );
    }

    #[test]
    fn phased_dispatch_is_a_strict_barrier_between_phases() {
        // Phase 1 tasks sleep; phase 2 tasks assert every phase-1 task
        // already ran. Any overlap across the barrier trips the assert.
        for workers in [1, 2, 4] {
            let scheduler = Scheduler::new(threads(workers));
            let slots: Vec<TaskSlot<u64>> = (0..12).map(|_| TaskSlot::new(0)).collect();
            let first: Vec<usize> = (0..6).collect();
            let second: Vec<usize> = (6..12).collect();
            let done_first = AtomicUsize::new(0);
            scheduler.dispatch_phased(&slots, &[&first, &second], |idx, count| {
                if idx < 6 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    done_first.fetch_add(1, Ordering::Relaxed);
                } else {
                    assert_eq!(
                        done_first.load(Ordering::Relaxed),
                        6,
                        "phase 2 task {idx} ran before phase 1 drained ({workers} workers)"
                    );
                }
                *count += 1;
            });
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot.lock(), 1, "slot {i} ran exactly once");
            }
            let stats = scheduler.stats();
            assert_eq!(stats.epochs, 1, "phases account as one epoch");
            assert_eq!(stats.tasks, 12);
        }
    }

    #[test]
    fn phased_dispatch_matches_sequential_dispatches_and_skips_empty_phases() {
        let scheduler = Scheduler::new(threads(3));
        let slots: Vec<TaskSlot<u64>> = (0..9).map(|_| TaskSlot::new(0)).collect();
        let high = [0_usize, 3];
        let low: Vec<usize> = vec![1, 4, 7];
        scheduler.dispatch_phased(&slots, &[&high, &[], &low], |idx, count| {
            *count += idx as u64 + 1;
        });
        for (i, slot) in slots.iter().enumerate() {
            let expect = if high.contains(&i) || low.contains(&i) {
                i as u64 + 1
            } else {
                0
            };
            assert_eq!(*slot.lock(), expect, "slot {i}");
        }
        let stats = scheduler.stats();
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.tasks, 5);
        // An all-empty phased epoch is a no-op apart from accounting.
        scheduler.dispatch_phased(&slots, &[&[], &[]], |_, _: &mut u64| unreachable!());
        assert_eq!(scheduler.stats().epochs, 2);
    }

    #[test]
    fn phased_dispatch_still_steals_within_a_phase() {
        // An inline one-task phase, then 2 workers over an 8-task phase
        // with a straggler: the free worker must steal the remainder of
        // the later phase, exactly like a flat epoch.
        let scheduler = Scheduler::new(threads(2));
        let slots: Vec<TaskSlot<u64>> = (0..9).map(|_| TaskSlot::new(0)).collect();
        let ready: Vec<usize> = (0..8).collect();
        scheduler.dispatch_phased(&slots, &[&[8], &ready], |idx, count| {
            if idx == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            *count += 1;
        });
        for slot in &slots {
            assert_eq!(*slot.lock(), 1);
        }
        assert_eq!(scheduler.stats().tasks, 9);
        assert!(
            scheduler.stats().steals >= 2,
            "steal balance survives inside a phase (got {})",
            scheduler.stats().steals
        );
    }

    #[test]
    fn task_slot_access_paths_agree() {
        let mut slot = TaskSlot::new(5_u32);
        *slot.get_mut() += 1;
        *slot.lock() += 1;
        assert_eq!(*slot.get_mut(), 7);
    }

    #[test]
    fn scheduler_reports_its_worker_budget() {
        let scheduler = Scheduler::new(threads(3));
        assert_eq!(scheduler.workers().get(), 3);
        assert!(Scheduler::with_default_threads().workers().get() >= 1);
        assert_eq!(
            Scheduler::new(threads(2)).stats(),
            SchedulerStats::default()
        );
    }
}
