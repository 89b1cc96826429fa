//! Proof of the zero-allocation contract: after workspace warm-up, a
//! full `forward_into` pass performs no heap allocations at all.
//!
//! A counting wrapper around the system allocator tracks every
//! allocation the measuring thread makes inside its window; the
//! workspace denies `unsafe_code` — only
//! this test harness opts out to install the instrumented allocator.

// SAFETY: the sole unsafe construct in this file is the `GlobalAlloc`
// impl below, which delegates straight to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mindful_dnn::infer::Network;
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are being counted. Only the
    /// measuring thread arms itself, so libtest's own threads (spawning
    /// the next test, collecting results) never land in a window.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if the calling thread is armed. The flag is a
/// const-initialised `Cell` without a destructor, so reading it never
/// allocates.
fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic and the arming flag a thread-local `Cell`, with no
// other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-global, so only one test at a time may arm
/// a thread.
static MEASURE: Mutex<()> = Mutex::new(());

/// Takes the measuring lock. A test that failed while holding it
/// poisoned it, but the counter carries no state across windows, so the
/// next test proceeds: one failure stays one failure.
fn measure() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Disarms the measuring thread when dropped. On unwinding it drops
/// before the test's `MEASURE` guard, so a failing test's panic
/// handling never lands in the next test's window.
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        ARMED.with(|armed| armed.set(false));
    }
}

/// Allocations performed on this thread while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    {
        ARMED.with(|armed| armed.set(true));
        let _armed = Armed;
        f();
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Negative control: the counter sees an allocation made inside the
/// window on the measuring thread.
#[test]
fn an_allocation_inside_the_window_is_counted() {
    let _guard = measure();
    let allocs = allocations_during(|| {
        std::hint::black_box(Box::new(7_u64));
    });
    assert_eq!(allocs, 1, "one Box, one allocation");
}

#[test]
fn forward_into_is_allocation_free_after_warmup() {
    let _guard = measure();
    for family in ModelFamily::ALL {
        let arch = family.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 7);
        let width = net.architecture().input_values() as usize;
        let input: Vec<f32> = (0..width).map(|i| (i as f32 * 0.013).sin()).collect();

        let mut ws = net.workspace();
        // Warm-up: first pass may touch fresh pages but must not grow
        // the pre-sized workspace.
        let expected = net.forward_into(&input, &mut ws).unwrap().to_vec();

        let allocs = allocations_during(|| {
            for _ in 0..32 {
                let result = net.forward_into(&input, &mut ws).unwrap();
                assert_eq!(result.len(), expected.len());
            }
        });
        assert_eq!(
            allocs, 0,
            "{family}: forward_into must not allocate after warm-up"
        );

        // Sanity: the warm path still computes the right answer.
        assert_eq!(net.forward_into(&input, &mut ws).unwrap(), &expected[..]);
    }
}

/// The int8 datapath holds the same contract: quantize-at-ingress,
/// integer layers, and the dequantized boundary all run inside the
/// pre-grown workspace arenas.
#[test]
fn quantized_forward_into_is_allocation_free_after_warmup() {
    let _guard = measure();
    let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
    let net = Network::with_seeded_weights(arch, 7);
    let q = mindful_dnn::quant::QuantizedNetwork::from_network_default(&net).unwrap();
    let width = net.architecture().input_values() as usize;
    let input: Vec<f32> = (0..width).map(|i| (i as f32 * 0.013).sin()).collect();

    let mut ws = q.workspace();
    let expected = q.forward_into(&input, &mut ws).unwrap().to_vec();

    let allocs = allocations_during(|| {
        for _ in 0..32 {
            let result = q.forward_into(&input, &mut ws).unwrap();
            assert_eq!(result.len(), expected.len());
        }
    });
    assert_eq!(
        allocs, 0,
        "int8 forward_into must not allocate after warm-up"
    );

    // The f32 workspace grows into the int8 arenas on demand too: a
    // plain f32 workspace warms up in one pass, then stays silent.
    let mut cold = net.workspace();
    let grow = allocations_during(|| {
        q.forward_into(&input, &mut cold).unwrap();
    });
    assert!(
        grow > 0,
        "quant arenas grow on first use of an f32 workspace"
    );
    let warm = allocations_during(|| {
        q.forward_into(&input, &mut cold).unwrap();
    });
    assert_eq!(warm, 0, "the grown quant arenas are reused");
}

#[test]
fn cold_workspace_allocates_only_during_growth() {
    let _guard = measure();
    let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
    let net = Network::with_seeded_weights(arch, 3);
    let input = vec![0.25_f32; BASE_CHANNELS as usize];

    let mut ws = mindful_dnn::infer::Workspace::empty();
    let cold = allocations_during(|| {
        net.forward_into(&input, &mut ws).unwrap();
    });
    assert!(cold > 0, "growing an empty workspace must allocate");

    let warm = allocations_during(|| {
        net.forward_into(&input, &mut ws).unwrap();
    });
    assert_eq!(warm, 0, "the second pass reuses the grown arenas");
}
