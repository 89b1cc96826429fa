//! # MINDFUL bench — benchmark support
//!
//! The Criterion benchmarks live in `benches/`: `figures` times the
//! regeneration of every paper table/figure, `substrates` times the
//! hot paths of each substrate crate, and the acceptance benches
//! (`infer`, `pipeline`, `fault`, `obs`, `secure`, `serve`) gate a
//! one-shot measurement and leave a `results/bench/BENCH_*.json`
//! artifact. This library holds their shared timing and artifact
//! helpers and re-exports the generation entry points so the benches
//! stay thin.

use std::path::PathBuf;

use mindful_core::obs::clock;
pub use mindful_experiments as experiments;

/// Wall time of one call of `f`, in nanoseconds.
fn time_ns(f: &mut impl FnMut()) -> f64 {
    let start = clock::now_ns();
    f();
    clock::since_ns(start) as f64
}

/// The upper median of `times` (the element at `len / 2` once sorted).
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median wall time of `iters` calls of `f`, in nanoseconds.
///
/// # Panics
///
/// Panics when `iters` is 0.
pub fn median_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    median((0..iters).map(|_| time_ns(&mut f)).collect())
}

/// Median wall times of `a` and `b`, in nanoseconds, timed in `iters`
/// interleaved pairs (`a` then `b`) so host drift hits both sides
/// alike.
///
/// # Panics
///
/// Panics when `iters` is 0.
pub fn paired_median_ns(iters: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (ta, tb) = (0..iters)
        .map(|_| (time_ns(&mut a), time_ns(&mut b)))
        .unzip();
    (median(ta), median(tb))
}

/// Writes `json` to `results/bench/BENCH_{name}.json` under the
/// workspace root and prints the path.
///
/// # Panics
///
/// Panics when the directory or the file cannot be written: a bench
/// that ran but left no artifact is a silent gate failure.
pub fn write_artifact(name: &str, json: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/bench");
    std::fs::create_dir_all(&dir).expect("results/bench is creatable");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("{} is writable: {e}", path.display()));
    println!("wrote {}", path.display());
}
