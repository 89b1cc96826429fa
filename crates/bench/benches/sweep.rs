//! Benchmarks for the design-space sweep engine: skyline vs. naive
//! Pareto extraction, and serial vs. parallel grid evaluation.

use std::num::NonZeroUsize;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use mindful_core::explore::{pareto_frontier, pareto_frontier_naive, CandidatePoint};
use mindful_core::obs::clock;
use mindful_core::pool::Scheduler;
use mindful_core::soc::wireless_socs;
use mindful_core::sweep::SweepGrid;
use mindful_core::units::{Area, Power};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Random candidates with anti-correlated objectives: more channels
/// cost more power and area, as in the real design space. This keeps a
/// large fraction of points mutually non-dominated — the regime where
/// an all-pairs filter actually has to do quadratic work.
fn random_candidates(n: usize, seed: u64) -> Vec<CandidatePoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let u = rng.random::<f64>();
            let v = rng.random::<f64>();
            let jitter = 0.9 + rng.random::<f64>() * 0.2;
            let channels = 1 + (8_192.0 * (u + v) / 2.0 * jitter) as u64;
            CandidatePoint::new(
                format!("c{i}"),
                channels,
                Power::from_milliwatts(0.1 + 100.0 * u),
                Area::from_square_millimeters(1.0 + 1_000.0 * v),
            )
            .expect("generated objectives are positive and finite")
        })
        .collect()
}

fn explore_grid() -> SweepGrid {
    SweepGrid::builder()
        .socs(wireless_socs())
        .channels((1024..=8192).step_by(256))
        .efficiencies([1.0, 0.5, 0.2])
        .build()
        .expect("static axes are valid")
}

fn bench_pareto(c: &mut Criterion) {
    let small = random_candidates(10_000, 42);
    let large = random_candidates(100_000, 42);
    let mut group = c.benchmark_group("pareto");
    group.sample_size(10);
    group.bench_function("skyline_10k", |b| {
        b.iter(|| black_box(pareto_frontier(black_box(&small))))
    });
    group.bench_function("skyline_100k", |b| {
        b.iter(|| black_box(pareto_frontier(black_box(&large))))
    });
    group.sample_size(2);
    group.bench_function("naive_10k", |b| {
        b.iter(|| black_box(pareto_frontier_naive(black_box(&small))))
    });
    group.finish();
}

/// One-shot acceptance measurement on 100k random candidates: the
/// skyline must agree with the oracle and beat it by at least 10x.
fn report_frontier_speedup(_c: &mut Criterion) {
    let large = random_candidates(100_000, 7);
    let start = clock::now_ns();
    let fast = pareto_frontier(black_box(&large));
    let skyline = Duration::from_nanos(clock::since_ns(start));
    let start = clock::now_ns();
    let slow = pareto_frontier_naive(black_box(&large));
    let naive = Duration::from_nanos(clock::since_ns(start));
    assert_eq!(fast, slow, "skyline must match the naive oracle");
    let speedup = naive.as_secs_f64() / skyline.as_secs_f64();
    println!("pareto/speedup_100k   skyline {skyline:?} vs naive {naive:?} ({speedup:.0}x)",);
    assert!(
        speedup >= 10.0,
        "skyline must be at least 10x faster on 100k candidates, got {speedup:.1}x"
    );
}

fn bench_sweep(c: &mut Criterion) {
    let grid = explore_grid();
    let serial = Scheduler::new(NonZeroUsize::MIN);
    let eight = Scheduler::new(NonZeroUsize::new(8).unwrap());
    let mut group = c.benchmark_group("sweep");
    group.sample_size(20);
    group.bench_function("evaluate_serial", |b| {
        b.iter(|| black_box(grid.evaluate_on(&serial).unwrap()))
    });
    group.bench_function("evaluate_8_threads", |b| {
        b.iter(|| black_box(grid.evaluate_on(&eight).unwrap()))
    });
    group.bench_function("feasible_frontier", |b| {
        let result = grid.evaluate_on(&serial).unwrap();
        b.iter(|| black_box(result.feasible_frontier().unwrap()))
    });
    group.finish();
}

fn bench_map_init(c: &mut Criterion) {
    let items: Vec<u64> = (0..4096).collect();
    let spin =
        |(): &mut (), _, &x: &u64| (0..256).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
    let mut group = c.benchmark_group("map_init");
    group.bench_function("spin_serial", |b| {
        let serial = Scheduler::new(NonZeroUsize::MIN);
        b.iter(|| black_box(serial.map_init(&items, || (), spin)))
    });
    group.bench_function("spin_8_threads", |b| {
        let eight = Scheduler::new(NonZeroUsize::new(8).unwrap());
        b.iter(|| black_box(eight.map_init(&items, || (), spin)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pareto,
    report_frontier_speedup,
    bench_sweep,
    bench_map_init
);
criterion_main!(benches);
