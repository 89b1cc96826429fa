//! Benchmarks for the design-space sweep engine: skyline vs. naive
//! Pareto extraction (gated at 10x on 100k candidates), and serial vs.
//! parallel grid evaluation and fan-out. Set `MINDFUL_BENCH_QUICK=1` to
//! shrink the pair counts.

use std::num::NonZeroUsize;

use mindful_bench::{compare, Report};
use mindful_core::explore::{pareto_frontier, pareto_frontier_naive, CandidatePoint};
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

fn main() {
    let pairs = if mindful_core::env::bench_quick() {
        5
    } else {
        21
    };
    let mut report = Report::new("sweep");

    // Skyline vs. the all-pairs oracle. The gate: on 100k candidates
    // the skyline agrees with the oracle and the median per-pair ratio
    // naive ÷ skyline is at least 10.
    let small = random_candidates(10_000, 42);
    let large = random_candidates(100_000, 7);
    assert_eq!(
        pareto_frontier(&large),
        pareto_frontier_naive(&large),
        "skyline must match the naive oracle"
    );
    let mut frontier = |name: &str, points: &[CandidatePoint], pairs: usize| {
        let t = compare(
            pairs,
            1,
            || {
                black_box(pareto_frontier(black_box(points)));
            },
            Some(|| {
                black_box(pareto_frontier_naive(black_box(points)));
            }),
        );
        report.push(t.row(name));
        t
    };
    frontier("naive_vs_skyline_10k", &small, pairs);
    let speedup = frontier("naive_vs_skyline_100k", &large, 3).ratio_p50;

    let grid = explore_grid();
    let serial = Scheduler::new(NonZeroUsize::MIN);
    let eight = Scheduler::new(NonZeroUsize::new(8).unwrap());
    let evaluate = compare(
        pairs,
        1,
        || {
            black_box(grid.evaluate_on(&eight).unwrap());
        },
        Some(|| {
            black_box(grid.evaluate_on(&serial).unwrap());
        }),
    );
    report.push(evaluate.row("serial_vs_8_threads_evaluate"));
    let result = grid.evaluate_on(&serial).unwrap();
    report.time("feasible_frontier", pairs, 1, || {
        result.feasible_frontier().unwrap()
    });

    let items: Vec<u64> = (0..4096).collect();
    let spin =
        |(): &mut (), _, &x: &u64| (0..256).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
    let map_init = compare(
        pairs,
        1,
        || {
            black_box(eight.map_init(&items, || (), spin));
        },
        Some(|| {
            black_box(serial.map_init(&items, || (), spin));
        }),
    );
    report.push(map_init.row("serial_vs_8_threads_map_init"));
    report.write(env!("CARGO_TARGET_TMPDIR"));

    assert!(
        speedup >= 10.0,
        "skyline must be at least 10x faster on 100k candidates, got {speedup:.1}x \
         (per-pair median)"
    );
}
