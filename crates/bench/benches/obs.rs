//! The zero-overhead acceptance bench for the observability layer: the
//! same warm 1024-channel implant chain (sense → spike → bin → Kalman →
//! packetize) is driven twice, bare and fully instrumented (per-stage
//! counters, latency histograms, buffer gauges), in interleaved pairs
//! so frequency drift cancels out of the medians. The instrumented
//! median must stay within 5% of the bare one — metric recording is
//! relaxed atomics on the hot path and registration happens once, so
//! the tax is a few nanoseconds per stage step.
//!
//! Medians land in `results/bench/BENCH_obs.json`. Set
//! `MINDFUL_BENCH_QUICK=1` (as CI does) to shrink iteration counts.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use mindful_bench::{paired_median_ns, write_artifact};
use mindful_core::obs::Registry;
use mindful_decode::binning::BinAccumulator;
use mindful_decode::kalman::KalmanDecoder;
use mindful_decode::spike::SpikeDetector;
use mindful_pipeline::prelude::*;
use mindful_signal::prelude::NeuralInterface;

/// Binning window of the decode tail.
const WINDOW: usize = 4;

/// Pipeline steps per timed run — enough for the per-step cost to
/// dominate the loop scaffolding.
const STEPS: usize = 64;

/// Acceptance bar: instrumented ÷ bare median, at most this.
const MAX_OVERHEAD: f64 = 1.05;

fn quick() -> bool {
    mindful_core::env::bench_quick()
}

/// Calibrates a detector and Kalman decoder from a recorded trajectory,
/// exactly as the glue sites do.
fn calibrate(ni: &mut NeuralInterface) -> (SpikeDetector, KalmanDecoder) {
    let frames = ni.record_trajectory(160).expect("trajectory records");
    let rows: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let mut detector = SpikeDetector::calibrate(&rows[..64], 2.5, 3).expect("detector calibrates");
    let events: Vec<Vec<bool>> = rows
        .iter()
        .map(|r| detector.step(r).expect("detector steps"))
        .collect();
    let bins = BinAccumulator::new(ni.channels(), WINDOW)
        .expect("binner builds")
        .bin_all(&events)
        .expect("binning succeeds");
    let bin_rows: Vec<Vec<f64>> = bins
        .iter()
        .map(|b| b.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let bin_intents: Vec<(f64, f64)> = (0..bins.len())
        .map(|k| {
            let i = frames[(k + 1) * WINDOW - 1].intent;
            (i.x, i.y)
        })
        .collect();
    let kalman = KalmanDecoder::calibrate(&bin_rows, &bin_intents).expect("kalman calibrates");
    (detector, kalman)
}

/// One 1024-channel five-stage chain, optionally instrumented.
fn build_chain(registry: Option<(&Registry, &str)>) -> Pipeline {
    let mut ni = NeuralInterface::new(32, 600, 10, 5).expect("interface builds");
    assert_eq!(ni.channels(), 1024);
    let (detector, kalman) = calibrate(&mut ni);
    let channels = ni.channels();
    let pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(SpikeStage::new(detector))
        .with_stage(BinStage::new(channels, WINDOW).expect("bin stage builds"))
        .with_stage(KalmanStage::new(kalman))
        .with_stage(PacketizeStage::new(10).expect("packetize stage builds"));
    match registry {
        Some((registry, prefix)) => pipeline.with_instrumentation(registry, prefix),
        None => pipeline,
    }
}

/// Drives `STEPS` warm steps and returns the emission count.
fn run_steps(pipeline: &mut Pipeline) -> u64 {
    let mut emitted = 0_u64;
    for _ in 0..STEPS {
        if pipeline.step().expect("warm step succeeds").is_some() {
            emitted += 1;
        }
    }
    emitted
}

fn bench_obs(c: &mut Criterion) {
    let registry = Registry::new();
    let mut bare = build_chain(None);
    let mut instrumented = build_chain(Some((&registry, "bench")));
    black_box(run_steps(&mut bare));
    black_box(run_steps(&mut instrumented));
    let mut group = c.benchmark_group("obs");
    group.sample_size(10);
    group.bench_function("bare_1024ch_x64", |b| {
        b.iter(|| black_box(run_steps(&mut bare)))
    });
    group.bench_function("instrumented_1024ch_x64", |b| {
        b.iter(|| black_box(run_steps(&mut instrumented)))
    });
    group.finish();
}

/// One-shot acceptance measurement: the instrumented chain's median
/// step cost must stay within [`MAX_OVERHEAD`] of the bare chain's.
fn report_obs_acceptance(_c: &mut Criterion) {
    let iters = if quick() { 15 } else { 61 };
    let registry = Registry::new();
    let mut bare = build_chain(None);
    let mut instrumented = build_chain(Some((&registry, "bench")));

    // Warm both chains (buffers sized, thread-locals initialized) and
    // pin the workloads to each other: identical seeds, identical
    // emission schedule.
    let warm_bare = run_steps(&mut bare);
    let warm_instrumented = run_steps(&mut instrumented);
    assert_eq!(warm_bare, warm_instrumented, "identical workloads");

    let (bare_ns, instrumented_ns) = paired_median_ns(
        iters,
        || {
            black_box(run_steps(&mut bare));
        },
        || {
            black_box(run_steps(&mut instrumented));
        },
    );
    let overhead = instrumented_ns / bare_ns;
    println!(
        "obs/1024ch_x{STEPS} bare {:.3} ms vs instrumented {:.3} ms ({:.1}% overhead)",
        bare_ns / 1e6,
        instrumented_ns / 1e6,
        (overhead - 1.0) * 100.0,
    );
    assert!(
        overhead <= MAX_OVERHEAD,
        "instrumentation must cost at most {:.0}% on the warm 1024-channel chain, \
         got {overhead:.3}x ({bare_ns:.0} ns vs {instrumented_ns:.0} ns)",
        (MAX_OVERHEAD - 1.0) * 100.0
    );

    // The instrumented run was real: the registry saw every step.
    let steps_recorded = registry
        .snapshot()
        .counter("bench.0.sense.frames_in")
        .expect("sense stage registered");
    assert!(steps_recorded >= (STEPS * (iters + 1)) as u64);

    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"quick\": {},\n  \
         \"channels\": 1024,\n  \"stages\": 5,\n  \"steps\": {STEPS},\n  \
         \"bare_ns_per_run\": {bare_ns:.0},\n  \
         \"instrumented_ns_per_run\": {instrumented_ns:.0},\n  \
         \"overhead\": {overhead:.4},\n  \"max_overhead\": {MAX_OVERHEAD}\n}}\n",
        quick(),
    );
    write_artifact("obs", &json);
}

criterion_group!(benches, bench_obs, report_obs_acceptance);
criterion_main!(benches);
