//! The zero-overhead acceptance bench for the observability layer: the
//! same warm 1024-channel implant chain (sense → spike → bin → Kalman →
//! packetize) is driven twice, bare and fully instrumented (per-stage
//! counters, latency histograms, buffer gauges), in alternating pairs
//! so frequency drift hits both alike. The median per-pair ratio
//! instrumented ÷ bare must stay within 5% — metric recording is
//! relaxed atomics on the hot path and registration happens once, so
//! the tax is a few nanoseconds per stage step.
//!
//! Set `MINDFUL_BENCH_QUICK=1` (as CI does) to shrink the pair count.

use std::hint::black_box;

use mindful_bench::{compare, Report};
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

/// Acceptance bar: the median per-pair ratio instrumented ÷ bare, at
/// most this.
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

fn main() {
    let pairs = if quick() { 15 } else { 61 };
    let registry = Registry::new();
    let mut bare = build_chain(None);
    let mut instrumented = build_chain(Some((&registry, "bench")));

    // Warm both chains (buffers sized, thread-locals initialized) and
    // pin the workloads to each other: identical seeds, identical
    // emission schedule.
    let warm_bare = run_steps(&mut bare);
    let warm_instrumented = run_steps(&mut instrumented);
    assert_eq!(warm_bare, warm_instrumented, "identical workloads");

    let t = compare(
        pairs,
        1,
        || {
            black_box(run_steps(&mut bare));
        },
        Some(|| {
            black_box(run_steps(&mut instrumented));
        }),
    );

    // The instrumented run was real: the registry saw every step.
    let steps_recorded = registry
        .snapshot()
        .counter("bench.0.sense.frames_in")
        .expect("sense stage registered");
    assert!(steps_recorded >= (STEPS * (pairs + 1)) as u64);

    let mut report = Report::new("obs");
    report.push(t.row("instrumented_vs_bare").with("steps", STEPS as f64));
    report.write(env!("CARGO_TARGET_TMPDIR"));
    assert!(
        t.ratio_p50 <= MAX_OVERHEAD,
        "instrumentation must cost at most {:.0}% on the warm 1024-channel chain, \
         got {:.3}x (per-pair median)",
        (MAX_OVERHEAD - 1.0) * 100.0,
        t.ratio_p50,
    );
}
