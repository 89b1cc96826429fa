//! Fault-injection soak and 0%-fault equivalence for the streaming
//! pipeline.
//!
//! The soak drives a warm 1024-channel implant chain
//! (sense → packetize → link → conceal → spike → bin → Kalman) for
//! 10 000 steps with a 2% composite wire-fault rate and checks that it
//! never panics, that the fault telemetry balances against the injected
//! plan *exactly* (verified against a hand-driven twin link fed the
//! identical byte stream), that every unrecoverable frame is explicitly
//! degraded, and that the decoder output stays bounded throughout.
//! Set `MINDFUL_SOAK_QUICK=1` (CI short mode) to shrink the step count.
//!
//! The equivalence tests pin the zero-fault path: inserting the fault
//! layer with a 0% plan (or a clean link) must leave the stream
//! byte-identical to the bare chain of the previous PR.

use mindful_decode::binning::BinAccumulator;
use mindful_decode::kalman::KalmanDecoder;
use mindful_decode::spike::SpikeDetector;
use mindful_dnn::infer::Network;
use mindful_dnn::models::ModelFamily;
use mindful_pipeline::prelude::*;
use mindful_rf::arq::{ArqConfig, ArqLink};
use mindful_rf::fault::{FaultConfig, FaultPlan, WireFaultInjector};
use mindful_rf::packet::packetize;
use mindful_signal::neuron::trajectory_intent;
use mindful_signal::prelude::NeuralInterface;

const SAMPLE_BITS: u8 = 10;
const BIN_WINDOW: usize = 4;
const ARQ_WINDOW: usize = 16;
const RTT: u64 = 2;

fn soak_steps() -> usize {
    // CI short mode: enough steps to exercise every fault kind and a
    // few NAK/backoff cycles, without the full ten-thousand-step run.
    if mindful_core::env::soak_quick() {
        1_500
    } else {
        10_000
    }
}

/// Calibrates the decode tail (spike detector + Kalman) from a recorded
/// trajectory, exactly as the glue sites do it.
fn calibrate(ni: &mut NeuralInterface) -> (SpikeDetector, KalmanDecoder) {
    let frames = ni.record_trajectory(400).unwrap();
    let rows: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let mut detector = SpikeDetector::calibrate(&rows[..64], 2.5, 3).unwrap();
    let events: Vec<Vec<bool>> = rows.iter().map(|r| detector.step(r).unwrap()).collect();
    let bins = BinAccumulator::new(ni.channels(), BIN_WINDOW)
        .unwrap()
        .bin_all(&events)
        .unwrap();
    let bin_rows: Vec<Vec<f64>> = bins
        .iter()
        .map(|b| b.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let bin_intents: Vec<(f64, f64)> = (0..bins.len())
        .map(|k| {
            let i = frames[(k + 1) * BIN_WINDOW - 1].intent;
            (i.x, i.y)
        })
        .collect();
    let kalman = KalmanDecoder::calibrate(&bin_rows, &bin_intents).unwrap();
    (detector, kalman)
}

/// The headline soak: 1024 channels, 2% composite wire faults, ARQ on.
#[test]
fn soak_1024_channels_at_two_percent_composite_faults() {
    const GRID: usize = 32; // 32² = 1024 channels
    const CHANNELS: usize = GRID * GRID;
    const RATE: f64 = 0.02;
    const SEED: u64 = 0xD15EA5E;
    let steps = soak_steps();

    let mut ni = NeuralInterface::new(GRID, 400, SAMPLE_BITS, 97).unwrap();
    let (detector, kalman) = calibrate(&mut ni);
    let mut twin_ni = ni.clone();
    let plan = FaultPlan::new(FaultConfig::wire_composite(RATE), SEED).unwrap();
    let registry = mindful_core::obs::Registry::new();
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(PacketizeStage::new(SAMPLE_BITS).unwrap())
        .with_stage(
            LinkStage::new(ArqConfig::selective_repeat(ARQ_WINDOW), Some(plan), RTT).unwrap(),
        )
        .with_stage(ConcealStage::new(CHANNELS, DegradePolicy::HoldLast).unwrap())
        .with_stage(SpikeStage::new(detector))
        .with_stage(BinStage::new(CHANNELS, BIN_WINDOW).unwrap())
        .with_stage(KalmanStage::new(kalman))
        .with_instrumentation(&registry, "soak");

    let mut decoded = 0_u64;
    for step in 0..steps {
        if let Some(out) = pipeline.push(Frame::Empty).unwrap() {
            let Frame::Values(state) = out.as_frame() else {
                panic!("kalman emits values");
            };
            decoded += 1;
            // Bounded decoder error: faults degrade accuracy, never
            // stability. Intents live in [-1, 1]; an estimate orders of
            // magnitude outside that means the filter was poisoned.
            for (d, v) in state.iter().enumerate() {
                assert!(v.is_finite(), "non-finite state dim {d} at step {step}");
                assert!(v.abs() < 1e3, "unbounded state {v} dim {d} at step {step}");
            }
        }
    }
    pipeline.finish().unwrap();

    let telemetry = pipeline.telemetry();
    let link = telemetry[2].faults.expect("link stage reports faults");
    let conceal = telemetry[3].faults.expect("conceal stage reports faults");

    // Every transmitted frame was played out exactly once (delivered or
    // lost), and the bin stage decoded one frame in four.
    assert_eq!(telemetry[2].frames_out, steps as u64);
    assert!(decoded >= (steps as u64 - ARQ_WINDOW as u64) / BIN_WINDOW as u64);

    // Exact telemetry match against a twin link driven by hand with the
    // identical byte stream, fault plan, and seed: the pipeline-embedded
    // link must report precisely what the standalone ledger reports.
    let twin_plan = FaultPlan::new(FaultConfig::wire_composite(RATE), SEED).unwrap();
    let mut twin_link = ArqLink::new(
        ArqConfig::selective_repeat(ARQ_WINDOW),
        Some(WireFaultInjector::new(twin_plan)),
        RTT,
    )
    .unwrap();
    let mut samples = Vec::new();
    for k in 0..steps {
        let frame = twin_ni.sample(trajectory_intent(k)).unwrap();
        let wire = packetize(k as u16, &frame.samples, SAMPLE_BITS).unwrap();
        twin_link.step_into(&wire, &mut samples).unwrap();
    }
    while twin_link.finish_into(&mut samples).is_some() {}
    let stats = twin_link.stats();
    let injected = twin_link.fault_counters().unwrap();

    assert_eq!(link.injected, injected.total(), "same injected plan");
    assert_eq!(link.recovered, stats.recovered);
    assert_eq!(link.lost, stats.lost);
    assert_eq!(link.naks, stats.naks_sent);
    assert_eq!(link.max_gap, stats.max_gap);
    assert_eq!(link.recovery_steps, stats.recovery_steps);
    assert_eq!(
        link.detected,
        stats.corrupted + stats.gaps_detected + stats.duplicates + stats.out_of_window
    );

    // The ledger balances against the plan exactly: every CRC-visible
    // corruption detected, every duplicate deduplicated, every frame
    // either delivered or lost.
    assert!(injected.total() > 0, "2% of {steps} steps injects faults");
    assert_eq!(stats.corrupted, injected.corruptions());
    assert_eq!(stats.duplicates, injected.duplicates);
    assert_eq!(stats.delivered + stats.lost, steps as u64);
    assert_eq!(stats.recovered + stats.lost, stats.gaps_detected);

    // Every frame the ARQ gave up on was explicitly degraded, and with
    // a clean return channel nearly everything recovers: ≥99% of gaps.
    assert_eq!(
        conceal.degraded, link.lost,
        "all losses explicitly degraded"
    );
    assert_eq!(conceal.quarantined, 0, "wire faults never produce NaN");
    let gaps = stats.gaps_detected;
    assert!(gaps > 0, "2% faults over {steps} steps produce gaps");
    assert!(
        stats.recovered * 100 >= gaps * 99,
        "≥99% of {gaps} gaps recovered (got {})",
        stats.recovered
    );
    assert!(link.naks > 0, "recoveries were driven by NAKs");

    // The observability pin: a registry scrape of the instrumented
    // pipeline reports the identical fault ledger, field-exact against
    // the twin link — metrics are a faithful second witness, not a
    // parallel bookkeeping scheme that can drift.
    let snapshot = registry.snapshot();
    let gauge = |name: &str| {
        snapshot
            .gauge(name)
            .unwrap_or_else(|| panic!("gauge {name} registered"))
            .0
    };
    assert_eq!(gauge("soak.2.link.faults.injected"), injected.total());
    assert_eq!(gauge("soak.2.link.faults.recovered"), stats.recovered);
    assert_eq!(gauge("soak.2.link.faults.lost"), stats.lost);
    assert_eq!(gauge("soak.2.link.faults.naks"), stats.naks_sent);
    assert_eq!(gauge("soak.2.link.faults.max_gap"), stats.max_gap);
    assert_eq!(
        gauge("soak.2.link.faults.recovery_steps"),
        stats.recovery_steps
    );
    assert_eq!(
        gauge("soak.2.link.faults.detected"),
        stats.corrupted + stats.gaps_detected + stats.duplicates + stats.out_of_window
    );
    assert_eq!(gauge("soak.3.conceal.faults.degraded"), stats.lost);
    assert_eq!(gauge("soak.3.conceal.faults.quarantined"), 0);
    assert_eq!(
        snapshot.counter("soak.2.link.frames_out"),
        Some(steps as u64),
        "the link counter mirrors the playout ledger"
    );
    assert_eq!(
        snapshot.counter("soak.0.sense.frames_in"),
        Some(steps as u64)
    );
}

/// ARQ-off degraded mode: no NAKs, every loss concealed, chain bounded.
#[test]
fn soak_degraded_mode_conceals_every_loss_without_naks() {
    const GRID: usize = 16; // 16² = 256 channels
    const CHANNELS: usize = GRID * GRID;
    const STEPS: usize = 3_000;
    let mut ni = NeuralInterface::new(GRID, 400, SAMPLE_BITS, 97).unwrap();
    let (detector, kalman) = calibrate(&mut ni);
    let plan = FaultPlan::new(FaultConfig::wire_composite(0.05), 42).unwrap();
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(PacketizeStage::new(SAMPLE_BITS).unwrap())
        .with_stage(LinkStage::new(ArqConfig::degraded(ARQ_WINDOW), Some(plan), RTT).unwrap())
        .with_stage(ConcealStage::new(CHANNELS, DegradePolicy::ZeroFill).unwrap())
        .with_stage(SpikeStage::new(detector))
        .with_stage(BinStage::new(CHANNELS, BIN_WINDOW).unwrap())
        .with_stage(KalmanStage::new(kalman));

    for step in 0..STEPS {
        if let Some(out) = pipeline.push(Frame::Empty).unwrap() {
            let Frame::Values(state) = out.as_frame() else {
                panic!("kalman emits values");
            };
            for v in state {
                assert!(v.is_finite(), "step {step}");
            }
        }
    }
    pipeline.finish().unwrap();
    let telemetry = pipeline.telemetry();
    let link = telemetry[2].faults.unwrap();
    let conceal = telemetry[3].faults.unwrap();
    // Degraded mode never requests retransmission; the only recoveries
    // are reordered packets arriving late enough to fill their own gap.
    assert_eq!(link.naks, 0, "degraded mode never NAKs");
    assert!(link.lost > 0, "5% faults without ARQ lose frames");
    assert_eq!(telemetry[2].frames_out, STEPS as u64, "all frames played");
    assert_eq!(
        conceal.degraded, link.lost,
        "every loss explicitly degraded"
    );
}

/// Front-end leg: NaN bursts and frame drops on DNN activations are
/// quarantined before inference; the network output stays finite.
#[test]
fn nan_bursts_are_quarantined_before_the_dnn() {
    const CHANNELS: u64 = 256;
    let frames: Vec<Vec<f32>> = (0..32)
        .map(|k| {
            (0..CHANNELS as usize)
                .map(|c| ((k * 31 + c) % 97) as f32 / 97.0 - 0.5)
                .collect()
        })
        .collect();
    let mut config = FaultConfig::none();
    config.nan_burst = 0.2;
    config.drop = 0.1;
    let plan = FaultPlan::new(config, 7).unwrap();
    let network = Network::with_seeded_weights(ModelFamily::Mlp.architecture(CHANNELS).unwrap(), 3);
    let mut pipeline = Pipeline::new()
        .with_stage(ReplaySource::new(frames).unwrap())
        .with_stage(FaultStage::new(plan, SAMPLE_BITS).unwrap())
        .with_stage(ConcealStage::new(CHANNELS as usize, DegradePolicy::Interpolate).unwrap())
        .with_stage(DnnStage::new(network, SAMPLE_BITS).unwrap());

    for step in 0..500 {
        let out = pipeline.step().unwrap().expect("conceal fills every gap");
        let Frame::Activations(labels) = out.as_frame() else {
            panic!("dnn emits activations");
        };
        for l in labels {
            assert!(l.is_finite(), "step {step}");
        }
    }
    let telemetry = pipeline.telemetry();
    let injector = telemetry[1].faults.unwrap();
    let conceal = telemetry[2].faults.unwrap();
    assert!(injector.injected > 0);
    assert!(conceal.quarantined > 0, "NaN bursts were quarantined");
    assert!(conceal.degraded > 0, "dropped frames were concealed");
    assert_eq!(telemetry[3].frames_in, 500, "the DNN saw every step");
}

/// Zero-rate fault layer equivalence: inserting FaultStage(0%) +
/// ConcealStage into the decode chain leaves every decoded state
/// byte-identical to the bare chain.
#[test]
fn zero_fault_layer_is_byte_identical_to_the_bare_chain() {
    const GRID: usize = 8; // 8² = 64 channels
    const CHANNELS: usize = GRID * GRID;
    let mut ni = NeuralInterface::new(GRID, 400, SAMPLE_BITS, 11).unwrap();
    let (detector, kalman) = calibrate(&mut ni);
    let twin_ni = ni.clone();
    let twin_detector = detector.clone();
    let twin_kalman = kalman.clone();

    let plan = FaultPlan::new(FaultConfig::none(), 1).unwrap();
    let mut faulted = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(FaultStage::new(plan, SAMPLE_BITS).unwrap())
        .with_stage(ConcealStage::new(CHANNELS, DegradePolicy::Interpolate).unwrap())
        .with_stage(SpikeStage::new(detector))
        .with_stage(BinStage::new(CHANNELS, BIN_WINDOW).unwrap())
        .with_stage(KalmanStage::new(kalman));
    let mut bare = Pipeline::new()
        .with_stage(SenseStage::from_interface(
            twin_ni,
            IntentSchedule::FigureEight,
        ))
        .with_stage(SpikeStage::new(twin_detector))
        .with_stage(BinStage::new(CHANNELS, BIN_WINDOW).unwrap())
        .with_stage(KalmanStage::new(twin_kalman));

    let mut compared = 0;
    for step in 0..200 {
        let with_layer: Option<Vec<u64>> = faulted.push(Frame::Empty).unwrap().map(|out| {
            let Frame::Values(state) = out.as_frame() else {
                panic!("kalman emits values");
            };
            state.iter().map(|v| v.to_bits()).collect()
        });
        let bare_bits: Option<Vec<u64>> = bare.push(Frame::Empty).unwrap().map(|out| {
            let Frame::Values(state) = out.as_frame() else {
                panic!("kalman emits values");
            };
            state.iter().map(|v| v.to_bits()).collect()
        });
        assert_eq!(with_layer, bare_bits, "step {step}");
        if with_layer.is_some() {
            compared += 1;
        }
    }
    assert_eq!(compared, 200 / BIN_WINDOW);
    let telemetry = faulted.telemetry();
    let injector = telemetry[1].faults.unwrap();
    let conceal = telemetry[2].faults.unwrap();
    assert_eq!(injector.injected, 0);
    assert_eq!(conceal.degraded + conceal.quarantined, 0);
}

/// Clean-link equivalence: sense → packetize → link over a fault-free
/// channel replays the exact transmitted codes, shifted by the playout
/// window, and the drain returns the buffered tail byte-identically.
#[test]
fn clean_link_is_a_pure_window_delay() {
    const STEPS: usize = 120;
    let ni = NeuralInterface::new(6, 400, SAMPLE_BITS, 5).unwrap(); // 36 channels
    let mut twin = ni.clone();
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(PacketizeStage::new(SAMPLE_BITS).unwrap())
        .with_stage(LinkStage::new(ArqConfig::selective_repeat(ARQ_WINDOW), None, RTT).unwrap());

    let sent: Vec<Vec<u16>> = (0..STEPS)
        .map(|k| twin.sample(trajectory_intent(k)).unwrap().samples)
        .collect();
    let mut played = Vec::new();
    for _ in 0..STEPS {
        if let Some(out) = pipeline.step().unwrap() {
            let Frame::Codes(codes) = out.as_frame() else {
                panic!("link emits codes");
            };
            played.push(codes.to_vec());
        }
    }
    assert_eq!(played.len(), STEPS - ARQ_WINDOW, "fixed playout delay");
    for (k, frame) in played.iter().enumerate() {
        assert_eq!(frame, &sent[k], "frame {k} byte-identical");
    }
    let flushed = pipeline.finish().unwrap();
    assert_eq!(flushed, ARQ_WINDOW as u64, "finish plays the whole window");
    let link = pipeline.telemetry()[2].faults.unwrap();
    assert_eq!(link.lost, 0);
    assert_eq!(link.detected, 0);
    assert_eq!(link.naks, 0);
}

/// End-of-stream flush: the bin stage's trailing partial window is no
/// longer dropped — Pipeline::finish pushes it through the decoder.
#[test]
fn finish_flushes_the_trailing_partial_bin_through_the_decoder() {
    const GRID: usize = 4; // 4² = 16 channels
    const CHANNELS: usize = GRID * GRID;
    let mut ni = NeuralInterface::new(GRID, 400, SAMPLE_BITS, 33).unwrap();
    let (detector, kalman) = calibrate(&mut ni);
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(SpikeStage::new(detector))
        .with_stage(BinStage::new(CHANNELS, BIN_WINDOW).unwrap())
        .with_stage(KalmanStage::new(kalman));
    // 10 steps with window 4: two full bins emitted, two samples held.
    let mut emitted = 0;
    for _ in 0..10 {
        if pipeline.push(Frame::Empty).unwrap().is_some() {
            emitted += 1;
        }
    }
    assert_eq!(emitted, 2);
    let flushed = pipeline.finish().unwrap();
    assert_eq!(flushed, 1, "partial bin flushed and decoded");
    let out = pipeline.last_output().unwrap();
    let Frame::Values(state) = out.as_frame() else {
        panic!("kalman emits values");
    };
    assert!(state.iter().all(|v| v.is_finite()));
    let t = pipeline.telemetry();
    assert_eq!(t[2].frames_out, 3, "two full windows + one partial");
    assert_eq!(t[3].frames_in, 3);
}
