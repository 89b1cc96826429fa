//! Equivalence pinning: a composed streaming pipeline produces outputs
//! byte-identical to the pre-refactor hand-written glue (per-stage
//! allocating calls), for every chain shape the glue sites used.

use std::time::Duration;

use mindful_core::obs::Registry;
use mindful_decode::binning::BinAccumulator;
use mindful_decode::kalman::KalmanDecoder;
use mindful_decode::spike::SpikeDetector;
use mindful_dnn::infer::Network;
use mindful_dnn::models::ModelFamily;
use mindful_pipeline::prelude::*;
use mindful_rf::packet::packetize;
use mindful_signal::neuron::{trajectory_intent, Intent};
use mindful_signal::prelude::NeuralInterface;

/// Fig. 3 (top): sense → packetize, pinned byte-for-byte against the
/// old `ni.sample()` + `packetize(...)` glue.
#[test]
fn comm_centric_stream_is_byte_identical_to_the_direct_path() {
    let intent = Intent::new(0.3, -0.1);
    let ni = NeuralInterface::new(16, 400, 10, 11).unwrap();
    let mut twin = ni.clone();
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(
            ni,
            IntentSchedule::Constant(intent),
        ))
        .with_stage(PacketizeStage::new(10).unwrap());

    for sequence in 0..20_u16 {
        let wire = pipeline.step().unwrap().expect("packetizer always emits");
        let Frame::Bytes(streamed) = wire.as_frame() else {
            panic!("expected bytes at the chain tail");
        };
        let frame = twin.sample(intent).unwrap();
        let direct = packetize(sequence, &frame.samples, 10).unwrap();
        assert_eq!(streamed, &direct[..], "frame {sequence}");
    }
}

/// The full decode chain (sense → spike → bin → Kalman), pinned against
/// hand-composed per-stage calls — decoded states must match to the
/// last bit.
#[test]
fn decode_chain_matches_hand_composition_bit_for_bit() {
    const WINDOW: usize = 4;
    let mut ni = NeuralInterface::new(8, 400, 10, 77).unwrap();
    // Calibration exactly as the glue sites do it: a recorded
    // trajectory, MAD-thresholded detector, binned counts, Kalman fit.
    let frames = ni.record_trajectory(600).unwrap();
    let rows: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let mut detector = SpikeDetector::calibrate(&rows[..64], 2.5, 3).unwrap();
    let events: Vec<Vec<bool>> = rows.iter().map(|r| detector.step(r).unwrap()).collect();
    let bins = BinAccumulator::new(ni.channels(), WINDOW)
        .unwrap()
        .bin_all(&events)
        .unwrap();
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
    let kalman = KalmanDecoder::calibrate(&bin_rows, &bin_intents).unwrap();

    // Streaming vs hand-composed, from identical post-calibration state.
    let mut twin = ni.clone();
    let mut det_twin = detector.clone();
    det_twin.step(&rows[0]).ok(); // make states differ if clone misused
    let mut det_hand = detector.clone();
    let mut acc_hand = BinAccumulator::new(twin.channels(), WINDOW).unwrap();
    let mut kal_hand = kalman.clone();
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(SpikeStage::new(detector))
        .with_stage(BinStage::new(twin.channels(), WINDOW).unwrap())
        .with_stage(KalmanStage::new(kalman));

    let mut decoded = 0;
    let mut row = Vec::new();
    for k in 0..120 {
        let streamed = pipeline.step().unwrap();
        let frame = twin.sample(trajectory_intent(k)).unwrap();
        row.clear();
        row.extend(frame.samples.iter().map(|&c| f64::from(c)));
        let ev = det_hand.step(&row).unwrap();
        match (streamed, acc_hand.push(&ev).unwrap()) {
            (Some(out), Some(bin)) => {
                let hand_state = kal_hand
                    .step(&bin.iter().map(|&c| f64::from(c)).collect::<Vec<f64>>())
                    .unwrap();
                let Frame::Values(state) = out.as_frame() else {
                    panic!("kalman emits values");
                };
                assert_eq!(state[0].to_bits(), hand_state.x.to_bits(), "step {k}");
                assert_eq!(state[1].to_bits(), hand_state.y.to_bits(), "step {k}");
                decoded += 1;
            }
            (None, None) => {}
            (a, b) => panic!(
                "emission mismatch at step {k}: {:?} vs {:?}",
                a.is_some(),
                b.is_some()
            ),
        }
    }
    assert_eq!(decoded, 120 / WINDOW);
    let _ = det_twin;
}

/// Fig. 3 (bottom): sense → DNN, pinned against the batched glue-site
/// normalization (`code / 512 − 1`) and `Network::forward`.
#[test]
fn dnn_stream_matches_per_frame_forward_bit_for_bit() {
    let channels = 256_u64;
    let ni = NeuralInterface::new(16, 500, 10, 13).unwrap();
    let mut twin = ni.clone();
    let arch = ModelFamily::Mlp.architecture(channels).unwrap();
    let network = Network::with_seeded_weights(arch, 3);
    let oracle = Network::with_seeded_weights(ModelFamily::Mlp.architecture(channels).unwrap(), 3);
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(DnnStage::new(network, 10).unwrap());

    for k in 0..16 {
        let out = pipeline.step().unwrap().expect("dnn emits every frame");
        let frame = twin.sample(trajectory_intent(k)).unwrap();
        let input: Vec<f32> = frame
            .samples
            .iter()
            .map(|&c| f32::from(c) / 512.0 - 1.0)
            .collect();
        let expected = oracle.forward(&input).unwrap();
        let Frame::Activations(labels) = out.as_frame() else {
            panic!("dnn emits activations");
        };
        assert_eq!(labels.len(), expected.len());
        for (a, b) in labels.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits(), "step {k}");
        }
    }
}

/// Telemetry invariants over the full five-stage chain
/// (sense → spike → bin → decode → packetize), instrumented so its
/// stage stopwatches run. An uninstrumented twin emits the same wire
/// bytes and reports the same telemetry with `busy` left at zero.
#[test]
fn five_stage_chain_telemetry_is_consistent() {
    const WINDOW: usize = 4;
    const STEPS: usize = 40;
    let mut ni = NeuralInterface::new(8, 400, 10, 21).unwrap();
    let frames = ni.record_trajectory(200).unwrap();
    let rows: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let mut detector = SpikeDetector::calibrate(&rows[..64], 2.5, 3).unwrap();
    let events: Vec<Vec<bool>> = rows.iter().map(|r| detector.step(r).unwrap()).collect();
    let bins = BinAccumulator::new(ni.channels(), WINDOW)
        .unwrap()
        .bin_all(&events)
        .unwrap();
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
    let kalman = KalmanDecoder::calibrate(&bin_rows, &bin_intents).unwrap();

    let channels = ni.channels();
    let chain = || {
        Pipeline::new()
            .with_stage(SenseStage::from_interface(
                ni.clone(),
                IntentSchedule::FigureEight,
            ))
            .with_stage(SpikeStage::new(detector.clone()))
            .with_stage(BinStage::new(channels, WINDOW).unwrap())
            .with_stage(KalmanStage::new(kalman.clone()))
            .with_stage(PacketizeStage::new(10).unwrap())
    };
    let registry = Registry::new();
    let mut pipeline = chain().with_instrumentation(&registry, "chain");
    let mut bare = chain();

    let wire = |out: Option<&FrameBuf>| {
        out.map(|buf| match buf.as_frame() {
            Frame::Bytes(bytes) => bytes.to_vec(),
            other => panic!("expected bytes at the chain tail, got {:?}", other.kind()),
        })
    };
    let mut emitted = 0_u64;
    let mut wire_len = 0_u64;
    for k in 0..STEPS {
        let out = wire(pipeline.step().unwrap());
        assert_eq!(out, wire(bare.step().unwrap()), "step {k}");
        if let Some(out) = out {
            emitted += 1;
            wire_len = out.len() as u64;
        }
    }
    assert_eq!(emitted, (STEPS / WINDOW) as u64);
    let t = pipeline.telemetry();
    assert_eq!(
        t.iter().map(|s| s.name).collect::<Vec<_>>(),
        ["sense", "spike", "bin", "kalman", "packetize"]
    );
    assert_eq!(t[0].frames_in, STEPS as u64);
    assert_eq!(t[1].frames_out, STEPS as u64);
    assert_eq!(t[2].frames_in, STEPS as u64);
    assert_eq!(t[2].frames_out, emitted, "bin emits once per window");
    assert_eq!(t[3].frames_in, emitted);
    assert_eq!(t[4].frames_out, emitted);
    assert_eq!(t[4].bytes_out, emitted * wire_len, "cumulative wire bytes");
    assert!(t[0].busy.as_nanos() > 0, "sensing does measurable work");
    assert!(t[0].mean_latency().as_nanos() > 0);
    for stage in &t {
        assert!(stage.peak_buffer_bytes > 0, "{} buffer tracked", stage.name);
    }
    assert_eq!(pipeline.steps(), STEPS as u64);

    let bare = bare.telemetry();
    for (timed, untimed) in t.iter().zip(&bare) {
        assert_eq!(untimed.busy, Duration::ZERO, "{} untimed", untimed.name);
        assert_eq!(
            *untimed,
            StageTelemetry {
                busy: Duration::ZERO,
                ..timed.clone()
            },
            "{}: every other field matches",
            untimed.name
        );
    }
}
