//! End-to-end pipelines spanning the whole workspace: sensing →
//! digitization → (packetize | decode | infer) → wireless, under the
//! core power budget — composed through the unified streaming
//! `Stage` abstraction of `mindful_pipeline`.

use mindful_accel::prelude::*;
use mindful_core::prelude::*;
use mindful_decode::prelude::*;
use mindful_dnn::prelude::*;
use mindful_pipeline::prelude::*;
// Both the RF and pipeline preludes export a `Frame`; these tests
// pattern-match the pipeline's.
use mindful_pipeline::Frame;
use mindful_rf::prelude::*;
use mindful_signal::prelude::*;

/// The communication-centric pipeline of Fig. 3 (top), as a streaming
/// `Stage` chain: digitize every channel, packetize, transmit; the
/// wearable depacketizes losslessly, and the *measured* wire rate from
/// pipeline telemetry fits a BISC-class power budget.
#[test]
fn communication_centric_pipeline_is_lossless() {
    let ni = NeuralInterface::new(16, 400, 10, 11).unwrap(); // 256 ch
    let channels = ni.channels();
    let mut twin = ni.clone();
    let spec = soc_by_id(1).unwrap();

    let intent = Intent::new(0.3, -0.1);
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(
            ni,
            IntentSchedule::Constant(intent),
        ))
        .with_stage(PacketizeStage::new(10).unwrap());

    let mut wire_bits_per_frame = 0_u64;
    for sequence in 0..20_u16 {
        let out = pipeline.step().unwrap().expect("packetizer always emits");
        let Frame::Bytes(wire) = out.as_frame() else {
            panic!("the chain tail carries wire bytes");
        };
        wire_bits_per_frame = wire.len() as u64 * 8;
        let received = depacketize(wire).unwrap();
        // Lossless, in sequence, and equal to the pre-refactor direct
        // path on a twin interface.
        let frame = twin.sample(intent).unwrap();
        assert_eq!(received.samples, frame.samples);
        assert_eq!(received.sequence, sequence);
    }

    // Telemetry agrees with the wire format, and the link power for the
    // *actual* packetized rate (overhead included) fits the budget.
    let telemetry = pipeline.telemetry();
    assert_eq!(telemetry[1].frames_out, 20);
    assert_eq!(telemetry[1].bytes_out * 8, 20 * wire_bits_per_frame);
    let sampling = Frequency::from_kilohertz(8.0);
    let wire_rate = DataRate::from_bits_per_second(wire_bits_per_frame as f64 * sampling.hertz());
    assert!(
        wire_rate.bits_per_second()
            > sensing_throughput(channels as u64, 10, sampling).bits_per_second(),
        "packet framing adds overhead on top of the raw stream"
    );
    // A transmitter customized for the packetized stream (same pJ/bit
    // as the paper's worked example) still fits a BISC-class budget.
    let raw_tx = OokTransmitter::customized_for(channels as u64, 10, sampling).unwrap();
    let tx = OokTransmitter::new(raw_tx.energy_per_bit(), wire_rate).unwrap();
    let p_comm = tx.power_at(wire_rate).unwrap();
    let budget = power_budget(spec.area());
    assert!(p_comm < budget, "{p_comm:?} vs {budget:?}");
}

/// The computation-centric pipeline (Fig. 3 bottom): digitized frames
/// stream through the real MLP as a `Stage` chain; only 40 labels leave
/// the implant, the streamed outputs equal the batched pool path
/// bit-for-bit, and the MAC allocation that sustains it respects the
/// budget on BISC.
#[test]
fn computation_centric_pipeline_runs_real_inference() {
    let channels = 1024_u64;
    let ni = NeuralInterface::new(32, 600, 10, 5).unwrap();
    assert_eq!(ni.channels() as u64, channels);
    let mut twin = ni.clone();

    let arch = ModelFamily::Mlp.architecture(channels).unwrap();
    let network = Network::with_seeded_weights(arch.clone(), 3);
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(
            ni,
            IntentSchedule::Constant(Intent::new(0.5, 0.2)),
        ))
        .with_stage(DnnStage::new(network.clone(), 10).unwrap());

    // Stream three frames; rebuild the same inputs on a twin interface
    // for the batched pool path.
    let mut streamed: Vec<Vec<f32>> = Vec::new();
    let mut inputs: Vec<Vec<f32>> = Vec::new();
    for _ in 0..3 {
        let out = pipeline.step().unwrap().expect("dnn emits every frame");
        let Frame::Activations(labels) = out.as_frame() else {
            panic!("the chain tail carries activations");
        };
        streamed.push(labels.to_vec());
        let frame = twin.sample(Intent::new(0.5, 0.2)).unwrap();
        inputs.push(
            frame
                .samples
                .iter()
                .map(|&c| f32::from(c) / 512.0 - 1.0)
                .collect(),
        );
    }
    // Batched decoding over a worker scheduler equals the streamed chain
    // and per-frame forwards exactly.
    let batched = network
        .forward_batch(&inputs, &Scheduler::with_default_threads())
        .unwrap();
    assert_eq!(batched.len(), inputs.len());
    for ((x, labels), stream_labels) in inputs.iter().zip(&batched).zip(&streamed) {
        assert_eq!(labels.len() as u64, OUTPUT_LABELS);
        assert_eq!(labels, &network.forward(x).unwrap());
        assert_eq!(labels, stream_labels, "streamed ≡ batched");
    }

    // The analytic integration of the same model on BISC is feasible.
    let anchor = SplitDesign::from_scaled(
        mindful_core::scaling::scale_to_standard(&soc_by_id(1).unwrap()).unwrap(),
    );
    let point = evaluate_full(
        &anchor,
        ModelFamily::Mlp,
        channels,
        &IntegrationConfig::paper_45nm(),
    )
    .unwrap();
    assert!(point.is_feasible(), "{point}");

    // And the output stream is tiny compared to the raw stream.
    let raw = sensing_throughput(channels, 10, anchor.scaled().spec().sampling());
    assert!(
        point.communication_power()
            < OokTransmitter::customized_for(channels, 10, anchor.scaled().spec().sampling())
                .unwrap()
                .power_at(raw)
                .unwrap()
    );
}

/// The partitioned pipeline of Section 6.1: run the implant-side prefix
/// for real, check the transmitted activation count matches the
/// analytic partition plan.
#[test]
fn partitioned_pipeline_matches_analytic_plan() {
    let channels = 1024_u64;
    let anchor = SplitDesign::from_scaled(
        mindful_core::scaling::scale_to_standard(&soc_by_id(1).unwrap()).unwrap(),
    );
    let config = IntegrationConfig::paper_45nm();
    let plan = evaluate_partitioned(&anchor, ModelFamily::Mlp, channels, &config).unwrap();
    assert!(plan.keep_layers() < plan.total_layers());

    let arch = ModelFamily::Mlp.architecture(channels).unwrap();
    let network = Network::with_seeded_weights(arch, 9);
    let input = vec![0.25_f32; channels as usize];
    let intermediate = network.forward_prefix(&input, plan.keep_layers()).unwrap();

    // The analytic link rate corresponds to exactly this many values.
    let expected_rate = mindful_dnn::partition::activation_rate(intermediate.len() as u64, 10);
    assert!((plan.link_rate().bits_per_second() - expected_rate.bits_per_second()).abs() < 1e-6);
}

/// Decoding closes the loop: synthetic cortical data in, behavioural
/// intent out, with the Kalman baseline recovering real signal.
#[test]
fn kalman_decodes_synthetic_cortex_above_chance() {
    let mut ni = NeuralInterface::new(8, 400, 10, 77).unwrap();
    let frames = ni.record_trajectory(2500).unwrap();
    let rows: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let intents: Vec<(f64, f64)> = frames.iter().map(|f| (f.intent.x, f.intent.y)).collect();
    let mut decoder = KalmanDecoder::calibrate(&rows, &intents).unwrap();
    let decoded = decoder.decode(&rows).unwrap();
    let corr = correlation(
        &decoded.iter().map(|v| v.x).collect::<Vec<_>>(),
        &intents.iter().map(|i| i.0).collect::<Vec<_>>(),
    );
    assert!(corr > 0.4, "Kalman x-correlation {corr}");
}

/// Channel dropout (ChDr) end to end: spike detection ranks channels,
/// the reduced channel set still supports decoding, and the DNN cost
/// analysis sees the smaller α.
#[test]
fn channel_dropout_reduces_both_data_and_compute() {
    let mut ni = NeuralInterface::new(16, 500, 10, 13).unwrap(); // 256 ch
    let frames = ni.record_trajectory(600).unwrap();
    let rows: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let mut detector = SpikeDetector::calibrate(&rows[..64], 2.5, 3).unwrap();
    let counts = detector.event_counts(&rows).unwrap();
    let active = select_active_channels(&counts, 128).unwrap();
    assert_eq!(active.len(), 128);

    // Compute cost at 256 active vs 128 active channels.
    let full = ModelFamily::Mlp.architecture(256).unwrap().macs();
    let dropped = ModelFamily::Mlp.architecture(128).unwrap().macs();
    assert!(
        dropped * 2 < full,
        "dropout must shrink compute: {dropped} vs {full}"
    );
}

/// The accelerator's cycle-level simulation executes the first MLP layer
/// with the exact MAC count its allocation predicts.
#[test]
fn accelerator_simulation_agrees_with_allocation() {
    let arch = ModelFamily::Mlp.architecture(128).unwrap();
    let first = &arch.layers()[0];
    let (inputs, outputs) = match *first {
        mindful_dnn::arch::LayerSpec::Dense { inputs, outputs } => {
            (inputs as usize, outputs as usize)
        }
        _ => panic!("MLP starts with a dense layer"),
    };
    let weights: Vec<i8> = (0..inputs * outputs).map(|i| (i % 13) as i8 - 6).collect();
    let layer = DenseLayer::new(inputs, outputs, weights, vec![0; outputs], true).unwrap();
    let x: Vec<i8> = (0..inputs).map(|i| (i % 9) as i8 - 4).collect();

    let net = NetworkWorkload::new(vec![layer.workload().unwrap()]).unwrap();
    let node = TechnologyNode::NANGATE_45NM;
    let deadline = ModelFamily::Mlp.deadline();
    let alloc = best_allocation(&net, node, deadline).unwrap();
    let sim = simulate_dense(&layer, &x, alloc.total_mac_hw(), node).unwrap();
    assert_eq!(sim.outputs, layer.reference(&x).unwrap());
    let latency = node.mac_latency() * sim.cycles as f64;
    assert!(latency <= deadline, "simulated latency within the deadline");
}

/// Corrupt the wireless stream and confirm the wearable rejects exactly
/// the corrupted frames (failure injection), with the stream produced
/// by the composed sense → packetize chain.
#[test]
fn corrupted_frames_are_dropped_not_misdecoded() {
    let ni = NeuralInterface::new(8, 100, 10, 21).unwrap();
    let mut twin = ni.clone();
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(
            ni,
            IntentSchedule::Constant(Intent::default()),
        ))
        .with_stage(PacketizeStage::new(10).unwrap());
    let mut corrupted = 0;
    let mut delivered = 0;
    for k in 0..50_u16 {
        let out = pipeline.step().unwrap().expect("packetizer always emits");
        let Frame::Bytes(stream) = out.as_frame() else {
            panic!("the chain tail carries wire bytes");
        };
        let mut wire = stream.to_vec();
        let frame = twin.sample(Intent::default()).unwrap();
        if k % 5 == 0 {
            let idx = (usize::from(k) * 7) % wire.len();
            wire[idx] ^= 0x10;
            corrupted += 1;
            assert!(depacketize(&wire).is_err());
        } else {
            let parsed = depacketize(&wire).unwrap();
            assert_eq!(parsed.samples, frame.samples);
            delivered += 1;
        }
    }
    assert_eq!(corrupted, 10);
    assert_eq!(delivered, 40);
}
