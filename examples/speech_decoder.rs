//! Speech-decoder deployment study: communication-centric vs.
//! computation-centric vs. partitioned, end to end.
//!
//! ```text
//! cargo run -p mindful-examples --bin speech_decoder
//! ```
//!
//! Generates synthetic cortical data, runs the actual MLP forward pass
//! (full and partitioned prefix), and compares the three deployment
//! strategies' power on a BISC-class implant — the workload the paper's
//! Section 5.3/6.1 analysis is about.

use mindful_core::prelude::*;
use mindful_dnn::prelude::*;
use mindful_examples::{mw, section};
use mindful_pipeline::prelude::*;
// Both the RF and pipeline preludes export a `Frame`; this example
// pattern-matches the pipeline's.
use mindful_pipeline::Frame;
use mindful_rf::prelude::*;
use mindful_signal::prelude::*;

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let channels: u64 = 1024;
    let anchor = SplitDesign::from_scaled(scale_to_standard(&soc_by_id(1)?)?);
    let spec = anchor.scaled().spec().clone();
    let config = IntegrationConfig::paper_45nm();

    section("1. Record synthetic cortical data (32x32 channel grid)");
    let mut ni = NeuralInterface::new(32, 1200, spec.sample_bits(), 2024)?;
    let frames = ni.record_trajectory(64)?;
    println!(
        "recorded {} frames of {} channels at {} bits",
        frames.len(),
        ni.channels(),
        spec.sample_bits(),
    );

    section("2. Run the actual MLP decoder on the recorded frames (batched)");
    let arch = ModelFamily::Mlp.architecture(channels)?;
    println!("{arch}");
    let network = Network::with_seeded_weights(arch.clone(), 7);
    // Decode the trailing window of the trajectory in one batched call
    // fanned over a default-sized worker scheduler.
    let window: Vec<Vec<f32>> = frames[frames.len() - 8..]
        .iter()
        .map(|frame| {
            frame
                .samples
                .iter()
                .map(|&code| f32::from(code) / 512.0 - 1.0)
                .collect()
        })
        .collect();
    let decoded = network.forward_batch(&window, &Scheduler::with_default_threads())?;
    let input = window.last().expect("recorded at least one frame").clone();
    let labels = decoded.last().expect("batch output per input");
    println!(
        "decoded {} frames ({} labels each) on {} worker thread(s); \
         first five of the latest: {:?}",
        decoded.len(),
        labels.len(),
        mindful_core::pool::default_threads(),
        &labels[..5]
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
    );

    section("3. Stream the same decoder through the unified Stage pipeline");
    // The streaming path the implant firmware would run: sense → DNN as
    // one zero-allocation chain, pinned against the direct path. The
    // registry turns on the per-stage stopwatch behind the latencies
    // printed below.
    let stream_ni = NeuralInterface::new(32, 1200, spec.sample_bits(), 77)?;
    let mut stream_twin = stream_ni.clone();
    let registry = mindful_core::obs::Registry::new();
    let mut stream = Pipeline::new()
        .with_stage(SenseStage::from_interface(
            stream_ni,
            IntentSchedule::FigureEight,
        ))
        .with_stage(DnnStage::new(network.clone(), spec.sample_bits())?)
        .with_instrumentation(&registry, "stream");
    let mut last_streamed = Vec::new();
    for k in 0..8 {
        let out = stream.step()?.expect("dnn emits every frame");
        if let Frame::Activations(labels) = out.as_frame() {
            last_streamed.clear();
            last_streamed.extend_from_slice(labels);
        }
        // Equivalence against the pre-refactor per-frame glue.
        let frame = stream_twin.sample(trajectory_intent(k))?;
        let direct: Vec<f32> = frame
            .samples
            .iter()
            .map(|&code| f32::from(code) / 512.0 - 1.0)
            .collect();
        assert_eq!(last_streamed, network.forward(&direct)?);
    }
    for t in stream.telemetry() {
        println!(
            "  stage {:<9} {} frames, {:>7.1} us/frame, peak buffer {} bytes",
            t.name,
            t.frames_in,
            t.mean_latency().as_secs_f64() * 1e6,
            t.peak_buffer_bytes,
        );
    }
    println!("streamed labels match the per-frame forward pass exactly");

    section("4. Strategy A: communication-centric (stream everything)");
    let raw_rate = sensing_throughput(channels, spec.sample_bits(), spec.sampling());
    let tx = OokTransmitter::customized_for(channels, spec.sample_bits(), spec.sampling())?;
    let comm_centric = tx.power_at(raw_rate)?;
    // Exercise the wire format the transceiver would carry.
    let wire = packetize(1, &frames[0].samples, spec.sample_bits())?;
    let parsed = depacketize(&wire)?;
    assert_eq!(parsed.samples, frames[0].samples);
    println!(
        "raw {:.1} Mbps (packet overhead {:.2}%), transmit power {}",
        raw_rate.megabits_per_second(),
        (wire.len() * 8) as f64 / (frames[0].samples.len() * 10) as f64 * 100.0 - 100.0,
        mw(comm_centric),
    );

    section("5. Strategy B: computation-centric (full MLP on implant)");
    let on_implant = evaluate_full(&anchor, ModelFamily::Mlp, channels, &config)?;
    println!("{on_implant}");
    println!(
        "  MAC allocation: {} ({} units)",
        on_implant.allocation(),
        on_implant.allocation().total_mac_hw(),
    );

    section("6. Strategy C: partitioned (early layers on implant)");
    let split = evaluate_partitioned(&anchor, ModelFamily::Mlp, channels, &config)?;
    println!("{split}");
    // Run the actual prefix the implant would execute.
    let intermediate = network.forward_prefix(&input, split.keep_layers())?;
    println!(
        "  implant transmits {} intermediate activations per inference",
        intermediate.len(),
    );

    section("7. Verdict at 1024 channels");
    let budget = on_implant.power_budget();
    println!("power budget:            {}", mw(budget));
    println!(
        "A. communication-centric: {} (+ sensing {})",
        mw(comm_centric),
        mw(anchor.sensing_power()),
    );
    println!("B. computation-centric:  {}", mw(on_implant.total_power()));
    println!("C. partitioned:          {}", mw(split.total_power()));
    Ok(())
}
