//! Micro-benchmarks of each substrate's hot path. Sub-µs calls run many
//! times per timed sample so the clock read does not swamp them. Set
//! `MINDFUL_BENCH_QUICK=1` to shrink the sample count.

use std::hint::black_box;

use mindful_accel::prelude::*;
use mindful_bench::Report;
use mindful_core::prelude::*;
use mindful_decode::prelude::*;
use mindful_dnn::prelude::*;
use mindful_rf::prelude::*;
use mindful_signal::prelude::*;

/// Timed samples per row.
fn samples() -> usize {
    if mindful_core::env::bench_quick() {
        10
    } else {
        30
    }
}

fn core_scaling(report: &mut Report) {
    let spec = soc_by_id(1).unwrap();
    report.time("core/scale_to_channels", samples(), 1000, || {
        mindful_core::scaling::scale_to_channels(&spec, black_box(8192)).unwrap()
    });
    let anchor = SplitDesign::from_scaled(scale_to_standard(&spec).unwrap());
    report.time("core/high_margin_projection", samples(), 1000, || {
        anchor
            .project(ScalingRegime::HighMargin, black_box(8192))
            .unwrap()
    });
}

fn rf(report: &mut Report) {
    let m = Modulation::qam(4).unwrap();
    report.time("rf/required_ebn0_16qam", samples(), 100, || {
        m.required_ebn0(black_box(1e-6)).unwrap()
    });
    let codes: Vec<u16> = (0..1024).map(|i| (i % 1024) as u16).collect();
    report.time("rf/packetize_1024ch_10bit", samples(), 100, || {
        packetize(0, black_box(&codes), 10).unwrap()
    });
    let modem = Modem::new(Modulation::qam(4).unwrap(), 10.0).unwrap();
    let bits: Vec<bool> = (0..4096).map(|i| i % 3 == 0).collect();
    report.time("rf/modulate_16qam_4096b", samples(), 10, || {
        modem.modulate(black_box(&bits))
    });
}

fn accel(report: &mut Report) {
    let net = ModelFamily::Mlp
        .architecture(2048)
        .unwrap()
        .workload()
        .unwrap();
    report.time("accel/best_allocation_mlp2048", samples(), 100, || {
        best_allocation(
            black_box(&net),
            TechnologyNode::NANGATE_45NM,
            ModelFamily::Mlp.deadline(),
        )
        .unwrap()
    });
    let weights: Vec<i8> = (0..256 * 64).map(|i| (i % 23) as i8 - 11).collect();
    let layer = DenseLayer::new(256, 64, weights, vec![0; 64], true).unwrap();
    let x: Vec<i8> = (0..256).map(|i| (i % 19) as i8 - 9).collect();
    report.time("accel/cycle_sim_dense_256x64_hw16", samples(), 10, || {
        simulate_dense(&layer, black_box(&x), 16, TechnologyNode::NANGATE_45NM).unwrap()
    });
}

fn dnn(report: &mut Report) {
    report.time("dnn/architecture_mlp_8192", samples(), 1000, || {
        ModelFamily::Mlp.architecture(black_box(8192)).unwrap()
    });
    let arch = ModelFamily::Mlp.architecture(128).unwrap();
    let network = Network::with_seeded_weights(arch, 1);
    let input = vec![0.25_f32; 128];
    report.time("dnn/forward_mlp_base", samples(), 10, || {
        network.forward(black_box(&input)).unwrap()
    });
}

fn signal(report: &mut Report) {
    let mut ni = NeuralInterface::new(16, 400, 10, 1).unwrap();
    report.time("signal/sample_256ch_400neurons", samples(), 10, || {
        ni.sample(Intent::new(0.5, -0.5)).unwrap()
    });
}

fn decode(report: &mut Report) {
    // Calibrate once, benchmark the per-frame filter step.
    let intents: Vec<(f64, f64)> = (0..400)
        .map(|k| ((k as f64 * 0.05).sin(), (k as f64 * 0.08).cos()))
        .collect();
    let rows: Vec<Vec<f64>> = intents
        .iter()
        .map(|&(x, y)| {
            (0..64)
                .map(|c| x * (c as f64).sin() + y * (c as f64).cos())
                .collect()
        })
        .collect();
    let mut kalman = KalmanDecoder::calibrate(&rows, &intents).unwrap();
    report.time("decode/kalman_step_64ch", samples(), 1000, || {
        kalman.step(black_box(&rows[17])).unwrap()
    });
    let mut detector = SpikeDetector::calibrate(&rows[..64], 4.0, 3).unwrap();
    report.time("decode/spike_detect_64ch", samples(), 1000, || {
        detector.step(black_box(&rows[17])).unwrap()
    });

    // The shapes the 1024-channel motor chain runs: spike detection on
    // raw ADC codes and the Kalman step on window-4 binned counts.
    let mut ni = NeuralInterface::new(32, 600, 10, 5).unwrap();
    let frames = ni.record_trajectory(256).unwrap();
    let code_rows: Vec<Vec<f64>> = frames
        .iter()
        .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let mut detector = SpikeDetector::calibrate(&code_rows[..64], 2.5, 3).unwrap();
    let events: Vec<Vec<bool>> = code_rows
        .iter()
        .map(|r| detector.step(r).unwrap())
        .collect();
    let bins = BinAccumulator::new(ni.channels(), 4)
        .unwrap()
        .bin_all(&events)
        .unwrap();
    let bin_rows: Vec<Vec<f64>> = bins
        .iter()
        .map(|b| b.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let bin_intents: Vec<(f64, f64)> = (0..bins.len())
        .map(|k| {
            let i = frames[4 * k + 3].intent;
            (i.x, i.y)
        })
        .collect();
    let mut kalman = KalmanDecoder::calibrate(&bin_rows, &bin_intents).unwrap();
    let mut out = Vec::with_capacity(ni.channels());
    report.time("decode/spike_detect_codes_1024ch", samples(), 1000, || {
        detector
            .step_codes_into(black_box(&frames[17].samples), &mut out)
            .unwrap();
        black_box(&out);
    });
    report.time("decode/kalman_step_counts_1024ch", samples(), 1000, || {
        kalman.step_counts(black_box(&bins[17])).unwrap()
    });
}

fn thermal(report: &mut Report) {
    let model = mindful_thermal::ImplantThermalModel::new(
        mindful_thermal::TissueProperties::gray_matter(),
        mindful_thermal::FluxSplit::DualSided,
    )
    .unwrap();
    report.time("thermal/fd_profile_1000_nodes", samples(), 10, || {
        model
            .solve_profile(
                mindful_core::budget::SAFE_POWER_DENSITY,
                black_box(0.04),
                1000,
            )
            .unwrap()
    });
}

fn main() {
    let mut report = Report::new("substrates");
    core_scaling(&mut report);
    rf(&mut report);
    accel(&mut report);
    dnn(&mut report);
    signal(&mut report);
    decode(&mut report);
    thermal(&mut report);
    report.write(env!("CARGO_TARGET_TMPDIR"));
}
