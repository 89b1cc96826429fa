//! Micro-benchmarks of each substrate's hot path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use mindful_accel::prelude::*;
use mindful_core::prelude::*;
use mindful_decode::prelude::*;
use mindful_dnn::prelude::*;
use mindful_rf::prelude::*;
use mindful_signal::prelude::*;

fn bench_core_scaling(c: &mut Criterion) {
    let spec = soc_by_id(1).unwrap();
    c.bench_function("core/scale_to_channels", |b| {
        b.iter(|| {
            black_box(mindful_core::scaling::scale_to_channels(&spec, black_box(8192)).unwrap())
        })
    });
    let anchor = SplitDesign::from_scaled(scale_to_standard(&spec).unwrap());
    c.bench_function("core/high_margin_projection", |b| {
        b.iter(|| {
            black_box(
                anchor
                    .project(ScalingRegime::HighMargin, black_box(8192))
                    .unwrap(),
            )
        })
    });
}

fn bench_rf(c: &mut Criterion) {
    c.bench_function("rf/required_ebn0_16qam", |b| {
        let m = Modulation::qam(4).unwrap();
        b.iter(|| black_box(m.required_ebn0(black_box(1e-6)).unwrap()))
    });

    let samples: Vec<u16> = (0..1024).map(|i| (i % 1024) as u16).collect();
    let mut group = c.benchmark_group("rf/packetize");
    group.throughput(Throughput::Bytes(1280));
    group.bench_function("1024ch_10bit", |b| {
        b.iter(|| black_box(packetize(0, black_box(&samples), 10).unwrap()))
    });
    group.finish();

    let modem = Modem::new(Modulation::qam(4).unwrap(), 10.0).unwrap();
    let bits: Vec<bool> = (0..4096).map(|i| i % 3 == 0).collect();
    let mut group = c.benchmark_group("rf/modem");
    group.throughput(Throughput::Elements(4096));
    group.bench_function("modulate_16qam_4096b", |b| {
        b.iter(|| black_box(modem.modulate(black_box(&bits))))
    });
    group.finish();
}

fn bench_accel(c: &mut Criterion) {
    let net = ModelFamily::Mlp
        .architecture(2048)
        .unwrap()
        .workload()
        .unwrap();
    c.bench_function("accel/best_allocation_mlp2048", |b| {
        b.iter(|| {
            black_box(
                best_allocation(
                    black_box(&net),
                    TechnologyNode::NANGATE_45NM,
                    ModelFamily::Mlp.deadline(),
                )
                .unwrap(),
            )
        })
    });

    let weights: Vec<i8> = (0..256 * 64).map(|i| (i % 23) as i8 - 11).collect();
    let layer = DenseLayer::new(256, 64, weights, vec![0; 64], true).unwrap();
    let x: Vec<i8> = (0..256).map(|i| (i % 19) as i8 - 9).collect();
    let mut group = c.benchmark_group("accel/cycle_sim");
    group.throughput(Throughput::Elements(256 * 64));
    group.bench_function("dense_256x64_hw16", |b| {
        b.iter(|| {
            black_box(
                simulate_dense(&layer, black_box(&x), 16, TechnologyNode::NANGATE_45NM).unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_dnn(c: &mut Criterion) {
    c.bench_function("dnn/architecture_mlp_8192", |b| {
        b.iter(|| black_box(ModelFamily::Mlp.architecture(black_box(8192)).unwrap()))
    });

    let arch = ModelFamily::Mlp.architecture(128).unwrap();
    let network = Network::with_seeded_weights(arch, 1);
    let input = vec![0.25_f32; 128];
    c.bench_function("dnn/forward_mlp_base", |b| {
        b.iter(|| black_box(network.forward(black_box(&input)).unwrap()))
    });
}

fn bench_signal(c: &mut Criterion) {
    let mut ni = NeuralInterface::new(16, 400, 10, 1).unwrap();
    let mut group = c.benchmark_group("signal/sample");
    group.throughput(Throughput::Elements(256));
    group.bench_function("256ch_400neurons", |b| {
        b.iter(|| black_box(ni.sample(Intent::new(0.5, -0.5)).unwrap()))
    });
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
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
    c.bench_function("decode/kalman_step_64ch", |b| {
        b.iter(|| black_box(kalman.step(black_box(&rows[17])).unwrap()))
    });

    let mut detector = SpikeDetector::calibrate(&rows[..64], 4.0, 3).unwrap();
    c.bench_function("decode/spike_detect_64ch", |b| {
        b.iter(|| black_box(detector.step(black_box(&rows[17])).unwrap()))
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
    c.bench_function("decode/spike_detect_codes_1024ch", |b| {
        b.iter(|| {
            detector
                .step_codes_into(black_box(&frames[17].samples), &mut out)
                .unwrap();
            black_box(&out);
        })
    });
    c.bench_function("decode/kalman_step_counts_1024ch", |b| {
        b.iter(|| black_box(kalman.step_counts(black_box(&bins[17])).unwrap()))
    });
}

fn bench_thermal(c: &mut Criterion) {
    let model = mindful_thermal::ImplantThermalModel::new(
        mindful_thermal::TissueProperties::gray_matter(),
        mindful_thermal::FluxSplit::DualSided,
    )
    .unwrap();
    c.bench_function("thermal/fd_profile_1000_nodes", |b| {
        b.iter(|| {
            black_box(
                model
                    .solve_profile(
                        mindful_core::budget::SAFE_POWER_DENSITY,
                        black_box(0.04),
                        1000,
                    )
                    .unwrap(),
            )
        })
    });
}

criterion_group!(
    substrates,
    bench_core_scaling,
    bench_rf,
    bench_accel,
    bench_dnn,
    bench_signal,
    bench_decode,
    bench_thermal,
);
criterion_main!(substrates);
