//! Benchmarks for the zero-allocation inference engine: blocked vs.
//! naive kernels on a single sample, and batched forward over the
//! shared worker pool.
//!
//! `report_infer_acceptance` doubles as the acceptance gate: it asserts
//! the blocked single-sample path is at least 2x the naive oracle and
//! that the batched path scales with threads (when the machine has
//! them), and writes the measured medians to
//! `results/bench/BENCH_infer.json`. Set `MINDFUL_BENCH_QUICK=1` (as CI
//! does) to shrink iteration counts.

use std::hint::black_box;
use std::num::NonZeroUsize;

use criterion::{criterion_group, criterion_main, Criterion};
use mindful_bench::{median_ns, write_artifact};
use mindful_core::pool::Scheduler;
use mindful_dnn::infer::Network;
use mindful_dnn::kernels::{dense_into_at, transpose_dense};
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS};
use mindful_dnn::quant::QuantizedNetwork;
use mindful_dnn::simd::{self, SimdLevel};

/// Channel count for the batch-scaling model (α = 2 MLP, ~2.6M MACs —
/// heavy enough that fan-out dominates thread spawn cost).
const BATCH_CHANNELS: u64 = 256;
const BATCH_SAMPLES: usize = 48;

fn quick() -> bool {
    mindful_core::env::bench_quick()
}

fn network(channels: u64) -> Network {
    let arch = ModelFamily::Mlp
        .architecture(channels)
        .expect("MLP builds at any supported channel count");
    Network::with_seeded_weights(arch, 7)
}

fn sample(width: usize, phase: usize) -> Vec<f32> {
    (0..width)
        .map(|i| (((i + phase) % 23) as f32 - 11.0) / 11.0)
        .collect()
}

fn batch(width: usize, count: usize) -> Vec<Vec<f32>> {
    (0..count).map(|s| sample(width, s)).collect()
}

fn bench_single_sample(c: &mut Criterion) {
    let net = network(BASE_CHANNELS);
    let input = sample(BASE_CHANNELS as usize, 0);
    let mut group = c.benchmark_group("infer");
    group.sample_size(if quick() { 10 } else { 40 });
    group.bench_function("naive_mlp128", |b| {
        b.iter(|| black_box(net.forward_naive(black_box(&input)).unwrap()))
    });
    group.bench_function("blocked_mlp128", |b| {
        let mut ws = net.workspace();
        b.iter(|| {
            black_box(net.forward_into(black_box(&input), &mut ws).unwrap());
        })
    });
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let net = network(BATCH_CHANNELS);
    let inputs = batch(BATCH_CHANNELS as usize, BATCH_SAMPLES);
    let serial = Scheduler::new(NonZeroUsize::MIN);
    let pooled = Scheduler::with_default_threads();
    let mut group = c.benchmark_group("infer_batch");
    group.sample_size(10);
    group.bench_function("serial_mlp256x48", |b| {
        b.iter(|| black_box(net.forward_batch(black_box(&inputs), &serial).unwrap()))
    });
    group.bench_function("pooled_mlp256x48", |b| {
        b.iter(|| black_box(net.forward_batch(black_box(&inputs), &pooled).unwrap()))
    });
    group.finish();
}

/// One-shot acceptance measurement. Asserts the performance contract
/// and records the medians as a machine-readable artifact.
fn report_infer_acceptance(_c: &mut Criterion) {
    let iters = if quick() { 60 } else { 300 };
    let net = network(BASE_CHANNELS);
    let input = sample(BASE_CHANNELS as usize, 0);

    // Warm up both paths (workspace arenas, page faults, frequency).
    let mut ws = net.workspace();
    for _ in 0..5 {
        black_box(net.forward_naive(&input).unwrap());
        black_box(net.forward_into(&input, &mut ws).unwrap());
    }
    let naive_ns = median_ns(iters, || {
        black_box(net.forward_naive(black_box(&input)).unwrap());
    });
    let blocked_ns = median_ns(iters, || {
        black_box(net.forward_into(black_box(&input), &mut ws).unwrap());
    });
    let single_speedup = naive_ns / blocked_ns;
    println!(
        "infer/single_mlp128   blocked {blocked_ns:.0} ns vs naive {naive_ns:.0} ns \
         ({single_speedup:.1}x)"
    );
    assert!(
        single_speedup >= 2.0,
        "blocked single-sample forward must be at least 2x the naive oracle, \
         got {single_speedup:.2}x ({blocked_ns:.0} ns vs {naive_ns:.0} ns)"
    );

    // SIMD kernel gate: `dense_into` on a deep narrow dense layer
    // (256 -> 16, L1-resident) under the detected level vs the blocked
    // scalar oracle — the shape where holding the output tile in
    // registers across every input row pays most, so the contract has
    // margin over run-to-run noise. Skipped with a notice when the
    // host resolves to scalar (no AVX2/NEON, or MINDFUL_SIMD=0).
    let level = simd::level();
    let (d_in, d_out) = (2 * BASE_CHANNELS as usize, 16);
    let weights_t = transpose_dense(&sample(d_in * d_out, 3), d_in, d_out);
    let dense_bias = sample(d_out, 5);
    let dense_x = sample(d_in, 9);
    let mut dense_out = vec![0.0_f32; d_out];
    const KERNEL_CALLS: usize = 32;
    let time_level = |lvl: SimdLevel, dense_out: &mut Vec<f32>| {
        for _ in 0..KERNEL_CALLS {
            dense_into_at(lvl, &dense_x, &weights_t, &dense_bias, dense_out);
        }
        median_ns(iters, || {
            for _ in 0..KERNEL_CALLS {
                dense_into_at(
                    black_box(lvl),
                    black_box(&dense_x),
                    &weights_t,
                    &dense_bias,
                    dense_out,
                );
            }
            black_box(&mut *dense_out);
        }) / KERNEL_CALLS as f64
    };
    let scalar_kernel_ns = time_level(SimdLevel::Scalar, &mut dense_out);
    let simd_kernel_ns = time_level(level, &mut dense_out);
    let simd_speedup = scalar_kernel_ns / simd_kernel_ns;
    println!(
        "infer/dense_{d_in}x{d_out}      {level} {simd_kernel_ns:.0} ns vs scalar \
         {scalar_kernel_ns:.0} ns ({simd_speedup:.1}x)"
    );
    if level == SimdLevel::Scalar {
        println!(
            "infer/dense_{d_in}x{d_out}      NOTICE: host resolved to scalar \
             (no AVX2/NEON or MINDFUL_SIMD=0); simd >= 2x gate skipped"
        );
    } else {
        assert!(
            simd_speedup >= 2.0,
            "simd dense_into must be at least 2x the blocked-scalar oracle on a \
             {level} host, got {simd_speedup:.2}x \
             ({simd_kernel_ns:.0} ns vs {scalar_kernel_ns:.0} ns)"
        );
    }

    // Int8 quantized end-to-end forward on the same model — a row, not
    // a gate: the win tracks the host's integer throughput.
    let quantized = QuantizedNetwork::from_network_default(&net).expect("the MLP is all-dense");
    let mut qws = quantized.workspace();
    for _ in 0..5 {
        black_box(quantized.forward_into(&input, &mut qws).unwrap());
    }
    let int8_ns = median_ns(iters, || {
        black_box(quantized.forward_into(black_box(&input), &mut qws).unwrap());
    });
    let int8_speedup = blocked_ns / int8_ns;
    println!(
        "infer/int8_mlp128     int8 {int8_ns:.0} ns vs f32 blocked {blocked_ns:.0} ns \
         ({int8_speedup:.1}x)"
    );

    let batch_iters = if quick() { 7 } else { 21 };
    let big = network(BATCH_CHANNELS);
    let inputs = batch(BATCH_CHANNELS as usize, BATCH_SAMPLES);
    let (serial, pooled) = (
        Scheduler::new(NonZeroUsize::MIN),
        Scheduler::with_default_threads(),
    );
    let threads = pooled.workers();
    black_box(big.forward_batch(&inputs, &pooled).unwrap());
    let serial_ns = median_ns(batch_iters, || {
        black_box(big.forward_batch(black_box(&inputs), &serial).unwrap());
    });
    let pooled_ns = median_ns(batch_iters, || {
        black_box(big.forward_batch(black_box(&inputs), &pooled).unwrap());
    });
    let batch_speedup = serial_ns / pooled_ns;
    println!(
        "infer/batch_mlp256x48 pooled {:.2} ms vs serial {:.2} ms ({batch_speedup:.1}x on \
         {threads} threads)",
        pooled_ns / 1e6,
        serial_ns / 1e6,
    );
    if threads.get() >= 2 {
        assert!(
            batch_speedup >= 1.2,
            "batched forward must scale with threads ({threads} available), \
             got {batch_speedup:.2}x"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"infer\",\n  \"quick\": {},\n  \"single_sample\": {{\n    \
         \"model\": \"mlp\",\n    \"channels\": {BASE_CHANNELS},\n    \
         \"naive_ns_per_forward\": {naive_ns:.0},\n    \
         \"blocked_ns_per_forward\": {blocked_ns:.0},\n    \
         \"speedup\": {single_speedup:.3}\n  }},\n  \"simd\": {{\n    \
         \"kernel\": \"dense_into\",\n    \"level\": \"{level}\",\n    \
         \"inputs\": {d_in},\n    \"outputs\": {d_out},\n    \
         \"scalar_ns_per_call\": {scalar_kernel_ns:.0},\n    \
         \"simd_ns_per_call\": {simd_kernel_ns:.0},\n    \
         \"speedup\": {simd_speedup:.3}\n  }},\n  \"int8\": {{\n    \
         \"model\": \"mlp\",\n    \"channels\": {BASE_CHANNELS},\n    \
         \"f32_ns_per_forward\": {blocked_ns:.0},\n    \
         \"int8_ns_per_forward\": {int8_ns:.0},\n    \
         \"speedup\": {int8_speedup:.3}\n  }},\n  \"batch\": {{\n    \
         \"model\": \"mlp\",\n    \"channels\": {BATCH_CHANNELS},\n    \
         \"samples\": {BATCH_SAMPLES},\n    \"threads\": {},\n    \
         \"serial_ns_per_batch\": {serial_ns:.0},\n    \
         \"pooled_ns_per_batch\": {pooled_ns:.0},\n    \
         \"speedup\": {batch_speedup:.3}\n  }}\n}}\n",
        quick(),
        threads.get(),
    );
    write_artifact("infer", &json);
}

criterion_group!(
    benches,
    bench_single_sample,
    bench_batch,
    report_infer_acceptance
);
criterion_main!(benches);
