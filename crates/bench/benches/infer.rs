//! Benchmarks for the zero-allocation inference engine: blocked vs.
//! naive forward on a single sample, the SIMD dense kernel vs. its
//! scalar oracle, int8 vs. f32, and batched forward over the shared
//! worker pool.
//!
//! The gates, each on a median per-pair ratio: blocked is at least 2x
//! naive, SIMD at least 2x scalar (on a host with AVX2/NEON), and the
//! pooled batch at least 1.2x serial when the machine has two threads.
//! Set `MINDFUL_BENCH_QUICK=1` (as CI does) to shrink the pair counts.

use std::hint::black_box;
use std::num::NonZeroUsize;

use mindful_bench::{compare, Report};
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
/// `dense_into` calls per timed sample: one call is well under a µs.
const KERNEL_CALLS: usize = 32;

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

fn main() {
    let pairs = if quick() { 60 } else { 300 };
    let mut report = Report::new("infer");
    let net = network(BASE_CHANNELS);
    let input = sample(BASE_CHANNELS as usize, 0);

    let mut ws = net.workspace();
    let single = compare(
        pairs,
        1,
        || {
            black_box(net.forward_into(black_box(&input), &mut ws).unwrap());
        },
        Some(|| {
            black_box(net.forward_naive(black_box(&input)).unwrap());
        }),
    );
    report.push(single.row("naive_vs_blocked"));

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
    let (mut simd_out, mut scalar_out) = (vec![0.0_f32; d_out], vec![0.0_f32; d_out]);
    let dense = |lvl: SimdLevel, out: &mut Vec<f32>| {
        dense_into_at(
            black_box(lvl),
            black_box(&dense_x),
            &weights_t,
            &dense_bias,
            out,
        );
        black_box(out);
    };
    let kernel = compare(
        pairs,
        KERNEL_CALLS,
        || dense(level, &mut simd_out),
        Some(|| dense(SimdLevel::Scalar, &mut scalar_out)),
    );
    report.push(
        kernel
            .row("scalar_vs_simd")
            .with("inputs", d_in as f64)
            .with("outputs", d_out as f64),
    );

    // Int8 quantized end-to-end forward on the same model — a row, not
    // a gate: the win tracks the host's integer throughput.
    let quantized = QuantizedNetwork::from_network_default(&net).expect("the MLP is all-dense");
    let mut qws = quantized.workspace();
    let int8 = compare(
        pairs,
        1,
        || {
            black_box(quantized.forward_into(black_box(&input), &mut qws).unwrap());
        },
        Some(|| {
            black_box(net.forward_into(black_box(&input), &mut ws).unwrap());
        }),
    );
    report.push(int8.row("f32_vs_int8"));

    let batch_pairs = if quick() { 7 } else { 21 };
    let big = network(BATCH_CHANNELS);
    let inputs = batch(BATCH_CHANNELS as usize, BATCH_SAMPLES);
    let (serial, pooled) = (
        Scheduler::new(NonZeroUsize::MIN),
        Scheduler::with_default_threads(),
    );
    let threads = pooled.workers();
    let batch = compare(
        batch_pairs,
        1,
        || {
            black_box(big.forward_batch(black_box(&inputs), &pooled).unwrap());
        },
        Some(|| {
            black_box(big.forward_batch(black_box(&inputs), &serial).unwrap());
        }),
    );
    report.push(
        batch
            .row("serial_vs_pooled")
            .with("threads", threads.get() as f64),
    );
    report.write(env!("CARGO_TARGET_TMPDIR"));

    assert!(
        single.ratio_p50 >= 2.0,
        "blocked single-sample forward must be at least 2x the naive oracle, \
         got {:.2}x (per-pair median)",
        single.ratio_p50,
    );
    if level == SimdLevel::Scalar {
        println!(
            "infer/scalar_vs_simd NOTICE: host resolved to scalar \
             (no AVX2/NEON or MINDFUL_SIMD=0); simd >= 2x gate skipped"
        );
    } else {
        assert!(
            kernel.ratio_p50 >= 2.0,
            "simd dense_into must be at least 2x the blocked-scalar oracle on a \
             {level} host, got {:.2}x (per-pair median)",
            kernel.ratio_p50,
        );
    }
    if threads.get() >= 2 {
        assert!(
            batch.ratio_p50 >= 1.2,
            "batched forward must scale with threads ({threads} available), \
             got {:.2}x (per-pair median)",
            batch.ratio_p50,
        );
    }
}
