//! Bit-level equivalence of the SIMD kernels against the blocked
//! scalar oracle, across odd sizes (1, block-edge, block+1) and
//! randomized shapes.
//!
//! The SIMD paths deliberately replicate the scalar kernels' exact
//! association order (no FMA contraction), so these tests demand
//! `to_bits()` equality, not a tolerance. On hosts without AVX2/NEON
//! the detected level is `Scalar` and the tests reduce to
//! scalar-vs-scalar identities (still valid, trivially).

use mindful_dnn::kernels::{
    conv1d_into_at, conv1d_into_scalar, dense_into_at, dense_into_scalar, dot_i8_at, dot_i8_scalar,
    matvec_i8_into_at, quantize_i8_into_at, requantize_relu_into_at, transpose_dense,
};
use mindful_dnn::simd::{detected_level, SimdLevel};
use proptest::prelude::*;

/// Deterministic pseudo-random tensor from a seed (LCG; values in
/// roughly ±0.5 so products stay well-conditioned).
fn tensor(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(3);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as f32 / (1_u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// Deterministic pseudo-random i8 tensor covering the full range.
fn tensor_i8(len: usize, seed: u64) -> Vec<i8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as i8
        })
        .collect()
}

fn assert_bit_identical(simd: &[f32], scalar: &[f32], context: &str) {
    assert_eq!(simd.len(), scalar.len(), "{context}: lengths differ");
    for (i, (a, b)) in simd.iter().zip(scalar).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{context}: output {i} diverges at the bit level ({a} vs {b})"
        );
    }
}

fn dense_case(inputs: usize, outputs: usize, seed: u64) {
    let level = detected_level();
    let weights_t = tensor(inputs * outputs, seed);
    let bias = tensor(outputs, seed ^ 1);
    let x = tensor(inputs, seed ^ 2);
    let mut scalar = vec![0.0_f32; outputs];
    let mut simd = vec![42.0_f32; outputs];
    dense_into_scalar(&x, &weights_t, &bias, &mut scalar);
    dense_into_at(level, &x, &weights_t, &bias, &mut simd);
    assert_bit_identical(
        &simd,
        &scalar,
        &format!("dense {inputs}x{outputs} @{level}"),
    );
}

fn conv_case(length: usize, in_ch: usize, out_ch: usize, kernel: usize, seed: u64) {
    let level = detected_level();
    let x = tensor(in_ch * length, seed);
    let weights = tensor(out_ch * in_ch * kernel, seed ^ 1);
    let bias = tensor(out_ch, seed ^ 2);
    let mut scalar = vec![0.0_f32; out_ch * length];
    let mut simd = vec![42.0_f32; out_ch * length];
    conv1d_into_scalar(
        &x,
        &weights,
        &bias,
        in_ch,
        out_ch,
        kernel,
        length,
        &mut scalar,
    );
    conv1d_into_at(
        level, &x, &weights, &bias, in_ch, out_ch, kernel, length, &mut simd,
    );
    assert_bit_identical(
        &simd,
        &scalar,
        &format!("conv L={length} {in_ch}->{out_ch} k={kernel} @{level}"),
    );
}

/// The scalar dense kernel unrolls four input rows per pass and the
/// AVX2/NEON lanes are 8/4 outputs wide — exercise every edge around
/// those blocks, including size 1, the exact block edge, and block+1.
#[test]
fn dense_simd_is_bit_identical_at_block_edges() {
    for &inputs in &[1_usize, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65] {
        for &outputs in &[1_usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 40] {
            dense_case(inputs, outputs, (inputs * 131 + outputs) as u64);
        }
    }
    // Shapes past the tiled/streaming crossover (16 384 weights on
    // x86_64) so both large-matrix variants are pinned too.
    for &(inputs, outputs) in &[(130_usize, 129_usize), (257, 65), (100, 200)] {
        dense_case(inputs, outputs, (inputs * 7 + outputs) as u64);
    }
}

#[test]
fn conv_simd_is_bit_identical_at_block_edges() {
    for &length in &[1_usize, 2, 7, 8, 9, 16, 17] {
        for &(in_ch, out_ch) in &[(1_usize, 1_usize), (2, 3), (3, 2)] {
            for &kernel in &[1_usize, 3, 5] {
                conv_case(length, in_ch, out_ch, kernel, (length * 7 + kernel) as u64);
            }
        }
    }
}

/// Integer arithmetic is exact, so the i8 kernels must agree with the
/// scalar oracle everywhere — including the worst-case magnitude
/// (±127 · ±127 accumulated) which the widening scheme cannot saturate.
#[test]
fn i8_dot_is_exact_at_block_edges_and_extremes() {
    let level = detected_level();
    for &len in &[1_usize, 2, 15, 16, 17, 31, 32, 33, 64, 127, 128, 129] {
        let x = tensor_i8(len, len as u64);
        let w = tensor_i8(len, len as u64 ^ 0xFF);
        assert_eq!(
            dot_i8_at(level, &x, &w),
            dot_i8_scalar(&x, &w),
            "dot len {len} @{level}"
        );
        let extreme = vec![-127_i8; len];
        assert_eq!(
            dot_i8_at(level, &extreme, &extreme),
            len as i32 * 127 * 127,
            "extreme dot len {len}"
        );
    }
}

/// Exact i64 reference for the matvec: the dot product plus the bias,
/// saturated into i32.
fn matvec_reference(x: &[i8], weights: &[i8], bias: &[i32]) -> Vec<i32> {
    let n = x.len();
    bias.iter()
        .enumerate()
        .map(|(j, &b)| {
            let dot: i64 = x
                .iter()
                .zip(&weights[j * n..(j + 1) * n])
                .map(|(&a, &w)| i64::from(a) * i64::from(w))
                .sum();
            (i64::from(b) + dot).clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
        })
        .collect()
}

/// The matvec at the scalar and the detected level against the i64
/// reference.
fn assert_matvec_exact(x: &[i8], weights: &[i8], bias: &[i32], context: &str) {
    let expect = matvec_reference(x, weights, bias);
    for level in [SimdLevel::Scalar, detected_level()] {
        let mut out = vec![7_i32; bias.len()];
        matvec_i8_into_at(level, x, weights, bias, &mut out);
        assert_eq!(out, expect, "{context} @{level}");
    }
}

/// Every row count 1..=9 (four-row blocks plus 0–3 leftover rows) at
/// widths on both sides of each 32-byte step, plus wide layers, with
/// inputs from each of the kernel's three regimes: non-negative
/// (post-ReLU), signed within ±127 (ingress), and holding `-128` (the
/// scalar fallback). Weights cover the full i8 range.
#[test]
fn i8_matvec_matches_the_scalar_path() {
    let widths = [1_usize, 8, 31, 32, 33, 63, 64, 65, 96, 100, 128];
    let shapes = (1_usize..=9)
        .flat_map(|rows| widths.iter().map(move |&width| (rows, width)))
        .chain([(40, 64), (17, 65), (128, 128)]);
    for (rows, width) in shapes {
        let seed = (rows * 1_000 + width) as u64;
        let weights = tensor_i8(rows * width, seed);
        let bias: Vec<i32> = (0..rows as i32).map(|j| j * 977 - 3_000).collect();
        let signed: Vec<i8> = tensor_i8(width, seed ^ 0x55)
            .into_iter()
            .map(|v| v.max(-127))
            .collect();
        let relu: Vec<i8> = signed.iter().map(|&v| v.max(0)).collect();
        let mut with_min = signed.clone();
        with_min[width / 2] = i8::MIN;
        for (x, regime) in [(&relu, "relu"), (&signed, "signed"), (&with_min, "-128")] {
            assert_matvec_exact(x, &weights, &bias, &format!("{rows}x{width} {regime}"));
        }
    }
}

/// All sign extremes against each other: inputs alternating between
/// two of {−127, 0, 127} (and −128 for the fallback) times weights
/// alternating between two of {−128, −127, −1, 0, 1, 127}, at a width
/// of whole 32-byte slices and one with a tail.
#[test]
fn i8_matvec_is_exact_at_all_sign_extremes() {
    let xs = [-128_i8, -127, 0, 127];
    let ws = [-128_i8, -127, -1, 0, 1, 127];
    for width in [64_usize, 70] {
        for &xa in &xs {
            for &xb in &xs {
                let x: Vec<i8> = (0..width)
                    .map(|i| if i % 2 == 0 { xa } else { xb })
                    .collect();
                // One row per (even, odd) weight pair: 36 rows.
                let mut weights = Vec::with_capacity(ws.len() * ws.len() * width);
                for &wa in &ws {
                    for &wb in &ws {
                        weights.extend((0..width).map(|i| if i % 2 == 0 { wa } else { wb }));
                    }
                }
                let rows = ws.len() * ws.len();
                let bias = vec![0_i32; rows];
                assert_matvec_exact(&x, &weights, &bias, &format!("x ({xa},{xb}) w{width}"));
            }
        }
    }
}

/// The bias add saturates on every level instead of overflowing.
#[test]
fn i8_matvec_bias_add_saturates() {
    let width = 64;
    let x = vec![127_i8; width];
    let mut weights = vec![127_i8; width];
    weights.extend(vec![-128_i8; width]);
    weights.extend(vec![0_i8; width]);
    weights.extend(vec![-128_i8; width]);
    weights.extend(vec![127_i8; width]);
    let bias = [i32::MAX, i32::MIN, i32::MAX, i32::MAX - 5, i32::MIN + 5];
    assert_matvec_exact(&x, &weights, &bias, "saturating bias");
}

/// The ingress quantizer's scalar expression.
fn quantize_expr(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// The ReLU + requantizer's scalar expression.
fn requantize_expr(a: i32, m: f32) -> i8 {
    (a.max(0) as f32 * m).round().min(127.0) as i8
}

/// Runs both quantizers at the scalar and the detected level over every
/// rotation of `values`, so each value meets every vector lane and the
/// scalar tail.
fn assert_quantizers_match(values: &[f32], scales: &[f32], accs: &[i32], mults: &[f32]) {
    for level in [SimdLevel::Scalar, detected_level()] {
        for shift in 0..values.len() {
            let mut v = values.to_vec();
            v.rotate_left(shift);
            for &scale in scales {
                let mut out = vec![99_i8; v.len()];
                quantize_i8_into_at(level, &v, scale, &mut out);
                for (i, (&q, &x)) in out.iter().zip(&v).enumerate() {
                    assert_eq!(
                        q,
                        quantize_expr(x, scale),
                        "quantize {x} / {scale} lane {i} @{level}"
                    );
                }
            }
        }
        for shift in 0..accs.len() {
            let mut a = accs.to_vec();
            a.rotate_left(shift);
            for &m in mults {
                let mut out = vec![99_i8; a.len()];
                requantize_relu_into_at(level, &a, m, &mut out);
                for (i, (&q, &x)) in out.iter().zip(&a).enumerate() {
                    assert_eq!(
                        q,
                        requantize_expr(x, m),
                        "requantize {x} * {m} lane {i} @{level}"
                    );
                }
            }
        }
    }
}

/// The libm-free quantizers equal `f32::round`'s half-away-from-zero at
/// ties, just below them (0.49999997, which `floor(v + 0.5)` rounds
/// up), at NaN and ±∞, at ±127.5 and the i32 extremes.
#[test]
fn quantizers_match_their_scalar_expressions_at_the_edges() {
    let below_half = 0.499_999_97_f32;
    let values = [
        0.5,
        -0.5,
        1.5,
        -1.5,
        2.5,
        -2.5,
        below_half,
        -below_half,
        1.0 + below_half,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        127.5,
        -127.5,
        126.5,
        -126.5,
        127.499_99,
        -127.499_99,
        128.0,
        -128.0,
        1e30,
        -1e30,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];
    let scales = [
        1.0,
        0.5,
        2.0,
        1.0 / 127.0,
        3.0,
        1e-30,
        f32::INFINITY,
        f32::NAN,
    ];
    let accs = [
        i32::MIN,
        i32::MIN + 1,
        i32::MAX,
        i32::MAX - 1,
        -1,
        0,
        1,
        2,
        3,
        5,
        253,
        254,
        255,
        256,
        16_777_217,
        -16_777_217,
    ];
    let mults = [
        0.5,
        0.25,
        below_half,
        1.0,
        1e-3,
        3.7,
        127.5,
        1e-9,
        -0.5,
        -1.0,
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
    ];
    assert_quantizers_match(&values, &scales, &accs, &mults);
}

/// 100k pseudo-random accumulators over the whole i32 range, at
/// multipliers spanning the network's requantization scales.
#[test]
fn requantizer_matches_on_random_accumulators() {
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let accs: Vec<i32> = (0..100_000)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Alternate full-range draws with small ones near the
            // rounding grid of the multipliers below.
            if i % 2 == 0 {
                (state >> 32) as i32
            } else {
                ((state >> 32) as i32) >> 16
            }
        })
        .collect();
    for level in [SimdLevel::Scalar, detected_level()] {
        for m in [1e-5_f32, 3.3e-4, 1e-3, 7.7e-3, 0.5] {
            let mut out = vec![0_i8; accs.len()];
            requantize_relu_into_at(level, &accs, m, &mut out);
            for (&q, &a) in out.iter().zip(&accs) {
                assert_eq!(q, requantize_expr(a, m), "requantize {a} * {m} @{level}");
            }
        }
    }
}

proptest! {
    #[test]
    fn i8_matvec_is_exact_for_random_shapes(
        rows in 1_usize..=9,
        width in 1_usize..=140,
        seed in 0_u64..1_000,
        regime in 0_u8..3,
    ) {
        let weights = tensor_i8(rows * width, seed);
        let bias: Vec<i32> = tensor_i8(rows, seed ^ 3).into_iter().map(|b| i32::from(b) << 20).collect();
        let x: Vec<i8> = tensor_i8(width, seed ^ 9)
            .into_iter()
            .map(|v| match regime {
                0 => v.max(0),
                1 => v.max(-127),
                _ => v,
            })
            .collect();
        let expect = matvec_reference(&x, &weights, &bias);
        let mut out = vec![0_i32; rows];
        matvec_i8_into_at(detected_level(), &x, &weights, &bias, &mut out);
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn quantizers_match_their_scalar_expressions_for_random_values(
        bits in prop::collection::vec(any::<u32>(), 1..40),
        accs in prop::collection::vec(any::<i32>(), 1..40),
        scale in 1e-4_f32..10.0,
        m in 1e-9_f32..1e-2,
    ) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let level = detected_level();
        let mut q = vec![0_i8; values.len()];
        quantize_i8_into_at(level, &values, scale, &mut q);
        for (&got, &v) in q.iter().zip(&values) {
            prop_assert_eq!(got, quantize_expr(v, scale), "{} / {}", v, scale);
        }
        let mut r = vec![0_i8; accs.len()];
        requantize_relu_into_at(level, &accs, m, &mut r);
        for (&got, &a) in r.iter().zip(&accs) {
            prop_assert_eq!(got, requantize_expr(a, m), "{} * {}", a, m);
        }
    }
}

proptest! {
    #[test]
    fn dense_simd_is_bit_identical_for_any_shape(
        inputs in 1_usize..96,
        outputs in 1_usize..96,
        seed in 0_u64..1_000,
    ) {
        dense_case(inputs, outputs, seed);
    }

    #[test]
    fn conv_simd_is_bit_identical_for_any_shape(
        length in 1_usize..24,
        in_ch in 1_usize..5,
        out_ch in 1_usize..5,
        kernel in prop::sample::select(vec![1_usize, 3, 5, 7]),
        seed in 0_u64..1_000,
    ) {
        conv_case(length, in_ch, out_ch, kernel, seed);
    }

    #[test]
    fn i8_dot_is_exact_for_any_length(len in 1_usize..300, seed in 0_u64..1_000) {
        let x = tensor_i8(len, seed);
        let w = tensor_i8(len, seed ^ 0xABCD);
        prop_assert_eq!(dot_i8_at(detected_level(), &x, &w), dot_i8_scalar(&x, &w));
    }
}

/// Rough timing probe (not a CI gate — the bench owns that). Run with
/// `cargo test --release -p mindful-dnn --test simd_kernels -- --ignored --nocapture`.
#[test]
#[ignore = "manual perf probe; the infer bench is the real gate"]
fn probe_simd_speedup() {
    let level = detected_level();
    for &(inputs, outputs) in &[
        (32_usize, 32_usize),
        (64, 64),
        (128, 40),
        (128, 32),
        (192, 32),
        (256, 16),
        (256, 32),
        (256, 48),
        (128, 128),
        (256, 256),
        (512, 512),
    ] {
        let weights = tensor(inputs * outputs, 1);
        let weights_t = transpose_dense(&weights, inputs, outputs);
        let bias = tensor(outputs, 2);
        let x = tensor(inputs, 3);
        let mut out = vec![0.0_f32; outputs];
        let reps = 20_000;
        let mut time = |lvl: SimdLevel| {
            let start = std::time::Instant::now();
            for _ in 0..reps {
                dense_into_at(lvl, &x, &weights_t, &bias, &mut out);
                std::hint::black_box(&mut out);
            }
            start.elapsed().as_nanos() / reps
        };
        time(SimdLevel::Scalar); // warm
        let scalar_ns = time(SimdLevel::Scalar);
        let simd_ns = time(level);
        println!(
            "dense {inputs}x{outputs}: scalar {scalar_ns} ns, {level} {simd_ns} ns, speedup {:.2}x",
            scalar_ns as f64 / simd_ns as f64
        );
    }
}
