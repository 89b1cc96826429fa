//! Layer compute kernels: naive oracles, cache-blocked fast paths, and
//! runtime-dispatched SIMD.
//!
//! Three implementations of the hot layer primitives live side by side:
//!
//! * The **naive** kernels (`*_naive`) are the original textbook loops
//!   — one dot product per dense output, per-MAC padding checks in the
//!   convolution. They allocate their outputs and are kept as
//!   property-test oracles and benchmark baselines, mirroring the
//!   skyline/naive pairing of `mindful_core::explore`.
//! * The **blocked scalar** kernels (`*_scalar`) write into
//!   caller-provided slices (no allocation) and restructure the loops
//!   for locality and vectorization:
//!   - [`dense_into_scalar`] uses a *transposed* weight layout
//!     (`[input × output]`) with the accumulation loop unrolled four
//!     inputs at a time, so the inner loop is a contiguous,
//!     register-tiled AXPY over the output vector instead of a
//!     horizontal reduction — the compiler vectorizes it, and each
//!     input value is loaded once per four rows of weights.
//!   - [`conv1d_into_scalar`] hoists the zero-padding bounds out of the
//!     MAC loop entirely: for each kernel tap it computes the valid
//!     destination/source overlap once and runs a check-free AXPY over
//!     the interior, so edges cost a range intersection rather than a
//!     branch per MAC.
//! * The **SIMD** paths ([`crate::simd`]): explicit AVX2/NEON
//!   implementations of the dense AXPY and the convolution interior,
//!   selected once per process by cached runtime feature detection
//!   (`MINDFUL_SIMD=0` forces scalar). They apply the same per-output
//!   operation order as the blocked scalar kernels — no FMA — so their
//!   results are **bit-identical**, not merely close
//!   (`tests/simd_kernels.rs`).
//!
//! * The **int8** kernels: [`matvec_i8_into_at`] (exact integer
//!   arithmetic, saturating bias add) and the two quantizers
//!   [`quantize_i8_into_at`] and [`requantize_relu_into_at`]. Their
//!   scalar paths round half away from zero without libm, and every
//!   level equals the `f32::round` expressions bit for bit.
//!
//! [`dense_into`] and [`conv1d_into`] are the dispatching entry points
//! [`crate::infer::Network`] runs. Naive vs. blocked agreement is
//! summation-order-limited; the property tests in
//! `tests/blocked_kernels.rs` pin it to 1e-4 relative tolerance across
//! randomized shapes.

use crate::simd::{self, SimdLevel};

/// Transposes a row-major dense weight matrix (`[output × input]`) into
/// the `[input × output]` layout the blocked kernel consumes.
///
/// # Panics
///
/// Panics if `weights.len() != inputs * outputs`.
#[must_use]
pub fn transpose_dense(weights: &[f32], inputs: usize, outputs: usize) -> Vec<f32> {
    assert_eq!(weights.len(), inputs * outputs, "dense weight count");
    let mut t = vec![0.0_f32; weights.len()];
    for j in 0..outputs {
        for k in 0..inputs {
            t[k * outputs + j] = weights[j * inputs + k];
        }
    }
    t
}

/// Naive dense layer: one dot product per output (the oracle).
#[must_use]
pub fn dense_naive(input: &[f32], weights: &[f32], bias: &[f32], outputs: usize) -> Vec<f32> {
    let inputs = input.len();
    (0..outputs)
        .map(|j| {
            let row = &weights[j * inputs..(j + 1) * inputs];
            bias[j] + row.iter().zip(input).map(|(w, x)| w * x).sum::<f32>()
        })
        .collect()
}

/// Dense layer entry point: dispatches to the SIMD path resolved at
/// startup ([`crate::simd::level`]), falling back to the blocked
/// scalar kernel. All paths produce bit-identical results.
///
/// `weights_t` must be the [`transpose_dense`] layout; `out.len()`
/// fixes the output width and `input.len()` the input width.
///
/// # Panics
///
/// Panics if `weights_t.len() != input.len() * out.len()` or
/// `bias.len() != out.len()`.
pub fn dense_into(input: &[f32], weights_t: &[f32], bias: &[f32], out: &mut [f32]) {
    dense_into_at(simd::level(), input, weights_t, bias, out);
}

/// [`dense_into`] at an explicit dispatch level — the hook the
/// equivalence tests and benches use to pin SIMD against scalar on the
/// same host.
///
/// # Panics
///
/// Same as [`dense_into`].
pub fn dense_into_at(
    level: SimdLevel,
    input: &[f32],
    weights_t: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(
        weights_t.len(),
        input.len() * out.len(),
        "dense weight count"
    );
    assert_eq!(bias.len(), out.len(), "dense bias count");
    if simd::dense_into_simd(level, input, weights_t, bias, out) {
        return;
    }
    dense_into_scalar(input, weights_t, bias, out);
}

/// Blocked scalar dense layer: transposed weights, register-tiled AXPY.
/// The always-compiled fallback and bit-level oracle for the SIMD
/// paths.
///
/// # Panics
///
/// Same as [`dense_into`].
pub fn dense_into_scalar(input: &[f32], weights_t: &[f32], bias: &[f32], out: &mut [f32]) {
    let inputs = input.len();
    let outputs = out.len();
    assert_eq!(weights_t.len(), inputs * outputs, "dense weight count");
    assert_eq!(bias.len(), outputs, "dense bias count");
    out.copy_from_slice(bias);
    let mut k = 0;
    // Four input rows per pass: each output element is loaded and
    // stored once per four accumulated inputs, and the inner zip is a
    // contiguous multiply-add the compiler vectorizes.
    while k + 4 <= inputs {
        let (x0, x1, x2, x3) = (input[k], input[k + 1], input[k + 2], input[k + 3]);
        let r0 = &weights_t[k * outputs..(k + 1) * outputs];
        let r1 = &weights_t[(k + 1) * outputs..(k + 2) * outputs];
        let r2 = &weights_t[(k + 2) * outputs..(k + 3) * outputs];
        let r3 = &weights_t[(k + 3) * outputs..(k + 4) * outputs];
        for ((((o, &w0), &w1), &w2), &w3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *o += x0 * w0 + x1 * w1 + x2 * w2 + x3 * w3;
        }
        k += 4;
    }
    while k < inputs {
        let x = input[k];
        let row = &weights_t[k * outputs..(k + 1) * outputs];
        for (o, &w) in out.iter_mut().zip(row) {
            *o += x * w;
        }
        k += 1;
    }
}

/// Naive same-padded 1-D convolution, channel-major layout (the
/// oracle): bounds are re-checked on every MAC.
#[must_use]
pub fn conv1d_naive(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    positions: usize,
) -> Vec<f32> {
    let half = kernel / 2;
    let mut out = vec![0.0_f32; out_channels * positions];
    for oc in 0..out_channels {
        for p in 0..positions {
            let mut acc = bias[oc];
            for ic in 0..in_channels {
                for j in 0..kernel {
                    let src = p + j;
                    if src < half || src - half >= positions {
                        continue;
                    }
                    let w = weights[(oc * in_channels + ic) * kernel + j];
                    acc += w * input[ic * positions + (src - half)];
                }
            }
            out[oc * positions + p] = acc;
        }
    }
    out
}

/// Same-padded 1-D convolution entry point: dispatches the interior
/// AXPY to the SIMD path resolved at startup, falling back to the
/// blocked scalar loop. All paths produce bit-identical results.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the given shape.
#[allow(clippy::too_many_arguments)] // the shape parameters mirror conv1d_naive
pub fn conv1d_into(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    positions: usize,
    out: &mut [f32],
) {
    conv1d_into_at(
        simd::level(),
        input,
        weights,
        bias,
        in_channels,
        out_channels,
        kernel,
        positions,
        out,
    );
}

/// [`conv1d_into`] at an explicit dispatch level — the hook the
/// equivalence tests and benches use to pin SIMD against scalar on the
/// same host.
///
/// # Panics
///
/// Same as [`conv1d_into`].
#[allow(clippy::too_many_arguments)] // the shape parameters mirror conv1d_naive
pub fn conv1d_into_at(
    level: SimdLevel,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    positions: usize,
    out: &mut [f32],
) {
    conv1d_into_impl(
        level,
        input,
        weights,
        bias,
        in_channels,
        out_channels,
        kernel,
        positions,
        out,
    );
}

/// Blocked scalar same-padded 1-D convolution with the padding checks
/// hoisted out of the MAC loop. The always-compiled fallback and
/// bit-level oracle for the SIMD paths.
///
/// For each `(output channel, input channel, tap)` triple the valid
/// destination range is intersected once, then the tap is applied as a
/// check-free AXPY over the contiguous interior. Channel-major layout,
/// `out.len() == out_channels * positions`.
///
/// # Panics
///
/// Same as [`conv1d_into`].
#[allow(clippy::too_many_arguments)] // the shape parameters mirror conv1d_naive
pub fn conv1d_into_scalar(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    positions: usize,
    out: &mut [f32],
) {
    conv1d_into_impl(
        SimdLevel::Scalar,
        input,
        weights,
        bias,
        in_channels,
        out_channels,
        kernel,
        positions,
        out,
    );
}

#[allow(clippy::too_many_arguments)] // the shape parameters mirror conv1d_naive
fn conv1d_into_impl(
    level: SimdLevel,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    positions: usize,
    out: &mut [f32],
) {
    assert_eq!(input.len(), in_channels * positions, "conv input size");
    assert_eq!(
        weights.len(),
        out_channels * in_channels * kernel,
        "conv weight count"
    );
    assert_eq!(bias.len(), out_channels, "conv bias count");
    assert_eq!(out.len(), out_channels * positions, "conv output size");
    let half = kernel / 2;
    for oc in 0..out_channels {
        let orow = &mut out[oc * positions..(oc + 1) * positions];
        orow.fill(bias[oc]);
        for ic in 0..in_channels {
            let xrow = &input[ic * positions..(ic + 1) * positions];
            let wrow = &weights[(oc * in_channels + ic) * kernel..][..kernel];
            for (j, &w) in wrow.iter().enumerate() {
                // Destination p reads source p + j - half; intersect
                // both ranges once instead of branching per MAC.
                let shift = j as isize - half as isize;
                let dst0 = usize::try_from(-shift).unwrap_or(0);
                let dst1 = usize::try_from(positions as isize - shift.max(0))
                    .unwrap_or(0)
                    .min(positions);
                if dst1 <= dst0 {
                    continue;
                }
                let src0 = usize::try_from(dst0 as isize + shift)
                    .expect("dst0 clamps the shift to a valid source start");
                let len = dst1 - dst0;
                let (dst, src) = (&mut orow[dst0..dst1], &xrow[src0..src0 + len]);
                if !simd::axpy_simd(level, dst, src, w) {
                    for (o, &x) in dst.iter_mut().zip(src) {
                        *o += w * x;
                    }
                }
            }
        }
    }
}

/// Widening i8 × i8 → i32 dot product at an explicit dispatch level:
/// a one-row [`matvec_i8_into_at`]. Integer arithmetic is exact, so
/// every level returns the same value as [`dot_i8_scalar`].
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn dot_i8_at(level: SimdLevel, x: &[i8], w: &[i8]) -> i32 {
    assert_eq!(x.len(), w.len(), "i8 dot operand lengths");
    let mut out = [0];
    matvec_i8_into_at(level, x, w, &[0], &mut out);
    out[0]
}

/// Scalar widening i8 dot product — the fallback and exactness oracle
/// for the SIMD paths.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn dot_i8_scalar(x: &[i8], w: &[i8]) -> i32 {
    assert_eq!(x.len(), w.len(), "i8 dot operand lengths");
    x.iter()
        .zip(w)
        .map(|(&a, &b)| i32::from(a) * i32::from(b))
        .sum()
}

/// Quantized dense matvec: row-major i8 weights, i32 bias and
/// accumulators — `out[j] = bias[j] + Σ_k x[k] · w[j·n + k]` — the
/// accelerator's 8-bit datapath shape. The bias add saturates at the
/// i32 range (a bias quantized against a tiny calibrated scale sits at
/// `i32::MAX`); elsewhere it is the plain sum. Dispatches to the SIMD
/// path resolved at startup: on AVX2 a four-row `maddubs` kernel, exact
/// for every weight and for inputs in `-127..=127` (an input holding
/// `-128` runs the scalar loop).
///
/// # Panics
///
/// Panics if `weights.len() != x.len() * out.len()` or
/// `bias.len() != out.len()`.
pub fn matvec_i8_into(x: &[i8], weights: &[i8], bias: &[i32], out: &mut [i32]) {
    matvec_i8_into_at(simd::level(), x, weights, bias, out);
}

/// [`matvec_i8_into`] at an explicit dispatch level.
///
/// # Panics
///
/// Same as [`matvec_i8_into`].
pub fn matvec_i8_into_at(
    level: SimdLevel,
    x: &[i8],
    weights: &[i8],
    bias: &[i32],
    out: &mut [i32],
) {
    let inputs = x.len();
    assert_eq!(weights.len(), inputs * out.len(), "i8 weight count");
    assert_eq!(bias.len(), out.len(), "i8 bias count");
    if simd::matvec_i8_simd(level, x, weights, bias, out) {
        return;
    }
    for (j, (o, &b)) in out.iter_mut().zip(bias).enumerate() {
        *o = b.saturating_add(dot_i8_scalar(x, &weights[j * inputs..(j + 1) * inputs]));
    }
}

/// `c.round() as i8` for `c` in `[-128, 127]`, without libm: the
/// baseline x86-64 target has no SSE4.1, so `f32::round` is a call.
/// `trunc(c)` moves one step away from zero where the exact fraction
/// `c − trunc(c)` reaches ±0.5 (half away from zero, as `f32::round`).
/// NaN gives 0, as `NaN as i8` does.
#[inline]
fn round_i8(c: f32) -> i8 {
    let t = c as i32;
    let frac = c - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i8
}

/// `(v / scale).round().clamp(-127.0, 127.0) as i8`, bit for bit and
/// libm-free. NaN gives 0 and ±∞ gives ±127.
#[inline]
#[must_use]
pub(crate) fn quantize_i8(v: f32, scale: f32) -> i8 {
    round_i8((v / scale).clamp(-127.0, 127.0))
}

/// `(acc.max(0) as f32 * m).round().min(127.0) as i8`, bit for bit and
/// libm-free. `f32::min` returns 127 for NaN, and `as i8` saturates
/// at −128, so clamping first leaves every value unchanged.
#[inline]
#[must_use]
#[allow(clippy::manual_clamp)] // `clamp` would keep NaN, which must give 127
pub(crate) fn requantize_relu_i8(acc: i32, m: f32) -> i8 {
    round_i8((acc.max(0) as f32 * m).min(127.0).max(-128.0))
}

/// Ingress quantizer at an explicit dispatch level:
/// `out[i] = (input[i] / scale).round().clamp(-127.0, 127.0) as i8`,
/// bit for bit on every level (NaN → 0, ±∞ → ±127, −0.5 → −1).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn quantize_i8_into_at(level: SimdLevel, input: &[f32], scale: f32, out: &mut [i8]) {
    assert_eq!(input.len(), out.len(), "quantizer lengths");
    if simd::quantize_i8_simd(level, input, scale, out) {
        return;
    }
    for (q, &v) in out.iter_mut().zip(input) {
        *q = quantize_i8(v, scale);
    }
}

/// ReLU + requantizer at an explicit dispatch level:
/// `out[i] = (acc[i].max(0) as f32 * m).round().min(127.0) as i8`, bit
/// for bit on every level — the int8 layer-to-layer transition.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn requantize_relu_into_at(level: SimdLevel, acc: &[i32], m: f32, out: &mut [i8]) {
    assert_eq!(acc.len(), out.len(), "requantizer lengths");
    if simd::requantize_relu_simd(level, acc, m, out) {
        return;
    }
    for (q, &a) in out.iter_mut().zip(acc) {
        *q = requantize_relu_i8(a, m);
    }
}

/// Average pooling over the position axis into a caller-provided slice.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the given shape or
/// `out_positions` does not divide `in_positions`.
pub(crate) fn pool1d_into(
    input: &[f32],
    channels: usize,
    in_positions: usize,
    out_positions: usize,
    out: &mut [f32],
) {
    assert!(
        out_positions > 0 && in_positions.is_multiple_of(out_positions),
        "pool window must divide the input positions"
    );
    assert_eq!(input.len(), channels * in_positions, "pool input size");
    assert_eq!(out.len(), channels * out_positions, "pool output size");
    let window = in_positions / out_positions;
    let inv = 1.0 / window as f32;
    for c in 0..channels {
        for q in 0..out_positions {
            let start = c * in_positions + q * window;
            let sum: f32 = input[start..start + window].iter().sum();
            out[c * out_positions + q] = sum * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(n: usize, seed: u64) -> Vec<f32> {
        // Small deterministic pseudo-random values in [-1, 1].
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 40) as f32 / (1_u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let tol = 1e-4 * x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn transpose_round_trips() {
        let w = seeded(6 * 4, 1);
        let t = transpose_dense(&w, 6, 4);
        let back = transpose_dense(&t, 4, 6);
        assert_eq!(w, back);
    }

    #[test]
    fn dense_blocked_matches_naive() {
        for (inputs, outputs, seed) in
            [(1, 1, 2), (3, 5, 3), (16, 16, 4), (37, 41, 5), (128, 40, 6)]
        {
            let w = seeded(inputs * outputs, seed);
            let b = seeded(outputs, seed + 100);
            let x = seeded(inputs, seed + 200);
            let naive = dense_naive(&x, &w, &b, outputs);
            let wt = transpose_dense(&w, inputs, outputs);
            let mut blocked = vec![0.0; outputs];
            dense_into(&x, &wt, &b, &mut blocked);
            close(&naive, &blocked);
        }
    }

    #[test]
    fn conv_blocked_matches_naive() {
        for (ic, oc, k, p, seed) in [
            (1, 1, 1, 1, 7),
            (1, 1, 3, 4, 8),
            (2, 3, 3, 8, 9),
            (4, 4, 5, 6, 10),
            (3, 2, 7, 5, 11),
            (2, 2, 2, 8, 12), // even kernel
        ] {
            let w = seeded(ic * oc * k, seed);
            let b = seeded(oc, seed + 100);
            let x = seeded(ic * p, seed + 200);
            let naive = conv1d_naive(&x, &w, &b, ic, oc, k, p);
            let mut blocked = vec![0.0; oc * p];
            conv1d_into(&x, &w, &b, ic, oc, k, p, &mut blocked);
            close(&naive, &blocked);
        }
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        // A single-channel conv with kernel [0, 1, 0] is identity.
        let mut out = vec![0.0; 4];
        conv1d_into(
            &[1.0, 2.0, 3.0, 4.0],
            &[0.0, 1.0, 0.0],
            &[0.0],
            1,
            1,
            3,
            4,
            &mut out,
        );
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn conv_edges_are_zero_padded() {
        // Kernel [1, 0, 0] shifts left; the first output sees padding.
        let mut out = vec![0.0; 4];
        conv1d_into(
            &[1.0, 2.0, 3.0, 4.0],
            &[1.0, 0.0, 0.0],
            &[0.0],
            1,
            1,
            3,
            4,
            &mut out,
        );
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0]);
        let naive = conv1d_naive(&[1.0, 2.0, 3.0, 4.0], &[1.0, 0.0, 0.0], &[0.0], 1, 1, 3, 4);
        assert_eq!(out, naive);
    }

    #[test]
    fn pooling_averages_windows() {
        let input = [1.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0, 40.0];
        let mut out = vec![0.0; 4];
        pool1d_into(&input, 2, 4, 2, &mut out);
        assert_eq!(out, vec![2.0, 6.0, 15.0, 35.0]);
    }
}
