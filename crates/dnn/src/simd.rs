//! Runtime-detected SIMD kernels: explicit AVX2 (x86_64) and NEON
//! (aarch64) paths for the hot inference loops.
//!
//! The blocked scalar kernels of [`crate::kernels`] are compiled for
//! the *baseline* target (SSE2 on x86_64), so the compiler's
//! auto-vectorizer is limited to 128-bit registers. This module chases
//! the rest of the hardware ceiling with hand-written `std::arch`
//! intrinsics:
//!
//! * `dense_into_simd` — the f32 dense kernel, 256-bit on AVX2
//!   (eight outputs per instruction), 128-bit on NEON.
//! * `axpy_simd` — the interior AXPY of the 1-D convolution
//!   (`out[i] += w · x[i]` over the valid overlap).
//! * `matvec_i8_simd` — the quantized i8 × i8 → i32 matvec. On AVX2 a
//!   four-row kernel loads each 32-byte slice of the input once and
//!   multiplies it into four weight rows with `vpmaddubsw` (32 MACs per
//!   instruction), widening pairs to i32 with `vpmaddwd` by ones and
//!   reducing four rows with one `vphaddd` tree. NEON keeps a per-row
//!   `smull`/`sadalp` dot product.
//! * `quantize_i8_simd` and `requantize_relu_simd` — the int8 ingress
//!   quantizer and the ReLU + requantizer between layers, rounding half
//!   away from zero without the libm `roundf` call that `f32::round`
//!   compiles to on the baseline (pre-SSE4.1) x86-64 target.
//!
//! ## Bit-level equivalence
//!
//! Every SIMD kernel applies the *same* per-output operation order as
//! its blocked scalar twin — independent output lanes, multiplies and
//! adds associated identically, **no FMA contraction** — so the SIMD
//! results are bit-identical to the scalar path, not merely close. The
//! integer matvec is exact arithmetic: `vpmaddubsw` pairs stay below
//! 2¹⁵ for every weight, and an input holding `-128` (which no
//! quantizer emits) runs the scalar loop. The two quantizers equal
//! their scalar `f32::round` expressions bit for bit, NaN and ±∞
//! included. Tests in `tests/simd_kernels.rs` pin all of this across
//! odd shapes (1, block-edge, block+1) and the rounding edges.
//!
//! ## Dispatch
//!
//! [`level`] resolves once per process (cached in an atomic): the
//! `MINDFUL_SIMD` knob (shared [`mindful_core::env`] parser; `0`/`off`
//! forces scalar) gates runtime CPU feature detection
//! (`is_x86_feature_detected!("avx2")` / aarch64 NEON, which is
//! baseline on that target). The scalar kernels stay always-compiled
//! as the fallback and property-test oracle.

// SAFETY: `std::arch` intrinsics require `unsafe` plus a dynamic CPU
// feature check. Every unsafe block below is reachable only after
// `level()` has verified the matching feature at runtime, and all
// pointer arithmetic stays inside slice bounds established by the
// callers' asserts.
#![allow(unsafe_code)]

use core::sync::atomic::{AtomicU8, Ordering};

/// Which SIMD implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Blocked scalar kernels only (no capable unit, or `MINDFUL_SIMD`
    /// switched off).
    Scalar,
    /// 256-bit AVX2 paths (x86_64).
    Avx2,
    /// 128-bit NEON paths (aarch64).
    Neon,
}

impl core::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Neon => "neon",
        })
    }
}

/// Cached dispatch decision: 0 = undecided, 1 = scalar, 2 = AVX2,
/// 3 = NEON.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Pure dispatch resolution, split from the environment read so the
/// knob semantics are testable without racing on the process
/// environment (the `MINDFUL_SWEEP_THREADS` pattern).
///
/// `enabled` is the parsed `MINDFUL_SIMD` knob (default `true`;
/// garbage defers to the default via [`mindful_core::env::parse_flag`])
/// and `detected` the host capability probe.
#[must_use]
pub(crate) fn resolve_level(enabled: bool, detected: SimdLevel) -> SimdLevel {
    if enabled {
        detected
    } else {
        SimdLevel::Scalar
    }
}

/// What the host CPU supports, independent of the knob.
#[must_use]
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        SimdLevel::Scalar
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline.
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// The process-wide dispatch level, resolved once on first use from
/// `MINDFUL_SIMD` and the CPU probe, then served from a cached atomic.
#[must_use]
pub fn level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2,
        3 => SimdLevel::Neon,
        _ => {
            let resolved = resolve_level(
                mindful_core::env::flag("MINDFUL_SIMD", true),
                detected_level(),
            );
            let code = match resolved {
                SimdLevel::Scalar => 1,
                SimdLevel::Avx2 => 2,
                SimdLevel::Neon => 3,
            };
            LEVEL.store(code, Ordering::Relaxed);
            resolved
        }
    }
}

/// Dense AXPY kernel at `level`: transposed weights, identical
/// semantics (and bits) to `kernels::dense_into_scalar`.
///
/// Returns `false` when `level` has no vector path here, in which case
/// the caller runs the scalar kernel.
pub(crate) fn dense_into_simd(
    level: SimdLevel,
    input: &[f32],
    weights_t: &[f32],
    bias: &[f32],
    out: &mut [f32],
) -> bool {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `level` is only `Avx2` after runtime detection.
            unsafe { dense_into_avx2(input, weights_t, bias, out) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { dense_into_neon(input, weights_t, bias, out) };
            true
        }
        _ => false,
    }
}

/// Convolution-interior AXPY (`out[i] += w · x[i]`) at `level`.
///
/// Returns `false` when `level` has no vector path here.
pub(crate) fn axpy_simd(level: SimdLevel, out: &mut [f32], x: &[f32], w: f32) -> bool {
    debug_assert_eq!(out.len(), x.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `level` is only `Avx2` after runtime detection.
            unsafe { axpy_avx2(out, x, w) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            // SAFETY: NEON is baseline on aarch64.
            unsafe { axpy_neon(out, x, w) };
            true
        }
        _ => false,
    }
}

/// Quantized matvec at `level`: `out[j] = bias[j] + Σ_k x[k]·w[j·n + k]`
/// with a saturating bias add. Integer arithmetic, so exactly equal to
/// the scalar loop.
///
/// Returns `false` when `level` has no vector path here, and on AVX2
/// when `x` holds `-128` — the one input value the `maddubs` operand
/// order cannot represent (`sign` wraps it). Both quantizers clamp to
/// ±127, so the network never takes that fallback.
pub(crate) fn matvec_i8_simd(
    level: SimdLevel,
    x: &[i8],
    weights: &[i8],
    bias: &[i32],
    out: &mut [i32],
) -> bool {
    debug_assert_eq!(weights.len(), x.len() * out.len());
    debug_assert_eq!(bias.len(), out.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `level` is only `Avx2` after runtime detection.
            unsafe { matvec_i8_avx2(x, weights, bias, out) }
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            let n = x.len();
            for (j, (o, &b)) in out.iter_mut().zip(bias).enumerate() {
                // SAFETY: NEON is baseline on aarch64.
                let dot = unsafe { dot_i8_neon(x, &weights[j * n..(j + 1) * n]) };
                *o = b.saturating_add(dot);
            }
            true
        }
        _ => false,
    }
}

/// Ingress quantizer at `level`: `out[i] = (input[i] / scale).round()
/// .clamp(-127.0, 127.0) as i8`, bit for bit. Returns `false` when
/// `level` has no vector path here.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn quantize_i8_simd(
    level: SimdLevel,
    input: &[f32],
    scale: f32,
    out: &mut [i8],
) -> bool {
    debug_assert_eq!(input.len(), out.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `level` is only `Avx2` after runtime detection.
            unsafe { quantize_i8_avx2(input, scale, out) };
            true
        }
        _ => false,
    }
}

/// ReLU + requantizer at `level`: `out[i] = (acc[i].max(0) as f32 · m)
/// .round().min(127.0) as i8`, bit for bit. Returns `false` when
/// `level` has no vector path here.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn requantize_relu_simd(level: SimdLevel, acc: &[i32], m: f32, out: &mut [i8]) -> bool {
    debug_assert_eq!(acc.len(), out.len());
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            // SAFETY: `level` is only `Avx2` after runtime detection.
            unsafe { requantize_relu_avx2(acc, m, out) };
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------- x86_64

/// Weight-count threshold between the register-tiled kernel (output
/// tile held across all input rows — wins while the weight matrix is
/// cache-resident) and the streaming kernel (contiguous row-major
/// sweep — wins once the column walk would thrash a larger matrix).
#[cfg(target_arch = "x86_64")]
const AVX2_TILE_MAX_WEIGHTS: usize = 16_384;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_into_avx2(input: &[f32], weights_t: &[f32], bias: &[f32], out: &mut [f32]) {
    // SAFETY: both variants require AVX2, which this function's own
    // target_feature already guarantees.
    if weights_t.len() <= AVX2_TILE_MAX_WEIGHTS {
        dense_into_avx2_tiled(input, weights_t, bias, out);
    } else {
        dense_into_avx2_stream(input, weights_t, bias, out);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_into_avx2_tiled(input: &[f32], weights_t: &[f32], bias: &[f32], out: &mut [f32]) {
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let inputs = input.len();
    let outputs = out.len();
    debug_assert_eq!(weights_t.len(), inputs * outputs);
    debug_assert_eq!(bias.len(), outputs);
    let xp = input.as_ptr();
    let wp = weights_t.as_ptr();
    let bp = bias.as_ptr();
    let op = out.as_mut_ptr();
    // Sixteen-output register tiles, accumulated across every input
    // row before a single store — `out` never round-trips through
    // memory. The per-lane association matches the scalar kernel
    // exactly: the accumulator starts at the bias and folds one
    // ((x0·w0 + x1·w1) + x2·w2) + x3·w3 term per 4-row group, then the
    // leftover single rows, in the same order — no FMA, so the bits
    // match too.
    let mut j = 0;
    while j + 16 <= outputs {
        // SAFETY: j + 16 <= outputs bounds both 8-lane tiles; every
        // row offset stays below inputs * outputs.
        let mut acc0 = _mm256_loadu_ps(bp.add(j));
        let mut acc1 = _mm256_loadu_ps(bp.add(j + 8));
        let mut k = 0;
        while k + 4 <= inputs {
            let row = wp.add(k * outputs + j);
            let v0 = _mm256_set1_ps(*xp.add(k));
            let v1 = _mm256_set1_ps(*xp.add(k + 1));
            let v2 = _mm256_set1_ps(*xp.add(k + 2));
            let v3 = _mm256_set1_ps(*xp.add(k + 3));
            let t01 = _mm256_add_ps(
                _mm256_mul_ps(v0, _mm256_loadu_ps(row)),
                _mm256_mul_ps(v1, _mm256_loadu_ps(row.add(outputs))),
            );
            let t = _mm256_add_ps(
                _mm256_add_ps(
                    t01,
                    _mm256_mul_ps(v2, _mm256_loadu_ps(row.add(2 * outputs))),
                ),
                _mm256_mul_ps(v3, _mm256_loadu_ps(row.add(3 * outputs))),
            );
            acc0 = _mm256_add_ps(acc0, t);
            let u01 = _mm256_add_ps(
                _mm256_mul_ps(v0, _mm256_loadu_ps(row.add(8))),
                _mm256_mul_ps(v1, _mm256_loadu_ps(row.add(outputs + 8))),
            );
            let u = _mm256_add_ps(
                _mm256_add_ps(
                    u01,
                    _mm256_mul_ps(v2, _mm256_loadu_ps(row.add(2 * outputs + 8))),
                ),
                _mm256_mul_ps(v3, _mm256_loadu_ps(row.add(3 * outputs + 8))),
            );
            acc1 = _mm256_add_ps(acc1, u);
            k += 4;
        }
        while k < inputs {
            let v = _mm256_set1_ps(*xp.add(k));
            let row = wp.add(k * outputs + j);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(v, _mm256_loadu_ps(row)));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(v, _mm256_loadu_ps(row.add(8))));
            k += 1;
        }
        _mm256_storeu_ps(op.add(j), acc0);
        _mm256_storeu_ps(op.add(j + 8), acc1);
        j += 16;
    }
    if j + 8 <= outputs {
        // SAFETY: j + 8 <= outputs bounds the 8-lane tile.
        let mut acc = _mm256_loadu_ps(bp.add(j));
        let mut k = 0;
        while k + 4 <= inputs {
            let row = wp.add(k * outputs + j);
            let t01 = _mm256_add_ps(
                _mm256_mul_ps(_mm256_set1_ps(*xp.add(k)), _mm256_loadu_ps(row)),
                _mm256_mul_ps(
                    _mm256_set1_ps(*xp.add(k + 1)),
                    _mm256_loadu_ps(row.add(outputs)),
                ),
            );
            let t = _mm256_add_ps(
                _mm256_add_ps(
                    t01,
                    _mm256_mul_ps(
                        _mm256_set1_ps(*xp.add(k + 2)),
                        _mm256_loadu_ps(row.add(2 * outputs)),
                    ),
                ),
                _mm256_mul_ps(
                    _mm256_set1_ps(*xp.add(k + 3)),
                    _mm256_loadu_ps(row.add(3 * outputs)),
                ),
            );
            acc = _mm256_add_ps(acc, t);
            k += 4;
        }
        while k < inputs {
            let v = _mm256_set1_ps(*xp.add(k));
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(v, _mm256_loadu_ps(wp.add(k * outputs + j))),
            );
            k += 1;
        }
        _mm256_storeu_ps(op.add(j), acc);
        j += 8;
    }
    while j < outputs {
        // SAFETY: j < outputs; same association (and rounding) as the
        // vector lanes and the scalar kernel.
        let mut o = *bp.add(j);
        let mut k = 0;
        while k + 4 <= inputs {
            let w = wp.add(k * outputs + j);
            o += ((*xp.add(k) * *w + *xp.add(k + 1) * *w.add(outputs))
                + *xp.add(k + 2) * *w.add(2 * outputs))
                + *xp.add(k + 3) * *w.add(3 * outputs);
            k += 4;
        }
        while k < inputs {
            o += *xp.add(k) * *wp.add(k * outputs + j);
            k += 1;
        }
        *op.add(j) = o;
        j += 1;
    }
}

/// Streaming variant for weight matrices too large to keep a column
/// tile cache-resident: four input rows per pass swept contiguously,
/// `out` re-loaded per pass. Same association order as the tiled
/// kernel and the scalar oracle, so the bits still match.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dense_into_avx2_stream(input: &[f32], weights_t: &[f32], bias: &[f32], out: &mut [f32]) {
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let inputs = input.len();
    let outputs = out.len();
    out.copy_from_slice(bias);
    let op = out.as_mut_ptr();
    let mut k = 0;
    while k + 4 <= inputs {
        let (x0, x1, x2, x3) = (input[k], input[k + 1], input[k + 2], input[k + 3]);
        let (v0, v1, v2, v3) = (
            _mm256_set1_ps(x0),
            _mm256_set1_ps(x1),
            _mm256_set1_ps(x2),
            _mm256_set1_ps(x3),
        );
        let r0 = weights_t[k * outputs..(k + 1) * outputs].as_ptr();
        let r1 = weights_t[(k + 1) * outputs..(k + 2) * outputs].as_ptr();
        let r2 = weights_t[(k + 2) * outputs..(k + 3) * outputs].as_ptr();
        let r3 = weights_t[(k + 3) * outputs..(k + 4) * outputs].as_ptr();
        let mut j = 0;
        while j + 8 <= outputs {
            // SAFETY: j + 8 <= outputs bounds every 8-lane access.
            let t01 = _mm256_add_ps(
                _mm256_mul_ps(v0, _mm256_loadu_ps(r0.add(j))),
                _mm256_mul_ps(v1, _mm256_loadu_ps(r1.add(j))),
            );
            let t = _mm256_add_ps(
                _mm256_add_ps(t01, _mm256_mul_ps(v2, _mm256_loadu_ps(r2.add(j)))),
                _mm256_mul_ps(v3, _mm256_loadu_ps(r3.add(j))),
            );
            let o = _mm256_loadu_ps(op.add(j).cast_const());
            _mm256_storeu_ps(op.add(j), _mm256_add_ps(o, t));
            j += 8;
        }
        while j < outputs {
            // SAFETY: j < outputs; same expression (and rounding) as
            // the vector lanes and the scalar kernel.
            let t = ((x0 * *r0.add(j) + x1 * *r1.add(j)) + x2 * *r2.add(j)) + x3 * *r3.add(j);
            *op.add(j) += t;
            j += 1;
        }
        k += 4;
    }
    while k < inputs {
        let x = input[k];
        let v = _mm256_set1_ps(x);
        let row = weights_t[k * outputs..(k + 1) * outputs].as_ptr();
        let mut j = 0;
        while j + 8 <= outputs {
            // SAFETY: j + 8 <= outputs bounds every 8-lane access.
            let o = _mm256_loadu_ps(op.add(j).cast_const());
            _mm256_storeu_ps(
                op.add(j),
                _mm256_add_ps(o, _mm256_mul_ps(v, _mm256_loadu_ps(row.add(j)))),
            );
            j += 8;
        }
        while j < outputs {
            // SAFETY: j < outputs.
            *op.add(j) += x * *row.add(j);
            j += 1;
        }
        k += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(out: &mut [f32], x: &[f32], w: f32) {
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    let n = out.len();
    let v = _mm256_set1_ps(w);
    let op = out.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds every 8-lane access.
        let o = _mm256_loadu_ps(op.add(i).cast_const());
        let xv = _mm256_loadu_ps(xp.add(i));
        _mm256_storeu_ps(op.add(i), _mm256_add_ps(o, _mm256_mul_ps(v, xv)));
        i += 8;
    }
    while i < n {
        // SAFETY: i < n.
        *op.add(i) += w * *xp.add(i);
        i += 1;
    }
}

/// Four-row i8 matvec. Each 32-byte slice of `x` is loaded once and
/// used for four weight rows; rows past the last multiple of four run
/// the same kernel one at a time. One scan of `x` picks the operand
/// form (see [`dot_rows_i8_avx2`]); returns `false`, writing nothing,
/// when `x` holds `-128`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matvec_i8_avx2(x: &[i8], weights: &[i8], bias: &[i32], out: &mut [i32]) -> bool {
    match x.iter().fold(0, |m, &v| m.min(v)) {
        i8::MIN => false,
        0 => {
            matvec_i8_avx2_with::<false>(x, weights, bias, out);
            true
        }
        _ => {
            matvec_i8_avx2_with::<true>(x, weights, bias, out);
            true
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matvec_i8_avx2_with<const SIGNED_X: bool>(
    x: &[i8],
    weights: &[i8],
    bias: &[i32],
    out: &mut [i32],
) {
    let n = x.len();
    let rows = out.len();
    let wp = weights.as_ptr();
    let mut j = 0;
    while j + 4 <= rows {
        // SAFETY: rows j..j + 4 lie inside `weights` (n · rows bytes).
        let sums = dot_rows_i8_avx2::<4, SIGNED_X>(x, wp.add(j * n));
        for (r, s) in sums.into_iter().enumerate() {
            out[j + r] = bias[j + r].saturating_add(s);
        }
        j += 4;
    }
    while j < rows {
        // SAFETY: row j lies inside `weights`.
        let [s, ..] = dot_rows_i8_avx2::<1, SIGNED_X>(x, wp.add(j * n));
        out[j] = bias[j].saturating_add(s);
        j += 1;
    }
}

/// Dot products of `x` with the `R ≤ 4` consecutive `x.len()`-byte
/// weight rows starting at `w`, in lanes `0..R` (the rest are zero).
///
/// Per row and 32 bytes, `maddubs` multiplies unsigned by signed bytes
/// and adds adjacent pairs into i16; `madd` by ones then widens the
/// pairs into i32 lanes. The operands:
///
/// * `SIGNED_X`: `maddubs(abs(w), sign(x, w))`, i.e. `|w| ≤ 128` times
///   `±x`. Exact for every weight, `-128` included. It is wrong only
///   where `x` holds `-128`, which `sign` cannot negate, so the caller
///   routes such inputs to the scalar kernel. (The mirrored order
///   `maddubs(abs(x), sign(w, x))` would instead be wrong for
///   `w = -128`, which the public kernel accepts.)
/// * otherwise `x` is known non-negative — every post-ReLU hidden layer
///   — and `maddubs(x, w)` needs no `abs`/`sign` at all.
///
/// Either way a pair sums to at most 2·128·127 = 32 512 < 2¹⁵, so
/// nothing saturates and the result is exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_rows_i8_avx2<const R: usize, const SIGNED_X: bool>(
    x: &[i8],
    w: *const i8,
) -> [i32; 4] {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_abs_epi8, _mm256_add_epi32, _mm256_castsi256_si128,
        _mm256_extracti128_si256, _mm256_hadd_epi32, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_set1_epi16, _mm256_setzero_si256, _mm256_sign_epi8,
        _mm_add_epi32, _mm_storeu_si128,
    };
    let n = x.len();
    let xp = x.as_ptr();
    let ones = _mm256_set1_epi16(1);
    let mut acc = [_mm256_setzero_si256(); 4];
    let mut i = 0;
    while i + 32 <= n {
        // SAFETY: i + 32 <= n bounds the 256-bit loads of `x` and of
        // each of the R rows.
        let xv = _mm256_loadu_si256(xp.add(i).cast::<__m256i>());
        for (r, a) in acc.iter_mut().enumerate().take(R) {
            let wv = _mm256_loadu_si256(w.add(r * n + i).cast::<__m256i>());
            let pairs = if SIGNED_X {
                _mm256_maddubs_epi16(_mm256_abs_epi8(wv), _mm256_sign_epi8(xv, wv))
            } else {
                _mm256_maddubs_epi16(xv, wv)
            };
            *a = _mm256_add_epi32(*a, _mm256_madd_epi16(pairs, ones));
        }
        i += 32;
    }
    // One reduction for all four rows: two rounds of pairwise adds
    // leave [row0, row1, row2, row3] in each 128-bit half.
    let h = _mm256_hadd_epi32(
        _mm256_hadd_epi32(acc[0], acc[1]),
        _mm256_hadd_epi32(acc[2], acc[3]),
    );
    let q = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256::<1>(h));
    let mut sums = [0_i32; 4];
    _mm_storeu_si128(sums.as_mut_ptr().cast::<__m128i>(), q);
    while i < n {
        let xi = i32::from(*xp.add(i));
        for (r, s) in sums.iter_mut().enumerate().take(R) {
            // SAFETY: i < n.
            *s += xi * i32::from(*w.add(r * n + i));
        }
        i += 1;
    }
    sums
}

/// Rounds eight lanes already clamped into `[-128, 127]` half away from
/// zero, as `f32::round` does, and stores them as i8 at `out`:
/// `trunc(c)`, plus one where `c − trunc(c) ≥ 0.5`, minus one where it
/// is `≤ −0.5`. The difference is exact below 2²³, and unlike
/// `floor(c + 0.5)` this does not round 0.49999997 up.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn round_store_i8x8(c: core::arch::x86_64::__m256, out: *mut i8) {
    use core::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_castps_si256, _mm256_castsi256_si128, _mm256_cmp_ps,
        _mm256_cvtepi32_ps, _mm256_cvttps_epi32, _mm256_extracti128_si256, _mm256_set1_ps,
        _mm256_sub_epi32, _mm256_sub_ps, _mm_packs_epi16, _mm_packs_epi32, _mm_storel_epi64,
        _CMP_GE_OQ, _CMP_LE_OQ,
    };
    let t = _mm256_cvttps_epi32(c);
    let frac = _mm256_sub_ps(c, _mm256_cvtepi32_ps(t));
    // Comparison masks are all-ones (−1) where true.
    let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5)));
    let down = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(frac, _mm256_set1_ps(-0.5)));
    let r = _mm256_add_epi32(_mm256_sub_epi32(t, up), down);
    let words = _mm_packs_epi32(_mm256_castsi256_si128(r), _mm256_extracti128_si256::<1>(r));
    // SAFETY: the caller bounds eight bytes at `out`.
    _mm_storel_epi64(out.cast::<__m128i>(), _mm_packs_epi16(words, words));
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_i8_avx2(input: &[f32], scale: f32, out: &mut [i8]) {
    use core::arch::x86_64::{
        _mm256_and_ps, _mm256_cmp_ps, _mm256_div_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
        _mm256_set1_ps, _CMP_ORD_Q,
    };
    let n = input.len();
    let xp = input.as_ptr();
    let op = out.as_mut_ptr();
    let s = _mm256_set1_ps(scale);
    let (lo, hi) = (_mm256_set1_ps(-127.0), _mm256_set1_ps(127.0));
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the load and the store.
        // The division stays: a reciprocal multiply changes the bits.
        let v = _mm256_div_ps(_mm256_loadu_ps(xp.add(i)), s);
        // `clamp`: `min`/`max` return their second operand when one is
        // NaN, so this order carries NaN through, and the ordered mask
        // then zeroes it, as `NaN as i8` does.
        let c = _mm256_max_ps(lo, _mm256_min_ps(hi, v));
        round_store_i8x8(
            _mm256_and_ps(c, _mm256_cmp_ps::<_CMP_ORD_Q>(v, v)),
            op.add(i),
        );
        i += 8;
    }
    for (q, &v) in out[i..].iter_mut().zip(&input[i..]) {
        *q = crate::kernels::quantize_i8(v, scale);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requantize_relu_avx2(acc: &[i32], m: f32, out: &mut [i8]) {
    use core::arch::x86_64::{
        __m256i, _mm256_cvtepi32_ps, _mm256_loadu_si256, _mm256_max_epi32, _mm256_max_ps,
        _mm256_min_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_si256,
    };
    let n = acc.len();
    let ap = acc.as_ptr();
    let op = out.as_mut_ptr();
    let mv = _mm256_set1_ps(m);
    let (lo, hi) = (_mm256_set1_ps(-128.0), _mm256_set1_ps(127.0));
    let zero = _mm256_setzero_si256();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the load and the store.
        let a = _mm256_max_epi32(_mm256_loadu_si256(ap.add(i).cast::<__m256i>()), zero);
        let v = _mm256_mul_ps(_mm256_cvtepi32_ps(a), mv);
        // `v` first: `min` then returns 127 for a NaN lane, as
        // `f32::min` does. The −128 floor is where `as i8` saturates.
        round_store_i8x8(_mm256_max_ps(_mm256_min_ps(v, hi), lo), op.add(i));
        i += 8;
    }
    for (q, &a) in out[i..].iter_mut().zip(&acc[i..]) {
        *q = crate::kernels::requantize_relu_i8(a, m);
    }
}

// --------------------------------------------------------------- aarch64

#[cfg(target_arch = "aarch64")]
unsafe fn dense_into_neon(input: &[f32], weights_t: &[f32], bias: &[f32], out: &mut [f32]) {
    use core::arch::aarch64::{vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32};
    let inputs = input.len();
    let outputs = out.len();
    debug_assert_eq!(weights_t.len(), inputs * outputs);
    debug_assert_eq!(bias.len(), outputs);
    out.copy_from_slice(bias);
    let op = out.as_mut_ptr();
    let mut k = 0;
    // Same association as the scalar kernel; vmulq/vaddq (not vfmaq)
    // keep the per-lane rounding identical.
    while k + 4 <= inputs {
        let (x0, x1, x2, x3) = (input[k], input[k + 1], input[k + 2], input[k + 3]);
        let (v0, v1, v2, v3) = (
            vdupq_n_f32(x0),
            vdupq_n_f32(x1),
            vdupq_n_f32(x2),
            vdupq_n_f32(x3),
        );
        let r0 = weights_t[k * outputs..(k + 1) * outputs].as_ptr();
        let r1 = weights_t[(k + 1) * outputs..(k + 2) * outputs].as_ptr();
        let r2 = weights_t[(k + 2) * outputs..(k + 3) * outputs].as_ptr();
        let r3 = weights_t[(k + 3) * outputs..(k + 4) * outputs].as_ptr();
        let mut j = 0;
        while j + 4 <= outputs {
            // SAFETY: j + 4 <= outputs bounds every 4-lane access.
            let t01 = vaddq_f32(
                vmulq_f32(v0, vld1q_f32(r0.add(j))),
                vmulq_f32(v1, vld1q_f32(r1.add(j))),
            );
            let t012 = vaddq_f32(t01, vmulq_f32(v2, vld1q_f32(r2.add(j))));
            let t = vaddq_f32(t012, vmulq_f32(v3, vld1q_f32(r3.add(j))));
            vst1q_f32(op.add(j), vaddq_f32(vld1q_f32(op.add(j).cast_const()), t));
            j += 4;
        }
        while j < outputs {
            // SAFETY: j < outputs.
            let t = ((x0 * *r0.add(j) + x1 * *r1.add(j)) + x2 * *r2.add(j)) + x3 * *r3.add(j);
            *op.add(j) += t;
            j += 1;
        }
        k += 4;
    }
    while k < inputs {
        let x = input[k];
        let v = vdupq_n_f32(x);
        let row = weights_t[k * outputs..(k + 1) * outputs].as_ptr();
        let mut j = 0;
        while j + 4 <= outputs {
            // SAFETY: j + 4 <= outputs bounds every 4-lane access.
            let o = vld1q_f32(op.add(j).cast_const());
            let w = vld1q_f32(row.add(j));
            vst1q_f32(op.add(j), vaddq_f32(o, vmulq_f32(v, w)));
            j += 4;
        }
        while j < outputs {
            // SAFETY: j < outputs.
            *op.add(j) += x * *row.add(j);
            j += 1;
        }
        k += 1;
    }
}

#[cfg(target_arch = "aarch64")]
unsafe fn axpy_neon(out: &mut [f32], x: &[f32], w: f32) {
    use core::arch::aarch64::{vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32};
    let n = out.len();
    let v = vdupq_n_f32(w);
    let op = out.as_mut_ptr();
    let xp = x.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n bounds every 4-lane access.
        let o = vld1q_f32(op.add(i).cast_const());
        let xv = vld1q_f32(xp.add(i));
        vst1q_f32(op.add(i), vaddq_f32(o, vmulq_f32(v, xv)));
        i += 4;
    }
    while i < n {
        // SAFETY: i < n.
        *op.add(i) += w * *xp.add(i);
        i += 1;
    }
}

#[cfg(target_arch = "aarch64")]
unsafe fn dot_i8_neon(x: &[i8], w: &[i8]) -> i32 {
    use core::arch::aarch64::{
        vaddvq_s32, vdupq_n_s32, vget_high_s8, vget_low_s8, vld1q_s8, vmull_s8, vpadalq_s16,
    };
    let n = x.len();
    let xp = x.as_ptr();
    let wp = w.as_ptr();
    let mut acc = vdupq_n_s32(0);
    let mut i = 0;
    // Sixteen i8 lanes per pass: widening multiply to i16 (exact —
    // |x·w| <= 127²), then pairwise add-accumulate into i32 lanes.
    while i + 16 <= n {
        // SAFETY: i + 16 <= n bounds the 128-bit loads.
        let xv = vld1q_s8(xp.add(i));
        let wv = vld1q_s8(wp.add(i));
        acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(xv), vget_low_s8(wv)));
        acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(xv), vget_high_s8(wv)));
        i += 16;
    }
    let mut sum = vaddvq_s32(acc);
    while i < n {
        // SAFETY: i < n.
        sum += i32::from(*xp.add(i)) * i32::from(*wp.add(i));
        i += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_level_honors_the_knob() {
        for detected in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Neon] {
            assert_eq!(resolve_level(true, detected), detected);
            assert_eq!(resolve_level(false, detected), SimdLevel::Scalar);
        }
    }

    #[test]
    fn level_is_cached_and_consistent() {
        let first = level();
        assert_eq!(level(), first, "the dispatch decision is sticky");
        // Whatever was resolved must be something this host can run.
        if first != SimdLevel::Scalar {
            assert_eq!(first, detected_level());
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(SimdLevel::Scalar.to_string(), "scalar");
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert_eq!(SimdLevel::Neon.to_string(), "neon");
    }
}
