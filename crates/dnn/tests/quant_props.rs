//! Property tests for the int8 quantization scheme: round-trip error
//! bounds, the integer matvec against an f32 oracle, the end-to-end
//! quantized network against the f32 engine, the one-pass calibration
//! against per-prefix runs, and the rejection of an all-zero calibration
//! set.

use mindful_dnn::arch::{Architecture, LayerSpec};
use mindful_dnn::infer::Network;
use mindful_dnn::kernels::{dot_i8_scalar, matvec_i8_into};
use mindful_dnn::quant::QuantizedNetwork;
use mindful_dnn::DnnError;
use proptest::prelude::*;

/// Symmetric i8 scale for a full-scale magnitude (the quantizer's
/// convention: 127 codes per side, range floor well below these tests).
fn scale_for(values: &[f32]) -> f32 {
    let range = values.iter().fold(0.0_f32, |m, v| m.max(v.abs()));
    range.max(1e-6) / 127.0
}

fn quantize(values: &[f32], scale: f32) -> Vec<i8> {
    values
        .iter()
        .map(|v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect()
}

proptest! {
    /// Quantize→dequantize of any finite vector lands within half a
    /// quantization step of the original, per element.
    #[test]
    fn quantize_dequantize_error_is_within_half_a_step(
        values in prop::collection::vec(-100.0_f32..100.0, 1..200),
    ) {
        let scale = scale_for(&values);
        for (&q, &v) in quantize(&values, scale).iter().zip(&values) {
            let err = (f32::from(q) * scale - v).abs();
            prop_assert!(
                err <= 0.5 * scale + 1e-6,
                "round-trip error {err} exceeds half a step ({scale})"
            );
        }
    }

    /// The i8 matvec agrees with the f32 oracle computed over the same
    /// real-valued inputs, within the analytic quantization bound:
    /// each dot product absorbs at most half a step of error per
    /// element from each operand.
    #[test]
    fn i8_matvec_matches_the_f32_oracle_within_tolerance(
        inputs in 1_usize..48,
        outputs in 1_usize..24,
        seed in 0_u64..500,
    ) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as f32 / (1_u64 << 31) as f32) - 0.5
        };
        let x: Vec<f32> = (0..inputs).map(|_| next()).collect();
        let w: Vec<f32> = (0..inputs * outputs).map(|_| next()).collect();

        let sx = scale_for(&x);
        let sw = scale_for(&w);
        let qx = quantize(&x, sx);
        let qw = quantize(&w, sw);
        let bias = vec![0_i32; outputs];
        let mut acc = vec![0_i32; outputs];
        matvec_i8_into(&qx, &qw, &bias, &mut acc);

        for j in 0..outputs {
            let row = &w[j * inputs..(j + 1) * inputs];
            let oracle: f32 = x.iter().zip(row).map(|(a, b)| a * b).sum();
            let int8 = acc[j] as f32 * sx * sw;
            // |Δ| <= Σ(|x|·sw/2 + |w|·sx/2 + sx·sw/4) over the row.
            let bound: f32 = x
                .iter()
                .zip(row)
                .map(|(a, b)| a.abs() * sw * 0.5 + b.abs() * sx * 0.5 + sx * sw * 0.25)
                .sum();
            prop_assert!(
                (int8 - oracle).abs() <= bound + 1e-5,
                "row {j}: int8 {int8} vs oracle {oracle} (bound {bound})"
            );
        }
        // And the SIMD-dispatched accumulators are exactly the scalar ones.
        for j in 0..outputs {
            prop_assert_eq!(acc[j], dot_i8_scalar(&qx, &qw[j * inputs..(j + 1) * inputs]));
        }
    }

    /// End to end: a quantized random dense chain tracks the f32
    /// engine within 5% of the output magnitude on its own
    /// calibration distribution.
    #[test]
    fn quantized_network_tracks_f32_for_random_networks(
        seed in 0_u64..200,
        hidden in 4_usize..48,
    ) {
        let arch = Architecture::new(
            "qprop",
            vec![
                LayerSpec::Dense { inputs: 32, outputs: hidden as u64 },
                LayerSpec::Dense { inputs: hidden as u64, outputs: 8 },
            ],
        )
        .unwrap();
        let net = Network::with_seeded_weights(arch, seed);
        let calibration: Vec<Vec<f32>> = (0..6)
            .map(|s| {
                (0..32)
                    .map(|i| ((i + 17 * s) as f32 * 0.029).sin())
                    .collect()
            })
            .collect();
        let q = QuantizedNetwork::from_network(&net, &calibration).unwrap();
        let mut ws = q.workspace();
        for x in &calibration {
            let f32_out = net.forward(x).unwrap();
            let int8_out = q.forward_into(x, &mut ws).unwrap();
            let mag = f32_out.iter().fold(0.0_f32, |m, v| m.max(v.abs()));
            for (a, b) in int8_out.iter().zip(&f32_out) {
                prop_assert!(
                    (a - b).abs() <= 0.05 * mag.max(0.1),
                    "int8 {a} vs f32 {b} (magnitude {mag}, seed {seed}, hidden {hidden})"
                );
            }
        }
    }
}

/// A dense chain of the given widths with seeded weights.
fn dense_chain(widths: &[u64], seed: u64) -> Network {
    let layers = widths
        .windows(2)
        .map(|w| LayerSpec::Dense {
            inputs: w[0],
            outputs: w[1],
        })
        .collect();
    Network::with_seeded_weights(Architecture::new("qchain", layers).unwrap(), seed)
}

proptest! {
    /// One calibration pass per sample yields the scales and weights
    /// the per-boundary `forward_prefix` runs gave, bit for bit.
    #[test]
    fn one_pass_calibration_matches_the_forward_prefix_oracle(
        depth in 1_usize..6,
        seed in 0_u64..200,
        width in 4_u64..40,
        samples in 1_usize..4,
    ) {
        let widths: Vec<u64> = (0..=depth as u64).map(|k| width + 3 * k).collect();
        let net = dense_chain(&widths, seed);
        let input = widths[0] as usize;
        let calibration: Vec<Vec<f32>> = (0..samples)
            .map(|s| {
                (0..input)
                    .map(|i| ((i + 7 * s) as f32 * 0.37 + seed as f32).sin() * 2.0)
                    .collect()
            })
            .collect();
        let q = QuantizedNetwork::from_network(&net, &calibration).unwrap();

        // The oracle: ranges[0] is the input, ranges[k] the ReLU'd
        // prefix of k layers; scales and weights as documented.
        let mut ranges = vec![0.0_f32; depth];
        for sample in &calibration {
            ranges[0] = sample.iter().fold(ranges[0], |m, v| m.max(v.abs()));
            for (k, range) in ranges.iter_mut().enumerate().skip(1) {
                for v in net.forward_prefix(sample, k).unwrap() {
                    *range = range.max(v.abs());
                }
            }
        }
        for (k, range) in ranges.iter().enumerate() {
            let scale = range.max(1e-6) / 127.0;
            prop_assert_eq!(q.activation_scale(k).to_bits(), scale.to_bits(), "scale {}", k);
            let weights = net.layer_weights(k);
            let max_abs = weights.iter().fold(0.0_f32, |m, w| m.max(w.abs())).max(1e-6);
            let ws = max_abs / 127.0;
            prop_assert_eq!(q.weight_scale(k).to_bits(), ws.to_bits(), "weight scale {}", k);
            let expect: Vec<i8> = weights
                .iter()
                .map(|w| (w / ws).round().clamp(-127.0, 127.0) as i8)
                .collect();
            prop_assert_eq!(q.layer_weights(k), &expect[..], "weights {}", k);
        }
    }
}

/// Regression: calibrating a 1024-input layer on the all-zero set used
/// to floor every activation scale and saturate the quantized bias at
/// `i32::MAX`. A 0.5-valued input then overflowed the bias add, and once
/// the add saturated, the network answered every input alike. Such a set
/// is now rejected, naming the boundary it leaves without a range; the
/// saturating add itself stays pinned by
/// `simd_kernels::i8_matvec_bias_add_saturates`.
#[test]
fn saturated_bias_does_not_overflow_the_accumulator() {
    let net = dense_chain(&[1024, 16, 4], 3);
    let err = QuantizedNetwork::from_network(&net, &[vec![0.0_f32; 1024]]).unwrap_err();
    let DnnError::Infeasible { reason } = err else {
        panic!("expected Infeasible, got {err:?}");
    };
    assert!(reason.contains("network input"), "{reason}");
}

/// A hidden boundary that the ReLU zeroes on every sample is rejected
/// too, by its layer: this chain's first layer is negative on the whole
/// calibration sample.
#[test]
fn a_dead_hidden_boundary_is_rejected_by_name() {
    let net = dense_chain(&[5, 8, 11], 41);
    let sample: Vec<f32> = (0..5)
        .map(|i| (i as f32 * 0.37 + 41.0).sin() * 2.0)
        .collect();
    let err = QuantizedNetwork::from_network(&net, &[sample]).unwrap_err();
    let DnnError::Infeasible { reason } = err else {
        panic!("expected Infeasible, got {err:?}");
    };
    assert!(reason.contains("input of layer 1"), "{reason}");
}
