//! 8-bit quantization — the bridge between the `f32` inference engine
//! and the accelerator's integer datapath.
//!
//! The Fig. 9 accelerator is synthesized for an 8-bit datatype. Two
//! layers of machinery live here:
//!
//! * [`QuantizedDense`] quantizes one dense layer for the cycle
//!   simulator ([`mindful_accel::sim`]) and verifies (in tests) that
//!   the integer datapath tracks the floating-point reference within
//!   the expected quantization error.
//! * [`QuantizedNetwork`] is the *end-to-end* int8 inference path: the
//!   whole network with per-layer symmetric scales, `i8` weights, and
//!   `i32` accumulators, matching what the 0.2 µJ/class closed-loop
//!   BMI SoC (CICC 2024) runs in silicon. Activations are quantized at
//!   ingress, carried as `i8` between layers (ReLU and requantization
//!   happen in the integer domain), and dequantized once at the
//!   boundary. [`QuantizedNetwork::forward_into`] reuses the same
//!   [`Workspace`] arena as the `f32` engine and performs **zero heap
//!   allocations** once warm (`tests/zero_alloc.rs`). The matvec and
//!   both quantizers dispatch to the SIMD kernels
//!   ([`crate::kernels::matvec_i8_into_at`], a four-row `maddubs`
//!   kernel on AVX2, and the libm-free
//!   [`crate::kernels::quantize_i8_into_at`] /
//!   [`crate::kernels::requantize_relu_into_at`]).
//!
//! ## Scale derivation
//!
//! All scales are symmetric (zero-point-free), which keeps the matvec
//! a plain dot product: a tensor with observed absolute maximum `m`
//! gets scale `s = m / 127`, so `v ≈ q · s` with `q ∈ [-127, 127]`.
//! Weight scales are exact per layer (the max is taken over the
//! layer's weights). Activation scales come from *calibration*: the
//! `f32` network runs a caller-supplied (or default synthetic) sample
//! set and records each layer boundary's absolute maximum, every
//! boundary in one ReLU'd pass per sample. Biases are
//! pre-scaled into each layer's accumulator domain
//! (`s_in · s_w`), and the layer-to-layer transition collapses into a
//! single `f32` multiplier `m_k = s_in·s_w / s_next` applied at
//! requantization.

use mindful_core::pool::Scheduler;

use crate::arch::LayerSpec;
use crate::error::{DnnError, Result};
use crate::infer::{Network, Workspace};
use crate::kernels;
use crate::simd;

/// A dense layer quantized to the accelerator's 8-bit datatype.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDense {
    inputs: usize,
    outputs: usize,
    /// Row-major `i8` weights.
    weights: Vec<i8>,
    /// Bias in the integer accumulator domain.
    bias: Vec<i32>,
    /// Weight scale: `w_f32 ≈ w_i8 · weight_scale`.
    weight_scale: f32,
    /// Input scale assumed at quantization time.
    input_scale: f32,
}

impl QuantizedDense {
    /// Quantizes layer `index` of a materialized network with symmetric
    /// per-layer scales. `input_scale` maps `f32` activations to the
    /// `i8` domain (`x_i8 = round(x_f32 / input_scale)`).
    ///
    /// # Errors
    ///
    /// * [`DnnError::EmptyDimension`] if `index` is out of range.
    /// * [`DnnError::Infeasible`] if the layer is not dense or the input
    ///   scale is not positive.
    pub fn from_network(network: &Network, index: usize, input_scale: f32) -> Result<Self> {
        if !(input_scale > 0.0 && input_scale.is_finite()) {
            return Err(DnnError::Infeasible {
                reason: format!("input scale must be positive, got {input_scale}"),
            });
        }
        let arch = network.architecture();
        let Some(layer) = arch.layers().get(index) else {
            return Err(DnnError::EmptyDimension {
                name: "layer index",
            });
        };
        let LayerSpec::Dense { inputs, outputs } = *layer else {
            return Err(DnnError::Infeasible {
                reason: format!("layer {index} is not dense: {layer}"),
            });
        };
        let weights_f32 = network.layer_weights(index);
        let biases_f32 = network.layer_biases(index);

        let max_abs = weights_f32
            .iter()
            .fold(0.0_f32, |acc, w| acc.max(w.abs()))
            .max(1e-12);
        let weight_scale = max_abs / 127.0;
        let weights: Vec<i8> = weights_f32
            .iter()
            .map(|&w| kernels::quantize_i8(w, weight_scale))
            .collect();
        // Accumulator domain: x_i8 · w_i8 sums scale by (input·weight).
        let acc_scale = input_scale * weight_scale;
        let bias: Vec<i32> = biases_f32
            .iter()
            .map(|b| (b / acc_scale).round() as i32)
            .collect();
        Ok(Self {
            inputs: inputs as usize,
            outputs: outputs as usize,
            weights,
            bias,
            weight_scale,
            input_scale,
        })
    }

    /// Input width.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output width.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The quantized weights (row-major), e.g. for loading into
    /// [`mindful_accel::sim::DenseLayer`].
    #[must_use]
    pub fn weights(&self) -> &[i8] {
        &self.weights
    }

    /// The integer-domain biases.
    #[must_use]
    pub fn bias(&self) -> &[i32] {
        &self.bias
    }

    /// Quantizes an `f32` activation vector into the `i8` input domain.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for a wrong width.
    pub fn quantize_input(&self, x: &[f32]) -> Result<Vec<i8>> {
        if x.len() != self.inputs {
            return Err(DnnError::ShapeMismatch {
                expected: self.inputs,
                actual: x.len(),
            });
        }
        Ok(x.iter()
            .map(|&v| kernels::quantize_i8(v, self.input_scale))
            .collect())
    }

    /// Converts an integer accumulator result back to the `f32` domain.
    #[must_use]
    pub fn dequantize_output(&self, acc: &[i32]) -> Vec<f32> {
        let scale = self.input_scale * self.weight_scale;
        acc.iter().map(|&v| v as f32 * scale).collect()
    }

    /// The worst-case input magnitude representable without clipping.
    #[must_use]
    pub fn input_range(&self) -> f32 {
        self.input_scale * 127.0
    }
}

/// Numeric precision of an inference path — the pipeline/bench knob
/// that selects between the `f32` engine and the int8 datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// The blocked/SIMD `f32` engine ([`Network::forward_into`]).
    #[default]
    F32,
    /// The quantized int8 datapath
    /// ([`QuantizedNetwork::forward_into`]).
    Int8,
}

impl core::fmt::Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::F32 => "f32",
            Self::Int8 => "int8",
        })
    }
}

/// One dense layer of a [`QuantizedNetwork`].
#[derive(Debug, Clone, PartialEq)]
struct QuantizedLayer {
    inputs: usize,
    outputs: usize,
    /// Row-major `i8` weights (`[outputs × inputs]`).
    weights: Vec<i8>,
    /// Bias in this layer's accumulator domain (`s_in · s_w`).
    bias: Vec<i32>,
    /// Input activation scale `s_in`.
    in_scale: f32,
    /// Weight scale `s_w`.
    weight_scale: f32,
    /// Requantization multiplier to the next layer's input domain:
    /// `s_in · s_w / s_next` (unused by the final layer, which
    /// dequantizes with `s_in · s_w` directly).
    requant: f32,
}

/// A whole network quantized to the accelerator's 8-bit datatype:
/// per-layer symmetric scales, `i8` weights, `i32` accumulators.
///
/// Built from a materialized [`Network`] plus calibration samples (see
/// [`QuantizedNetwork::from_network`]); currently supports all-dense
/// architectures (the MLP speech-decoder family — the workload the
/// paper's computation-centric analysis centres on).
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    layers: Vec<QuantizedLayer>,
    /// Widest activation across all layers — the arena width the
    /// workspace needs.
    max_width: usize,
}

impl QuantizedNetwork {
    /// Floor applied to weight and activation ranges so an all-zero
    /// weight matrix or a vanishing activation range cannot produce a
    /// zero (division-by-zero) scale.
    const RANGE_FLOOR: f32 = 1e-6;

    /// Quantizes `network` with activation scales calibrated by
    /// running the `f32` engine over `calibration`.
    ///
    /// # Errors
    ///
    /// * [`DnnError::Infeasible`] if any layer is not dense, the
    ///   calibration set is empty or contains non-finite values, or some
    ///   boundary (the network input or a layer's ReLU'd input) is zero
    ///   on every sample. Such a boundary has no range to scale, and the
    ///   network built from it would not depend on its input.
    /// * [`DnnError::ShapeMismatch`] if a calibration sample has the
    ///   wrong width.
    pub fn from_network<S: AsRef<[f32]>>(network: &Network, calibration: &[S]) -> Result<Self> {
        let arch = network.architecture();
        for (index, layer) in arch.layers().iter().enumerate() {
            if !matches!(layer, LayerSpec::Dense { .. }) {
                return Err(DnnError::Infeasible {
                    reason: format!("int8 path requires dense layers; layer {index} is {layer}"),
                });
            }
        }
        if calibration.is_empty() {
            return Err(DnnError::Infeasible {
                reason: "int8 calibration needs at least one sample".into(),
            });
        }
        // Per-boundary absolute maxima: ranges[0] is the network input,
        // ranges[k] the (post-ReLU) input of layer k, all recorded in
        // one pass per sample.
        let depth = arch.len();
        let mut ranges = vec![0.0_f32; depth];
        for sample in calibration {
            let sample = sample.as_ref();
            if sample.iter().any(|v| !v.is_finite()) {
                return Err(DnnError::Infeasible {
                    reason: "int8 calibration samples must be finite".into(),
                });
            }
            ranges[0] = sample.iter().fold(ranges[0], |m, v| m.max(v.abs()));
            network.visit_boundaries(sample, |k, acts| {
                ranges[k] = acts.iter().fold(ranges[k], |m, v| m.max(v.abs()));
            })?;
        }
        if let Some(boundary) = ranges.iter().position(|&r| r == 0.0) {
            let at = if boundary == 0 {
                "the network input".to_owned()
            } else {
                format!("the input of layer {boundary} (after ReLU)")
            };
            return Err(DnnError::Infeasible {
                reason: format!("int8 calibration saw only zeros at {at}"),
            });
        }
        let scales: Vec<f32> = ranges
            .iter()
            .map(|r| r.max(Self::RANGE_FLOOR) / 127.0)
            .collect();

        let mut layers = Vec::with_capacity(depth);
        for (index, layer) in arch.layers().iter().enumerate() {
            let LayerSpec::Dense { inputs, outputs } = *layer else {
                unreachable!("checked above");
            };
            let weights_f32 = network.layer_weights(index);
            let max_abs = weights_f32
                .iter()
                .fold(0.0_f32, |acc, w| acc.max(w.abs()))
                .max(Self::RANGE_FLOOR);
            let weight_scale = max_abs / 127.0;
            let weights: Vec<i8> = weights_f32
                .iter()
                .map(|&w| kernels::quantize_i8(w, weight_scale))
                .collect();
            let in_scale = scales[index];
            let acc_scale = in_scale * weight_scale;
            let bias: Vec<i32> = network
                .layer_biases(index)
                .iter()
                .map(|b| (b / acc_scale).round() as i32)
                .collect();
            let requant = if index + 1 < depth {
                acc_scale / scales[index + 1]
            } else {
                1.0
            };
            layers.push(QuantizedLayer {
                inputs: inputs as usize,
                outputs: outputs as usize,
                weights,
                bias,
                in_scale,
                weight_scale,
                requant,
            });
        }
        let max_width = layers
            .iter()
            .flat_map(|l| [l.inputs, l.outputs])
            .max()
            .unwrap_or(0);
        Ok(Self { layers, max_width })
    }

    /// [`QuantizedNetwork::from_network`] with a deterministic built-in
    /// calibration set: full-scale ±1 frames (bounding the ingress
    /// domain of code-normalized pipeline inputs) plus phase-shifted
    /// sinusoid frames exercising intermediate activations.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::from_network`].
    pub fn from_network_default(network: &Network) -> Result<Self> {
        let width = network.architecture().input_values() as usize;
        let mut calibration: Vec<Vec<f32>> = vec![vec![1.0; width], vec![-1.0; width]];
        for phase in 0..6 {
            calibration.push(
                (0..width)
                    .map(|i| ((i + 31 * phase) as f32 * 0.013).sin())
                    .collect(),
            );
        }
        Self::from_network(network, &calibration)
    }

    /// Layer count.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.layers.len()
    }

    /// Input width.
    #[must_use]
    pub(crate) fn input_values(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Output width.
    #[must_use]
    pub(crate) fn output_values(&self) -> usize {
        self.layers.last().map_or(0, |l| l.outputs)
    }

    /// The activation scale at the input of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn activation_scale(&self, index: usize) -> f32 {
        self.layers[index].in_scale
    }

    /// The weight scale of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn weight_scale(&self, index: usize) -> f32 {
        self.layers[index].weight_scale
    }

    /// The quantized weights of layer `index` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn layer_weights(&self, index: usize) -> &[i8] {
        &self.layers[index].weights
    }

    /// Total stored parameters (weights + biases) — at 1 byte per
    /// weight, a quarter of the `f32` engine's weight footprint.
    #[must_use]
    pub(crate) fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.bias.len())
            .sum()
    }

    /// A [`Workspace`] pre-sized for this network's int8 path, so even
    /// the first [`QuantizedNetwork::forward_into`] is allocation-free.
    #[must_use]
    pub fn workspace(&self) -> Workspace {
        let mut ws = Workspace::with_width(self.max_width);
        ws.ensure_quant(self.max_width);
        ws
    }

    /// Runs the int8 datapath on an `f32` input: quantize at ingress,
    /// `i8` matvec with `i32` accumulators per layer (ReLU and
    /// requantization in the integer domain), dequantize once at the
    /// boundary. Zero heap allocations once `workspace` is warm.
    ///
    /// The returned slice borrows the workspace and is valid until its
    /// next use.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for a wrong input width.
    pub fn forward_into<'w>(
        &self,
        input: &[f32],
        workspace: &'w mut Workspace,
    ) -> Result<&'w [f32]> {
        if input.len() != self.input_values() {
            return Err(DnnError::ShapeMismatch {
                expected: self.input_values(),
                actual: input.len(),
            });
        }
        workspace.ensure_quant(self.max_width.max(input.len()));
        let (qa, qb, acc, dequant) = workspace.quant_arenas();
        let (mut cur, mut nxt) = (qa, qb);
        let level = simd::level();
        kernels::quantize_i8_into_at(
            level,
            input,
            self.layers[0].in_scale,
            &mut cur[..input.len()],
        );
        let last = self.layers.len() - 1;
        let mut width = input.len();
        for (index, layer) in self.layers.iter().enumerate() {
            let _layer_span = mindful_core::obs::span("dnn.dense_i8");
            debug_assert_eq!(width, layer.inputs);
            kernels::matvec_i8_into_at(
                level,
                &cur[..layer.inputs],
                &layer.weights,
                &layer.bias,
                &mut acc[..layer.outputs],
            );
            if index == last {
                let scale = layer.in_scale * layer.weight_scale;
                for (o, &a) in dequant[..layer.outputs]
                    .iter_mut()
                    .zip(&acc[..layer.outputs])
                {
                    *o = a as f32 * scale;
                }
            } else {
                // ReLU + requantize into the next layer's i8 domain in
                // one pass; positive accumulators can only clip high.
                kernels::requantize_relu_into_at(
                    level,
                    &acc[..layer.outputs],
                    layer.requant,
                    &mut nxt[..layer.outputs],
                );
            }
            core::mem::swap(&mut cur, &mut nxt);
            width = layer.outputs;
        }
        Ok(&dequant[..width])
    }

    /// Runs the int8 path on a batch of samples as a client of
    /// `scheduler` — the int8 twin of [`Network::forward_batch`].
    /// Outputs come back in input order and are identical for any
    /// worker count (integer arithmetic is exact).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if any sample has the wrong
    /// width (checked up front).
    pub fn forward_batch<S>(&self, inputs: &[S], scheduler: &Scheduler) -> Result<Vec<Vec<f32>>>
    where
        S: AsRef<[f32]> + Sync,
    {
        for sample in inputs {
            if sample.as_ref().len() != self.input_values() {
                return Err(DnnError::ShapeMismatch {
                    expected: self.input_values(),
                    actual: sample.as_ref().len(),
                });
            }
        }
        Ok(scheduler.map_init(
            inputs,
            || self.workspace(),
            |ws, _, sample| {
                self.forward_into(sample.as_ref(), ws)
                    .expect("widths checked up front")
                    .to_vec()
            },
        ))
    }
}

impl core::fmt::Display for QuantizedNetwork {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "int8 network: {} dense layers, {} -> {}, {} parameters",
            self.len(),
            self.input_values(),
            self.output_values(),
            self.parameter_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::models::ModelFamily;
    use mindful_accel::sim::{simulate_dense, DenseLayer};
    use mindful_accel::tech::TechnologyNode;
    use std::num::NonZeroUsize;

    fn small_network(seed: u64) -> Network {
        let arch = Architecture::new(
            "q-test",
            vec![
                LayerSpec::Dense {
                    inputs: 64,
                    outputs: 32,
                },
                LayerSpec::Dense {
                    inputs: 32,
                    outputs: 8,
                },
            ],
        )
        .unwrap();
        Network::with_seeded_weights(arch, seed)
    }

    #[test]
    fn quantized_weights_cover_the_i8_range() {
        let net = small_network(3);
        let q = QuantizedDense::from_network(&net, 0, 0.01).unwrap();
        let max = q.weights().iter().map(|w| w.unsigned_abs()).max().unwrap();
        assert_eq!(max, 127, "the largest weight maps to full scale");
        assert_eq!(q.weights().len(), 64 * 32);
    }

    #[test]
    fn integer_datapath_tracks_f32_reference() {
        // Quantize layer 0, run it on the accelerator's cycle simulator,
        // and compare against the f32 forward prefix.
        let net = small_network(7);
        let input_scale = 0.01_f32;
        let q = QuantizedDense::from_network(&net, 0, input_scale).unwrap();
        let x_f32: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.017).sin() * 0.8).collect();
        let x_i8 = q.quantize_input(&x_f32).unwrap();

        let hw_layer = DenseLayer::new(
            q.inputs(),
            q.outputs(),
            q.weights().to_vec(),
            q.bias().to_vec(),
            true,
        )
        .unwrap();
        let sim = simulate_dense(&hw_layer, &x_i8, 8, TechnologyNode::NANGATE_45NM).unwrap();
        let hw_out = q.dequantize_output(&sim.outputs);

        let reference = net.forward_prefix(&x_f32, 1).unwrap();
        assert_eq!(hw_out.len(), reference.len());
        let mut max_err = 0.0_f32;
        let mut max_mag = 0.0_f32;
        for (h, r) in hw_out.iter().zip(&reference) {
            max_err = max_err.max((h - r).abs());
            max_mag = max_mag.max(r.abs());
        }
        assert!(
            max_err <= 0.05 * max_mag.max(0.1),
            "quantization error {max_err} vs magnitude {max_mag}"
        );
    }

    #[test]
    fn input_quantization_round_trips_within_half_lsb() {
        let net = small_network(1);
        let q = QuantizedDense::from_network(&net, 0, 0.02).unwrap();
        for v in [-1.0_f32, -0.33, 0.0, 0.5, 1.2] {
            let code = q.quantize_input(&vec![v; 64]).unwrap()[0];
            let back = f32::from(code) * 0.02;
            if v.abs() <= q.input_range() {
                assert!((back - v).abs() <= 0.011, "{v} -> {back}");
            }
        }
    }

    #[test]
    fn non_dense_layers_are_rejected() {
        let arch = ModelFamily::DnCnn.architecture(128).unwrap();
        let net = Network::with_seeded_weights(arch, 0);
        // Layer 0 of the DN-CNN is a conv.
        assert!(matches!(
            QuantizedDense::from_network(&net, 0, 0.01),
            Err(DnnError::Infeasible { .. })
        ));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let net = small_network(2);
        assert!(QuantizedDense::from_network(&net, 99, 0.01).is_err());
        assert!(QuantizedDense::from_network(&net, 0, 0.0).is_err());
        assert!(QuantizedDense::from_network(&net, 0, f32::NAN).is_err());
        let q = QuantizedDense::from_network(&net, 0, 0.01).unwrap();
        assert!(q.quantize_input(&[0.0; 3]).is_err());
    }

    fn calibration(width: usize, count: usize) -> Vec<Vec<f32>> {
        (0..count)
            .map(|s| {
                (0..width)
                    .map(|i| ((i + 13 * s) as f32 * 0.021).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn quantized_network_tracks_the_f32_engine() {
        let net = small_network(11);
        let cal = calibration(64, 8);
        let q = QuantizedNetwork::from_network(&net, &cal).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.input_values(), 64);
        assert_eq!(q.output_values(), 8);
        let mut ws = q.workspace();
        for sample in &cal {
            let int8 = q.forward_into(sample, &mut ws).unwrap().to_vec();
            let f32ref = net.forward(sample).unwrap();
            let mag = f32ref.iter().fold(0.0_f32, |m, v| m.max(v.abs()));
            for (a, b) in int8.iter().zip(&f32ref) {
                assert!(
                    (a - b).abs() <= 0.05 * mag.max(0.1),
                    "int8 {a} vs f32 {b} (magnitude {mag})"
                );
            }
        }
    }

    #[test]
    fn forward_batch_matches_forward_into_for_any_thread_count() {
        let net = small_network(5);
        let cal = calibration(64, 4);
        let q = QuantizedNetwork::from_network(&net, &cal).unwrap();
        let mut ws = q.workspace();
        let expect: Vec<Vec<f32>> = cal
            .iter()
            .map(|x| q.forward_into(x, &mut ws).unwrap().to_vec())
            .collect();
        for workers in [1_usize, 2, 3] {
            let got = q
                .forward_batch(&cal, &Scheduler::new(NonZeroUsize::new(workers).unwrap()))
                .unwrap();
            assert_eq!(got, expect, "{workers} workers");
        }
    }

    #[test]
    fn default_calibration_covers_the_code_domain() {
        let net = small_network(9);
        let q = QuantizedNetwork::from_network_default(&net).unwrap();
        // Ingress saw ±1 full-scale frames, so the input scale maps the
        // whole code-normalized domain without clipping.
        assert!((q.activation_scale(0) - 1.0 / 127.0).abs() < 1e-6);
        assert!(q.len() > 0);
        assert!(q.to_string().contains("2 dense layers"));
    }

    #[test]
    fn weight_quantization_error_is_within_half_a_step() {
        let net = small_network(21);
        let q = QuantizedNetwork::from_network_default(&net).unwrap();
        for index in 0..q.len() {
            let s = q.weight_scale(index);
            for (&qi, &wi) in q.layer_weights(index).iter().zip(net.layer_weights(index)) {
                assert!(
                    (f32::from(qi) * s - wi).abs() <= 0.5 * s + 1e-6,
                    "layer {index}: {qi} * {s} vs {wi}"
                );
            }
        }
    }

    #[test]
    fn quantized_network_rejects_bad_inputs() {
        let net = small_network(2);
        let cal = calibration(64, 2);
        let q = QuantizedNetwork::from_network(&net, &cal).unwrap();
        let mut ws = q.workspace();
        assert!(matches!(
            q.forward_into(&[0.0; 3], &mut ws),
            Err(DnnError::ShapeMismatch {
                expected: 64,
                actual: 3
            })
        ));
        assert!(q
            .forward_batch(&[vec![0.0_f32; 3]], &Scheduler::new(NonZeroUsize::MIN))
            .is_err());
        // Empty calibration and non-finite samples are rejected.
        let empty: Vec<Vec<f32>> = Vec::new();
        assert!(QuantizedNetwork::from_network(&net, &empty).is_err());
        assert!(QuantizedNetwork::from_network(&net, &[vec![f32::NAN; 64]]).is_err());
        // Conv families have no int8 path yet.
        let cnn = Network::with_seeded_weights(ModelFamily::DnCnn.architecture(128).unwrap(), 0);
        assert!(matches!(
            QuantizedNetwork::from_network_default(&cnn),
            Err(DnnError::Infeasible { .. })
        ));
    }

    #[test]
    fn int8_parameters_are_a_quarter_of_f32_bytes() {
        let net = small_network(4);
        let q = QuantizedNetwork::from_network_default(&net).unwrap();
        // Same parameter count; i8 weights store in a quarter of the
        // bytes (biases widen to i32 but are a rounding error).
        assert_eq!(
            q.parameter_count(),
            net.parameter_count(),
            "quantization preserves the parameter count"
        );
    }
}
