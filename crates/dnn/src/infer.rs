//! Forward-inference engine for the workload models.
//!
//! The analytic modules only count MACs; this module actually *runs*
//! the networks in `f32`, so the end-to-end examples can decode
//! synthetic neural data through the same architectures whose power
//! the framework bounds. Weights are initialized deterministically
//! (seeded, scaled uniform) — this repository models system cost, not
//! training.
//!
//! ## Execution engine
//!
//! [`Network`] executes through the blocked kernels of
//! [`crate::kernels`] and a reusable [`Workspace`] of double buffers:
//!
//! * [`Network::forward_into`] runs one sample with **zero heap
//!   allocations** once the workspace is warm — activations ping-pong
//!   between the workspace's two arenas, dense layers use a
//!   pre-transposed weight layout built at construction time, and the
//!   convolution hoists its padding checks out of the MAC loop.
//! * [`Network::forward`] keeps the original allocating signature; it
//!   borrows a thread-local workspace, so repeated calls allocate only
//!   the returned output vector.
//! * [`Network::forward_batch`] fans a batch of samples over the
//!   caller's [`Scheduler`], one workspace per worker, returning
//!   outputs in input order for any worker count.
//! * [`Network::forward_naive`] retains the original per-layer
//!   allocating loops as a property-test oracle and benchmark
//!   baseline, mirroring the skyline/naive pairing of the sweep
//!   engine.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mindful_core::pool::Scheduler;

use crate::arch::{Architecture, LayerSpec};
use crate::error::{DnnError, Result};
use crate::kernels;

/// A network with materialized weights, ready to run.
#[derive(Debug, Clone)]
pub struct Network {
    arch: Architecture,
    /// Per-layer weight tensors (layout documented per layer kind).
    weights: Vec<Vec<f32>>,
    /// Per-layer bias vectors (one per produced channel/unit).
    biases: Vec<Vec<f32>>,
    /// Transposed (`[input × output]`) copies of dense weight matrices,
    /// pre-packed for the blocked kernel; `None` for non-dense layers.
    dense_t: Vec<Option<Vec<f32>>>,
    /// Widest activation (input or output) across all layers — the
    /// arena size a [`Workspace`] needs.
    max_width: usize,
}

thread_local! {
    /// Per-thread scratch for the allocating [`Network::forward`]
    /// convenience wrapper, so repeated calls reuse warm arenas.
    static SCRATCH: RefCell<Workspace> = RefCell::new(Workspace::empty());
}

/// Reusable double-buffer arena for zero-allocation inference.
///
/// Holds two fixed-size scratch vectors that activations ping-pong
/// between. Build one with [`Network::workspace`] (pre-sized, so the
/// first forward is already allocation-free) or grow one lazily from
/// [`Workspace::empty`]. A workspace may be reused across networks;
/// it grows to the largest activation width it has seen and never
/// shrinks.
///
/// The same arena also backs the int8 path
/// ([`crate::quant::QuantizedNetwork::forward_into`]): the quantized
/// activations ping-pong between two `i8` arenas, accumulate into an
/// `i32` arena, and dequantize at the boundary into the `f32` arena —
/// all grown on first quantized use and reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    a: Vec<f32>,
    b: Vec<f32>,
    /// Quantized activation ping-pong arenas (int8 path only).
    pub(crate) qa: Vec<i8>,
    pub(crate) qb: Vec<i8>,
    /// Integer accumulator arena (int8 path only).
    pub(crate) acc: Vec<i32>,
}

impl Workspace {
    /// An empty workspace; arenas grow on first use.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Pre-sized workspace for activations up to `width` values.
    #[must_use]
    pub(crate) fn with_width(width: usize) -> Self {
        Self {
            a: vec![0.0; width],
            b: vec![0.0; width],
            ..Self::default()
        }
    }

    /// Grows both arenas to at least `width` (no-op when already wide
    /// enough — the warm path).
    fn ensure(&mut self, width: usize) {
        if self.a.len() < width {
            self.a.resize(width, 0.0);
            self.b.resize(width, 0.0);
        }
    }

    /// Grows the quantized arenas (and the `f32` output arena) to at
    /// least `width` — the int8 twin of [`Workspace::ensure`].
    pub(crate) fn ensure_quant(&mut self, width: usize) {
        self.ensure(width);
        if self.qa.len() < width {
            self.qa.resize(width, 0);
            self.qb.resize(width, 0);
            self.acc.resize(width, 0);
        }
    }

    /// Splits the workspace into the int8 path's working set: the two
    /// `i8` ping-pong arenas, the `i32` accumulator arena, and the
    /// `f32` arena the dequantized boundary output lands in.
    pub(crate) fn quant_arenas(&mut self) -> (&mut [i8], &mut [i8], &mut [i32], &mut [f32]) {
        (&mut self.qa, &mut self.qb, &mut self.acc, &mut self.a)
    }
}

impl Network {
    /// Materializes an architecture with seeded Xavier-style weights.
    #[must_use]
    pub fn with_seeded_weights(arch: Architecture, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights: Vec<Vec<f32>> = Vec::with_capacity(arch.len());
        let mut biases: Vec<Vec<f32>> = Vec::with_capacity(arch.len());
        for layer in arch.layers() {
            let count = layer.weights() as usize;
            let fan_in = fan_in(layer) as f32;
            let scale = (2.0 / fan_in.max(1.0)).sqrt();
            weights.push(
                (0..count)
                    .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
                    .collect(),
            );
            biases.push(vec![0.01; produced_channels(layer) as usize]);
        }
        let dense_t = arch
            .layers()
            .iter()
            .zip(&weights)
            .map(|(layer, w)| match *layer {
                LayerSpec::Dense { inputs, outputs } => Some(kernels::transpose_dense(
                    w,
                    inputs as usize,
                    outputs as usize,
                )),
                _ => None,
            })
            .collect();
        let max_width = arch
            .layers()
            .iter()
            .flat_map(|l| [l.input_values() as usize, l.output_values() as usize])
            .max()
            .unwrap_or(0);
        Self {
            arch,
            weights,
            biases,
            dense_t,
            max_width,
        }
    }

    /// The underlying architecture.
    #[must_use]
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// The weight tensor of layer `index` (row-major for dense layers).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range — the architecture defines the
    /// valid indices.
    #[must_use]
    pub fn layer_weights(&self, index: usize) -> &[f32] {
        &self.weights[index]
    }

    /// The bias vector of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub(crate) fn layer_biases(&self, index: usize) -> &[f32] {
        &self.biases[index]
    }

    /// Total stored parameters (weights + biases).
    ///
    /// Pre-packed dense layouts are copies, not extra parameters, and
    /// are not counted.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weights.iter().map(Vec::len).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// A [`Workspace`] pre-sized for this network, so even the first
    /// [`Network::forward_into`] call is allocation-free.
    #[must_use]
    pub fn workspace(&self) -> Workspace {
        Workspace::with_width(self.max_width)
    }

    /// Runs the network on a flattened input of
    /// [`Architecture::input_values`] values.
    ///
    /// ReLU is applied after every layer except the last (the label
    /// layer is linear, as in regression-style speech synthesis).
    ///
    /// Executes the blocked kernels through a thread-local workspace:
    /// after the workspace has warmed up, the only heap allocation per
    /// call is the returned output vector.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for a wrong input width.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>> {
        SCRATCH.with(|ws| {
            let mut ws = ws.borrow_mut();
            self.forward_into(input, &mut ws).map(<[f32]>::to_vec)
        })
    }

    /// [`Network::forward`] into a caller-provided workspace: zero heap
    /// allocations once `workspace` is warm (see [`Network::workspace`]).
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
        self.check_input(input)?;
        Ok(self.run_layers(input, self.arch.len(), false, workspace, |_, _| ()))
    }

    /// Runs the network on a batch of samples as a client of
    /// `scheduler` (chunked [`Scheduler::map_init`] dispatch), one warm
    /// workspace per worker.
    ///
    /// Outputs come back in input order and are bit-identical to
    /// per-sample [`Network::forward`] calls for any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] if any sample has the wrong
    /// width (checked up front, so the error names the first offending
    /// sample deterministically).
    pub fn forward_batch<S>(&self, inputs: &[S], scheduler: &Scheduler) -> Result<Vec<Vec<f32>>>
    where
        S: AsRef<[f32]> + Sync,
    {
        for sample in inputs {
            self.check_input(sample.as_ref())?;
        }
        Ok(scheduler.map_init(
            inputs,
            || self.workspace(),
            |ws, _, sample| {
                self.run_layers(sample.as_ref(), self.arch.len(), false, ws, |_, _| ())
                    .to_vec()
            },
        ))
    }

    /// The original naive forward pass: per-layer allocating loops with
    /// per-MAC padding checks. Retained as the property-test oracle and
    /// benchmark baseline for the blocked engine.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for a wrong input width.
    pub fn forward_naive(&self, input: &[f32]) -> Result<Vec<f32>> {
        self.check_input(input)?;
        let mut activation = input.to_vec();
        let last = self.arch.len() - 1;
        for (idx, layer) in self.arch.layers().iter().enumerate() {
            let raw = apply_layer_naive(layer, &activation, &self.weights[idx], &self.biases[idx]);
            activation = if idx == last {
                raw
            } else {
                raw.into_iter().map(|v| v.max(0.0)).collect()
            };
        }
        Ok(activation)
    }

    /// Runs the network on the on-implant prefix only, returning the
    /// intermediate activations a partitioned deployment would transmit.
    ///
    /// ReLU follows every executed layer except when the prefix is the
    /// whole network (`keep == len`): then the final layer stays linear
    /// and the result equals [`Network::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::EmptyDimension`] for an invalid prefix length
    /// and [`DnnError::ShapeMismatch`] for a wrong input width.
    pub fn forward_prefix(&self, input: &[f32], keep: usize) -> Result<Vec<f32>> {
        if keep == 0 || keep > self.arch.len() {
            return Err(DnnError::EmptyDimension { name: "keep" });
        }
        self.check_input(input)?;
        let relu_last = keep < self.arch.len();
        SCRATCH.with(|ws| {
            let mut ws = ws.borrow_mut();
            Ok(self
                .run_layers(input, keep, relu_last, &mut ws, |_, _| ())
                .to_vec())
        })
    }

    /// Runs every layer but the last, each followed by ReLU, and hands
    /// `visit(k, activations)` the input of every layer `k ≥ 1`: in one
    /// pass, the values [`Network::forward_prefix`]`(input, k)` returns
    /// for each `k < len`, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for a wrong input width.
    pub(crate) fn visit_boundaries(
        &self,
        input: &[f32],
        visit: impl FnMut(usize, &[f32]),
    ) -> Result<()> {
        self.check_input(input)?;
        SCRATCH.with(|ws| {
            let mut ws = ws.borrow_mut();
            self.run_layers(input, self.arch.len() - 1, true, &mut ws, visit);
        });
        Ok(())
    }

    fn check_input(&self, input: &[f32]) -> Result<()> {
        if input.len() as u64 != self.arch.input_values() {
            return Err(DnnError::ShapeMismatch {
                expected: self.arch.input_values() as usize,
                actual: input.len(),
            });
        }
        Ok(())
    }

    /// Executes the first `keep` layers through the blocked kernels.
    /// ReLU follows every layer but the last; `relu_last` extends it to
    /// the last executed layer (the partitioned-prefix semantics).
    /// `visit(idx + 1, out)` sees each layer's finished output.
    fn run_layers<'w>(
        &self,
        input: &[f32],
        keep: usize,
        relu_last: bool,
        workspace: &'w mut Workspace,
        mut visit: impl FnMut(usize, &[f32]),
    ) -> &'w [f32] {
        workspace.ensure(self.max_width.max(input.len()));
        let Workspace { a, b, .. } = workspace;
        let (mut cur, mut nxt) = (a, b);
        cur[..input.len()].copy_from_slice(input);
        let mut width = input.len();
        for idx in 0..keep {
            let layer = &self.arch.layers()[idx];
            let _layer_span = mindful_core::obs::span(layer_span_name(layer));
            let out_width = layer.output_values() as usize;
            self.apply_layer_blocked(idx, layer, &cur[..width], &mut nxt[..out_width]);
            if idx + 1 < keep || relu_last {
                for v in &mut nxt[..out_width] {
                    *v = v.max(0.0);
                }
            }
            visit(idx + 1, &nxt[..out_width]);
            core::mem::swap(&mut cur, &mut nxt);
            width = out_width;
        }
        &cur[..width]
    }

    /// Dispatches one layer to its blocked kernel, writing into `out`.
    fn apply_layer_blocked(&self, idx: usize, layer: &LayerSpec, input: &[f32], out: &mut [f32]) {
        let (weights, bias) = (&self.weights[idx], &self.biases[idx]);
        match *layer {
            LayerSpec::Dense { .. } => {
                let packed = self.dense_t[idx]
                    .as_deref()
                    .expect("dense layers pack a transposed layout at construction");
                kernels::dense_into(input, packed, bias, out);
            }
            LayerSpec::Conv1d {
                in_channels,
                out_channels,
                kernel,
                positions,
            } => kernels::conv1d_into(
                input,
                weights,
                bias,
                in_channels as usize,
                out_channels as usize,
                kernel as usize,
                positions as usize,
                out,
            ),
            LayerSpec::DenseConv1d {
                in_channels,
                growth,
                kernel,
                positions,
            } => {
                // Concatenation: passthrough channels first, then the
                // newly computed features — both straight into `out`.
                out[..input.len()].copy_from_slice(input);
                kernels::conv1d_into(
                    input,
                    weights,
                    bias,
                    in_channels as usize,
                    growth as usize,
                    kernel as usize,
                    positions as usize,
                    &mut out[input.len()..],
                );
            }
            LayerSpec::Pool1d {
                channels,
                in_positions,
                out_positions,
            } => kernels::pool1d_into(
                input,
                channels as usize,
                in_positions as usize,
                out_positions as usize,
                out,
            ),
        }
    }
}

/// Static span label for one layer kind (span names must be
/// `&'static str` so recording stays allocation-free).
fn layer_span_name(layer: &LayerSpec) -> &'static str {
    match layer {
        LayerSpec::Dense { .. } => "dnn.dense",
        LayerSpec::Conv1d { .. } => "dnn.conv1d",
        LayerSpec::DenseConv1d { .. } => "dnn.dense_conv1d",
        LayerSpec::Pool1d { .. } => "dnn.pool1d",
    }
}

/// Fan-in (inputs per produced value) of a layer, for weight scaling.
fn fan_in(layer: &LayerSpec) -> u64 {
    match *layer {
        LayerSpec::Dense { inputs, .. } => inputs,
        LayerSpec::Conv1d {
            in_channels,
            kernel,
            ..
        }
        | LayerSpec::DenseConv1d {
            in_channels,
            kernel,
            ..
        } => in_channels * kernel,
        LayerSpec::Pool1d {
            in_positions,
            out_positions,
            ..
        } => in_positions / out_positions.max(1),
    }
}

/// Channels/units that receive a bias in this layer.
fn produced_channels(layer: &LayerSpec) -> u64 {
    match *layer {
        LayerSpec::Dense { outputs, .. } => outputs,
        LayerSpec::Conv1d { out_channels, .. } => out_channels,
        LayerSpec::DenseConv1d { growth, .. } => growth,
        LayerSpec::Pool1d { .. } => 0,
    }
}

/// Applies one layer with the naive oracle kernels. Activations are
/// channel-major (`ch · positions + pos`) for convolutional layers and
/// flat vectors for dense layers.
fn apply_layer_naive(layer: &LayerSpec, input: &[f32], weights: &[f32], bias: &[f32]) -> Vec<f32> {
    match *layer {
        LayerSpec::Dense { outputs, .. } => {
            kernels::dense_naive(input, weights, bias, outputs as usize)
        }
        LayerSpec::Conv1d {
            in_channels,
            out_channels,
            kernel,
            positions,
        } => kernels::conv1d_naive(
            input,
            weights,
            bias,
            in_channels as usize,
            out_channels as usize,
            kernel as usize,
            positions as usize,
        ),
        LayerSpec::DenseConv1d {
            in_channels,
            growth,
            kernel,
            positions,
        } => {
            let new = kernels::conv1d_naive(
                input,
                weights,
                bias,
                in_channels as usize,
                growth as usize,
                kernel as usize,
                positions as usize,
            );
            // Concatenate the input channels with the new features.
            let mut out = Vec::with_capacity(input.len() + new.len());
            out.extend_from_slice(input);
            out.extend_from_slice(&new);
            out
        }
        LayerSpec::Pool1d {
            channels,
            in_positions,
            out_positions,
        } => {
            let mut out = vec![0.0_f32; (channels * out_positions) as usize];
            kernels::pool1d_into(
                input,
                channels as usize,
                in_positions as usize,
                out_positions as usize,
                &mut out,
            );
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ModelFamily, BASE_CHANNELS, OUTPUT_LABELS};
    use std::num::NonZeroUsize;

    #[test]
    fn mlp_forward_produces_forty_labels() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 7);
        let input = vec![0.5_f32; BASE_CHANNELS as usize];
        let out = net.forward(&input).unwrap();
        assert_eq!(out.len(), OUTPUT_LABELS as usize);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dn_cnn_forward_produces_forty_labels() {
        let arch = ModelFamily::DnCnn.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 7);
        let input = vec![0.1_f32; net.architecture().input_values() as usize];
        let out = net.forward(&input).unwrap();
        assert_eq!(out.len(), OUTPUT_LABELS as usize);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn inference_is_deterministic_per_seed() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let a = Network::with_seeded_weights(arch.clone(), 42);
        let b = Network::with_seeded_weights(arch.clone(), 42);
        let c = Network::with_seeded_weights(arch, 43);
        let input: Vec<f32> = (0..128).map(|i| (i as f32) / 128.0).collect();
        assert_eq!(a.forward(&input).unwrap(), b.forward(&input).unwrap());
        assert_ne!(a.forward(&input).unwrap(), c.forward(&input).unwrap());
    }

    #[test]
    fn different_inputs_give_different_outputs() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 1);
        let x = vec![0.2_f32; 128];
        let y = vec![0.8_f32; 128];
        assert_ne!(net.forward(&x).unwrap(), net.forward(&y).unwrap());
    }

    #[test]
    fn blocked_forward_matches_naive_oracle() {
        for family in ModelFamily::ALL {
            let arch = family.architecture(BASE_CHANNELS).unwrap();
            let net = Network::with_seeded_weights(arch, 5);
            let width = net.architecture().input_values() as usize;
            let input: Vec<f32> = (0..width).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect();
            let fast = net.forward(&input).unwrap();
            let naive = net.forward_naive(&input).unwrap();
            assert_eq!(fast.len(), naive.len());
            for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
                let tol = 1e-4 * a.abs().max(b.abs()).max(1.0);
                assert!((a - b).abs() <= tol, "{family} output {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_into_reuses_the_workspace() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 11);
        let mut ws = net.workspace();
        let input = vec![0.3_f32; 128];
        let first = net.forward_into(&input, &mut ws).unwrap().to_vec();
        let second = net.forward_into(&input, &mut ws).unwrap().to_vec();
        assert_eq!(first, second);
        assert_eq!(first, net.forward(&input).unwrap());
        // An empty workspace grows on demand and then agrees too.
        let mut cold = Workspace::empty();
        assert_eq!(cold.a.len(), 0);
        assert_eq!(net.forward_into(&input, &mut cold).unwrap(), &first[..]);
        assert!(cold.a.len() >= 128);
    }

    fn sched(workers: usize) -> Scheduler {
        Scheduler::new(NonZeroUsize::new(workers).unwrap())
    }

    #[test]
    fn forward_batch_matches_mapped_forward() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 21);
        let batch: Vec<Vec<f32>> = (0..7)
            .map(|s| (0..128).map(|i| ((i + s) as f32).sin()).collect())
            .collect();
        let expect: Vec<Vec<f32>> = batch.iter().map(|x| net.forward(x).unwrap()).collect();
        for workers in [1_usize, 2, 3, 8] {
            let got = net.forward_batch(&batch, &sched(workers)).unwrap();
            assert_eq!(got, expect, "{workers} workers");
        }
        let default = Scheduler::with_default_threads();
        assert_eq!(net.forward_batch(&batch, &default).unwrap(), expect);
        let empty: Vec<Vec<f32>> = Vec::new();
        assert!(net.forward_batch(&empty, &default).unwrap().is_empty());
    }

    #[test]
    fn forward_batch_dispatches_on_the_given_scheduler() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 21);
        let batch: Vec<Vec<f32>> = (0..7)
            .map(|s| (0..128).map(|i| ((i + s) as f32).sin()).collect())
            .collect();
        for workers in [1_usize, 3] {
            let scheduler = sched(workers);
            net.forward_batch(&batch, &scheduler).unwrap();
            let stats = scheduler.stats();
            assert_eq!((stats.epochs, stats.tasks), (1, batch.len() as u64));
        }
        // A rejected batch is refused before any dispatch.
        let scheduler = sched(1);
        assert!(net
            .forward_batch(&[vec![0.0_f32; 127]], &scheduler)
            .is_err());
        assert_eq!(scheduler.stats().tasks, 0);
    }

    #[test]
    fn forward_batch_rejects_any_bad_sample() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 2);
        let batch = vec![vec![0.0_f32; 128], vec![0.0_f32; 127]];
        assert!(matches!(
            net.forward_batch(&batch, &Scheduler::with_default_threads()),
            Err(DnnError::ShapeMismatch {
                expected: 128,
                actual: 127
            })
        ));
    }

    #[test]
    fn prefix_matches_manual_truncation() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch.clone(), 9);
        let input: Vec<f32> = (0..128).map(|i| (i as f32 % 5.0) / 5.0).collect();
        let mid = net.forward_prefix(&input, 2).unwrap();
        assert_eq!(mid.len() as u64, arch.layers()[1].output_values());
        assert!(mid.iter().all(|&v| v >= 0.0), "prefix output is post-ReLU");
    }

    #[test]
    fn full_prefix_equals_forward() {
        // Regression: the whole-network "prefix" must not ReLU the
        // final linear layer.
        for family in ModelFamily::ALL {
            let arch = family.architecture(BASE_CHANNELS).unwrap();
            let net = Network::with_seeded_weights(arch.clone(), 13);
            let width = arch.input_values() as usize;
            let input: Vec<f32> = (0..width).map(|i| ((i as f32) * 0.37).cos()).collect();
            let full = net.forward(&input).unwrap();
            let prefix = net.forward_prefix(&input, arch.len()).unwrap();
            assert_eq!(full, prefix, "{family}");
            assert!(
                full.iter().any(|&v| v < 0.0),
                "{family}: a linear label layer should produce some negative \
                 outputs for this input (otherwise the regression is vacuous)"
            );
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 3);
        assert!(matches!(
            net.forward(&vec![0.0; 127]),
            Err(DnnError::ShapeMismatch {
                expected: 128,
                actual: 127
            })
        ));
        assert!(net.forward_naive(&vec![0.0; 127]).is_err());
        assert!(net.forward_prefix(&vec![0.0; 128], 0).is_err());
        assert!(net.forward_prefix(&vec![0.0; 128], 99).is_err());
    }

    #[test]
    fn forward_batch_records_one_span_per_layer_per_sample() {
        use mindful_core::obs::{clear_spans, drain_spans};

        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, 21);
        let batch: Vec<Vec<f32>> = (0..5)
            .map(|s| (0..128).map(|i| ((i + s) as f32).sin()).collect())
            .collect();
        let one = sched(1);
        clear_spans();
        let got = net.forward_batch(&batch, &one).unwrap();
        // Single-threaded, so the per-layer spans landed on this
        // thread: one per MLP layer per sample.
        let mut spans = Vec::new();
        assert_eq!(drain_spans(&mut spans), 0);
        let dense = spans.iter().filter(|r| r.name == "dnn.dense").count();
        assert_eq!(
            dense,
            net.architecture().len() * batch.len(),
            "one span per dense layer per sample"
        );
        assert_eq!(dense, spans.len(), "an MLP has only dense layers");
        for (sample, out) in batch.iter().zip(&got) {
            assert_eq!(out, &net.forward(sample).unwrap());
        }
    }

    #[test]
    fn parameter_count_matches_architecture_weights() {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let weights = arch.weights() as usize;
        let net = Network::with_seeded_weights(arch, 0);
        assert!(net.parameter_count() >= weights);
        // Biases are small relative to weights.
        assert!(net.parameter_count() < weights + weights / 10 + 10_000);
    }
}
