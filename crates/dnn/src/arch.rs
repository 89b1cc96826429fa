//! DNN architecture descriptions.
//!
//! An [`Architecture`] is an ordered list of layers with checked
//! activation widths. It knows how to decompose itself into the MAC
//! workload of Eq. 10 (`f_MAC`), how many weights it stores, and the
//! size of every intermediate activation (needed by the partitioning
//! study of Section 6.1).

use core::fmt;

use mindful_accel::workload::{MacWorkload, NetworkWorkload};

use crate::error::{DnnError, Result};

/// One layer of a BCI decoding network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LayerSpec {
    /// Fully-connected layer with ReLU.
    Dense {
        /// Input width.
        inputs: u64,
        /// Output width.
        outputs: u64,
    },
    /// 1-D convolution over a fixed time window with ReLU; `positions`
    /// output positions per filter ("same" padding is the caller's
    /// concern — only the arithmetic shape matters here).
    Conv1d {
        /// Input channel count.
        in_channels: u64,
        /// Filter count.
        out_channels: u64,
        /// Kernel width.
        kernel: u64,
        /// Output positions per filter.
        positions: u64,
    },
    /// A densely-connected (DenseNet-style) convolution: computes
    /// `growth` new feature channels from `in_channels` and
    /// *concatenates* them onto its input, so the layer outputs
    /// `in_channels + growth` channels.
    DenseConv1d {
        /// Input (cumulative concatenated) channel count.
        in_channels: u64,
        /// New feature channels computed by this layer.
        growth: u64,
        /// Kernel width.
        kernel: u64,
        /// Positions per channel (unchanged by the layer).
        positions: u64,
    },
    /// Average pooling over the position axis (no weights; one add per
    /// pooled input value).
    Pool1d {
        /// Channel count (unchanged).
        channels: u64,
        /// Input positions per channel.
        in_positions: u64,
        /// Output positions per channel; must divide `in_positions`.
        out_positions: u64,
    },
}

impl LayerSpec {
    /// Activation values this layer consumes.
    #[must_use]
    pub(crate) fn input_values(&self) -> u64 {
        match *self {
            Self::Dense { inputs, .. } => inputs,
            Self::Conv1d {
                in_channels,
                positions,
                ..
            } => in_channels * positions,
            Self::DenseConv1d {
                in_channels,
                positions,
                ..
            } => in_channels * positions,
            Self::Pool1d {
                channels,
                in_positions,
                ..
            } => channels * in_positions,
        }
    }

    /// Activation values this layer produces.
    #[must_use]
    pub(crate) fn output_values(&self) -> u64 {
        match *self {
            Self::Dense { outputs, .. } => outputs,
            Self::Conv1d {
                out_channels,
                positions,
                ..
            } => out_channels * positions,
            Self::DenseConv1d {
                in_channels,
                growth,
                positions,
                ..
            } => (in_channels + growth) * positions,
            Self::Pool1d {
                channels,
                out_positions,
                ..
            } => channels * out_positions,
        }
    }

    /// Stored weights (parameters) of the layer.
    #[must_use]
    pub(crate) fn weights(&self) -> u64 {
        match *self {
            Self::Dense { inputs, outputs } => inputs * outputs,
            Self::Conv1d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => in_channels * out_channels * kernel,
            Self::DenseConv1d {
                in_channels,
                growth,
                kernel,
                ..
            } => in_channels * growth * kernel,
            Self::Pool1d { .. } => 0,
        }
    }

    /// Total multiply-accumulate steps per inference.
    #[must_use]
    pub(crate) fn macs(&self) -> u64 {
        match *self {
            Self::Dense { inputs, outputs } => inputs * outputs,
            Self::Conv1d {
                in_channels,
                out_channels,
                kernel,
                positions,
            } => in_channels * out_channels * kernel * positions,
            Self::DenseConv1d {
                in_channels,
                growth,
                kernel,
                positions,
            } => in_channels * growth * kernel * positions,
            Self::Pool1d {
                channels,
                in_positions,
                ..
            } => channels * in_positions,
        }
    }

    /// The layer's MAC decomposition (Eq. 10 / Fig. 8).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::EmptyDimension`] for zero-sized layers.
    pub fn workload(&self) -> Result<MacWorkload> {
        let w = match *self {
            Self::Dense { inputs, outputs } => MacWorkload::dense(inputs, outputs),
            Self::Conv1d {
                in_channels,
                out_channels,
                kernel,
                positions,
            } => MacWorkload::conv1d(in_channels, out_channels, kernel, positions),
            Self::DenseConv1d {
                in_channels,
                growth,
                kernel,
                positions,
            } => {
                // Only the `growth` new channels are computed; the
                // concatenated passthrough is free. The full concatenated
                // tensor is what downstream layers (and partitioning)
                // see as the output.
                MacWorkload::new(
                    growth * positions,
                    kernel * in_channels,
                    (in_channels + growth) * positions,
                )
            }
            Self::Pool1d {
                channels,
                in_positions,
                out_positions,
            } => {
                if out_positions == 0 || in_positions == 0 || in_positions % out_positions != 0 {
                    return Err(DnnError::EmptyDimension {
                        name: "pool positions",
                    });
                }
                // One accumulation chain per pooled output value.
                MacWorkload::new(
                    channels * out_positions,
                    in_positions / out_positions,
                    channels * out_positions,
                )
            }
        };
        w.map_err(|_| DnnError::EmptyDimension {
            name: "layer dimension",
        })
    }
}

impl fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Dense { inputs, outputs } => write!(f, "dense {inputs}->{outputs}"),
            Self::Conv1d {
                in_channels,
                out_channels,
                kernel,
                positions,
            } => write!(
                f,
                "conv1d {in_channels}ch->{out_channels}ch k{kernel} p{positions}"
            ),
            Self::DenseConv1d {
                in_channels,
                growth,
                kernel,
                positions,
            } => write!(
                f,
                "dense-conv1d {in_channels}ch+{growth} k{kernel} p{positions}"
            ),
            Self::Pool1d {
                channels,
                in_positions,
                out_positions,
            } => write!(f, "pool1d {channels}ch {in_positions}->{out_positions}"),
        }
    }
}

/// A width-checked feed-forward network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    name: String,
    layers: Vec<LayerSpec>,
}

impl Architecture {
    /// Creates an architecture, validating that consecutive layers agree
    /// on activation widths.
    ///
    /// # Errors
    ///
    /// * [`DnnError::EmptyDimension`] for an empty layer list or any
    ///   zero-sized layer.
    /// * [`DnnError::LayerMismatch`] when layer `i`'s output width is not
    ///   layer `i+1`'s input width.
    pub fn new(name: impl Into<String>, layers: Vec<LayerSpec>) -> Result<Self> {
        if layers.is_empty() {
            return Err(DnnError::EmptyDimension { name: "layers" });
        }
        for layer in &layers {
            layer.workload()?; // validates nonzero dims
        }
        for pair in layers.windows(2) {
            let produced = pair[0].output_values();
            let expected = pair[1].input_values();
            if produced != expected {
                return Err(DnnError::LayerMismatch { produced, expected });
            }
        }
        Ok(Self {
            name: name.into(),
            layers,
        })
    }

    /// The architecture's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers in execution order.
    #[must_use]
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether there are no layers (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Input width of the network.
    #[must_use]
    pub fn input_values(&self) -> u64 {
        self.layers[0].input_values()
    }

    /// Output width of the network.
    #[must_use]
    pub fn output_values(&self) -> u64 {
        self.layers[self.layers.len() - 1].output_values()
    }

    /// Total stored weights (the paper's "model size").
    #[must_use]
    pub fn weights(&self) -> u64 {
        self.layers.iter().map(LayerSpec::weights).sum()
    }

    /// Total MAC steps per inference.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(LayerSpec::macs).sum()
    }

    /// The full network's MAC workload (`f_MAC` of Eq. 10).
    ///
    /// # Errors
    ///
    /// Never fails for a constructed architecture; fallible for API
    /// uniformity.
    pub fn workload(&self) -> Result<NetworkWorkload> {
        workload_of(&self.layers)
    }

    /// The architecture truncated to its first `keep` layers (the
    /// on-implant part after DNN partitioning).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::EmptyDimension`] for `keep == 0` or `keep >
    /// len`.
    pub fn prefix(&self, keep: usize) -> Result<Self> {
        if keep == 0 || keep > self.layers.len() {
            return Err(DnnError::EmptyDimension { name: "keep" });
        }
        Ok(Self {
            name: format!("{}[..{keep}]", self.name),
            layers: self.layers[..keep].to_vec(),
        })
    }
}

/// The MAC workload of a layer table (or of a prefix of one).
pub(crate) fn workload_of(layers: &[LayerSpec]) -> Result<NetworkWorkload> {
    let layers = layers
        .iter()
        .map(LayerSpec::workload)
        .collect::<Result<Vec<_>>>()?;
    NetworkWorkload::new(layers).map_err(DnnError::from)
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} layers, {} -> {}, {} weights, {} MACs",
            self.name,
            self.len(),
            self.input_values(),
            self.output_values(),
            self.weights(),
            self.macs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mlp() -> Architecture {
        Architecture::new(
            "test-mlp",
            vec![
                LayerSpec::Dense {
                    inputs: 128,
                    outputs: 64,
                },
                LayerSpec::Dense {
                    inputs: 64,
                    outputs: 40,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn dense_layer_arithmetic() {
        let l = LayerSpec::Dense {
            inputs: 128,
            outputs: 64,
        };
        assert_eq!(l.input_values(), 128);
        assert_eq!(l.output_values(), 64);
        assert_eq!(l.weights(), 8192);
        assert_eq!(l.macs(), 8192);
    }

    #[test]
    fn conv_layer_arithmetic() {
        let l = LayerSpec::Conv1d {
            in_channels: 16,
            out_channels: 32,
            kernel: 3,
            positions: 8,
        };
        assert_eq!(l.input_values(), 128);
        assert_eq!(l.output_values(), 256);
        assert_eq!(l.weights(), 16 * 32 * 3);
        assert_eq!(l.macs(), 16 * 32 * 3 * 8);
        let w = l.workload().unwrap();
        assert_eq!(w.ops(), 256);
        assert_eq!(w.seq(), 48);
    }

    #[test]
    fn network_aggregates() {
        let net = mlp();
        assert_eq!(net.len(), 2);
        assert_eq!(net.input_values(), 128);
        assert_eq!(net.output_values(), 40);
        assert_eq!(net.weights(), 128 * 64 + 64 * 40);
        assert_eq!(net.macs(), net.weights());
        let w = net.workload().unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.final_outputs(), 40);
    }

    #[test]
    fn mismatched_widths_are_rejected() {
        let err = Architecture::new(
            "bad",
            vec![
                LayerSpec::Dense {
                    inputs: 128,
                    outputs: 64,
                },
                LayerSpec::Dense {
                    inputs: 65,
                    outputs: 40,
                },
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            DnnError::LayerMismatch {
                produced: 64,
                expected: 65
            }
        );
    }

    #[test]
    fn conv_to_dense_width_check() {
        // Conv producing 256 values feeds a dense of 256 inputs.
        let ok = Architecture::new(
            "cnn",
            vec![
                LayerSpec::Conv1d {
                    in_channels: 16,
                    out_channels: 32,
                    kernel: 3,
                    positions: 8,
                },
                LayerSpec::Dense {
                    inputs: 256,
                    outputs: 40,
                },
            ],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn empty_and_zero_layers_rejected() {
        assert!(Architecture::new("x", vec![]).is_err());
        assert!(Architecture::new(
            "x",
            vec![LayerSpec::Dense {
                inputs: 0,
                outputs: 4
            }]
        )
        .is_err());
    }

    #[test]
    fn prefix_keeps_early_layers() {
        let net = mlp();
        let head = net.prefix(1).unwrap();
        assert_eq!(head.len(), 1);
        assert_eq!(head.output_values(), 64);
        assert!(net.prefix(0).is_err());
        assert!(net.prefix(3).is_err());
    }

    #[test]
    fn display_is_informative() {
        let text = mlp().to_string();
        assert!(text.contains("test-mlp"));
        assert!(text.contains("2 layers"));
        assert!(text.contains("128 -> 40"));
        assert_eq!(
            LayerSpec::Dense {
                inputs: 3,
                outputs: 2
            }
            .to_string(),
            "dense 3->2"
        );
    }
}
