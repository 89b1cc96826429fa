//! MAC workload descriptions (Section 5.3, Fig. 8).
//!
//! A DNN layer decomposes into `#MACop` *independent* multiply-accumulate
//! sequences, each `MACseq` steps long. All sequences of one layer can
//! run in parallel; steps within a sequence are serial. A network is then
//! just an ordered list of per-layer workloads, plus the output size of
//! each layer (needed by the DNN-partitioning analysis of Section 6.1).

use core::fmt;

use crate::error::{AccelError, Result};

/// The MAC decomposition of one DNN layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacWorkload {
    ops: u64,
    seq: u64,
    outputs: u64,
}

impl MacWorkload {
    /// Creates a layer workload of `ops` independent sequences of length
    /// `seq`, producing `outputs` digitized output values.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::EmptyWorkload`] if any field is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mindful_accel::workload::MacWorkload;
    ///
    /// // Fig. 8 (top): A(4×3) · B(3×4) per-row decomposition:
    /// // 4 independent MAC sequences of 3 steps each.
    /// let layer = MacWorkload::new(4, 3, 4)?;
    /// assert_eq!(layer.total_macs(), 12);
    /// # Ok::<(), mindful_accel::AccelError>(())
    /// ```
    pub fn new(ops: u64, seq: u64, outputs: u64) -> Result<Self> {
        if ops == 0 || seq == 0 || outputs == 0 {
            return Err(AccelError::EmptyWorkload);
        }
        Ok(Self { ops, seq, outputs })
    }

    /// The workload of a fully-connected layer mapping `inputs` values to
    /// `outputs` values: one sequence per output, each `inputs` steps.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::EmptyWorkload`] if either size is zero.
    pub fn dense(inputs: u64, outputs: u64) -> Result<Self> {
        Self::new(outputs, inputs, outputs)
    }

    /// The workload of a 1-D convolution with `in_channels × positions`
    /// input, `out_channels` filters of width `kernel`: every output
    /// element is an independent sequence of `kernel · in_channels`
    /// steps.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::EmptyWorkload`] if any dimension is zero.
    pub fn conv1d(
        in_channels: u64,
        out_channels: u64,
        kernel: u64,
        output_positions: u64,
    ) -> Result<Self> {
        let outputs = out_channels
            .checked_mul(output_positions)
            .ok_or(AccelError::EmptyWorkload)?;
        Self::new(outputs, kernel * in_channels, outputs)
    }

    /// Number of independent MAC sequences (`#MACop`).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Steps per sequence (`MACseq`).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Digitized output values this layer produces (`n_out` for the last
    /// layer; intermediate activation counts for partitioning).
    #[must_use]
    pub(crate) fn outputs(&self) -> u64 {
        self.outputs
    }

    /// Total multiply-accumulate steps: `#MACop × MACseq`.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.ops.saturating_mul(self.seq)
    }
}

impl fmt::Display for MacWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops x {} steps ({} outputs)",
            self.ops, self.seq, self.outputs
        )
    }
}

/// An ordered multi-layer MAC workload (one entry per DNN layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkWorkload {
    layers: Vec<MacWorkload>,
}

impl NetworkWorkload {
    /// Creates a network from per-layer workloads.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::EmptyWorkload`] for an empty layer list.
    pub fn new(layers: Vec<MacWorkload>) -> Result<Self> {
        if layers.is_empty() {
            return Err(AccelError::EmptyWorkload);
        }
        Ok(Self { layers })
    }

    /// The per-layer workloads in execution order.
    #[must_use]
    pub fn layers(&self) -> &[MacWorkload] {
        &self.layers
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers (never true for a constructed
    /// value; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total MAC steps across all layers.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(MacWorkload::total_macs).sum()
    }

    /// Output size of the final layer (`n_out` of Eq. 8).
    #[must_use]
    pub fn final_outputs(&self) -> u64 {
        self.layers.last().map_or(0, MacWorkload::outputs)
    }

    /// The network truncated after `keep` layers (for DNN partitioning):
    /// the implant runs layers `0..keep`, the wearable runs the rest.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::EmptyWorkload`] when `keep` is zero or
    /// exceeds the layer count.
    pub fn prefix(&self, keep: usize) -> Result<Self> {
        if keep == 0 || keep > self.layers.len() {
            return Err(AccelError::EmptyWorkload);
        }
        Ok(Self {
            layers: self.layers[..keep].to_vec(),
        })
    }

    /// The largest `#MACop` across layers — the maximum useful number of
    /// shared MAC units for non-pipelined execution (Eq. 12).
    #[must_use]
    pub fn max_ops(&self) -> u64 {
        self.layers.iter().map(MacWorkload::ops).max().unwrap_or(0)
    }
}

impl fmt::Display for NetworkWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} layers, {} MACs total, {} outputs",
            self.len(),
            self.total_macs(),
            self.final_outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_matrix_example() {
        // A(4×3) · B(3×4): #MACop = 4, MACseq = 3.
        let w = MacWorkload::new(4, 3, 4).unwrap();
        assert_eq!(w.ops(), 4);
        assert_eq!(w.seq(), 3);
        assert_eq!(w.total_macs(), 12);
    }

    #[test]
    fn dense_layer_shape() {
        let w = MacWorkload::dense(256, 40).unwrap();
        assert_eq!(w.ops(), 40);
        assert_eq!(w.seq(), 256);
        assert_eq!(w.outputs(), 40);
        assert_eq!(w.total_macs(), 256 * 40);
    }

    #[test]
    fn conv1d_layer_shape() {
        // 2 in-channels, 1 out-channel, kernel 4, 4 output positions.
        let w = MacWorkload::conv1d(2, 1, 4, 4).unwrap();
        assert_eq!(w.ops(), 4);
        assert_eq!(w.seq(), 8);
        assert_eq!(w.outputs(), 4);
        assert_eq!(w.total_macs(), 32);
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(MacWorkload::new(0, 1, 1).is_err());
        assert!(MacWorkload::new(1, 0, 1).is_err());
        assert!(MacWorkload::new(1, 1, 0).is_err());
        assert!(MacWorkload::dense(0, 10).is_err());
        assert!(MacWorkload::conv1d(1, 0, 3, 8).is_err());
    }

    #[test]
    fn network_aggregates() {
        let net = NetworkWorkload::new(vec![
            MacWorkload::dense(128, 64).unwrap(),
            MacWorkload::dense(64, 40).unwrap(),
        ])
        .unwrap();
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.total_macs(), 128 * 64 + 64 * 40);
        assert_eq!(net.final_outputs(), 40);
        assert_eq!(net.max_ops(), 64);
    }

    #[test]
    fn prefix_truncates_for_partitioning() {
        let net = NetworkWorkload::new(vec![
            MacWorkload::dense(128, 64).unwrap(),
            MacWorkload::dense(64, 32).unwrap(),
            MacWorkload::dense(32, 40).unwrap(),
        ])
        .unwrap();
        let head = net.prefix(2).unwrap();
        assert_eq!(head.len(), 2);
        assert_eq!(head.final_outputs(), 32);
        assert!(net.prefix(0).is_err());
        assert!(net.prefix(4).is_err());
        assert_eq!(net.prefix(3).unwrap(), net);
    }

    #[test]
    fn empty_network_rejected() {
        assert!(NetworkWorkload::new(vec![]).is_err());
    }

    #[test]
    fn display_formats() {
        let w = MacWorkload::dense(8, 4).unwrap();
        assert_eq!(w.to_string(), "4 ops x 8 steps (4 outputs)");
        let net = NetworkWorkload::new(vec![w]).unwrap();
        assert!(net.to_string().contains("1 layers"));
    }
}
