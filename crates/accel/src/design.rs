//! The layer-accelerator architecture and its power model (Fig. 9).
//!
//! The accelerator executes one DNN layer with `MAChw` processing
//! elements (PEs). Each PE bundles a MAC unit, a ReLU, a small FSM, and a
//! ROM holding its statically-assigned weights (weight-stationary,
//! non-Von-Neumann — no CPU, no shared memory). A dataflow FSM streams
//! inputs through staging registers and time-multiplexes `#MACop`
//! independent sequences over the PEs.
//!
//! Power decomposes into the PE array and the layer-level wrapper
//! (dataflow FSM, clock spine, I/O staging registers). The paper's
//! synthesis study (Fig. 9) shows the PE share rising from ~25 % in small
//! designs to >90 % in large ones — the behaviour this model reproduces
//! from per-component costs.

use core::fmt;

use mindful_core::units::Power;

use crate::error::{AccelError, Result};
use crate::tech::TechnologyNode;
use crate::workload::MacWorkload;

/// Minimum width (in 8-bit registers) of the input/output staging
/// buffers; wider PE arrays need proportionally wider staging.
const MIN_STAGING_WIDTH: u64 = 16;

/// A synthesized layer-accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorDesign {
    node: TechnologyNode,
    mac_hw: u64,
    mac_seq: u64,
    mac_ops: u64,
}

impl AcceleratorDesign {
    /// Creates a design with `mac_hw` PEs executing a layer of `mac_ops`
    /// sequences of `mac_seq` steps.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidParameter`] when any count is zero.
    pub fn new(node: TechnologyNode, mac_hw: u64, mac_seq: u64, mac_ops: u64) -> Result<Self> {
        for (name, v) in [("MAChw", mac_hw), ("MACseq", mac_seq), ("#MACop", mac_ops)] {
            if v == 0 {
                return Err(AccelError::InvalidParameter { name, value: 0.0 });
            }
        }
        Ok(Self {
            node,
            mac_hw,
            mac_seq,
            mac_ops,
        })
    }

    /// A design sized for a layer workload with a chosen PE count.
    ///
    /// # Errors
    ///
    /// Same as [`AcceleratorDesign::new`].
    pub fn for_workload(node: TechnologyNode, workload: MacWorkload, mac_hw: u64) -> Result<Self> {
        Self::new(node, mac_hw, workload.seq(), workload.ops())
    }

    /// Number of PEs (`MAChw`).
    #[must_use]
    pub fn mac_hw(&self) -> u64 {
        self.mac_hw
    }

    /// Sequence length (`MACseq`), which sets each PE's ROM depth.
    #[must_use]
    pub fn mac_seq(&self) -> u64 {
        self.mac_seq
    }

    /// Independent sequences in the layer (`#MACop`).
    #[must_use]
    pub fn mac_ops(&self) -> u64 {
        self.mac_ops
    }

    /// Power of one PE: MAC + ReLU + PE FSM + weight ROM of `MACseq`
    /// words.
    #[must_use]
    pub(crate) fn pe_power(&self) -> Power {
        self.node.mac_power()
            + self.node.relu_power()
            + self.node.pe_fsm_power()
            + self.node.rom_word_power() * self.mac_seq as f64
    }

    /// Power of the whole PE array.
    #[must_use]
    pub fn pe_array_power(&self) -> Power {
        self.pe_power() * self.mac_hw as f64
    }

    /// Width of each staging buffer in 8-bit registers.
    #[must_use]
    pub(crate) fn staging_width(&self) -> u64 {
        self.mac_hw.max(MIN_STAGING_WIDTH)
    }

    /// Power of everything outside the PEs: dataflow FSM, clock spine,
    /// and input/output staging registers.
    #[must_use]
    pub(crate) fn wrapper_power(&self) -> Power {
        let staging = self.node.register_power() * (2 * self.staging_width()) as f64;
        let dataflow = self.node.dataflow_per_pe_power() * self.mac_hw as f64;
        self.node.layer_base_power() + staging + dataflow
    }

    /// Total layer power (the "Layer Power" series of Fig. 9).
    #[must_use]
    pub fn layer_power(&self) -> Power {
        self.pe_array_power() + self.wrapper_power()
    }

    /// Fraction of total power consumed by the PE array (the
    /// "PE Power / Layer Power" series of Fig. 9).
    #[must_use]
    pub fn pe_share(&self) -> f64 {
        self.pe_array_power() / self.layer_power()
    }

    /// Cycles to execute the layer: `MACseq · ⌈#MACop / MAChw⌉` (Eq. 11
    /// divided by `t_MAC`).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.mac_seq * self.mac_ops.div_ceil(self.mac_hw)
    }

    /// Wall-clock latency of the layer at the node's MAC latency.
    #[must_use]
    pub fn latency(&self) -> mindful_core::units::TimeSpan {
        self.node.mac_latency() * self.cycles() as f64
    }
}

impl fmt::Display for AcceleratorDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: MAChw {}, MACseq {}, #MACop {} -> {:.3} mW ({:.0}% PE)",
            self.node.name(),
            self.mac_hw,
            self.mac_seq,
            self.mac_ops,
            self.layer_power().milliwatts(),
            self.pe_share() * 100.0
        )
    }
}

/// The twelve design points of the Fig. 9 synthesis study
/// (`(MACseq, MAChw, #MACop)` per row, 130 nm, 100 MHz, 8-bit).
pub(crate) const FIG9_CONFIGS: [(u64, u64, u64); 12] = [
    (256, 4, 4),
    (256, 4, 8),
    (256, 4, 16),
    (256, 4, 32),
    (256, 4, 64),
    (256, 8, 64),
    (256, 16, 64),
    (256, 32, 64),
    (256, 64, 64),
    (512, 128, 128),
    (1024, 256, 256),
    (2048, 512, 512),
];

/// Builds the twelve Fig. 9 design points at 130 nm.
#[must_use]
pub fn fig9_design_points() -> Vec<AcceleratorDesign> {
    FIG9_CONFIGS
        .iter()
        .map(|&(seq, hw, ops)| {
            AcceleratorDesign::new(TechnologyNode::TSMC_130NM, hw, seq, ops)
                .expect("table configs are valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_design_points() {
        let points = fig9_design_points();
        assert_eq!(points.len(), 12);
        assert_eq!(points[0].mac_hw(), 4);
        assert_eq!(points[11].mac_seq(), 2048);
    }

    #[test]
    fn small_designs_have_low_pe_share() {
        // Fig. 9: designs 1–5 stay around 25 % PE share.
        for design in &fig9_design_points()[..5] {
            let share = design.pe_share();
            assert!((0.15..=0.35).contains(&share), "{design}: share {share:.2}");
        }
    }

    #[test]
    fn growing_mac_hw_raises_pe_share_toward_eighty_percent() {
        // Fig. 9: designs 6–9 rise to roughly 80 %.
        let points = fig9_design_points();
        let shares: Vec<f64> = points[5..9]
            .iter()
            .map(AcceleratorDesign::pe_share)
            .collect();
        for pair in shares.windows(2) {
            assert!(pair[1] > pair[0], "share must rise: {shares:?}");
        }
        assert!(
            (0.70..=0.90).contains(&shares[3]),
            "design 9 share {:.2}",
            shares[3]
        );
    }

    #[test]
    fn largest_designs_exceed_ninety_percent() {
        // Fig. 9: designs 10–12 approach ~96 %.
        let points = fig9_design_points();
        assert!(points[11].pe_share() > 0.90, "{}", points[11]);
        assert!(points[11].pe_share() > points[9].pe_share());
    }

    #[test]
    fn total_power_tracks_mac_hw() {
        // Doubling the PE count roughly doubles power in large designs.
        let node = TechnologyNode::TSMC_130NM;
        let a = AcceleratorDesign::new(node, 256, 1024, 256).unwrap();
        let b = AcceleratorDesign::new(node, 512, 1024, 512).unwrap();
        let ratio = b.layer_power() / a.layer_power();
        assert!((1.8..=2.1).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn cycles_match_time_multiplexing() {
        let node = TechnologyNode::NANGATE_45NM;
        let d = AcceleratorDesign::new(node, 4, 256, 10).unwrap();
        // ceil(10/4) = 3 rounds of 256 steps.
        assert_eq!(d.cycles(), 768);
        assert!((d.latency().microseconds() - 768.0 * 2e-3).abs() < 1e-9);
    }

    #[test]
    fn pe_power_includes_rom_depth() {
        let node = TechnologyNode::TSMC_130NM;
        let shallow = AcceleratorDesign::new(node, 1, 256, 1).unwrap();
        let deep = AcceleratorDesign::new(node, 1, 2048, 1).unwrap();
        assert!(deep.pe_power() > shallow.pe_power());
        let delta = deep.pe_power() - shallow.pe_power();
        let expected = node.rom_word_power() * (2048.0 - 256.0);
        assert!((delta - expected).abs().watts() < 1e-15);
    }

    #[test]
    fn zero_parameters_rejected() {
        let node = TechnologyNode::TSMC_130NM;
        assert!(AcceleratorDesign::new(node, 0, 1, 1).is_err());
        assert!(AcceleratorDesign::new(node, 1, 0, 1).is_err());
        assert!(AcceleratorDesign::new(node, 1, 1, 0).is_err());
    }

    #[test]
    fn for_workload_uses_layer_shape() {
        let w = MacWorkload::dense(256, 64).unwrap();
        let d = AcceleratorDesign::for_workload(TechnologyNode::NANGATE_45NM, w, 8).unwrap();
        assert_eq!(d.mac_seq(), 256);
        assert_eq!(d.mac_ops(), 64);
        assert_eq!(d.mac_hw(), 8);
    }

    #[test]
    fn display_shows_percentages() {
        let d = fig9_design_points()[0];
        let text = d.to_string();
        assert!(text.contains("130nm"));
        assert!(text.contains("% PE"));
    }
}
