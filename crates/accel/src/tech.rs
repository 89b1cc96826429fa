//! Technology-node power/timing library.
//!
//! The paper synthesizes its MAC unit with Cadence Genus + Joules, which
//! we cannot run. Instead this module provides an analytic cell library
//! pinned to the paper's published post-synthesis anchors:
//!
//! | node  | t_MAC | P_MAC    | source                        |
//! |-------|-------|----------|-------------------------------|
//! | 130 nm| 10 ns | 0.10 mW  | Fig. 9 study (100 MHz, 8-bit) |
//! | 45 nm | 2 ns  | 0.05 mW  | Section 5.3 Results           |
//! | 12 nm | 1 ns  | 0.026 mW | Section 6.2 (`Tech` step)     |
//!
//! All other component costs (registers, ROM bits, FSMs, ReLU) are
//! expressed relative to the node's MAC power with coefficients
//! calibrated so the Fig. 9 power-share trajectory is reproduced
//! (`DESIGN.md` §3.6).

use core::fmt;

use mindful_core::units::{Power, TimeSpan};

use crate::error::{AccelError, Result};

/// An analytic standard-cell technology node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyNode {
    name: &'static str,
    feature_nm: f64,
    mac_latency: TimeSpan,
    mac_power: Power,
}

impl TechnologyNode {
    /// TSMC-class 130 nm at 100 MHz — the Fig. 9 accelerator study node.
    pub const TSMC_130NM: Self = Self {
        name: "130nm",
        feature_nm: 130.0,
        mac_latency: TimeSpan::from_nanoseconds(10.0),
        mac_power: Power::from_milliwatts(0.10),
    };

    /// NanGate 45 nm — the Section 5.3 evaluation node
    /// (t_MAC = 2 ns, P_MAC = 0.05 mW).
    pub const NANGATE_45NM: Self = Self {
        name: "45nm",
        feature_nm: 45.0,
        mac_latency: TimeSpan::from_nanoseconds(2.0),
        mac_power: Power::from_milliwatts(0.05),
    };

    /// Advanced 12 nm — the Section 6.2 technology-scaling node
    /// (t_MAC = 1 ns, P_MAC = 0.026 mW).
    pub const ADVANCED_12NM: Self = Self {
        name: "12nm",
        feature_nm: 12.0,
        mac_latency: TimeSpan::from_nanoseconds(1.0),
        mac_power: Power::from_milliwatts(0.026),
    };

    /// Creates a custom node from post-synthesis MAC parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidParameter`] for non-positive values.
    pub fn custom(
        name: &'static str,
        feature_nm: f64,
        mac_latency: TimeSpan,
        mac_power: Power,
    ) -> Result<Self> {
        if !(feature_nm > 0.0 && feature_nm.is_finite()) {
            return Err(AccelError::InvalidParameter {
                name: "feature size (nm)",
                value: feature_nm,
            });
        }
        if mac_latency.seconds() <= 0.0 || !mac_latency.is_finite() {
            return Err(AccelError::InvalidParameter {
                name: "MAC latency (s)",
                value: mac_latency.seconds(),
            });
        }
        if mac_power.watts() <= 0.0 || !mac_power.is_finite() {
            return Err(AccelError::InvalidParameter {
                name: "MAC power (W)",
                value: mac_power.watts(),
            });
        }
        Ok(Self {
            name,
            feature_nm,
            mac_latency,
            mac_power,
        })
    }

    /// Node name, e.g. `"45nm"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Latency of one multiply-accumulate step (`t_MAC`).
    #[must_use]
    pub fn mac_latency(&self) -> TimeSpan {
        self.mac_latency
    }

    /// Power of one always-active MAC unit (`P_MAC`).
    #[must_use]
    pub fn mac_power(&self) -> Power {
        self.mac_power
    }

    /// Power of the ReLU activation logic attached to each PE.
    ///
    /// Calibration: 5 % of a MAC — a comparator and mux against an adder
    /// and an 8×8 multiplier.
    #[must_use]
    pub(crate) fn relu_power(&self) -> Power {
        self.mac_power * 0.05
    }

    /// Power of the small per-PE control FSM.
    #[must_use]
    pub(crate) fn pe_fsm_power(&self) -> Power {
        self.mac_power * 0.05
    }

    /// Leakage/access power of one ROM word (one stored 8-bit weight).
    ///
    /// Calibration: 2·10⁻⁴ of a MAC per word — ROMs are dense and mostly
    /// idle; a 256-word ROM costs ~5 % of its PE's MAC.
    #[must_use]
    pub(crate) fn rom_word_power(&self) -> Power {
        self.mac_power * 2.0e-4
    }

    /// Power of one 8-bit staging register (clocked every cycle).
    ///
    /// Calibration: 2 % of a MAC per byte-register.
    #[must_use]
    pub(crate) fn register_power(&self) -> Power {
        self.mac_power * 0.02
    }

    /// Fixed power of the layer-level dataflow FSM and clock spine.
    ///
    /// Calibration: 12× a MAC — this constant floor is what keeps the PE
    /// share near 25 % in the small Fig. 9 designs.
    #[must_use]
    pub(crate) fn layer_base_power(&self) -> Power {
        self.mac_power * 12.0
    }

    /// Incremental dataflow-FSM power per controlled PE.
    #[must_use]
    pub(crate) fn dataflow_per_pe_power(&self) -> Power {
        self.mac_power * 0.02
    }

    /// Silicon area of one 8-bit MAC unit.
    ///
    /// Calibration: ~800 µm² at 45 nm (a few hundred gate equivalents),
    /// scaled by the square of the feature size for other nodes. Used to
    /// sanity-check that a MAC allocation physically fits the implant
    /// area it reuses (the paper's analysis is power-first; this check
    /// confirms area is indeed the slack dimension).
    #[must_use]
    pub(crate) fn mac_area(&self) -> mindful_core::units::Area {
        let scale = self.feature_nm / 45.0;
        mindful_core::units::Area::from_square_micrometers(800.0 * scale * scale)
    }
}

impl fmt::Display for TechnologyNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (t_MAC {:.1} ns, P_MAC {:.3} mW)",
            self.name,
            self.mac_latency.nanoseconds(),
            self.mac_power.milliwatts()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_45nm() {
        let node = TechnologyNode::NANGATE_45NM;
        assert!((node.mac_latency().nanoseconds() - 2.0).abs() < 1e-12);
        assert!((node.mac_power().milliwatts() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn paper_anchor_12nm() {
        let node = TechnologyNode::ADVANCED_12NM;
        assert!((node.mac_latency().nanoseconds() - 1.0).abs() < 1e-12);
        assert!((node.mac_power().milliwatts() - 0.026).abs() < 1e-12);
    }

    #[test]
    fn newer_nodes_are_strictly_cheaper() {
        let nodes = [
            TechnologyNode::TSMC_130NM,
            TechnologyNode::NANGATE_45NM,
            TechnologyNode::ADVANCED_12NM,
        ];
        for pair in nodes.windows(2) {
            assert!(pair[1].mac_power() < pair[0].mac_power());
            assert!(pair[1].mac_latency() < pair[0].mac_latency());
        }
    }

    #[test]
    fn component_costs_scale_with_the_node() {
        let a = TechnologyNode::TSMC_130NM;
        let b = TechnologyNode::ADVANCED_12NM;
        let ratio = b.mac_power() / a.mac_power();
        assert!((b.relu_power() / a.relu_power() - ratio).abs() < 1e-12);
        assert!((b.register_power() / a.register_power() - ratio).abs() < 1e-12);
        assert!((b.layer_base_power() / a.layer_base_power() - ratio).abs() < 1e-12);
    }

    #[test]
    fn custom_node_validation() {
        assert!(TechnologyNode::custom(
            "x",
            7.0,
            TimeSpan::from_nanoseconds(0.5),
            Power::from_milliwatts(0.01)
        )
        .is_ok());
        assert!(TechnologyNode::custom(
            "x",
            0.0,
            TimeSpan::from_nanoseconds(1.0),
            Power::from_milliwatts(0.01)
        )
        .is_err());
        assert!(
            TechnologyNode::custom("x", 7.0, TimeSpan::ZERO, Power::from_milliwatts(0.01)).is_err()
        );
        assert!(
            TechnologyNode::custom("x", 7.0, TimeSpan::from_nanoseconds(1.0), Power::ZERO).is_err()
        );
    }

    #[test]
    fn mac_area_scales_quadratically_with_feature_size() {
        let a45 = TechnologyNode::NANGATE_45NM.mac_area();
        let a12 = TechnologyNode::ADVANCED_12NM.mac_area();
        let ratio = a45 / a12;
        let expected = (45.0_f64 / 12.0).powi(2);
        assert!((ratio - expected).abs() < 1e-9);
        // 45 nm anchor: 800 um².
        assert!((a45.square_meters() - 800e-12).abs() < 1e-18);
    }

    #[test]
    fn display_mentions_anchors() {
        let text = TechnologyNode::NANGATE_45NM.to_string();
        assert!(text.contains("45nm"));
        assert!(text.contains("2.0 ns"));
        assert!(text.contains("0.050 mW"));
    }
}
