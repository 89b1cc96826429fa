//! Wireless power transfer (WPT) into the implant — the Section 8
//! "future consideration" that closes the power loop.
//!
//! The paper's budget bounds what the implant may *dissipate*; WPT
//! determines what it can *receive*. A two-coil inductive link with
//! coupling `k` and coil quality factors `Q1`, `Q2` has the classic
//! optimal-load efficiency
//!
//! ```text
//! η = k²Q1Q2 / (1 + √(1 + k²Q1Q2))²
//! ```
//!
//! Everything lost after the skin — rectifier and regulator loss on the
//! implant — dissipates *inside the head* and therefore counts against
//! the same 40 mW/cm² budget as the SoC itself. This module models that
//! accounting.

use core::fmt;

use mindful_core::budget::power_budget;
use mindful_core::units::{Area, Power};

use crate::error::{Result, RfError};

/// A two-coil inductive power link plus the implant-side power chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WptLink {
    coupling: f64,
    q_external: f64,
    q_implant: f64,
    rectifier_efficiency: f64,
}

impl WptLink {
    /// Creates a link from coil parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] for a coupling outside
    /// `(0, 1]`, non-positive quality factors, or a rectifier efficiency
    /// outside `(0, 1]`.
    pub(crate) fn new(
        coupling: f64,
        q_external: f64,
        q_implant: f64,
        rectifier_efficiency: f64,
    ) -> Result<Self> {
        if !(coupling > 0.0 && coupling <= 1.0) {
            return Err(RfError::InvalidParameter {
                name: "coupling k",
                value: coupling,
            });
        }
        for (name, q) in [("Q external", q_external), ("Q implant", q_implant)] {
            if !(q > 0.0 && q.is_finite()) {
                return Err(RfError::InvalidParameter { name, value: q });
            }
        }
        if !(rectifier_efficiency > 0.0 && rectifier_efficiency <= 1.0) {
            return Err(RfError::InvalidParameter {
                name: "rectifier efficiency",
                value: rectifier_efficiency,
            });
        }
        Ok(Self {
            coupling,
            q_external,
            q_implant,
            rectifier_efficiency,
        })
    }

    /// A representative subdural link: k = 0.05 through skull and scalp,
    /// Q = 100 (external) / 30 (thin implant coil), 80 % rectifier.
    #[must_use]
    pub fn typical_subdural() -> Self {
        Self::new(0.05, 100.0, 30.0, 0.8).expect("typical parameters are valid")
    }

    /// The figure of merit `k²Q1Q2`.
    #[must_use]
    pub(crate) fn figure_of_merit(&self) -> f64 {
        self.coupling * self.coupling * self.q_external * self.q_implant
    }

    /// Coil-to-coil link efficiency at the optimal load.
    #[must_use]
    pub(crate) fn link_efficiency(&self) -> f64 {
        let fom = self.figure_of_merit();
        fom / (1.0 + (1.0 + fom).sqrt()).powi(2)
    }

    /// End-to-end efficiency including the implant rectifier/regulator.
    #[must_use]
    pub(crate) fn end_to_end_efficiency(&self) -> f64 {
        self.link_efficiency() * self.rectifier_efficiency
    }

    /// External transmit power needed to deliver `load` to the implant's
    /// circuits.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] for a non-positive load.
    pub fn transmit_power_for(&self, load: Power) -> Result<Power> {
        if load.watts() <= 0.0 || !load.is_finite() {
            return Err(RfError::InvalidParameter {
                name: "load power (W)",
                value: load.watts(),
            });
        }
        Ok(load / self.end_to_end_efficiency())
    }

    /// Heat dissipated *inside the head* while delivering `load`: the
    /// implant-coil and rectifier losses. (External-coil loss heats the
    /// wearable, not the brain.)
    ///
    /// With the optimal-load split, the received RF power at the implant
    /// is `load / rectifier_efficiency`; the rectifier loss is the
    /// difference, and the implant coil's own ohmic share is approximated
    /// by the same fraction of the link loss that the implant-side Q
    /// contributes.
    ///
    /// # Errors
    ///
    /// Same as [`WptLink::transmit_power_for`].
    pub fn implant_side_loss(&self, load: Power) -> Result<Power> {
        let received_rf = load / self.rectifier_efficiency;
        let rectifier_loss = received_rf - load;
        // Implant-coil ohmic loss: the link loss splits between the two
        // coils roughly inversely to their Q; attribute the implant
        // share.
        let tx = self.transmit_power_for(load)?;
        let link_loss = tx - received_rf;
        let implant_share = self.q_external / (self.q_external + self.q_implant);
        Ok(rectifier_loss + link_loss * implant_share * self.coupling)
    }

    /// The maximum SoC power a WPT-fed implant of `area` may consume:
    /// the 40 mW/cm² budget must cover the SoC *plus* the implant-side
    /// WPT losses.
    ///
    /// Solves `P_soc + loss(P_soc) ≤ budget(area)` using the linearity of
    /// [`WptLink::implant_side_loss`] in the load.
    #[must_use]
    pub fn max_soc_power(&self, area: Area) -> Power {
        let budget = power_budget(area);
        // loss(P) = c·P with c constant; P_max = budget / (1 + c).
        let unit = Power::from_milliwatts(1.0);
        let c = self.implant_side_loss(unit).expect("unit load is positive") / unit;
        budget / (1.0 + c)
    }
}

impl fmt::Display for WptLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WPT link: k = {:.3}, Q = {:.0}/{:.0}, link {:.0}%, end-to-end {:.0}%",
            self.coupling,
            self.q_external,
            self.q_implant,
            self.link_efficiency() * 100.0,
            self.end_to_end_efficiency() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_formula_known_point() {
        // k²Q1Q2 = 25 → η = 25 / (1 + √26)² ≈ 0.668.
        let link = WptLink::new(0.05, 100.0, 100.0, 1.0).unwrap();
        assert!((link.figure_of_merit() - 25.0).abs() < 1e-12);
        assert!((link.link_efficiency() - 0.668).abs() < 5e-3);
    }

    #[test]
    fn efficiency_increases_with_coupling_and_q() {
        let weak = WptLink::new(0.01, 100.0, 30.0, 0.8).unwrap();
        let strong = WptLink::new(0.1, 100.0, 30.0, 0.8).unwrap();
        assert!(strong.link_efficiency() > weak.link_efficiency());
        let low_q = WptLink::new(0.05, 50.0, 30.0, 0.8).unwrap();
        let high_q = WptLink::new(0.05, 200.0, 30.0, 0.8).unwrap();
        assert!(high_q.link_efficiency() > low_q.link_efficiency());
        // Efficiency is a proper fraction.
        for link in [weak, strong, low_q, high_q] {
            let eta = link.end_to_end_efficiency();
            assert!(eta > 0.0 && eta < 1.0);
        }
    }

    #[test]
    fn transmit_power_scales_with_load() {
        let link = WptLink::typical_subdural();
        let p1 = link
            .transmit_power_for(Power::from_milliwatts(10.0))
            .unwrap();
        let p2 = link
            .transmit_power_for(Power::from_milliwatts(20.0))
            .unwrap();
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
        assert!(p1 > Power::from_milliwatts(10.0), "losses are real");
    }

    #[test]
    fn implant_loss_reduces_the_usable_budget() {
        let link = WptLink::typical_subdural();
        let area = Area::from_square_millimeters(144.0);
        let budget = power_budget(area);
        let usable = link.max_soc_power(area);
        assert!(usable < budget);
        assert!(usable > budget * 0.4, "losses are not absurd: {usable:?}");
        // Check the fixed point: SoC + loss ≈ budget.
        let total = usable + link.implant_side_loss(usable).unwrap();
        assert!((total / budget - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lossier_links_leave_less_soc_power() {
        let good = WptLink::new(0.1, 150.0, 60.0, 0.9).unwrap();
        let bad = WptLink::new(0.02, 60.0, 15.0, 0.6).unwrap();
        let area = Area::from_square_millimeters(100.0);
        assert!(good.max_soc_power(area) > bad.max_soc_power(area));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(WptLink::new(0.0, 100.0, 30.0, 0.8).is_err());
        assert!(WptLink::new(1.5, 100.0, 30.0, 0.8).is_err());
        assert!(WptLink::new(0.05, 0.0, 30.0, 0.8).is_err());
        assert!(WptLink::new(0.05, 100.0, -1.0, 0.8).is_err());
        assert!(WptLink::new(0.05, 100.0, 30.0, 0.0).is_err());
        assert!(WptLink::new(0.05, 100.0, 30.0, 1.1).is_err());
        let link = WptLink::typical_subdural();
        assert!(link.transmit_power_for(Power::ZERO).is_err());
    }

    #[test]
    fn display_reports_efficiencies() {
        let text = WptLink::typical_subdural().to_string();
        assert!(text.contains("k = 0.050"));
        assert!(text.contains("end-to-end"));
    }
}
