//! RF link budget through biological tissue (Section 5.2).
//!
//! The transmit energy per bit needed to close the implant-to-wearable
//! link at a target BER is
//!
//! ```text
//! E_b = (Eb/N0)_req(modulation, BER) · N0 · PL · margin / η
//! ```
//!
//! where `N0 = k_B · T` is the receiver thermal-noise density, `PL` is
//! the path loss through skull and tissue, `margin` covers fading and
//! implementation impairments, and `η` is the end-to-end transmitter
//! efficiency (the paper's *QAM efficiency*; realistic biomedical
//! implementations reach ~15 %).
//!
//! `(Eb/N0)_req` depends only on the modulation and the target BER, so
//! a [`LinkBudget`] solves it once, at construction, for OOK and every
//! QAM order the model supports, and a sweep that evaluates thousands
//! of operating points reads each value from that table.

use core::fmt;

use mindful_core::units::{DataRate, Energy, Power};

use crate::error::{Result, RfError};
use crate::modulation::{Modulation, MAX_BITS_PER_SYMBOL};
use crate::qfunc::from_db;

/// Boltzmann constant in J/K.
pub(crate) const BOLTZMANN: f64 = 1.380_649e-23;

/// Body temperature in kelvin, used for the receiver noise floor.
pub(crate) const BODY_TEMPERATURE_K: f64 = 310.0;

/// An implant-to-wearable link budget: target BER, path loss and
/// margin, with the receiver at body temperature.
/// [`LinkBudget::paper_nominal`] gives
/// the paper's QAM link parameters: BER 1e-6, 60 dB path loss, 20 dB
/// margin (Section 5.2 Evaluation).
///
/// The budget carries the required Eb/N0 at its target BER for OOK and
/// for QAM with 1..=`MAX_BITS_PER_SYMBOL` bits per symbol, solved once
/// by [`Modulation::required_ebn0`] when the budget is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    target_ber: f64,
    path_loss_db: f64,
    margin_db: f64,
    /// Required Eb/N0 (linear) at `target_ber`: index 0 is OOK, index
    /// `k` is QAM with `k` bits per symbol.
    ebn0: [f64; 1 + MAX_BITS_PER_SYMBOL as usize],
}

impl LinkBudget {
    /// Creates a link budget.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidBer`] for targets outside `(0, 0.5)` and
    /// [`RfError::InvalidParameter`] for negative losses/margins.
    pub(crate) fn new(target_ber: f64, path_loss_db: f64, margin_db: f64) -> Result<Self> {
        if !(target_ber > 0.0 && target_ber < 0.5) {
            return Err(RfError::InvalidBer { ber: target_ber });
        }
        if !(path_loss_db >= 0.0 && path_loss_db.is_finite()) {
            return Err(RfError::InvalidParameter {
                name: "path loss (dB)",
                value: path_loss_db,
            });
        }
        if !(margin_db >= 0.0 && margin_db.is_finite()) {
            return Err(RfError::InvalidParameter {
                name: "margin (dB)",
                value: margin_db,
            });
        }
        let mut ebn0 = [0.0; 1 + MAX_BITS_PER_SYMBOL as usize];
        ebn0[0] = Modulation::Ook.required_ebn0(target_ber)?;
        for bits_per_symbol in 1..=MAX_BITS_PER_SYMBOL {
            ebn0[usize::from(bits_per_symbol)] =
                Modulation::Qam { bits_per_symbol }.required_ebn0(target_ber)?;
        }
        Ok(Self {
            target_ber,
            path_loss_db,
            margin_db,
            ebn0,
        })
    }

    /// The paper's nominal parameters: BER = 1e-6, path loss = 60 dB,
    /// margin = 20 dB.
    #[must_use]
    pub fn paper_nominal() -> Self {
        Self::new(1e-6, 60.0, 20.0).expect("nominal parameters are valid")
    }

    /// Receiver thermal-noise density `N0 = k_B · T` in J (per Hz).
    #[must_use]
    pub(crate) fn noise_density(&self) -> Energy {
        Energy::from_joules(BOLTZMANN * BODY_TEMPERATURE_K)
    }

    /// The required Eb/N0 (linear) for `modulation` at the target BER:
    /// a table lookup for OOK and QAM with 1..=[`MAX_BITS_PER_SYMBOL`]
    /// bits per symbol, the solver for any other `Qam` value.
    fn required_ebn0(&self, modulation: Modulation) -> Result<f64> {
        match modulation {
            Modulation::Ook => Ok(self.ebn0[0]),
            Modulation::Qam {
                bits_per_symbol: k @ 1..=MAX_BITS_PER_SYMBOL,
            } => Ok(self.ebn0[usize::from(k)]),
            Modulation::Qam { .. } => modulation.required_ebn0(self.target_ber),
        }
    }

    /// The transmit energy per bit needed to close the link with the
    /// given modulation at transmitter efficiency `eta` (`0 < η ≤ 1`).
    ///
    /// The required Eb/N0 comes from the table solved when the budget
    /// was built, so no call runs the BER bisection (except for a `Qam`
    /// value outside the table).
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidEfficiency`] for `η` outside `(0, 1]`
    /// and propagates solver errors from the BER inversion.
    ///
    /// # Examples
    ///
    /// ```
    /// use mindful_rf::linkbudget::LinkBudget;
    /// use mindful_rf::modulation::Modulation;
    ///
    /// let link = LinkBudget::paper_nominal();
    /// // An ideal OOK transmitter through 80 dB of loss+margin needs
    /// // ~10 pJ/bit; a realistic 15 %-efficient one needs ~65 pJ/bit —
    /// // matching the tens-of-pJ/bit OOK transmitters in the literature.
    /// let ideal = link.energy_per_bit(Modulation::Ook, 1.0)?;
    /// let real = link.energy_per_bit(Modulation::Ook, 0.15)?;
    /// assert!(ideal.picojoules() > 5.0 && ideal.picojoules() < 15.0);
    /// assert!(real.picojoules() > 50.0 && real.picojoules() < 80.0);
    /// # Ok::<(), mindful_rf::RfError>(())
    /// ```
    pub fn energy_per_bit(&self, modulation: Modulation, eta: f64) -> Result<Energy> {
        if !(eta > 0.0 && eta <= 1.0) {
            return Err(RfError::InvalidEfficiency { eta });
        }
        let ebn0 = self.required_ebn0(modulation)?;
        let losses = from_db(self.path_loss_db + self.margin_db);
        Ok(self.noise_density() * (ebn0 * losses / eta))
    }

    /// The transmit power to sustain `rate` with the given modulation and
    /// efficiency: `P = T · E_b` (Eq. 9).
    ///
    /// # Errors
    ///
    /// Same as [`LinkBudget::energy_per_bit`].
    pub fn transmit_power(
        &self,
        modulation: Modulation,
        eta: f64,
        rate: DataRate,
    ) -> Result<Power> {
        Ok(rate * self.energy_per_bit(modulation, eta)?)
    }

    /// The minimum transmitter efficiency that keeps the transmit power
    /// at or below `power_cap` for the given modulation and data rate.
    ///
    /// Returns a value possibly above 1 — callers decide whether >100 %
    /// efficiency means "infeasible".
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] for a non-positive power
    /// cap, plus BER-solver errors.
    pub(crate) fn minimum_efficiency(
        &self,
        modulation: Modulation,
        rate: DataRate,
        power_cap: Power,
    ) -> Result<f64> {
        if power_cap.watts() <= 0.0 {
            return Err(RfError::InvalidParameter {
                name: "power cap (W)",
                value: power_cap.watts(),
            });
        }
        // P(η) = T · E_b(η=1) / η  →  η_min = T · E_b(1) / P_cap.
        let ideal = self.transmit_power(modulation, 1.0, rate)?;
        Ok(ideal / power_cap)
    }
}

impl Default for LinkBudget {
    fn default() -> Self {
        Self::paper_nominal()
    }
}

impl fmt::Display for LinkBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link budget: BER {:.0e}, path loss {} dB, margin {} dB, T {} K",
            self.target_ber, self.path_loss_db, self.margin_db, BODY_TEMPERATURE_K
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_density_is_kt() {
        let link = LinkBudget::paper_nominal();
        let n0 = link.noise_density().joules();
        assert!((n0 - 1.380_649e-23 * 310.0).abs() < 1e-30);
    }

    #[test]
    fn nominal_parameters_match_paper() {
        let link = LinkBudget::paper_nominal();
        assert!((link.target_ber - 1e-6).abs() < 1e-18);
        assert!((link.path_loss_db - 60.0).abs() < 1e-12);
        assert!((link.margin_db - 20.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_divides_energy() {
        let link = LinkBudget::paper_nominal();
        let ideal = link.energy_per_bit(Modulation::Ook, 1.0).unwrap();
        let real = link.energy_per_bit(Modulation::Ook, 0.2).unwrap();
        assert!((real.joules() / ideal.joules() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn energy_grows_with_bits_per_symbol() {
        let link = LinkBudget::paper_nominal();
        let mut prev = link
            .energy_per_bit(Modulation::qam(2).unwrap(), 1.0)
            .unwrap();
        for k in 3..=10 {
            let cur = link
                .energy_per_bit(Modulation::qam(k).unwrap(), 1.0)
                .unwrap();
            assert!(cur > prev, "E_b must grow with k (k = {k})");
            prev = cur;
        }
    }

    #[test]
    fn transmit_power_matches_eq_nine() {
        let link = LinkBudget::paper_nominal();
        let eb = link.energy_per_bit(Modulation::Ook, 0.15).unwrap();
        let rate = DataRate::from_megabits_per_second(82.0);
        let p = link.transmit_power(Modulation::Ook, 0.15, rate).unwrap();
        assert!((p.watts() - rate.bits_per_second() * eb.joules()).abs() < 1e-15);
        // Sanity: ~65 pJ/bit × 82 Mbps ≈ 5.3 mW.
        assert!(p.milliwatts() > 3.0 && p.milliwatts() < 8.0, "{p:?}");
    }

    #[test]
    fn minimum_efficiency_inverts_transmit_power() {
        let link = LinkBudget::paper_nominal();
        let rate = DataRate::from_megabits_per_second(200.0);
        let modulation = Modulation::qam(3).unwrap();
        let cap = Power::from_milliwatts(10.0);
        let eta = link.minimum_efficiency(modulation, rate, cap).unwrap();
        let p = link.transmit_power(modulation, eta.min(1.0), rate).unwrap();
        if eta <= 1.0 {
            assert!((p / cap - 1.0).abs() < 1e-9);
        } else {
            assert!(p > cap, "even an ideal transmitter cannot close the link");
        }
    }

    /// The solver-backed energy per bit, the expression `energy_per_bit`
    /// evaluated before the budget carried its Eb/N0 table.
    fn solved_energy_per_bit(link: &LinkBudget, modulation: Modulation, eta: f64) -> Energy {
        let ebn0 = modulation.required_ebn0(link.target_ber).unwrap();
        let losses = from_db(link.path_loss_db + link.margin_db);
        link.noise_density() * (ebn0 * losses / eta)
    }

    #[test]
    fn table_lookup_is_bit_identical_to_the_solver() {
        let strict = LinkBudget::new(1e-9, 45.0, 10.0).unwrap();
        let schemes: Vec<Modulation> = core::iter::once(Modulation::Ook)
            .chain((1..=MAX_BITS_PER_SYMBOL).map(|k| Modulation::qam(k).unwrap()))
            .collect();
        assert_eq!(schemes.len(), 21, "one table entry per scheme");
        for link in [LinkBudget::paper_nominal(), strict] {
            for &modulation in &schemes {
                for eta in [1.0, 0.2, 0.15] {
                    let table = link.energy_per_bit(modulation, eta).unwrap();
                    let solver = solved_energy_per_bit(&link, modulation, eta);
                    assert_eq!(
                        table.joules().to_bits(),
                        solver.joules().to_bits(),
                        "{modulation} at η = {eta}"
                    );
                }
            }
        }
    }

    /// `Qam` is publicly constructible, so a bits-per-symbol value the
    /// table does not hold still reaches the solver.
    #[test]
    fn qam_outside_the_table_goes_through_the_solver() {
        let link = LinkBudget::paper_nominal();
        for bits_per_symbol in [0, MAX_BITS_PER_SYMBOL + 1] {
            let modulation = Modulation::Qam { bits_per_symbol };
            let energy = link.energy_per_bit(modulation, 1.0).unwrap();
            let solver = solved_energy_per_bit(&link, modulation, 1.0);
            assert_eq!(energy.joules().to_bits(), solver.joules().to_bits());
        }
    }

    /// Regression: filling the table at construction solves 2^20-QAM at
    /// the budget's target, which is met at the solver's bracket floor
    /// for a loose 0.2 target. That must build, in every profile.
    #[test]
    fn a_loose_target_builds_a_budget() {
        let link = LinkBudget::new(0.2, 60.0, 20.0).unwrap();
        let top = Modulation::qam(MAX_BITS_PER_SYMBOL).unwrap();
        assert_eq!(
            link.energy_per_bit(top, 1.0).unwrap(),
            solved_energy_per_bit(&link, top, 1.0)
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(LinkBudget::new(0.0, 60.0, 20.0).is_err());
        assert!(LinkBudget::new(1e-6, -1.0, 20.0).is_err());
        assert!(LinkBudget::new(1e-6, 60.0, f64::NAN).is_err());
        let link = LinkBudget::paper_nominal();
        assert!(link.energy_per_bit(Modulation::Ook, 0.0).is_err());
        assert!(link.energy_per_bit(Modulation::Ook, 1.5).is_err());
        assert!(link
            .minimum_efficiency(
                Modulation::Ook,
                DataRate::from_megabits_per_second(1.0),
                Power::ZERO
            )
            .is_err());
    }

    #[test]
    fn display_mentions_parameters() {
        let text = LinkBudget::paper_nominal().to_string();
        assert!(text.contains("60 dB"));
        assert!(text.contains("20 dB"));
    }
}
