//! Communication-centric OOK transmission model (Section 5.1, Eq. 9).
//!
//! An OOK transceiver customized for its design point maintains a roughly
//! constant energy per bit `E_b` up to its maximum supported data rate,
//! so the communication power is simply `P_comm = T_comm · E_b`. The
//! paper's worked example (1024 channels, 10 bits, 8 kHz, 50 pJ/bit)
//! supports 82 Mbps at 4.1 mW.

use mindful_core::units::{DataRate, Energy, Frequency, Power};

use crate::error::{Result, RfError};

/// The paper's anchor OOK transmitter energy per bit: 50 pJ/bit.
pub(crate) const DEFAULT_OOK_ENERGY_PER_BIT: Energy = Energy::from_picojoules(50.0);

/// A customized constant-`E_b` OOK transmitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OokTransmitter {
    energy_per_bit: Energy,
    max_rate: DataRate,
}

impl OokTransmitter {
    /// Creates a transmitter with a given energy per bit and the maximum
    /// data rate it was customized for.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] for non-positive values.
    pub fn new(energy_per_bit: Energy, max_rate: DataRate) -> Result<Self> {
        if energy_per_bit.joules() <= 0.0 || !energy_per_bit.is_finite() {
            return Err(RfError::InvalidParameter {
                name: "energy per bit (J)",
                value: energy_per_bit.joules(),
            });
        }
        if max_rate.bits_per_second() <= 0.0 || !max_rate.is_finite() {
            return Err(RfError::InvalidParameter {
                name: "max data rate (bit/s)",
                value: max_rate.bits_per_second(),
            });
        }
        Ok(Self {
            energy_per_bit,
            max_rate,
        })
    }

    /// The paper's worked example: a transmitter customized for exactly
    /// `n` channels with `d`-bit samples at `f`, at 50 pJ/bit.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] if the resulting rate is
    /// non-positive.
    pub fn customized_for(channels: u64, sample_bits: u8, sampling: Frequency) -> Result<Self> {
        let rate = mindful_core::throughput::sensing_throughput(channels, sample_bits, sampling);
        Self::new(DEFAULT_OOK_ENERGY_PER_BIT, rate)
    }

    /// The constant energy per bit.
    #[must_use]
    pub fn energy_per_bit(&self) -> Energy {
        self.energy_per_bit
    }

    /// Communication power at a requested rate (Eq. 9):
    /// `P_comm = T · E_b`.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::LinkInfeasible`] when the requested rate
    /// exceeds the customized maximum — beyond it, Shannon's limit means
    /// `E_b` would rise and the constant-energy model no longer holds.
    pub fn power_at(&self, rate: DataRate) -> Result<Power> {
        if rate > self.max_rate * (1.0 + 1e-9) {
            return Err(RfError::LinkInfeasible {
                reason: format!(
                    "requested {:.2} Mbps exceeds the transceiver's {:.2} Mbps design point",
                    rate.megabits_per_second(),
                    self.max_rate.megabits_per_second()
                ),
            });
        }
        Ok(rate * self.energy_per_bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // 1024 ch × 10 b × 8 kHz = 81.92 Mbps at 50 pJ/bit → 4.096 mW.
        let tx = OokTransmitter::customized_for(1024, 10, Frequency::from_kilohertz(8.0)).unwrap();
        let p = tx
            .power_at(DataRate::from_megabits_per_second(81.92))
            .unwrap();
        assert!((p.milliwatts() - 4.096).abs() < 1e-9);
        assert!(tx
            .power_at(DataRate::from_megabits_per_second(81.93))
            .is_err());
    }

    #[test]
    fn power_is_linear_below_the_cap() {
        let tx = OokTransmitter::new(
            Energy::from_picojoules(50.0),
            DataRate::from_megabits_per_second(100.0),
        )
        .unwrap();
        let p1 = tx
            .power_at(DataRate::from_megabits_per_second(25.0))
            .unwrap();
        let p2 = tx
            .power_at(DataRate::from_megabits_per_second(50.0))
            .unwrap();
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exceeding_the_design_point_fails() {
        let tx = OokTransmitter::new(
            Energy::from_picojoules(50.0),
            DataRate::from_megabits_per_second(82.0),
        )
        .unwrap();
        let err = tx
            .power_at(DataRate::from_megabits_per_second(100.0))
            .unwrap_err();
        assert!(matches!(err, RfError::LinkInfeasible { .. }));
        assert!(err.to_string().contains("82.00 Mbps"));
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(
            OokTransmitter::new(Energy::ZERO, DataRate::from_megabits_per_second(1.0)).is_err()
        );
        assert!(OokTransmitter::new(Energy::from_picojoules(10.0), DataRate::ZERO).is_err());
    }
}
