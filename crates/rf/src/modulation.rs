//! Modulation schemes and their AWGN bit-error-rate models.
//!
//! Implanted BCIs prefer energy-efficient On-Off Keying (OOK), which
//! carries one bit per symbol (Section 5.1). To raise the data rate
//! without widening the antenna bandwidth, the paper studies Quadrature
//! Amplitude Modulation (QAM) carrying `k` bits per symbol (Section 5.2);
//! its required Eb/N0 — and hence energy per bit — grows steeply with
//! `k`.

use core::fmt;

use crate::error::{Result, RfError};
use crate::qfunc::q;

/// Maximum bits per symbol supported by the QAM model (2^20-QAM is far
/// beyond anything implementable; the bound keeps arithmetic exact).
pub(crate) const MAX_BITS_PER_SYMBOL: u8 = 20;

/// A digital modulation scheme used by the implant's transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Modulation {
    /// On-Off Keying: one bit per symbol, the energy-efficient default in
    /// implanted SoCs.
    Ook,
    /// Square/cross M-QAM with `bits_per_symbol = log2(M)` bits per
    /// symbol.
    Qam {
        /// Bits carried per symbol (`k`, with `M = 2^k`).
        bits_per_symbol: u8,
    },
}

impl Modulation {
    /// Creates a QAM scheme carrying `bits_per_symbol` bits per symbol.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidBitsPerSymbol`] when `bits_per_symbol`
    /// is zero or exceeds `MAX_BITS_PER_SYMBOL`.
    pub fn qam(bits_per_symbol: u8) -> Result<Self> {
        if bits_per_symbol == 0 || bits_per_symbol > MAX_BITS_PER_SYMBOL {
            return Err(RfError::InvalidBitsPerSymbol {
                bits: bits_per_symbol,
            });
        }
        Ok(Self::Qam { bits_per_symbol })
    }

    /// Bits carried per transmitted symbol.
    #[must_use]
    pub(crate) fn bits_per_symbol(&self) -> u8 {
        match *self {
            Self::Ook => 1,
            Self::Qam { bits_per_symbol } => bits_per_symbol,
        }
    }

    /// Constellation size `M = 2^k`.
    #[must_use]
    pub(crate) fn constellation_size(&self) -> u64 {
        1_u64 << self.bits_per_symbol()
    }

    /// Bit error rate over an AWGN channel at a given Eb/N0 (linear, not
    /// dB).
    ///
    /// * OOK (coherent, amplitude-shift): `BER = Q(√(Eb/N0))`.
    /// * M-QAM (Gray-coded, square): the standard approximation
    ///   `BER ≈ (4/k)(1 − 1/√M) · Q(√(3k/(M−1) · Eb/N0))`.
    ///
    /// For `k = 1` the QAM expression degenerates to BPSK
    /// (`Q(√(2 Eb/N0))`), which we use directly.
    #[must_use]
    pub fn ber(&self, ebn0: f64) -> f64 {
        if ebn0 <= 0.0 {
            return 0.5;
        }
        match *self {
            Self::Ook => q(ebn0.sqrt()),
            Self::Qam { bits_per_symbol } => qam_ber(bits_per_symbol, ebn0),
        }
    }

    /// The Eb/N0 (linear) required to achieve a target BER, found by
    /// log-space bisection on the monotone [`Modulation::ber`] curve
    /// over the bracket `[1e-6, 1e12]`.
    ///
    /// The bisection keeps `ber(lo) > target ≥ ber(hi)`, so once the
    /// midpoint rounds onto either end every further step leaves the
    /// bracket unchanged: the loop stops there, at f64 resolution, with
    /// the value a full 200-step run would return.
    ///
    /// A target outside the bracket *saturates* to its nearer end
    /// instead of bisecting an invalid bracket, identically in every
    /// build profile:
    ///
    /// * a target the scheme meets even at the floor returns the floor
    ///   `1e-6`. High-order QAM has a BER of only ~0.1 as Eb/N0 → 0
    ///   (2^20-QAM), so a loose target such as 0.2 lands here;
    /// * a target it misses even at the ceiling returns the ceiling
    ///   `1e12` (only a malformed `Qam { bits_per_symbol: 0 }`, whose BER
    ///   is 0.5 everywhere, lands here).
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidBer`] for targets outside `(0, 0.5)`.
    pub fn required_ebn0(&self, target_ber: f64) -> Result<f64> {
        if !(target_ber > 0.0 && target_ber < 0.5) {
            return Err(RfError::InvalidBer { ber: target_ber });
        }
        let (mut lo, mut hi) = (1e-6_f64, 1e12_f64);
        if self.ber(lo) <= target_ber {
            return Ok(lo);
        }
        if self.ber(hi) > target_ber {
            return Ok(hi);
        }
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if mid == lo || mid == hi {
                break;
            }
            if self.ber(mid) > target_ber {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok((lo * hi).sqrt())
    }

    /// The required Eb/N0 in decibels for a target BER.
    ///
    /// # Errors
    ///
    /// Same as [`Modulation::required_ebn0`].
    pub fn required_ebn0_db(&self, target_ber: f64) -> Result<f64> {
        Ok(crate::qfunc::to_db(self.required_ebn0(target_ber)?))
    }

    /// Spectral efficiency in bits/s/Hz assuming symbol rate = bandwidth
    /// (Nyquist signalling): equal to the bits per symbol.
    #[must_use]
    pub(crate) fn spectral_efficiency(&self) -> f64 {
        f64::from(self.bits_per_symbol())
    }
}

impl fmt::Display for Modulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Ook => f.write_str("OOK"),
            Self::Qam { bits_per_symbol } => {
                write!(f, "{}-QAM", 1_u64 << bits_per_symbol)
            }
        }
    }
}

/// Gray-coded square M-QAM BER approximation.
fn qam_ber(k: u8, ebn0: f64) -> f64 {
    let kf = f64::from(k);
    if k == 1 {
        // BPSK.
        return q((2.0 * ebn0).sqrt());
    }
    let m = (1_u64 << k) as f64;
    let coeff = (4.0 / kf) * (1.0 - 1.0 / m.sqrt());
    let arg = (3.0 * kf / (m - 1.0) * ebn0).sqrt();
    (coeff * q(arg)).min(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qfunc::to_db;

    #[test]
    fn ook_requires_about_13_5_db_at_1e6() {
        // Q(√(Eb/N0)) = 1e-6 → Eb/N0 = 4.7534² = 22.595 → 13.54 dB.
        let ebn0 = Modulation::Ook.required_ebn0(1e-6).unwrap();
        assert!((to_db(ebn0) - 13.54).abs() < 0.02, "got {} dB", to_db(ebn0));
    }

    #[test]
    fn qpsk_requires_about_10_5_db_at_1e6() {
        // 4-QAM ≡ QPSK: Q(√(2 Eb/N0)) = 1e-6 → 10.53 dB.
        let qam = Modulation::qam(2).unwrap();
        let ebn0_db = qam.required_ebn0_db(1e-6).unwrap();
        assert!((ebn0_db - 10.53).abs() < 0.05, "got {ebn0_db} dB");
    }

    #[test]
    fn sixteen_qam_requires_about_14_4_db_at_1e6() {
        // Textbook value ≈ 14.4 dB for Gray-coded 16-QAM at 1e-6.
        let qam = Modulation::qam(4).unwrap();
        let ebn0_db = qam.required_ebn0_db(1e-6).unwrap();
        assert!((ebn0_db - 14.4).abs() < 0.2, "got {ebn0_db} dB");
    }

    #[test]
    fn required_ebn0_grows_with_bits_per_symbol() {
        let mut prev = Modulation::qam(2).unwrap().required_ebn0(1e-6).unwrap();
        for k in 3..=12 {
            let cur = Modulation::qam(k).unwrap().required_ebn0(1e-6).unwrap();
            assert!(cur > prev, "Eb/N0 must grow with k (k = {k})");
            prev = cur;
        }
    }

    #[test]
    fn ber_is_monotone_in_ebn0() {
        for modulation in [Modulation::Ook, Modulation::qam(4).unwrap()] {
            let mut prev = modulation.ber(0.1);
            for i in 1..60 {
                let ebn0 = 0.1 * 1.3_f64.powi(i);
                let cur = modulation.ber(ebn0);
                assert!(cur <= prev, "{modulation} BER rose at {ebn0}");
                prev = cur;
            }
        }
    }

    #[test]
    fn ber_at_zero_snr_is_coin_flip() {
        assert!((Modulation::Ook.ber(0.0) - 0.5).abs() < 1e-12);
        assert!((Modulation::qam(6).unwrap().ber(-1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn round_trip_required_ebn0() {
        for modulation in [
            Modulation::Ook,
            Modulation::qam(2).unwrap(),
            Modulation::qam(6).unwrap(),
            Modulation::qam(10).unwrap(),
        ] {
            for target in [1e-3, 1e-6, 1e-9] {
                let ebn0 = modulation.required_ebn0(target).unwrap();
                let back = modulation.ber(ebn0);
                assert!(
                    (back.ln() - target.ln()).abs() < 1e-6,
                    "{modulation} at {target}: {back}"
                );
            }
        }
    }

    /// The solver as it ran before its early exit: 200 log-space
    /// bisection steps, no matter when the bracket stops moving.
    fn required_ebn0_200_steps(modulation: Modulation, target_ber: f64) -> f64 {
        let (mut lo, mut hi) = (1e-6_f64, 1e12_f64);
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if modulation.ber(mid) > target_ber {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo * hi).sqrt()
    }

    /// The early exit changes no bit: OOK and every QAM order over a log
    /// grid of targets in [1e-14, 1e-2].
    #[test]
    fn early_exit_is_bit_identical_to_200_steps() {
        let schemes = core::iter::once(Modulation::Ook)
            .chain((1..=MAX_BITS_PER_SYMBOL).map(|k| Modulation::qam(k).unwrap()));
        for modulation in schemes {
            for step in 0..=120 {
                let target = 10_f64.powf(-14.0 + f64::from(step) / 10.0);
                let fast = modulation.required_ebn0(target).unwrap();
                let oracle = required_ebn0_200_steps(modulation, target);
                assert_eq!(
                    fast.to_bits(),
                    oracle.to_bits(),
                    "{modulation} at {target:e}: {fast} vs {oracle}"
                );
            }
        }
    }

    /// Regression: 2^20-QAM's BER tends to ~0.1 as Eb/N0 → 0, so a 0.2
    /// target is already met at the bracket floor. The solver used to
    /// `debug_assert!` there (a panic in debug builds) and return the
    /// bisection artifact 1.0000000000000002e-6 in release; it now
    /// returns the floor in every build profile.
    #[test]
    fn a_target_met_at_the_floor_saturates_to_the_floor() {
        let qam = Modulation::qam(20).unwrap();
        assert!(qam.ber(1e-6) <= 0.2);
        assert_eq!(qam.required_ebn0(0.2).unwrap(), 1e-6);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(matches!(
            Modulation::qam(0),
            Err(RfError::InvalidBitsPerSymbol { bits: 0 })
        ));
        assert!(Modulation::qam(MAX_BITS_PER_SYMBOL + 1).is_err());
        assert!(matches!(
            Modulation::Ook.required_ebn0(0.0),
            Err(RfError::InvalidBer { .. })
        ));
        assert!(Modulation::Ook.required_ebn0(0.6).is_err());
    }

    #[test]
    fn display_and_metadata() {
        assert_eq!(Modulation::Ook.to_string(), "OOK");
        assert_eq!(Modulation::qam(4).unwrap().to_string(), "16-QAM");
        assert_eq!(Modulation::Ook.bits_per_symbol(), 1);
        assert_eq!(Modulation::qam(6).unwrap().constellation_size(), 64);
        assert!((Modulation::qam(3).unwrap().spectral_efficiency() - 3.0).abs() < 1e-12);
    }
}
