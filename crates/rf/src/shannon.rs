//! Shannon-limit checks for the implant uplink (Section 5.1 cites
//! Shannon's limit as the reason constant-E_b scaling breaks down).
//!
//! For a band-limited AWGN channel, `C = B·log2(1 + SNR)`; in energy
//! terms, reliable communication at spectral efficiency `r = R/B`
//! bits/s/Hz requires at least
//!
//! ```text
//! Eb/N0 ≥ (2^r − 1) / r
//! ```
//!
//! which approaches ln 2 (−1.59 dB) as `r → 0` and grows exponentially
//! as modulation packs more bits per symbol — the fundamental version of
//! the Fig. 7 efficiency wall.

use mindful_core::units::{DataRate, Frequency};

use crate::error::{Result, RfError};
use crate::modulation::Modulation;

/// Channel capacity `C = B·log2(1 + SNR)` for a bandwidth and linear
/// SNR.
///
/// # Errors
///
/// Returns [`RfError::InvalidParameter`] for non-positive bandwidth or
/// negative SNR.
pub fn capacity(bandwidth: Frequency, snr: f64) -> Result<DataRate> {
    if bandwidth.hertz() <= 0.0 || !bandwidth.hertz().is_finite() {
        return Err(RfError::InvalidParameter {
            name: "bandwidth (Hz)",
            value: bandwidth.hertz(),
        });
    }
    if !(snr >= 0.0 && snr.is_finite()) {
        return Err(RfError::InvalidParameter {
            name: "snr",
            value: snr,
        });
    }
    Ok(DataRate::from_bits_per_second(
        bandwidth.hertz() * (1.0 + snr).log2(),
    ))
}

/// The minimum Eb/N0 (linear) for reliable communication at spectral
/// efficiency `r` bits/s/Hz: `(2^r − 1)/r`.
///
/// # Errors
///
/// Returns [`RfError::InvalidParameter`] for a non-positive `r`.
pub fn min_ebn0_at_spectral_efficiency(r: f64) -> Result<f64> {
    if !(r > 0.0 && r.is_finite()) {
        return Err(RfError::InvalidParameter {
            name: "spectral efficiency",
            value: r,
        });
    }
    Ok((2.0_f64.powf(r) - 1.0) / r)
}

/// How far a modulation's required Eb/N0 at a target BER sits above the
/// Shannon minimum for its spectral efficiency, in dB — the coding gap
/// a real implant transceiver leaves on the table.
///
/// # Errors
///
/// Propagates BER-inversion errors.
pub fn gap_to_shannon_db(modulation: Modulation, target_ber: f64) -> Result<f64> {
    let required = modulation.required_ebn0(target_ber)?;
    let minimum = min_ebn0_at_spectral_efficiency(modulation.spectral_efficiency())?;
    Ok(crate::qfunc::to_db(required / minimum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_known_point() {
        // 100 MHz at SNR 3 (linear): C = 100e6 · log2(4) = 200 Mbps.
        let c = capacity(Frequency::from_megahertz(100.0), 3.0).unwrap();
        assert!((c.megabits_per_second() - 200.0).abs() < 1e-9);
        // Zero SNR → zero capacity.
        let c = capacity(Frequency::from_megahertz(100.0), 0.0).unwrap();
        assert_eq!(c.bits_per_second(), 0.0);
    }

    #[test]
    fn min_ebn0_approaches_ln2_at_low_rate() {
        let low = min_ebn0_at_spectral_efficiency(1e-6).unwrap();
        assert!((low - core::f64::consts::LN_2).abs() < 1e-3);
    }

    #[test]
    fn min_ebn0_known_points() {
        // r = 1: (2−1)/1 = 1 (0 dB). r = 2: 3/2. r = 4: 15/4.
        assert!((min_ebn0_at_spectral_efficiency(1.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((min_ebn0_at_spectral_efficiency(2.0).unwrap() - 1.5).abs() < 1e-12);
        assert!((min_ebn0_at_spectral_efficiency(4.0).unwrap() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn min_ebn0_grows_with_spectral_efficiency() {
        let mut prev = min_ebn0_at_spectral_efficiency(0.5).unwrap();
        for r in [1.0, 2.0, 4.0, 6.0, 8.0, 10.0] {
            let cur = min_ebn0_at_spectral_efficiency(r).unwrap();
            assert!(cur > prev);
            prev = cur;
        }
    }

    #[test]
    fn every_modulation_sits_above_shannon() {
        for k in 1..=10 {
            let m = Modulation::qam(k).unwrap();
            let gap = gap_to_shannon_db(m, 1e-6).unwrap();
            assert!(gap > 0.0, "{m} must be above the Shannon bound");
            assert!(gap < 15.0, "{m} gap {gap:.1} dB is implausibly large");
        }
        let gap = gap_to_shannon_db(Modulation::Ook, 1e-6).unwrap();
        assert!(gap > 0.0);
    }

    #[test]
    fn uncoded_gap_shrinks_at_looser_ber() {
        let strict = gap_to_shannon_db(Modulation::qam(4).unwrap(), 1e-9).unwrap();
        let loose = gap_to_shannon_db(Modulation::qam(4).unwrap(), 1e-3).unwrap();
        assert!(loose < strict);
    }

    #[test]
    fn validation() {
        assert!(capacity(Frequency::ZERO, 1.0).is_err());
        assert!(capacity(Frequency::from_megahertz(1.0), -1.0).is_err());
        assert!(min_ebn0_at_spectral_efficiency(0.0).is_err());
        assert!(min_ebn0_at_spectral_efficiency(f64::NAN).is_err());
    }

    #[test]
    fn capacity_explains_the_qam_wall() {
        // The OOK design point (82 Mbps in 100 MHz) is far from capacity
        // at its SNR; packing 8 bits/symbol into the same band requires
        // exponentially more SNR — the Fig. 7 wall in its pure form.
        let band = Frequency::from_megahertz(100.0);
        let snr_for_1bps = 2.0_f64.powf(1.0) - 1.0;
        let snr_for_8bps = 2.0_f64.powf(8.0) - 1.0;
        assert!(snr_for_8bps / snr_for_1bps > 200.0);
        let c1 = capacity(band, snr_for_1bps).unwrap();
        let c8 = capacity(band, snr_for_8bps).unwrap();
        assert!((c8 / c1 - 8.0).abs() < 1e-9);
    }
}
