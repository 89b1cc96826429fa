//! A functional bit-level modem: OOK and square M-QAM over an AWGN
//! channel.
//!
//! The analytic BER expressions in [`crate::modulation`] are only as good
//! as their assumptions, so this module implements the actual
//! transmit-side mapping (Gray-coded constellations), a white-Gaussian
//! channel, and maximum-likelihood demodulation. Monte-Carlo BER
//! measurements from this modem validate the closed forms used by the
//! Fig. 7 analysis.
//!
//! [`Modem::measure_ber`] runs one serial Monte-Carlo trial, with the
//! channel noise drawn in blocks rather than per symbol.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{Result, RfError};
use crate::modulation::Modulation;

/// Symbols per batched noise draw in the blocked AWGN path.
pub(crate) const NOISE_BLOCK: usize = 1024;

/// One complex baseband symbol.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Symbol {
    /// In-phase component.
    pub(crate) i: f64,
    /// Quadrature component.
    pub(crate) q: f64,
}

impl Symbol {
    /// Creates a symbol from its I/Q components.
    #[must_use]
    pub(crate) fn new(i: f64, q: f64) -> Self {
        Self { i, q }
    }
}

/// A modulator/demodulator pair for one scheme at a given energy per bit.
///
/// Supported schemes: OOK, BPSK (`k = 1` QAM) and square M-QAM with an
/// even number of bits per symbol (4-, 16-, 64-, 256-QAM, …).
#[derive(Debug, Clone)]
pub struct Modem {
    modulation: Modulation,
    energy_per_bit: f64,
}

impl Modem {
    /// Creates a modem normalized to `energy_per_bit` (joules, or any
    /// consistent unit — BER depends only on the ratio to the channel
    /// noise density).
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] for a non-positive energy
    /// and [`RfError::InvalidBitsPerSymbol`] for odd QAM orders above 1
    /// (cross constellations are not implemented in the functional
    /// modem).
    pub fn new(modulation: Modulation, energy_per_bit: f64) -> Result<Self> {
        if !(energy_per_bit > 0.0 && energy_per_bit.is_finite()) {
            return Err(RfError::InvalidParameter {
                name: "energy per bit",
                value: energy_per_bit,
            });
        }
        let k = modulation.bits_per_symbol();
        if matches!(modulation, Modulation::Qam { .. }) && k > 1 && !k.is_multiple_of(2) {
            return Err(RfError::InvalidBitsPerSymbol { bits: k });
        }
        Ok(Self {
            modulation,
            energy_per_bit,
        })
    }

    /// Bits consumed per symbol.
    #[must_use]
    pub(crate) fn bits_per_symbol(&self) -> usize {
        usize::from(self.modulation.bits_per_symbol())
    }

    /// Maps a bit slice to symbols. Trailing bits that do not fill a
    /// symbol are zero-padded.
    #[must_use]
    pub fn modulate(&self, bits: &[bool]) -> Vec<Symbol> {
        let k = self.bits_per_symbol();
        bits.chunks(k)
            .map(|chunk| {
                let mut padded = [false; 32];
                padded[..chunk.len()].copy_from_slice(chunk);
                self.map_symbol(&padded[..k])
            })
            .collect()
    }

    /// Maximum-likelihood demodulation of symbols back to bits.
    #[must_use]
    pub fn demodulate(&self, symbols: &[Symbol]) -> Vec<bool> {
        let mut bits = Vec::with_capacity(symbols.len() * self.bits_per_symbol());
        for s in symbols {
            self.unmap_symbol(*s, &mut bits);
        }
        bits
    }

    fn map_symbol(&self, bits: &[bool]) -> Symbol {
        match self.modulation {
            Modulation::Ook => {
                // 1 → amplitude √(2 Eb), 0 → off; average energy = Eb.
                let amp = (2.0 * self.energy_per_bit).sqrt();
                Symbol::new(if bits[0] { amp } else { 0.0 }, 0.0)
            }
            Modulation::Qam { bits_per_symbol: 1 } => {
                // BPSK: ±√Eb.
                let amp = self.energy_per_bit.sqrt();
                Symbol::new(if bits[0] { amp } else { -amp }, 0.0)
            }
            Modulation::Qam { bits_per_symbol } => {
                let k = usize::from(bits_per_symbol);
                let half = k / 2;
                let i_idx = gray_to_index(bits_to_u32(&bits[..half]));
                let q_idx = gray_to_index(bits_to_u32(&bits[half..k]));
                let scale = self.qam_scale();
                Symbol::new(
                    scale * level_amplitude(i_idx, half),
                    scale * level_amplitude(q_idx, half),
                )
            }
        }
    }

    fn unmap_symbol(&self, s: Symbol, bits: &mut Vec<bool>) {
        match self.modulation {
            Modulation::Ook => {
                let threshold = (2.0 * self.energy_per_bit).sqrt() / 2.0;
                bits.push(s.i > threshold);
            }
            Modulation::Qam { bits_per_symbol: 1 } => bits.push(s.i > 0.0),
            Modulation::Qam { bits_per_symbol } => {
                let k = usize::from(bits_per_symbol);
                let half = k / 2;
                let scale = self.qam_scale();
                let i_idx = nearest_level(s.i / scale, half);
                let q_idx = nearest_level(s.q / scale, half);
                push_bits(bits, index_to_gray(i_idx), half);
                push_bits(bits, index_to_gray(q_idx), half);
            }
        }
    }

    /// Per-axis amplitude scale so that the average symbol energy equals
    /// `k · Eb` for the square constellation `±1, ±3, … ±(L−1)` whose
    /// unnormalized average energy is `2(M−1)/3`.
    fn qam_scale(&self) -> f64 {
        let k = f64::from(self.modulation.bits_per_symbol());
        let m = self.modulation.constellation_size() as f64;
        (k * self.energy_per_bit * 3.0 / (2.0 * (m - 1.0))).sqrt()
    }

    /// Measures the bit error rate over an AWGN channel with noise
    /// density `n0` using `num_bits` random bits.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] for a non-positive noise
    /// density or zero bit count.
    pub fn measure_ber(&self, n0: f64, num_bits: usize, seed: u64) -> Result<f64> {
        if !(n0 > 0.0 && n0.is_finite()) {
            return Err(RfError::InvalidParameter {
                name: "noise density",
                value: n0,
            });
        }
        if num_bits == 0 {
            return Err(RfError::InvalidParameter {
                name: "num bits",
                value: 0.0,
            });
        }
        let (errors, rounded) = self.ber_trial(n0, num_bits, seed, seed ^ SEED_MIX)?;
        Ok(errors as f64 / rounded as f64)
    }

    /// One Monte-Carlo trial: random bits through the modem and a
    /// blocked AWGN channel, returning `(bit errors, bits compared)`.
    fn ber_trial(
        &self,
        n0: f64,
        num_bits: usize,
        bit_seed: u64,
        noise_seed: u64,
    ) -> Result<(usize, usize)> {
        let mut rng = StdRng::seed_from_u64(bit_seed);
        let k = self.bits_per_symbol();
        let rounded = num_bits.div_ceil(k) * k;
        let bits: Vec<bool> = (0..rounded).map(|_| rng.random::<bool>()).collect();
        let mut symbols = self.modulate(&bits);
        let mut channel = AwgnChannel::new(n0, noise_seed)?;
        channel.apply_blocked(&mut symbols, NOISE_BLOCK);
        let received = self.demodulate(&symbols);
        let errors = bits
            .iter()
            .zip(received.iter())
            .filter(|(a, b)| a != b)
            .count();
        Ok((errors, rounded))
    }
}

/// Constant used to decorrelate bit and noise seeds (the golden-ratio
/// increment).
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Additive white Gaussian noise with density `N0` (variance `N0/2` per
/// real dimension).
#[derive(Debug)]
pub(crate) struct AwgnChannel {
    sigma: f64,
    rng: StdRng,
}

impl AwgnChannel {
    /// Creates a channel with noise density `n0`, seeded
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] for a non-positive density.
    pub(crate) fn new(n0: f64, seed: u64) -> Result<Self> {
        if !(n0 > 0.0 && n0.is_finite()) {
            return Err(RfError::InvalidParameter {
                name: "noise density",
                value: n0,
            });
        }
        Ok(Self {
            sigma: (n0 / 2.0).sqrt(),
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Adds Gaussian noise to each symbol in place, drawn in batches of
    /// `block` symbols: all Gaussians for a block are generated into a
    /// reusable buffer first, then added in a tight, branch-free pass.
    ///
    /// Draws come from the same RNG in the same order as one pair per
    /// symbol would, so the result is bit-identical to a per-symbol
    /// draw under the same seed for any block size.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub(crate) fn apply_blocked(&mut self, symbols: &mut [Symbol], block: usize) {
        assert!(block > 0, "noise block size must be positive");
        let mut noise: Vec<(f64, f64)> = Vec::with_capacity(block.min(symbols.len()));
        for chunk in symbols.chunks_mut(block) {
            noise.clear();
            noise.extend(chunk.iter().map(|_| self.gaussian_pair()));
            for (s, &(n_i, n_q)) in chunk.iter_mut().zip(&noise) {
                s.i += self.sigma * n_i;
                s.q += self.sigma * n_q;
            }
        }
    }

    /// A pair of independent standard Gaussians via Box–Muller.
    fn gaussian_pair(&mut self) -> (f64, f64) {
        let u1: f64 = loop {
            let u: f64 = self.rng.random();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = self.rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * core::f64::consts::PI * u2;
        (r * theta.cos(), r * theta.sin())
    }
}

fn bits_to_u32(bits: &[bool]) -> u32 {
    bits.iter().fold(0, |acc, &b| (acc << 1) | u32::from(b))
}

fn push_bits(out: &mut Vec<bool>, value: u32, width: usize) {
    for shift in (0..width).rev() {
        out.push((value >> shift) & 1 == 1);
    }
}

/// Binary-reflected Gray code of an index.
fn index_to_gray(index: u32) -> u32 {
    index ^ (index >> 1)
}

/// Inverse Gray code: the level index whose Gray code is `gray`
/// (`b = g ⊕ (g≫1) ⊕ (g≫2) ⊕ …`).
fn gray_to_index(mut gray: u32) -> u32 {
    let mut index = gray;
    gray >>= 1;
    while gray != 0 {
        index ^= gray;
        gray >>= 1;
    }
    index
}

/// Amplitude of level `index` on an axis with `2^half_bits` levels:
/// `2·index − (L−1)` ∈ {−(L−1), …, L−1}.
fn level_amplitude(index: u32, half_bits: usize) -> f64 {
    let levels = 1_u32 << half_bits;
    2.0 * f64::from(index) - f64::from(levels - 1)
}

/// Nearest constellation level index to a received axis value.
fn nearest_level(value: f64, half_bits: usize) -> u32 {
    let levels = (1_u32 << half_bits) as f64;
    let idx = ((value + (levels - 1.0)) / 2.0).round();
    idx.clamp(0.0, levels - 1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The symbol energy `|s|² = i² + q²`.
    fn energy(s: &Symbol) -> f64 {
        s.i * s.i + s.q * s.q
    }

    /// The per-symbol noise oracle: one Gaussian pair drawn per symbol,
    /// in order, which the blocked path must match bit for bit.
    fn apply_scalar(channel: &mut AwgnChannel, symbols: &mut [Symbol]) {
        for s in symbols {
            let (n_i, n_q) = channel.gaussian_pair();
            s.i += channel.sigma * n_i;
            s.q += channel.sigma * n_q;
        }
    }

    const SEED_ROUND_TRIP: u64 = 7;
    const SEED_SYMBOL_ENERGY: u64 = 3;
    const SEED_BER_OOK: u64 = 11;
    const SEED_BER_QPSK: u64 = 23;
    const SEED_BER_16QAM: u64 = 37;
    const SEED_BER_SNR: u64 = 5;
    const SEED_CHANNEL_NOISE: u64 = 99;

    #[test]
    fn gray_code_round_trips() {
        for i in 0..1024_u32 {
            assert_eq!(gray_to_index(index_to_gray(i)), i);
        }
    }

    #[test]
    fn gray_code_adjacent_levels_differ_in_one_bit() {
        for i in 0..255_u32 {
            let diff = index_to_gray(i) ^ index_to_gray(i + 1);
            assert_eq!(diff.count_ones(), 1);
        }
    }

    #[test]
    fn noiseless_round_trip_every_scheme() {
        let mut rng = StdRng::seed_from_u64(SEED_ROUND_TRIP);
        let bits: Vec<bool> = (0..960).map(|_| rng.random()).collect();
        for modulation in [
            Modulation::Ook,
            Modulation::qam(1).unwrap(),
            Modulation::qam(2).unwrap(),
            Modulation::qam(4).unwrap(),
            Modulation::qam(6).unwrap(),
            Modulation::qam(8).unwrap(),
        ] {
            let modem = Modem::new(modulation, 1.0).unwrap();
            let symbols = modem.modulate(&bits);
            let back = modem.demodulate(&symbols);
            assert_eq!(&back[..bits.len()], &bits[..], "{modulation}");
        }
    }

    #[test]
    fn average_symbol_energy_matches_k_eb() {
        let mut rng = StdRng::seed_from_u64(SEED_SYMBOL_ENERGY);
        for k in [2_u8, 4, 6] {
            let modem = Modem::new(Modulation::qam(k).unwrap(), 2.5).unwrap();
            let bits: Vec<bool> = (0..60_000).map(|_| rng.random()).collect();
            let symbols = modem.modulate(&bits);
            let avg: f64 = symbols.iter().map(energy).sum::<f64>() / symbols.len() as f64;
            let expected = f64::from(k) * 2.5;
            assert!(
                (avg / expected - 1.0).abs() < 0.02,
                "{k} bits: avg {avg}, expected {expected}"
            );
        }
    }

    #[test]
    fn ook_average_energy_is_eb() {
        let modem = Modem::new(Modulation::Ook, 4.0).unwrap();
        let bits = [true, false, true, false];
        let symbols = modem.modulate(&bits);
        let avg: f64 = symbols.iter().map(energy).sum::<f64>() / symbols.len() as f64;
        assert!((avg - 4.0).abs() < 1e-12);
    }

    #[test]
    fn measured_ber_matches_theory_ook() {
        // Eb/N0 = 4 (6 dB): theory Q(2) ≈ 2.275e-2.
        let modem = Modem::new(Modulation::Ook, 4.0).unwrap();
        let measured = modem.measure_ber(1.0, 400_000, SEED_BER_OOK).unwrap();
        let theory = Modulation::Ook.ber(4.0);
        assert!(
            (measured / theory - 1.0).abs() < 0.1,
            "measured {measured}, theory {theory}"
        );
    }

    #[test]
    fn measured_ber_matches_theory_qpsk() {
        // Eb/N0 = 4: QPSK theory Q(√8) ≈ 2.34e-3.
        let modulation = Modulation::qam(2).unwrap();
        let modem = Modem::new(modulation, 4.0).unwrap();
        let measured = modem.measure_ber(1.0, 2_000_000, SEED_BER_QPSK).unwrap();
        let theory = modulation.ber(4.0);
        assert!(
            (measured / theory - 1.0).abs() < 0.15,
            "measured {measured}, theory {theory}"
        );
    }

    #[test]
    fn measured_ber_matches_theory_16qam() {
        // Eb/N0 = 10: 16-QAM theory ≈ 1.74e-3 (Gray approximation).
        let modulation = Modulation::qam(4).unwrap();
        let modem = Modem::new(modulation, 10.0).unwrap();
        let measured = modem.measure_ber(1.0, 2_000_000, SEED_BER_16QAM).unwrap();
        let theory = modulation.ber(10.0);
        assert!(
            (measured / theory - 1.0).abs() < 0.2,
            "measured {measured}, theory {theory}"
        );
    }

    #[test]
    fn measured_ber_falls_with_snr() {
        let modem = Modem::new(Modulation::qam(2).unwrap(), 1.0).unwrap();
        let noisy = modem.measure_ber(1.0, 100_000, SEED_BER_SNR).unwrap();
        let clean = modem.measure_ber(0.1, 100_000, SEED_BER_SNR).unwrap();
        assert!(clean < noisy);
    }

    #[test]
    fn odd_qam_orders_are_rejected_by_the_functional_modem() {
        assert!(Modem::new(Modulation::qam(3).unwrap(), 1.0).is_err());
        assert!(Modem::new(Modulation::qam(5).unwrap(), 1.0).is_err());
        // But BPSK (k = 1) is supported.
        assert!(Modem::new(Modulation::qam(1).unwrap(), 1.0).is_ok());
    }

    #[test]
    fn invalid_modem_parameters() {
        assert!(Modem::new(Modulation::Ook, 0.0).is_err());
        assert!(Modem::new(Modulation::Ook, f64::NAN).is_err());
        let modem = Modem::new(Modulation::Ook, 1.0).unwrap();
        assert!(modem.measure_ber(0.0, 100, 1).is_err());
        assert!(modem.measure_ber(1.0, 0, 1).is_err());
        assert!(AwgnChannel::new(-1.0, 0).is_err());
    }

    #[test]
    fn blocked_noise_is_bit_exact_with_scalar() {
        for (count, block) in [(1000, 7), (1000, 1024), (1000, 1), (5, 1000)] {
            let mut scalar = AwgnChannel::new(1.5, SEED_CHANNEL_NOISE).unwrap();
            let mut blocked = AwgnChannel::new(1.5, SEED_CHANNEL_NOISE).unwrap();
            let mut a = vec![Symbol::new(0.25, -0.75); count];
            let mut b = a.clone();
            apply_scalar(&mut scalar, &mut a);
            blocked.apply_blocked(&mut b, block);
            assert_eq!(a, b, "block size {block}");
        }
    }

    #[test]
    fn channel_noise_has_expected_variance() {
        let mut channel = AwgnChannel::new(2.0, SEED_CHANNEL_NOISE).unwrap();
        let mut symbols = vec![Symbol::default(); 50_000];
        channel.apply_blocked(&mut symbols, NOISE_BLOCK);
        let var_i: f64 = symbols.iter().map(|s| s.i * s.i).sum::<f64>() / symbols.len() as f64;
        let var_q: f64 = symbols.iter().map(|s| s.q * s.q).sum::<f64>() / symbols.len() as f64;
        // Each dimension has variance N0/2 = 1.0.
        assert!((var_i - 1.0).abs() < 0.05, "var_i = {var_i}");
        assert!((var_q - 1.0).abs() < 0.05, "var_q = {var_q}");
    }
}
