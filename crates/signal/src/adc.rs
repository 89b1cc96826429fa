//! Analog-to-digital conversion — the digitization stage every implanted
//! SoC performs before computation or packetization (Section 3.1).

use crate::error::{Result, SignalError};

/// A saturating uniform quantizer with `d`-bit output codes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u8,
    full_scale: f64,
}

impl Adc {
    /// Creates an ADC with `bits`-bit codes over `±full_scale` volts
    /// (arbitrary units — only the ratio to the input matters).
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::InvalidParameter`] for zero/over-16 bit
    /// widths or a non-positive full scale.
    pub fn new(bits: u8, full_scale: f64) -> Result<Self> {
        if bits == 0 || bits > 16 {
            return Err(SignalError::InvalidParameter {
                name: "adc bits",
                value: f64::from(bits),
            });
        }
        if !(full_scale > 0.0 && full_scale.is_finite()) {
            return Err(SignalError::InvalidParameter {
                name: "full scale",
                value: full_scale,
            });
        }
        Ok(Self { bits, full_scale })
    }

    /// Number of output codes (`2^bits`).
    #[must_use]
    pub fn codes(&self) -> u32 {
        1_u32 << self.bits
    }

    /// The analog width of one code step.
    #[must_use]
    pub fn lsb(&self) -> f64 {
        2.0 * self.full_scale / f64::from(self.codes())
    }

    /// Quantizes one sample, saturating at the rails.
    #[must_use]
    pub fn quantize(&self, value: f64) -> u16 {
        let max_code = self.codes() - 1;
        let clamped = value.clamp(-self.full_scale, self.full_scale);
        let normalized = (clamped + self.full_scale) / (2.0 * self.full_scale);
        let code = (normalized * f64::from(self.codes())).floor() as u32;
        code.min(max_code) as u16
    }

    /// Quantizes a frame of samples.
    #[must_use]
    pub fn quantize_frame(&self, values: &[f64]) -> Vec<u16> {
        values.iter().map(|&v| self.quantize(v)).collect()
    }

    /// Quantizes a frame into `codes` (cleared first). Allocation-free
    /// once `codes` has capacity for the frame width.
    pub fn quantize_frame_into(&self, values: &[f64], codes: &mut Vec<u16>) {
        codes.clear();
        codes.extend(values.iter().map(|&v| self.quantize(v)));
    }

    /// Reconstructs the analog value at a code's midpoint.
    #[must_use]
    pub fn reconstruct(&self, code: u16) -> f64 {
        (f64::from(code) + 0.5) * self.lsb() - self.full_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_bit_has_1024_codes() {
        let adc = Adc::new(10, 1.0).unwrap();
        assert_eq!(adc.codes(), 1024);
        assert!((adc.lsb() - 2.0 / 1024.0).abs() < 1e-15);
    }

    #[test]
    fn midscale_maps_to_middle_code() {
        let adc = Adc::new(10, 1.0).unwrap();
        assert_eq!(adc.quantize(0.0), 512);
    }

    #[test]
    fn rails_saturate() {
        let adc = Adc::new(10, 1.0).unwrap();
        assert_eq!(adc.quantize(10.0), 1023);
        assert_eq!(adc.quantize(-10.0), 0);
        assert_eq!(adc.quantize(f64::INFINITY), 1023);
    }

    #[test]
    fn quantization_error_is_bounded_by_half_lsb() {
        let adc = Adc::new(12, 0.5).unwrap();
        for i in 0..10_000 {
            let v = -0.5 + (i as f64 / 9_999.0);
            let code = adc.quantize(v);
            let back = adc.reconstruct(code);
            assert!(
                (back - v).abs() <= adc.lsb() / 2.0 + 1e-12,
                "v = {v}, back = {back}"
            );
        }
    }

    #[test]
    fn quantize_is_monotone() {
        let adc = Adc::new(8, 1.0).unwrap();
        let mut prev = adc.quantize(-1.0);
        let mut v = -1.0;
        while v < 1.0 {
            v += 0.001;
            let code = adc.quantize(v);
            assert!(code >= prev);
            prev = code;
        }
    }

    #[test]
    fn frame_quantization_matches_scalar() {
        let adc = Adc::new(10, 1.0).unwrap();
        let frame = [-0.7, -0.1, 0.0, 0.3, 0.99];
        let codes = adc.quantize_frame(&frame);
        for (v, c) in frame.iter().zip(&codes) {
            assert_eq!(adc.quantize(*v), *c);
        }
    }

    #[test]
    fn frame_quantization_into_matches_allocating_path() {
        let adc = Adc::new(10, 1.0).unwrap();
        let frame = [-0.7, -0.1, 0.0, 0.3, 0.99];
        let mut codes = Vec::new();
        adc.quantize_frame_into(&frame, &mut codes);
        assert_eq!(codes, adc.quantize_frame(&frame));
    }

    #[test]
    fn invalid_configurations_rejected() {
        assert!(Adc::new(0, 1.0).is_err());
        assert!(Adc::new(17, 1.0).is_err());
        assert!(Adc::new(10, 0.0).is_err());
        assert!(Adc::new(10, f64::NAN).is_err());
    }
}
