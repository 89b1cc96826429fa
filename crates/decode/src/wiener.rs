//! Wiener-filter (ridge-regression) intent decoder — the second
//! traditional linear baseline of Section 2.3.
//!
//! Decodes `v = W·(z − z̄)` with `W` fit by ridge-regularized least
//! squares over a calibration session. Unlike the Kalman filter it has
//! no dynamics model, so it is cheaper but noisier frame-to-frame.

use crate::error::{DecodeError, Result};
use crate::linalg::Vec2;

/// A calibrated Wiener decoder.
#[derive(Debug, Clone)]
pub struct WienerDecoder {
    mean: Vec<f64>,
    /// Per-channel decode weights for (x, y).
    weights: Vec<(f64, f64)>,
}

impl WienerDecoder {
    /// Calibrates from observations (`rows × channels`) and intents,
    /// with ridge parameter `lambda`.
    ///
    /// This implementation fits each channel's *encoding* row by least
    /// squares (like the Kalman observation model) and decodes with the
    /// regularized pseudo-inverse of the stacked encoder — a standard
    /// population-vector-style Wiener decoder that avoids inverting the
    /// full channel covariance.
    ///
    /// # Errors
    ///
    /// * [`DecodeError::InsufficientData`] for fewer than 16 samples.
    /// * [`DecodeError::ShapeMismatch`] for ragged rows.
    /// * [`DecodeError::InvalidParameter`] for a negative `lambda`.
    /// * [`DecodeError::Singular`] when the intents are degenerate.
    pub fn calibrate(
        observations: &[Vec<f64>],
        intents: &[(f64, f64)],
        lambda: f64,
    ) -> Result<Self> {
        if !(lambda >= 0.0 && lambda.is_finite()) {
            return Err(DecodeError::InvalidParameter {
                name: "lambda",
                value: lambda,
            });
        }
        let rows = observations.len();
        if rows < 16 || intents.len() != rows {
            return Err(DecodeError::InsufficientData {
                provided: rows.min(intents.len()),
                required: 16,
            });
        }
        let channels = observations[0].len();
        if channels == 0 {
            return Err(DecodeError::ShapeMismatch {
                expected: 1,
                actual: 0,
            });
        }
        for row in observations {
            if row.len() != channels {
                return Err(DecodeError::ShapeMismatch {
                    expected: channels,
                    actual: row.len(),
                });
            }
        }

        let n = rows as f64;
        let mut mean = vec![0.0; channels];
        for row in observations {
            for (m, z) in mean.iter_mut().zip(row) {
                *m += z / n;
            }
        }
        let (mx, my) = intents
            .iter()
            .fold((0.0, 0.0), |(ax, ay), &(x, y)| (ax + x / n, ay + y / n));

        // Per-channel encoding h_c = argmin ||z_c − h·v|| (centred).
        let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
        for &(vx, vy) in intents {
            let (vx, vy) = (vx - mx, vy - my);
            sxx += vx * vx;
            sxy += vx * vy;
            syy += vy * vy;
        }
        let det = sxx * syy - sxy * sxy;
        if det.abs() < 1e-12 {
            return Err(DecodeError::Singular);
        }
        let mut enc = vec![(0.0, 0.0); channels];
        for c in 0..channels {
            let (mut szx, mut szy) = (0.0, 0.0);
            for (row, &(vx, vy)) in observations.iter().zip(intents) {
                let z = row[c] - mean[c];
                szx += z * (vx - mx);
                szy += z * (vy - my);
            }
            enc[c] = ((szx * syy - szy * sxy) / det, (szy * sxx - szx * sxy) / det);
        }

        // Decode weights: W = (HᵀH + λI)⁻¹ Hᵀ, a 2×2 inversion.
        let (mut gxx, mut gxy, mut gyy) = (lambda, 0.0, lambda);
        for &(hx, hy) in &enc {
            gxx += hx * hx;
            gxy += hx * hy;
            gyy += hy * hy;
        }
        let gdet = gxx * gyy - gxy * gxy;
        if gdet.abs() < 1e-12 {
            return Err(DecodeError::Singular);
        }
        let weights = enc
            .iter()
            .map(|&(hx, hy)| ((gyy * hx - gxy * hy) / gdet, (gxx * hy - gxy * hx) / gdet))
            .collect();
        Ok(Self { mean, weights })
    }

    /// Calibrated channel count.
    #[must_use]
    pub(crate) fn channels(&self) -> usize {
        self.mean.len()
    }

    /// Decodes one frame.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ShapeMismatch`] for a wrong frame width.
    pub(crate) fn step(&self, frame: &[f64]) -> Result<Vec2> {
        if frame.len() != self.channels() {
            return Err(DecodeError::ShapeMismatch {
                expected: self.channels(),
                actual: frame.len(),
            });
        }
        let mut v = Vec2::default();
        for ((&z, &m), &(wx, wy)) in frame.iter().zip(&self.mean).zip(&self.weights) {
            let centred = z - m;
            v.x += wx * centred;
            v.y += wy * centred;
        }
        Ok(v)
    }

    /// Decodes a whole session.
    ///
    /// # Errors
    ///
    /// Same as `WienerDecoder::step`.
    pub fn decode(&self, frames: &[Vec<f64>]) -> Result<Vec<Vec2>> {
        frames.iter().map(|f| self.step(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kalman::correlation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synthetic(
        channels: usize,
        steps: usize,
        noise: f64,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<(f64, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gains: Vec<(f64, f64)> = (0..channels)
            .map(|_| {
                (
                    rng.random::<f64>() * 2.0 - 1.0,
                    rng.random::<f64>() * 2.0 - 1.0,
                )
            })
            .collect();
        let mut observations = Vec::with_capacity(steps);
        let mut intents = Vec::with_capacity(steps);
        for k in 0..steps {
            let t = k as f64 * 0.03;
            let (vx, vy) = (t.sin(), (1.7 * t).cos() * 0.7);
            intents.push((vx, vy));
            observations.push(
                gains
                    .iter()
                    .map(|&(gx, gy)| {
                        1.0 + gx * vx + gy * vy + noise * (rng.random::<f64>() * 2.0 - 1.0)
                    })
                    .collect(),
            );
        }
        (observations, intents)
    }

    #[test]
    fn recovers_a_linear_system() {
        let (obs, intents) = synthetic(24, 600, 0.2, 11);
        let decoder = WienerDecoder::calibrate(&obs, &intents, 1e-6).unwrap();
        let decoded = decoder.decode(&obs).unwrap();
        let corr = correlation(
            &decoded.iter().map(|v| v.x).collect::<Vec<_>>(),
            &intents.iter().map(|i| i.0).collect::<Vec<_>>(),
        );
        assert!(corr > 0.9, "x correlation {corr}");
    }

    #[test]
    fn ridge_shrinks_the_solution() {
        let (obs, intents) = synthetic(8, 300, 0.1, 3);
        let free = WienerDecoder::calibrate(&obs, &intents, 0.0).unwrap();
        let ridged = WienerDecoder::calibrate(&obs, &intents, 100.0).unwrap();
        let norm = |d: &WienerDecoder| -> f64 {
            d.weights
                .iter()
                .map(|&(x, y)| x * x + y * y)
                .sum::<f64>()
                .sqrt()
        };
        assert!(norm(&ridged) < norm(&free));
    }

    #[test]
    fn validates_inputs() {
        let (obs, intents) = synthetic(4, 100, 0.1, 5);
        assert!(WienerDecoder::calibrate(&obs, &intents, -1.0).is_err());
        assert!(WienerDecoder::calibrate(&obs[..4], &intents[..4], 0.1).is_err());
        let flat = vec![(0.0, 0.0); obs.len()];
        assert!(WienerDecoder::calibrate(&obs, &flat, 0.1).is_err());
        let decoder = WienerDecoder::calibrate(&obs, &intents, 0.1).unwrap();
        assert!(decoder.step(&[0.0; 3]).is_err());
        assert_eq!(decoder.channels(), 4);
    }
}
