//! Kalman-filter intent decoder — the traditional linear baseline the
//! paper contrasts with DNNs (Section 2.3).
//!
//! State: the 2-D latent intent `v`. Dynamics: `v_t = a·v_{t−1} + w`,
//! `w ~ N(0, qI)`. Observation: per-channel activity
//! `z_t = b + H v_t + r`, with diagonal `R`. Calibration fits `b`, `H`,
//! and `R` by per-channel least squares against known intents, then the
//! filter runs in information form so only 2×2 inversions are needed —
//! exactly the economy that makes Kalman decoders attractive on
//! implants.

use crate::error::{DecodeError, Result};
use crate::linalg::{Mat2, Vec2};

/// Minimum calibration samples per channel parameter.
const MIN_SAMPLES: usize = 16;

/// A calibrated Kalman intent decoder.
#[derive(Debug, Clone)]
pub struct KalmanDecoder {
    /// Per-channel baseline.
    baseline: Vec<f64>,
    /// Per-channel information terms `[hx·hx·w, hx·hy·w, hy·hy·w, hx·w,
    /// hy·w]` of the observation row `(hx, hy)` and the inverse noise
    /// variance `w = 1/r`, each rounded as the update once computed it.
    info_terms: Vec<[f64; 5]>,
    /// State transition coefficient.
    a: f64,
    /// Process noise variance.
    q: f64,
    /// Filter state.
    state: Vec2,
    covariance: Mat2,
}

impl KalmanDecoder {
    /// Calibrates a decoder from observations (`rows × channels`) and the
    /// intents that produced them.
    ///
    /// # Errors
    ///
    /// * [`DecodeError::InsufficientData`] for fewer than 16 samples.
    /// * [`DecodeError::ShapeMismatch`] for ragged observation rows.
    /// * [`DecodeError::Singular`] when the intents do not excite both
    ///   dimensions.
    pub fn calibrate(observations: &[Vec<f64>], intents: &[(f64, f64)]) -> Result<Self> {
        let rows = observations.len();
        if rows < MIN_SAMPLES || intents.len() != rows {
            return Err(DecodeError::InsufficientData {
                provided: rows.min(intents.len()),
                required: MIN_SAMPLES,
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

        // Normal equations for z = b + hx·vx + hy·vy, shared across
        // channels: the 3×3 Gram matrix of [1, vx, vy].
        let n = rows as f64;
        let (mut sx, mut sy, mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for &(vx, vy) in intents {
            sx += vx;
            sy += vy;
            sxx += vx * vx;
            sxy += vx * vy;
            syy += vy * vy;
        }
        // Solve per channel via the explicit 3×3 inverse (Cramer).
        let g = [[n, sx, sy], [sx, sxx, sxy], [sy, sxy, syy]];
        let ginv = invert3(&g).ok_or(DecodeError::Singular)?;

        let mut baseline = vec![0.0; channels];
        let mut info_terms = vec![[0.0; 5]; channels];
        for c in 0..channels {
            let (mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0);
            for (row, &(vx, vy)) in observations.iter().zip(intents) {
                let z = row[c];
                s0 += z;
                s1 += z * vx;
                s2 += z * vy;
            }
            let b = ginv[0][0] * s0 + ginv[0][1] * s1 + ginv[0][2] * s2;
            let hx = ginv[1][0] * s0 + ginv[1][1] * s1 + ginv[1][2] * s2;
            let hy = ginv[2][0] * s0 + ginv[2][1] * s1 + ginv[2][2] * s2;
            baseline[c] = b;
            let mut ss = 0.0;
            for (row, &(vx, vy)) in observations.iter().zip(intents) {
                let e = row[c] - (b + hx * vx + hy * vy);
                ss += e * e;
            }
            let w = 1.0 / (ss / n).max(1e-9);
            info_terms[c] = [hx * hx * w, hx * hy * w, hy * hy * w, hx * w, hy * w];
        }

        // Fit AR(1) dynamics on the intents.
        let (mut num, mut den) = (0.0, 0.0);
        for pair in intents.windows(2) {
            num += pair[0].0 * pair[1].0 + pair[0].1 * pair[1].1;
            den += pair[0].0 * pair[0].0 + pair[0].1 * pair[0].1;
        }
        let a = if den > 0.0 {
            (num / den).clamp(0.0, 1.0)
        } else {
            0.98
        };
        let mut q = 0.0;
        for pair in intents.windows(2) {
            let ex = pair[1].0 - a * pair[0].0;
            let ey = pair[1].1 - a * pair[0].1;
            q += ex * ex + ey * ey;
        }
        q = (q / (2.0 * (rows - 1) as f64)).max(1e-9);

        Ok(Self {
            baseline,
            info_terms,
            a,
            q,
            state: Vec2::default(),
            covariance: Mat2::scalar(1.0),
        })
    }

    /// Calibrated channel count.
    #[must_use]
    pub(crate) fn channels(&self) -> usize {
        self.baseline.len()
    }

    /// The fitted state-transition coefficient.
    #[must_use]
    pub fn transition(&self) -> f64 {
        self.a
    }

    /// Resets the filter state to the origin with unit covariance.
    pub(crate) fn reset(&mut self) {
        self.state = Vec2::default();
        self.covariance = Mat2::scalar(1.0);
    }

    /// Processes one observation frame and returns the decoded intent.
    ///
    /// Non-finite observations are rejected *before* any state update:
    /// the filter is stateful, and a single NaN channel — exactly what
    /// a faulty front end produces — would otherwise poison `state`
    /// and `covariance` irrecoverably with no error. After a
    /// [`DecodeError::NonFinite`] rejection the filter state is exactly
    /// what it was before the call, so decoding can simply continue
    /// (or `KalmanDecoder::reset` for a clean restart).
    ///
    /// # Errors
    ///
    /// * [`DecodeError::ShapeMismatch`] for a wrong frame width.
    /// * [`DecodeError::NonFinite`] for a NaN or infinite channel.
    /// * [`DecodeError::Singular`] if the covariance degenerates.
    pub fn step(&mut self, frame: &[f64]) -> Result<Vec2> {
        self.check_width(frame.len())?;
        if let Some(channel) = frame.iter().position(|z| !z.is_finite()) {
            return Err(DecodeError::NonFinite { channel });
        }
        self.update(frame)
    }

    /// Like [`KalmanDecoder::step`], but reads binned event counts
    /// directly. Bit-identical to `step` on the counts widened to f64.
    /// There is no non-finite scan: every `u32` is finite as an f64.
    ///
    /// # Errors
    ///
    /// * [`DecodeError::ShapeMismatch`] for a wrong frame width.
    /// * [`DecodeError::Singular`] if the covariance degenerates.
    pub fn step_counts(&mut self, counts: &[u32]) -> Result<Vec2> {
        self.check_width(counts.len())?;
        self.update(counts)
    }

    fn check_width(&self, width: usize) -> Result<()> {
        if width == self.channels() {
            Ok(())
        } else {
            Err(DecodeError::ShapeMismatch {
                expected: self.channels(),
                actual: width,
            })
        }
    }

    /// Predict and update on a checked, finite frame.
    fn update<T: Copy + Into<f64>>(&mut self, frame: &[T]) -> Result<Vec2> {
        // Predict.
        let predicted = self.state * self.a;
        let p = Mat2::scalar(self.a * self.a)
            .mul_mat(self.covariance)
            .add_scalar(self.q);

        // Information-form update: P⁻¹ + Hᵀ R⁻¹ H is 2×2.
        let p_inv = p.inverse()?;
        let mut info = p_inv;
        let mut info_vec = p_inv.mul_vec(predicted);
        for (&[xx, xy, yy, xw, yw], (&z, &b)) in
            self.info_terms.iter().zip(frame.iter().zip(&self.baseline))
        {
            info = info + Mat2::new(xx, xy, xy, yy);
            let innovation = z.into() - b;
            info_vec = info_vec + Vec2::new(xw * innovation, yw * innovation);
        }
        self.covariance = info.inverse()?;
        self.state = self.covariance.mul_vec(info_vec);
        Ok(self.state)
    }

    /// Decodes a whole session, resetting first.
    ///
    /// # Errors
    ///
    /// Same as [`KalmanDecoder::step`].
    pub fn decode(&mut self, frames: &[Vec<f64>]) -> Result<Vec<Vec2>> {
        self.reset();
        frames.iter().map(|f| self.step(f)).collect()
    }
}

trait AddScalarDiag {
    fn add_scalar(self, s: f64) -> Self;
}

impl AddScalarDiag for Mat2 {
    fn add_scalar(self, s: f64) -> Self {
        Mat2::new(self.a + s, self.b, self.c, self.d + s)
    }
}

fn invert3(m: &[[f64; 3]; 3]) -> Option<[[f64; 3]; 3]> {
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    if det.abs() < 1e-12 || !det.is_finite() {
        return None;
    }
    let inv = |r1: usize, c1: usize, r2: usize, c2: usize| {
        (m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1]) / det
    };
    Some([
        [inv(1, 1, 2, 2), inv(0, 2, 2, 1), inv(0, 1, 1, 2)],
        [inv(1, 2, 2, 0), inv(0, 0, 2, 2), inv(0, 2, 1, 0)],
        [inv(1, 0, 2, 1), inv(0, 1, 2, 0), inv(0, 0, 1, 1)],
    ])
}

/// Pearson correlation between decoded and true series.
#[must_use]
pub fn correlation(decoded: &[f64], truth: &[f64]) -> f64 {
    let n = decoded.len().min(truth.len()) as f64;
    if n < 2.0 {
        return 0.0;
    }
    let md = decoded.iter().sum::<f64>() / n;
    let mt = truth.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut dd = 0.0;
    let mut dt = 0.0;
    for (d, t) in decoded.iter().zip(truth) {
        num += (d - md) * (t - mt);
        dd += (d - md) * (d - md);
        dt += (t - mt) * (t - mt);
    }
    if dd <= 0.0 || dt <= 0.0 {
        0.0
    } else {
        num / (dd * dt).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic linear observations for a smooth intent trajectory.
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
                        0.5 + gx * vx + gy * vy + noise * (rng.random::<f64>() * 2.0 - 1.0)
                    })
                    .collect(),
            );
        }
        (observations, intents)
    }

    #[test]
    fn recovers_a_linear_system() {
        let (obs, intents) = synthetic(24, 600, 0.2, 3);
        let mut decoder = KalmanDecoder::calibrate(&obs, &intents).unwrap();
        let decoded = decoder.decode(&obs).unwrap();
        let corr_x = correlation(
            &decoded.iter().map(|v| v.x).collect::<Vec<_>>(),
            &intents.iter().map(|i| i.0).collect::<Vec<_>>(),
        );
        let corr_y = correlation(
            &decoded.iter().map(|v| v.y).collect::<Vec<_>>(),
            &intents.iter().map(|i| i.1).collect::<Vec<_>>(),
        );
        assert!(corr_x > 0.95, "x correlation {corr_x}");
        assert!(corr_y > 0.95, "y correlation {corr_y}");
    }

    #[test]
    fn noisier_observations_decode_worse() {
        let (clean_obs, intents) = synthetic(16, 500, 0.05, 7);
        let (noisy_obs, _) = synthetic(16, 500, 2.5, 7);
        let mut clean = KalmanDecoder::calibrate(&clean_obs, &intents).unwrap();
        let mut noisy = KalmanDecoder::calibrate(&noisy_obs, &intents).unwrap();
        let cx = correlation(
            &clean
                .decode(&clean_obs)
                .unwrap()
                .iter()
                .map(|v| v.x)
                .collect::<Vec<_>>(),
            &intents.iter().map(|i| i.0).collect::<Vec<_>>(),
        );
        let nx = correlation(
            &noisy
                .decode(&noisy_obs)
                .unwrap()
                .iter()
                .map(|v| v.x)
                .collect::<Vec<_>>(),
            &intents.iter().map(|i| i.0).collect::<Vec<_>>(),
        );
        assert!(cx > nx, "clean {cx} vs noisy {nx}");
    }

    #[test]
    fn transition_tracks_trajectory_smoothness() {
        let (obs, intents) = synthetic(8, 400, 0.1, 5);
        let decoder = KalmanDecoder::calibrate(&obs, &intents).unwrap();
        // The figure-eight trajectory is smooth: a ≈ 1.
        assert!(decoder.transition() > 0.9, "a = {}", decoder.transition());
    }

    #[test]
    fn calibration_validates_input() {
        let (obs, intents) = synthetic(4, 500, 0.1, 1);
        assert!(matches!(
            KalmanDecoder::calibrate(&obs[..8], &intents[..8]),
            Err(DecodeError::InsufficientData { .. })
        ));
        let mut ragged = obs.clone();
        ragged[5] = vec![0.0; 3];
        assert!(matches!(
            KalmanDecoder::calibrate(&ragged, &intents),
            Err(DecodeError::ShapeMismatch { .. })
        ));
        // Constant intents cannot be fit (singular Gram matrix).
        let flat: Vec<(f64, f64)> = vec![(0.5, 0.5); obs.len()];
        assert!(KalmanDecoder::calibrate(&obs, &flat).is_err());
    }

    #[test]
    fn step_validates_width() {
        let (obs, intents) = synthetic(6, 100, 0.1, 2);
        let mut decoder = KalmanDecoder::calibrate(&obs, &intents).unwrap();
        assert!(decoder.step(&[0.0; 5]).is_err());
        assert!(decoder.step(&obs[0]).is_ok());
    }

    #[test]
    fn reset_clears_state() {
        let (obs, intents) = synthetic(6, 100, 0.1, 2);
        let mut decoder = KalmanDecoder::calibrate(&obs, &intents).unwrap();
        decoder.step(&obs[50]).unwrap();
        decoder.reset();
        let after_reset = decoder.step(&obs[50]).unwrap();
        decoder.reset();
        let again = decoder.step(&obs[50]).unwrap();
        assert_eq!(after_reset, again);
    }

    /// Regression for the missing finite-input guard: a NaN observation
    /// used to flow straight into the information-form update and leave
    /// `state`/`covariance` permanently NaN. It is now rejected before
    /// any state mutation, and the filter keeps working afterwards.
    #[test]
    fn non_finite_frames_are_rejected_without_poisoning_state() {
        let (obs, intents) = synthetic(6, 100, 0.1, 2);
        let mut decoder = KalmanDecoder::calibrate(&obs, &intents).unwrap();
        let mut twin = decoder.clone();
        decoder.step(&obs[0]).unwrap();
        twin.step(&obs[0]).unwrap();

        for (k, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let mut frame = obs[1].clone();
            frame[k + 1] = bad;
            match decoder.step(&frame) {
                Err(DecodeError::NonFinite { channel }) => assert_eq!(channel, k + 1),
                other => panic!("expected NonFinite rejection, got {other:?}"),
            }
        }

        // The rejected frames left no trace: the decoder tracks a twin
        // that never saw them, bit for bit.
        for frame in &obs[1..20] {
            let a = decoder.step(frame).unwrap();
            let b = twin.step(frame).unwrap();
            assert_eq!(a, b, "state poisoned by a rejected frame");
            assert!(a.x.is_finite() && a.y.is_finite());
        }

        // And reset() still returns it to a pristine start.
        decoder.step(&[f64::NAN; 6]).unwrap_err();
        decoder.reset();
        let mut fresh = KalmanDecoder::calibrate(&obs, &intents).unwrap();
        for frame in &obs[..20] {
            assert_eq!(
                decoder.step(frame).unwrap(),
                fresh.step(frame).unwrap(),
                "reset after rejection must match a fresh decoder"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

        /// `step_counts` is `step` on the widened counts, bit for bit:
        /// two clones of one calibrated decoder agree in `to_bits` on
        /// the state and the covariance after every one of 240 random
        /// count frames.
        #[test]
        fn step_counts_is_bit_identical_to_step(seed in 0_u64..10_000, channels in 1_usize..48) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Mostly bin-sized counts, with an occasional full-range one.
            let count = |rng: &mut StdRng| match rng.random::<u64>() % 16 {
                0 => rng.random::<u32>(),
                r => (r % 5) as u32,
            };
            let intents: Vec<(f64, f64)> = (0..64)
                .map(|k| ((k as f64 * 0.1).sin(), (k as f64 * 0.17).cos()))
                .collect();
            let observations: Vec<Vec<f64>> = intents
                .iter()
                .map(|_| (0..channels).map(|_| (rng.random::<u64>() % 5) as f64).collect())
                .collect();
            let mut on_counts = KalmanDecoder::calibrate(&observations, &intents).unwrap();
            let mut on_values = on_counts.clone();
            let (mut counts, mut values) = (Vec::new(), Vec::new());
            for step in 0..240 {
                counts.clear();
                counts.extend((0..channels).map(|_| count(&mut rng)));
                values.clear();
                values.extend(counts.iter().map(|&c| f64::from(c)));
                let a = on_counts.step_counts(&counts).unwrap();
                let b = on_values.step(&values).unwrap();
                let bits = |d: &KalmanDecoder, v: Vec2| {
                    let p = d.covariance;
                    [v.x, v.y, p.a, p.b, p.c, p.d].map(f64::to_bits)
                };
                proptest::prop_assert_eq!(bits(&on_counts, a), bits(&on_values, b), "step {}", step);
            }
            proptest::prop_assert!(on_counts.step_counts(&counts[1..]).is_err());
        }
    }

    /// Hoisting `1/r` out of the update changed no bit: the digest of
    /// every decoded state and the final covariance were recorded from
    /// the per-channel division update this one replaced, on this same
    /// session.
    #[test]
    fn hoisted_terms_decode_the_same_bits_as_the_division_update() {
        let (obs, intents) = synthetic(24, 600, 0.2, 3);
        let mut decoder = KalmanDecoder::calibrate(&obs, &intents).unwrap();
        let digest = decoder
            .decode(&obs)
            .unwrap()
            .iter()
            .flat_map(|v| [v.x, v.y])
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, x| {
                (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
            });
        let p = decoder.covariance;
        assert_eq!(
            (digest, [p.a, p.b, p.c, p.d].map(f64::to_bits)),
            (
                0xf09b_2654_cb34_caf3,
                [
                    0x3f45_e071_92e7_d934,
                    0xbeea_7c7f_2346_2d64,
                    0xbeea_7c7f_2346_2d64,
                    0x3f4a_1f2c_fe4e_c9a5,
                ]
            )
        );
    }

    #[test]
    fn correlation_helper_behaves() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((correlation(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a[..1], &b[..1]), 0.0);
        assert_eq!(correlation(&a, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }
}
