//! Threshold spike detection and activity-ranked channel dropout
//! (Section 6.2, the `ChDr` optimization).
//!
//! Spike sorting-style methods reduce the neural data volume by filtering
//! out inactive channels. This module implements the hardware-friendly
//! first stage: a robust per-channel threshold detector (median absolute
//! deviation noise estimate, as used in classic spike-sorting pipelines)
//! and a selector that ranks channels by detected event rate to pick the
//! `n' < n` *active* channels the on-implant DNN should consume.

use crate::error::{DecodeError, Result};

/// A per-channel threshold spike detector.
///
/// Frames arrive either as analog values ([`SpikeDetector::step_into`])
/// or as raw ADC codes ([`SpikeDetector::step_codes_into`]). Both paths
/// share one refractory state, and on codes they fire exactly where the
/// f64 compare `f64::from(code) > threshold` would.
#[derive(Debug, Clone)]
pub struct SpikeDetector {
    threshold: Vec<f64>,
    /// Lowest code that fires on each channel: `f64::from(c) > t`
    /// holds exactly when `c >= min_code` (and the channel is live).
    min_code: Vec<u16>,
    /// False where no u16 code exceeds the threshold (`t >= 65 535` or
    /// NaN) — the one case `min_code` cannot encode.
    live: Vec<bool>,
    refractory: u16,
    /// Steps remaining in each channel's refractory window.
    holdoff: Vec<u16>,
}

impl SpikeDetector {
    /// Calibrates thresholds from a quiet recording segment
    /// (`rows × channels`): threshold = baseline + `k` × MAD-estimated
    /// noise sigma.
    ///
    /// # Errors
    ///
    /// * [`DecodeError::InsufficientData`] for fewer than 32 rows.
    /// * [`DecodeError::ShapeMismatch`] for ragged rows.
    /// * [`DecodeError::InvalidParameter`] for a non-positive `k`, or
    ///   for a `refractory` of zero or above `u16::MAX` (the refractory
    ///   countdown is held in 16 bits).
    pub fn calibrate(segment: &[Vec<f64>], k: f64, refractory: usize) -> Result<Self> {
        if segment.len() < 32 {
            return Err(DecodeError::InsufficientData {
                provided: segment.len(),
                required: 32,
            });
        }
        if !(k > 0.0 && k.is_finite()) {
            return Err(DecodeError::InvalidParameter {
                name: "k",
                value: k,
            });
        }
        let refractory = match u16::try_from(refractory) {
            Ok(r) if r > 0 => r,
            _ => {
                return Err(DecodeError::InvalidParameter {
                    name: "refractory",
                    value: refractory as f64,
                })
            }
        };
        let channels = segment[0].len();
        if channels == 0 {
            return Err(DecodeError::ShapeMismatch {
                expected: 1,
                actual: 0,
            });
        }
        for row in segment {
            if row.len() != channels {
                return Err(DecodeError::ShapeMismatch {
                    expected: channels,
                    actual: row.len(),
                });
            }
        }
        let mut threshold = Vec::with_capacity(channels);
        let mut column: Vec<f64> = Vec::with_capacity(segment.len());
        for c in 0..channels {
            column.clear();
            column.extend(segment.iter().map(|row| row[c]));
            let med = median(&mut column);
            let mut deviations: Vec<f64> = segment.iter().map(|r| (r[c] - med).abs()).collect();
            let mad = median(&mut deviations);
            // sigma ≈ MAD / 0.6745 for Gaussian noise.
            let sigma = (mad / 0.6745).max(1e-9);
            threshold.push(med + k * sigma);
        }
        let (min_code, live) = threshold.iter().map(|&t| code_cutoff(t)).unzip();
        Ok(Self {
            threshold,
            min_code,
            live,
            refractory,
            holdoff: vec![0; channels],
        })
    }

    /// Number of calibrated channels.
    #[must_use]
    pub(crate) fn channels(&self) -> usize {
        self.threshold.len()
    }

    /// Per-channel thresholds.
    #[must_use]
    pub fn thresholds(&self) -> &[f64] {
        &self.threshold
    }

    /// Processes one frame; returns per-channel detection indicators.
    /// Detections within a channel's refractory window are suppressed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ShapeMismatch`] for a wrong frame width.
    pub fn step(&mut self, frame: &[f64]) -> Result<Vec<bool>> {
        let mut events = Vec::with_capacity(self.channels());
        self.step_into(frame, &mut events)?;
        Ok(events)
    }

    /// Like [`SpikeDetector::step`], but writes the indicators into
    /// `events` (cleared first). Allocation-free once `events` has
    /// capacity for the channel count.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ShapeMismatch`] for a wrong frame width.
    pub fn step_into(&mut self, frame: &[f64], events: &mut Vec<bool>) -> Result<()> {
        if frame.len() != self.channels() {
            return Err(DecodeError::ShapeMismatch {
                expected: self.channels(),
                actual: frame.len(),
            });
        }
        events.clear();
        events.extend(
            frame
                .iter()
                .zip(self.threshold.iter())
                .zip(self.holdoff.iter_mut())
                .map(|((&v, &t), hold)| {
                    if *hold > 0 {
                        *hold -= 1;
                        false
                    } else if v > t {
                        *hold = self.refractory;
                        true
                    } else {
                        false
                    }
                }),
        );
        Ok(())
    }

    /// Like [`SpikeDetector::step_into`], but reads raw ADC codes: a
    /// code fires exactly where `f64::from(code) > threshold` would, so
    /// the two paths may be interleaved on one detector. The loop is
    /// branch-free over narrow lanes, so it vectorizes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ShapeMismatch`] for a wrong frame width.
    pub fn step_codes_into(&mut self, codes: &[u16], events: &mut Vec<bool>) -> Result<()> {
        let n = self.channels();
        if codes.len() != n {
            return Err(DecodeError::ShapeMismatch {
                expected: n,
                actual: codes.len(),
            });
        }
        events.clear();
        events.resize(n, false);
        let r = self.refractory;
        for ((((event, &c), &min), &live), hold) in events
            .iter_mut()
            .zip(codes)
            .zip(&self.min_code)
            .zip(&self.live)
            .zip(&mut self.holdoff)
        {
            let fire = (*hold == 0) & (c >= min) & live;
            *hold = if fire { r } else { hold.saturating_sub(1) };
            *event = fire;
        }
        Ok(())
    }

    /// Counts detections per channel over a whole recording.
    ///
    /// # Errors
    ///
    /// Same as [`SpikeDetector::step`].
    pub fn event_counts(&mut self, frames: &[Vec<f64>]) -> Result<Vec<u64>> {
        self.holdoff.iter_mut().for_each(|h| *h = 0);
        let mut counts = vec![0_u64; self.channels()];
        for frame in frames {
            for (count, hit) in counts.iter_mut().zip(self.step(frame)?) {
                *count += u64::from(hit);
            }
        }
        Ok(counts)
    }
}

/// The integer cutoff for threshold `t`: `(min_code, live)` such that
/// `f64::from(c) > t` holds exactly when `live && c >= min_code`.
fn code_cutoff(t: f64) -> (u16, bool) {
    if t < 0.0 {
        // Includes −∞; −0.0 is not below zero and takes the next arm.
        (0, true)
    } else if t < f64::from(u16::MAX) {
        // 0 <= t < 65 535, so ⌊t⌋ + 1 <= 65 535 and the cast is exact.
        (t.floor() as u16 + 1, true)
    } else {
        // t >= 65 535 or NaN: no code exceeds it.
        (u16::MAX, false)
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Selects the `keep` most active channels by detected event count
/// (ties broken by lower index). Returns sorted channel indices.
///
/// # Errors
///
/// Returns [`DecodeError::InvalidParameter`] when `keep` is zero or
/// exceeds the channel count.
pub fn select_active_channels(counts: &[u64], keep: usize) -> Result<Vec<usize>> {
    if keep == 0 || keep > counts.len() {
        return Err(DecodeError::InvalidParameter {
            name: "keep",
            value: keep as f64,
        });
    }
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&i| (core::cmp::Reverse(counts[i]), i));
    let mut chosen = order[..keep].to_vec();
    chosen.sort_unstable();
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noise_segment(channels: usize, rows: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| {
                (0..channels)
                    .map(|_| rng.random::<f64>() * 0.2 - 0.1)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn detects_clear_events_and_ignores_noise() {
        let quiet = noise_segment(4, 200, 1);
        let mut det = SpikeDetector::calibrate(&quiet, 4.5, 3).unwrap();
        // A frame with a big deflection on channel 2 only.
        let hits = det.step(&[0.0, 0.01, 5.0, -0.02]).unwrap();
        assert_eq!(hits, vec![false, false, true, false]);
        // Plain noise produces (almost) no detections.
        let counts = det.event_counts(&quiet).unwrap();
        let total: u64 = counts.iter().sum();
        assert!(total <= 4, "false positives: {total}");
    }

    #[test]
    fn refractory_suppresses_double_counting() {
        let quiet = noise_segment(1, 100, 2);
        let mut det = SpikeDetector::calibrate(&quiet, 4.0, 3).unwrap();
        assert_eq!(det.step(&[5.0]).unwrap(), vec![true]);
        assert_eq!(det.step(&[5.0]).unwrap(), vec![false]);
        assert_eq!(det.step(&[5.0]).unwrap(), vec![false]);
        assert_eq!(det.step(&[5.0]).unwrap(), vec![false]);
        assert_eq!(det.step(&[5.0]).unwrap(), vec![true]);
    }

    #[test]
    fn step_into_matches_step() {
        let quiet = noise_segment(4, 200, 1);
        let mut a = SpikeDetector::calibrate(&quiet, 4.0, 3).unwrap();
        let mut b = a.clone();
        let mut events = Vec::new();
        for k in 0..30 {
            let frame = [k as f64, 0.01, 5.0 - k as f64, -0.02];
            b.step_into(&frame, &mut events).unwrap();
            assert_eq!(a.step(&frame).unwrap(), events);
        }
    }

    #[test]
    fn thresholds_track_noise_level() {
        let mut loud = noise_segment(2, 300, 3);
        for row in &mut loud {
            row[1] *= 10.0;
        }
        let det = SpikeDetector::calibrate(&loud, 4.0, 2).unwrap();
        assert!(det.thresholds()[1] > det.thresholds()[0] * 3.0);
    }

    #[test]
    fn active_channel_selection_ranks_by_count() {
        let counts = [5_u64, 40, 0, 40, 12];
        let top2 = select_active_channels(&counts, 2).unwrap();
        assert_eq!(top2, vec![1, 3]);
        let top3 = select_active_channels(&counts, 3).unwrap();
        assert_eq!(top3, vec![1, 3, 4]);
        assert!(select_active_channels(&counts, 0).is_err());
        assert!(select_active_channels(&counts, 6).is_err());
    }

    #[test]
    fn calibration_validation() {
        let quiet = noise_segment(3, 200, 4);
        assert!(SpikeDetector::calibrate(&quiet[..10], 4.0, 2).is_err());
        assert!(SpikeDetector::calibrate(&quiet, 0.0, 2).is_err());
        assert!(SpikeDetector::calibrate(&quiet, 4.0, 0).is_err());
        let mut ragged = quiet.clone();
        ragged[7] = vec![0.0; 2];
        assert!(SpikeDetector::calibrate(&ragged, 4.0, 2).is_err());
        let mut det = SpikeDetector::calibrate(&quiet, 4.0, 2).unwrap();
        assert!(det.step(&[0.0; 2]).is_err());
    }

    /// A one-channel detector with its threshold set to `t` (and the
    /// cutoff derived from it, as calibration does).
    fn with_threshold(t: f64) -> SpikeDetector {
        let mut det = SpikeDetector::calibrate(&noise_segment(1, 32, 5), 4.0, 1).unwrap();
        det.threshold[0] = t;
        (det.min_code[0], det.live[0]) = code_cutoff(t);
        det
    }

    #[test]
    fn code_cutoff_matches_the_f64_compare_at_the_edges() {
        let cases: [(f64, Option<u16>); 11] = [
            (f64::NEG_INFINITY, Some(0)),
            (-1.5, Some(0)),
            (-0.5, Some(0)),
            (-0.0, Some(1)),
            (0.0, Some(1)),
            (0.5, Some(1)),
            (1.0, Some(2)),
            (65_534.5, Some(65_535)),
            (65_535.0, None),
            (f64::INFINITY, None),
            (f64::NAN, None),
        ];
        for (t, expected) in cases {
            let (min_code, live) = code_cutoff(t);
            assert_eq!(live.then_some(min_code), expected, "cutoff at t = {t}");
            for code in [0_u16, 1, 65_534, 65_535] {
                let want = f64::from(code) > t;
                // The cutoff itself...
                assert_eq!(live && code >= min_code, want, "t = {t}, code = {code}");
                // ...and a fresh detector's first step on that code.
                let mut det = with_threshold(t);
                let mut events = Vec::new();
                det.step_codes_into(&[code], &mut events).unwrap();
                assert_eq!(events, vec![want], "step at t = {t}, code = {code}");
            }
        }
    }

    #[test]
    fn code_and_value_steps_share_one_refractory_window() {
        let mut det = with_threshold(10.0);
        let mut events = Vec::new();
        det.step_into(&[11.0], &mut events).unwrap();
        assert_eq!(events, vec![true]);
        assert_eq!(det.holdoff, vec![1]);
        det.step_codes_into(&[11], &mut events).unwrap();
        assert_eq!(events, vec![false], "held off by the f64 step");
        det.step_codes_into(&[11], &mut events).unwrap();
        assert_eq!(events, vec![true]);
        det.step_into(&[11.0], &mut events).unwrap();
        assert_eq!(events, vec![false], "held off by the code step");
        assert!(det.step_codes_into(&[1, 2], &mut events).is_err());
    }

    #[test]
    fn refractory_beyond_u16_is_rejected() {
        let quiet = noise_segment(2, 64, 6);
        let too_long = usize::from(u16::MAX) + 1;
        match SpikeDetector::calibrate(&quiet, 4.0, too_long) {
            Err(DecodeError::InvalidParameter { name, value }) => {
                assert_eq!(name, "refractory");
                assert_eq!(value, too_long as f64);
            }
            other => panic!("expected a refractory rejection, got {other:?}"),
        }
        let det = SpikeDetector::calibrate(&quiet, 4.0, usize::from(u16::MAX)).unwrap();
        assert_eq!(det.refractory, u16::MAX);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
