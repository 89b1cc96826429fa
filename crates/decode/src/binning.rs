//! Windowed binning and normalization — the standard preprocessing
//! between raw samples/spike events and a decoder.
//!
//! Kalman-filter BCIs classically decode from *binned spike counts*
//! (e.g., 50 ms bins) rather than raw samples; DNN decoders typically
//! consume z-scored channel activity. This module provides both, as
//! streaming operators suitable for an implant's fixed-memory pipeline.

use crate::error::{DecodeError, Result};

/// Accumulates per-channel event counts over fixed-size windows.
#[derive(Debug, Clone)]
pub struct BinAccumulator {
    window: usize,
    filled: usize,
    counts: Vec<u32>,
}

impl BinAccumulator {
    /// Creates an accumulator over `window` samples for `channels`
    /// channels.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidParameter`] for a zero window or
    /// zero channels.
    pub fn new(channels: usize, window: usize) -> Result<Self> {
        if window == 0 {
            return Err(DecodeError::InvalidParameter {
                name: "window",
                value: 0.0,
            });
        }
        if channels == 0 {
            return Err(DecodeError::InvalidParameter {
                name: "channels",
                value: 0.0,
            });
        }
        Ok(Self {
            window,
            filled: 0,
            counts: vec![0; channels],
        })
    }

    /// Window length in samples.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Feeds one sample of per-channel event indicators. Returns the
    /// completed bin (per-channel counts) when the window fills, else
    /// `None`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ShapeMismatch`] for a wrong event width.
    pub fn push(&mut self, events: &[bool]) -> Result<Option<Vec<u32>>> {
        let mut bin = Vec::new();
        Ok(self.push_into(events, &mut bin)?.then_some(bin))
    }

    /// Feeds one sample of per-channel event indicators. When the
    /// window fills, copies the completed bin into `bin` (cleared
    /// first), resets the accumulator, and returns `true`; otherwise
    /// leaves `bin` untouched and returns `false`. Allocation-free once
    /// `bin` has capacity for the channel count.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ShapeMismatch`] for a wrong event width.
    pub fn push_into(&mut self, events: &[bool], bin: &mut Vec<u32>) -> Result<bool> {
        if events.len() != self.counts.len() {
            return Err(DecodeError::ShapeMismatch {
                expected: self.counts.len(),
                actual: events.len(),
            });
        }
        for (count, &hit) in self.counts.iter_mut().zip(events) {
            *count += u32::from(hit);
        }
        self.filled += 1;
        if self.filled == self.window {
            self.filled = 0;
            bin.clear();
            bin.extend_from_slice(&self.counts);
            self.counts.iter_mut().for_each(|c| *c = 0);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Samples accumulated into the current (incomplete) window —
    /// 0 right after a bin completes or a [`BinAccumulator::flush`].
    #[must_use]
    pub fn pending(&self) -> usize {
        self.filled
    }

    /// Emits the trailing partial window, if any: copies the partial
    /// counts into `bin` (cleared first), resets the accumulator, and
    /// returns how many samples the partial bin covers (0 when there
    /// was nothing pending, in which case `bin` is left untouched).
    /// This is the end-of-stream counterpart to
    /// [`BinAccumulator::push_into`] — without it the samples since the
    /// last full window are silently lost.
    pub fn flush_into(&mut self, bin: &mut Vec<u32>) -> usize {
        let covered = self.filled;
        if covered == 0 {
            return 0;
        }
        self.filled = 0;
        bin.clear();
        bin.extend_from_slice(&self.counts);
        self.counts.iter_mut().for_each(|c| *c = 0);
        covered
    }

    /// Allocating convenience wrapper over [`BinAccumulator::flush_into`]:
    /// returns the partial bin and the samples it covers, or `None`
    /// when nothing is pending.
    pub fn flush(&mut self) -> Option<(Vec<u32>, usize)> {
        let mut bin = Vec::new();
        let covered = self.flush_into(&mut bin);
        (covered > 0).then_some((bin, covered))
    }

    /// Bins a whole recording (`rows × channels` of event indicators),
    /// dropping any incomplete trailing window — the historical
    /// batch-mode contract, kept for callers that only want
    /// whole-window statistics. Call [`BinAccumulator::flush`] (or
    /// [`BinAccumulator::flush_into`]) afterwards to recover the
    /// trailing partial bin instead of losing it.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ShapeMismatch`] for ragged rows.
    pub fn bin_all(&mut self, rows: &[Vec<bool>]) -> Result<Vec<Vec<u32>>> {
        self.filled = 0;
        self.counts.iter_mut().for_each(|c| *c = 0);
        let mut bins = Vec::with_capacity(rows.len() / self.window);
        for row in rows {
            if let Some(bin) = self.push(row)? {
                bins.push(bin);
            }
        }
        Ok(bins)
    }
}

/// Running per-channel z-scoring with fixed calibration statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ZScorer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl ZScorer {
    /// Fits per-channel mean and standard deviation from a calibration
    /// segment (`rows × channels`).
    ///
    /// # Errors
    ///
    /// * [`DecodeError::InsufficientData`] for fewer than 2 rows.
    /// * [`DecodeError::ShapeMismatch`] for ragged rows.
    pub fn fit(segment: &[Vec<f64>]) -> Result<Self> {
        if segment.len() < 2 {
            return Err(DecodeError::InsufficientData {
                provided: segment.len(),
                required: 2,
            });
        }
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
        let n = segment.len() as f64;
        let mut mean = vec![0.0; channels];
        for row in segment {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; channels];
        for row in segment {
            for ((s, v), m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-9);
        }
        Ok(Self { mean, std })
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.mean.len()
    }

    /// Normalizes one frame in place-free style.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::ShapeMismatch`] for a wrong frame width.
    pub fn transform(&self, frame: &[f64]) -> Result<Vec<f64>> {
        if frame.len() != self.channels() {
            return Err(DecodeError::ShapeMismatch {
                expected: self.channels(),
                actual: frame.len(),
            });
        }
        Ok(frame
            .iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_complete_windows_only() {
        let mut acc = BinAccumulator::new(2, 3).unwrap();
        assert_eq!(acc.push(&[true, false]).unwrap(), None);
        assert_eq!(acc.push(&[true, true]).unwrap(), None);
        let bin = acc.push(&[false, true]).unwrap().unwrap();
        assert_eq!(bin, vec![2, 2]);
        // The accumulator resets for the next window.
        assert_eq!(acc.push(&[true, false]).unwrap(), None);
    }

    #[test]
    fn bin_all_drops_trailing_partial_window() {
        let rows: Vec<Vec<bool>> = (0..7).map(|k| vec![k % 2 == 0]).collect();
        let mut acc = BinAccumulator::new(1, 3).unwrap();
        let bins = acc.bin_all(&rows).unwrap();
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0], vec![2]); // samples 0,1,2 -> events at 0 and 2
        assert_eq!(bins[1], vec![1]); // samples 3,4,5 -> event at 4
    }

    /// Regression for the silent trailing-window drop: `bin_all` keeps
    /// its historical contract, but `flush` now recovers the remainder
    /// explicitly instead of losing it.
    #[test]
    fn flush_recovers_the_trailing_partial_window() {
        let rows: Vec<Vec<bool>> = (0..7).map(|k| vec![k % 2 == 0]).collect();
        let mut acc = BinAccumulator::new(1, 3).unwrap();
        let bins = acc.bin_all(&rows).unwrap();
        assert_eq!(bins.len(), 2, "bin_all still drops the partial window");
        assert_eq!(acc.pending(), 1, "sample 6 is pending");
        let (bin, covered) = acc.flush().unwrap();
        assert_eq!(covered, 1);
        assert_eq!(bin, vec![1], "event at sample 6 is recovered");
        assert_eq!(acc.pending(), 0);
        assert!(acc.flush().is_none(), "flush resets the accumulator");
        // Full bins + flushed remainder account for every event.
        let total: u32 = bins.iter().flatten().sum::<u32>() + 1;
        let expected = rows.iter().flatten().filter(|&&e| e).count() as u32;
        assert_eq!(total, expected);
    }

    #[test]
    fn flush_into_leaves_the_bin_untouched_when_nothing_is_pending() {
        let mut acc = BinAccumulator::new(2, 2).unwrap();
        let mut bin = vec![99, 99];
        assert_eq!(acc.flush_into(&mut bin), 0);
        assert_eq!(bin, vec![99, 99]);
        // A flushed partial window does not leak into the next one.
        acc.push(&[true, true]).unwrap();
        assert_eq!(acc.flush_into(&mut bin), 1);
        assert_eq!(bin, vec![1, 1]);
        acc.push(&[false, true]).unwrap();
        let full = acc.push(&[false, false]).unwrap().unwrap();
        assert_eq!(full, vec![0, 1], "counts restart after a flush");
    }

    #[test]
    fn push_into_matches_push_and_reuses_the_bin() {
        let mut a = BinAccumulator::new(3, 4).unwrap();
        let mut b = BinAccumulator::new(3, 4).unwrap();
        let mut bin = Vec::new();
        for k in 0..20_usize {
            let events = [k % 2 == 0, k % 3 == 0, k % 5 == 0];
            let full = b.push_into(&events, &mut bin).unwrap();
            match a.push(&events).unwrap() {
                Some(expected) => {
                    assert!(full);
                    assert_eq!(bin, expected);
                }
                None => assert!(!full),
            }
        }
    }

    #[test]
    fn binned_counts_sum_to_event_total() {
        let rows: Vec<Vec<bool>> = (0..30)
            .map(|k| vec![k % 3 == 0, k % 5 == 0, false])
            .collect();
        let mut acc = BinAccumulator::new(3, 5).unwrap();
        let bins = acc.bin_all(&rows).unwrap();
        let total: u32 = bins.iter().flat_map(|b| b.iter()).sum();
        let expected = rows.iter().flat_map(|r| r.iter()).filter(|&&e| e).count() as u32;
        assert_eq!(total, expected);
    }

    #[test]
    fn zscore_normalizes_the_calibration_segment() {
        let segment: Vec<Vec<f64>> = (0..100)
            .map(|k| vec![k as f64, 10.0 * (k as f64) + 5.0])
            .collect();
        let scorer = ZScorer::fit(&segment).unwrap();
        // Transform the segment and check mean ≈ 0, var ≈ 1 per channel.
        let transformed: Vec<Vec<f64>> = segment
            .iter()
            .map(|r| scorer.transform(r).unwrap())
            .collect();
        for c in 0..2 {
            let mean: f64 =
                transformed.iter().map(|r| r[c]).sum::<f64>() / transformed.len() as f64;
            let var: f64 =
                transformed.iter().map(|r| r[c] * r[c]).sum::<f64>() / transformed.len() as f64;
            assert!(mean.abs() < 1e-9, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "channel {c} var {var}");
        }
    }

    #[test]
    fn zscore_handles_constant_channels() {
        let segment: Vec<Vec<f64>> = (0..10).map(|_| vec![5.0]).collect();
        let scorer = ZScorer::fit(&segment).unwrap();
        let out = scorer.transform(&[5.0]).unwrap();
        assert!(out[0].abs() < 1e-6, "constant channel maps to ~0");
        assert!(out[0].is_finite());
    }

    #[test]
    fn validation_errors() {
        assert!(BinAccumulator::new(0, 3).is_err());
        assert!(BinAccumulator::new(2, 0).is_err());
        let mut acc = BinAccumulator::new(2, 3).unwrap();
        assert!(acc.push(&[true]).is_err());
        assert!(ZScorer::fit(&[vec![1.0]]).is_err());
        let scorer = ZScorer::fit(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert!(scorer.transform(&[1.0]).is_err());
    }
}
