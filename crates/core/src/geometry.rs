//! Channel geometry and neuron coverage (Section 3.2).
//!
//! The design goal for high-density interfaces is *one channel per
//! neuron with no more than 20 µm spacing between channels*. This module
//! computes channel pitch from a design's sensing area, the channel
//! count a target pitch implies, and how much of a cortical patch's
//! neuron population a design can address — the concrete meaning behind
//! the volumetric-efficiency argument of Figs. 5–6.

use crate::error::{ensure_positive, CoreError, Result};
use crate::units::Area;

/// The target channel spacing for one-channel-per-neuron sensing: 20 µm.
pub const TARGET_CHANNEL_PITCH_M: f64 = 20e-6;

/// Approximate areal density of cortical neurons under 1 mm² of surface
/// (order 10⁵/mm² through the full depth; we use the commonly quoted
/// ~100,000 neurons/mm² column density).
pub(crate) const CORTICAL_NEURONS_PER_MM2: f64 = 1.0e5;

/// Centre-to-centre channel pitch for `channels` spread over a sensing
/// area, assuming a square grid.
///
/// # Errors
///
/// Returns [`CoreError::ZeroChannels`] for zero channels and
/// [`CoreError::NonPhysicalArea`] for a non-positive area.
pub fn channel_pitch(sensing_area: Area, channels: u64) -> Result<f64> {
    if channels == 0 {
        return Err(CoreError::ZeroChannels);
    }
    if sensing_area.square_meters() <= 0.0 {
        return Err(CoreError::NonPhysicalArea { area: sensing_area });
    }
    Ok((sensing_area.square_meters() / channels as f64).sqrt())
}

/// The channel count that reaches a given pitch over a sensing area.
///
/// # Errors
///
/// Returns [`CoreError::NonPositiveParameter`] for a non-positive pitch
/// and [`CoreError::NonPhysicalArea`] for a non-positive area.
pub fn channels_at_pitch(sensing_area: Area, pitch_m: f64) -> Result<u64> {
    ensure_positive("pitch", pitch_m)?;
    if sensing_area.square_meters() <= 0.0 {
        return Err(CoreError::NonPhysicalArea { area: sensing_area });
    }
    // Guard against floating-point dust just below an exact integer
    // (e.g., 1 mm^2 at a 20 um pitch is exactly 2500 channels).
    Ok(((sensing_area.square_meters() / (pitch_m * pitch_m)) * (1.0 + 1e-12)).floor() as u64)
}

/// Fraction of the neurons under the sensing area that get a dedicated
/// channel (capped at 1): the "one channel per neuron" coverage metric.
///
/// # Errors
///
/// Same as [`channel_pitch`].
pub fn neuron_coverage(sensing_area: Area, channels: u64) -> Result<f64> {
    if channels == 0 {
        return Err(CoreError::ZeroChannels);
    }
    if sensing_area.square_meters() <= 0.0 {
        return Err(CoreError::NonPhysicalArea { area: sensing_area });
    }
    let neurons = sensing_area.square_millimeters() * CORTICAL_NEURONS_PER_MM2;
    Ok((channels as f64 / neurons).min(1.0))
}

/// Whether a design meets the 20 µm high-density pitch target.
///
/// # Errors
///
/// Same as [`channel_pitch`].
pub fn meets_density_target(sensing_area: Area, channels: u64) -> Result<bool> {
    Ok(channel_pitch(sensing_area, channels)? <= TARGET_CHANNEL_PITCH_M)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::scale_to_standard;
    use crate::soc::soc_by_id;

    #[test]
    fn pitch_of_a_known_grid() {
        // 1024 channels over 144 mm²: pitch = sqrt(144/1024) = 0.375 mm.
        let pitch = channel_pitch(Area::from_square_millimeters(144.0), 1024).unwrap();
        assert!((pitch - 375e-6).abs() < 1e-9);
    }

    #[test]
    fn channels_at_target_pitch_round_trips() {
        let area = Area::from_square_millimeters(1.0);
        let n = channels_at_pitch(area, TARGET_CHANNEL_PITCH_M).unwrap();
        // 1 mm² at 20 µm pitch = 2500 channels.
        assert_eq!(n, 2500);
        let pitch = channel_pitch(area, n).unwrap();
        assert!((pitch - TARGET_CHANNEL_PITCH_M).abs() < 1e-9);
    }

    #[test]
    fn no_published_design_meets_the_density_target_yet() {
        // Section 3.2 frames 20 um as the *goal*; today's scaled designs
        // are 1-2 orders of magnitude away.
        for id in 1..=8 {
            let scaled = scale_to_standard(&soc_by_id(id).unwrap()).unwrap();
            let fractions = scaled.spec().sensing_fractions();
            let sensing = scaled.area() * fractions.area();
            assert!(
                !meets_density_target(sensing, scaled.channels()).unwrap(),
                "SoC {id} unexpectedly meets 20 um"
            );
        }
    }

    #[test]
    fn coverage_grows_with_channels_and_caps_at_one() {
        let area = Area::from_square_millimeters(1.0);
        let sparse = neuron_coverage(area, 1_000).unwrap();
        let dense = neuron_coverage(area, 50_000).unwrap();
        assert!(dense > sparse);
        assert!((neuron_coverage(area, 100_000_000).unwrap() - 1.0).abs() < 1e-12);
        // 1024 channels over 1 mm² address ~1% of the neurons below.
        let frac = neuron_coverage(area, 1024).unwrap();
        assert!((frac - 1024.0 / 1.0e5).abs() < 1e-9);
    }

    #[test]
    fn smaller_pitch_needs_quadratically_more_channels() {
        let area = Area::from_square_millimeters(100.0);
        let at_40um = channels_at_pitch(area, 40e-6).unwrap();
        let at_20um = channels_at_pitch(area, 20e-6).unwrap();
        assert_eq!(at_20um, at_40um * 4);
    }

    #[test]
    fn validation_rejects_degenerate_inputs() {
        let area = Area::from_square_millimeters(1.0);
        assert!(channel_pitch(area, 0).is_err());
        assert!(channel_pitch(Area::ZERO, 10).is_err());
        assert!(channels_at_pitch(area, 0.0).is_err());
        assert!(channels_at_pitch(Area::ZERO, 1e-5).is_err());
        assert!(neuron_coverage(area, 0).is_err());
        assert!(meets_density_target(Area::ZERO, 1).is_err());
    }
}
