//! Scaling published designs to the 1024-channel standard (Section 4.1).
//!
//! Following Simmich et al., total power scales roughly linearly with
//! channel count at constant signal quality, while area scales with the
//! square root of the channel count to keep channel spacing tight
//! (Eq. 1):
//!
//! ```text
//! A_soc(n) = A_0 · sqrt(n / n_0)      P_soc(n) = P_0 · (n / n_0)
//! ```
//!
//! Four special cases from the paper are applied on top:
//!
//! * **SPAD imagers (SoCs 2, 11)** are configurable interfaces already
//!   demonstrated at ≥1024 channels; their *nominal* area and power are
//!   used unchanged.
//! * **Muller et al. (SoC 5)** lands at an unrealistically low ~10 mW/cm²;
//!   a 2× area reduction brings it to a plausible 20 mW/cm².
//! * **WIMAGINE (SoC 7)** is oversized for 64 channels; a 50× reduction in
//!   *both* power and area models an evolved design with sub-millimetre
//!   channel spacing at unchanged power density.
//! * **Neuropixels (SoC 9)** scales by adding shanks, so area and power
//!   both scale linearly.
//! * **HALO (SoC 8)** exceeds the safe power density by orders of
//!   magnitude once scaled; the paper replaces it by **HALO\***, a variant
//!   scaled down to sit exactly on the 40 mW/cm² budget line. We implement
//!   this as a 16× power reduction with the area grown to the minimum safe
//!   area for the reduced power (ASSUMPTION, `DESIGN.md` §3.2).

use core::fmt;

use crate::budget::{self, power_budget};
use crate::error::{CoreError, Result};
use crate::soc::{NiTechnology, SocSpec, STANDARD_CHANNELS};
use crate::units::{Area, Power, PowerDensity};

/// The adjustment rules applied while scaling a design (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Adjustment {
    /// Baseline Eq. 1 scaling: power linear, area ∝ √n.
    SquareRootArea,
    /// The design already supports the target channel count; parameters
    /// are the published nominal values.
    Nominal,
    /// Area and power both scale linearly (shank-replicated designs).
    LinearArea,
    /// An additional area reduction by the given integer factor.
    AreaReduction(u32),
    /// An additional reduction of both power and area by the given factor.
    PowerAndAreaReduction(u32),
    /// HALO → HALO*: power reduced, area set to the minimum safe area so
    /// the design sits exactly on the power-budget line.
    HaloStar,
}

impl fmt::Display for Adjustment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SquareRootArea => f.write_str("sqrt-area scaling"),
            Self::Nominal => f.write_str("nominal configuration"),
            Self::LinearArea => f.write_str("linear area scaling"),
            Self::AreaReduction(k) => write!(f, "{k}x area reduction"),
            Self::PowerAndAreaReduction(k) => write!(f, "{k}x power+area reduction"),
            Self::HaloStar => f.write_str("HALO* budget fit"),
        }
    }
}

/// A design point produced by scaling a published SoC to a channel count.
///
/// Carries the original specification plus the scaled totals and a record
/// of the adjustments applied.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledSoc {
    spec: SocSpec,
    display_name: String,
    channels: u64,
    area: Area,
    power: Power,
    adjustments: Vec<Adjustment>,
}

impl ScaledSoc {
    /// The original published specification.
    #[must_use]
    pub fn spec(&self) -> &SocSpec {
        &self.spec
    }

    /// Display name; differs from the spec name only for HALO*.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.display_name
    }

    /// The scaled channel count.
    #[must_use]
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// The scaled brain-contact area.
    #[must_use]
    pub fn area(&self) -> Area {
        self.area
    }

    /// The scaled total power.
    #[must_use]
    pub fn power(&self) -> Power {
        self.power
    }

    /// The scaled power density.
    #[must_use]
    pub fn power_density(&self) -> PowerDensity {
        self.power / self.area
    }

    /// The power budget implied by the scaled area (Eq. 3).
    #[must_use]
    pub fn power_budget(&self) -> Power {
        power_budget(self.area)
    }

    /// Ratio `P_soc / P_budget`; values above 1 are unsafe.
    #[must_use]
    pub fn budget_utilization(&self) -> f64 {
        self.power / self.power_budget()
    }

    /// Whether the scaled point is within the safe power budget.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        budget::check_safety(self.power, self.area).is_ok()
    }

    /// The adjustment rules that were applied, in order.
    #[must_use]
    pub fn adjustments(&self) -> &[Adjustment] {
        &self.adjustments
    }
}

impl fmt::Display for ScaledSoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} ch: {:.2} mm^2, {:.2} mW ({:.1} mW/cm^2, {:.0}% of budget)",
            self.display_name,
            self.channels,
            self.area.square_millimeters(),
            self.power.milliwatts(),
            self.power_density().milliwatts_per_square_centimeter(),
            self.budget_utilization() * 100.0,
        )
    }
}

/// Scales a design to `channels` using the baseline Eq. 1 law
/// (power linear, area ∝ √n), with no special-case adjustments.
///
/// # Errors
///
/// Returns [`CoreError::ZeroChannels`] if `channels` is zero.
pub fn scale_baseline(spec: &SocSpec, channels: u64) -> Result<ScaledSoc> {
    if channels == 0 {
        return Err(CoreError::ZeroChannels);
    }
    let ratio = channels as f64 / spec.channels() as f64;
    Ok(ScaledSoc {
        display_name: spec.name().to_owned(),
        channels,
        area: spec.area() * ratio.sqrt(),
        power: spec.total_power() * ratio,
        adjustments: vec![Adjustment::SquareRootArea],
        spec: spec.clone(),
    })
}

/// Scales a design to `channels` with both power and area linear in the
/// channel count (used for shank-replicated designs such as Neuropixels).
///
/// # Errors
///
/// Returns [`CoreError::ZeroChannels`] if `channels` is zero.
pub(crate) fn scale_linear(spec: &SocSpec, channels: u64) -> Result<ScaledSoc> {
    if channels == 0 {
        return Err(CoreError::ZeroChannels);
    }
    let ratio = channels as f64 / spec.channels() as f64;
    Ok(ScaledSoc {
        display_name: spec.name().to_owned(),
        channels,
        area: spec.area() * ratio,
        power: spec.total_power() * ratio,
        adjustments: vec![Adjustment::LinearArea],
        spec: spec.clone(),
    })
}

/// Treats the published parameters as the nominal configuration for
/// `channels` (used for configurable SPAD imagers already demonstrated at
/// large scale).
///
/// # Errors
///
/// Returns [`CoreError::ZeroChannels`] if `channels` is zero.
pub(crate) fn scale_nominal(spec: &SocSpec, channels: u64) -> Result<ScaledSoc> {
    if channels == 0 {
        return Err(CoreError::ZeroChannels);
    }
    Ok(ScaledSoc {
        display_name: spec.name().to_owned(),
        channels,
        area: spec.area(),
        power: spec.total_power(),
        adjustments: vec![Adjustment::Nominal],
        spec: spec.clone(),
    })
}

/// HALO* power-reduction factor relative to the Eq. 1 scaled design
/// (ASSUMPTION, `DESIGN.md` §3.2; lands on the paper's Fig. 4 point of
/// ~10 mW on the budget line).
const HALO_STAR_POWER_REDUCTION: f64 = 16.0;

/// Scales one of the paper's published designs to the 1024-channel
/// standard, applying the Section 4.1 special-case rules by Table 1 id.
///
/// # Errors
///
/// Propagates [`CoreError::ZeroChannels`] (cannot occur for
/// `STANDARD_CHANNELS`).
///
/// # Examples
///
/// ```
/// use mindful_core::scaling::scale_to_standard;
/// use mindful_core::soc::soc_by_id;
///
/// let wimagine = soc_by_id(7)?;
/// let scaled = scale_to_standard(&wimagine)?;
/// assert_eq!(scaled.channels(), 1024);
/// assert!(scaled.is_safe());
/// # Ok::<(), mindful_core::CoreError>(())
/// ```
pub fn scale_to_standard(spec: &SocSpec) -> Result<ScaledSoc> {
    scale_to_channels(spec, STANDARD_CHANNELS)
}

/// Scales one of the paper's designs to an arbitrary channel count with
/// the Section 4.1 special-case rules.
///
/// Custom designs (id 0) use the baseline Eq. 1 law.
///
/// # Errors
///
/// Returns [`CoreError::ZeroChannels`] if `channels` is zero.
pub fn scale_to_channels(spec: &SocSpec, channels: u64) -> Result<ScaledSoc> {
    if spec.channels() == channels {
        let mut s = scale_nominal(spec, channels)?;
        if spec.id() == 8 {
            s = apply_halo_star(s);
        }
        return Ok(s);
    }
    match (spec.id(), spec.technology()) {
        (_, NiTechnology::Spad) => scale_nominal(spec, channels),
        (9, _) => scale_linear(spec, channels),
        (5, _) => {
            let mut s = scale_baseline(spec, channels)?;
            s.area /= 2.0;
            s.adjustments.push(Adjustment::AreaReduction(2));
            Ok(s)
        }
        (7, _) => {
            let mut s = scale_baseline(spec, channels)?;
            s.area /= 50.0;
            s.power /= 50.0;
            s.adjustments.push(Adjustment::PowerAndAreaReduction(50));
            Ok(s)
        }
        (8, _) => Ok(apply_halo_star(scale_baseline(spec, channels)?)),
        _ => scale_baseline(spec, channels),
    }
}

fn apply_halo_star(mut s: ScaledSoc) -> ScaledSoc {
    s.power /= HALO_STAR_POWER_REDUCTION;
    s.area = budget::minimum_safe_area(s.power);
    s.display_name = "HALO*".to_owned();
    s.adjustments.push(Adjustment::HaloStar);
    s
}

/// Scales all the paper's wireless designs (SoCs 1–8) to the standard
/// 1024 channels — the starting points for every beyond-1024 analysis.
#[must_use]
pub fn standard_design_points() -> Vec<ScaledSoc> {
    crate::soc::wireless_socs()
        .iter()
        .map(|s| scale_to_standard(s).expect("standard channel count is non-zero"))
        .collect()
}

/// Scales all 11 published designs (including wired ones) to 1024
/// channels, reproducing the population of Fig. 4.
#[must_use]
pub fn fig4_design_points() -> Vec<ScaledSoc> {
    crate::soc::published_socs()
        .iter()
        .map(|s| scale_to_standard(s).expect("standard channel count is non-zero"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::soc_by_id;

    fn scaled(id: u8) -> ScaledSoc {
        scale_to_standard(&soc_by_id(id).unwrap()).unwrap()
    }

    #[test]
    fn designs_already_at_1024_are_unchanged() {
        for id in [1_u8, 3] {
            let spec = soc_by_id(id).unwrap();
            let s = scaled(id);
            assert_eq!(s.channels(), 1024);
            assert!((s.area() - spec.area()).abs().square_meters() < 1e-15);
            assert!((s.power() - spec.total_power()).abs().watts() < 1e-12);
            assert_eq!(s.adjustments(), [Adjustment::Nominal]);
        }
    }

    #[test]
    fn spad_designs_use_nominal_parameters() {
        let s = scaled(2);
        assert!((s.area().square_millimeters() - 144.0).abs() < 1e-9);
        assert!((s.power().milliwatts() - 47.52).abs() < 1e-9);
        assert!(s.is_safe());
        let s = scaled(11);
        assert!((s.area().square_millimeters() - 50.0).abs() < 1e-9);
        assert!((s.power().milliwatts() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn muller_hits_twenty_milliwatts_per_square_centimeter() {
        // Section 4.1: Eq. 1 gives ~10 mW/cm²; a 2x area cut gives ~20.
        let spec = soc_by_id(5).unwrap();
        let baseline = scale_baseline(&spec, 1024).unwrap();
        assert!((baseline.power_density().milliwatts_per_square_centimeter() - 10.0).abs() < 0.5);
        let s = scaled(5);
        assert!((s.power_density().milliwatts_per_square_centimeter() - 20.0).abs() < 1.0);
        assert!(s.adjustments().contains(&Adjustment::AreaReduction(2)));
    }

    #[test]
    fn wimagine_fifty_fold_reduction_preserves_density() {
        let spec = soc_by_id(7).unwrap();
        let baseline = scale_baseline(&spec, 1024).unwrap();
        let s = scaled(7);
        let d0 = baseline.power_density().milliwatts_per_square_centimeter();
        let d1 = s.power_density().milliwatts_per_square_centimeter();
        assert!((d0 - d1).abs() < 1e-9, "50x on both preserves density");
        // Section 4.1: the 2x-area-only variant would sit at ~30 mW/cm².
        assert!((2.0 * d0 - 30.4).abs() < 0.5);
        assert!(s.is_safe());
    }

    #[test]
    fn neuropixels_scales_linearly_at_constant_density() {
        let spec = soc_by_id(9).unwrap();
        let s = scaled(9);
        let d0 = spec.power_density().milliwatts_per_square_centimeter();
        let d1 = s.power_density().milliwatts_per_square_centimeter();
        assert!((d0 - d1).abs() < 1e-9);
        assert_eq!(s.adjustments(), [Adjustment::LinearArea]);
        assert!((s.area().square_millimeters() - 22.0 * 1024.0 / 384.0).abs() < 1e-6);
    }

    #[test]
    fn halo_star_sits_exactly_on_the_budget_line() {
        let s = scaled(8);
        assert_eq!(s.name(), "HALO*");
        assert!((s.budget_utilization() - 1.0).abs() < 1e-9);
        assert!((s.power_density().milliwatts_per_square_centimeter() - 40.0).abs() < 1e-9);
        assert!((s.power().milliwatts() - 10.0).abs() < 1e-9);
        assert!(s.adjustments().contains(&Adjustment::HaloStar));
        // Without the HALO* fix the scaled design is wildly unsafe.
        let raw = scale_baseline(&soc_by_id(8).unwrap(), 1024).unwrap();
        assert!(!raw.is_safe());
        assert!(raw.power_density().milliwatts_per_square_centimeter() > 1000.0);
    }

    #[test]
    fn all_fig4_points_are_safe() {
        // "All designs fall below the red line" (Fig. 4).
        for point in fig4_design_points() {
            assert!(
                point.is_safe(),
                "{} is over budget: {}",
                point.name(),
                point
            );
        }
    }

    #[test]
    fn standard_points_are_the_eight_wireless_designs() {
        let points = standard_design_points();
        assert_eq!(points.len(), 8);
        assert!(points.iter().all(|p| p.channels() == 1024));
        assert!(points.iter().all(|p| p.spec().is_wireless()));
    }

    #[test]
    fn scaling_rejects_zero_channels() {
        let spec = soc_by_id(1).unwrap();
        assert!(matches!(
            scale_baseline(&spec, 0),
            Err(CoreError::ZeroChannels)
        ));
        assert!(scale_linear(&spec, 0).is_err());
        assert!(scale_nominal(&spec, 0).is_err());
        assert!(scale_to_channels(&spec, 0).is_err());
    }

    #[test]
    fn baseline_power_linear_area_sqrt() {
        let spec = soc_by_id(4).unwrap(); // Shen: 16 channels.
        let s = scale_baseline(&spec, 64).unwrap();
        assert!((s.power() / spec.total_power() - 4.0).abs() < 1e-12);
        assert!((s.area() / spec.area() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_budget_utilization() {
        let text = scaled(1).to_string();
        assert!(text.contains("BISC"));
        assert!(text.contains("% of budget"));
    }

    #[test]
    fn custom_design_uses_baseline_rule() {
        let spec = SocSpec::builder("Custom")
            .channels(100)
            .area(Area::from_square_millimeters(10.0))
            .power_density(PowerDensity::from_milliwatts_per_square_centimeter(10.0))
            .sampling(crate::units::Frequency::from_kilohertz(10.0))
            .build()
            .unwrap();
        let s = scale_to_channels(&spec, 400).unwrap();
        assert_eq!(s.adjustments(), [Adjustment::SquareRootArea]);
        assert!((s.area() / spec.area() - 2.0).abs() < 1e-12);
        assert!((s.power() / spec.total_power() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn adjustment_display_strings() {
        assert_eq!(Adjustment::SquareRootArea.to_string(), "sqrt-area scaling");
        assert_eq!(
            Adjustment::AreaReduction(2).to_string(),
            "2x area reduction"
        );
        assert_eq!(
            Adjustment::PowerAndAreaReduction(50).to_string(),
            "50x power+area reduction"
        );
        assert_eq!(Adjustment::HaloStar.to_string(), "HALO* budget fit");
    }
}
