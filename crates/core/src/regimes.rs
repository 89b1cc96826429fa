//! Scaling regimes beyond 1024 channels (Sections 4.2 and 5.1).
//!
//! Each 1024-channel design point is split into *sensing* and
//! *non-sensing* (communication + computation) parts (Eq. 2). Sensing
//! power and area scale linearly with the channel count (Eq. 5). For the
//! non-sensing part the paper studies two opposing communication-centric
//! hypotheses:
//!
//! * **Naive design** — the transceiver cannot run faster, so every added
//!   channel brings its own non-sensing power *and* area increment; the
//!   whole SoC scales linearly, `P_soc / P_budget` stays constant, and
//!   volumetric efficiency never improves.
//! * **High-margin design** — the transceiver and antenna absorb the
//!   higher data rate at constant energy-per-bit, so non-sensing *area*
//!   stays fixed while non-sensing *power* grows with the data rate; the
//!   sensing fraction of area approaches 1 but total power eventually
//!   exceeds the budget.

use core::fmt;

use crate::budget::power_budget;
use crate::error::{CoreError, Result};
use crate::scaling::ScaledSoc;
use crate::units::{Area, Power};

/// The two communication-centric scaling hypotheses of Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ScalingRegime {
    /// Every channel carries its own non-sensing increment.
    Naive,
    /// Fixed non-sensing area; non-sensing power tracks the data rate.
    HighMargin,
}

impl fmt::Display for ScalingRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Naive => f.write_str("naive"),
            Self::HighMargin => f.write_str("high-margin"),
        }
    }
}

/// A 1024-channel reference design split into sensing and non-sensing
/// parts (Eq. 2), the anchor for all beyond-1024 projections.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitDesign {
    scaled: ScaledSoc,
    sensing_power: Power,
    non_sensing_power: Power,
    sensing_area: Area,
    non_sensing_area: Area,
}

impl SplitDesign {
    /// Splits a scaled design point using its spec's assumed sensing
    /// fractions.
    ///
    /// # Examples
    ///
    /// ```
    /// use mindful_core::regimes::SplitDesign;
    /// use mindful_core::scaling::scale_to_standard;
    /// use mindful_core::soc::soc_by_id;
    ///
    /// let bisc = scale_to_standard(&soc_by_id(1)?)?;
    /// let split = SplitDesign::from_scaled(bisc);
    /// let total = split.sensing_power() + split.non_sensing_power();
    /// assert!((total - split.scaled().power()).abs().watts() < 1e-12);
    /// # Ok::<(), mindful_core::CoreError>(())
    /// ```
    #[must_use]
    pub fn from_scaled(scaled: ScaledSoc) -> Self {
        let fractions = scaled.spec().sensing_fractions();
        let sensing_power = scaled.power() * fractions.power();
        let non_sensing_power = scaled.power() - sensing_power;
        let sensing_area = scaled.area() * fractions.area();
        let non_sensing_area = scaled.area() - sensing_area;
        Self {
            scaled,
            sensing_power,
            non_sensing_power,
            sensing_area,
            non_sensing_area,
        }
    }

    /// The underlying scaled (1024-channel) design point.
    #[must_use]
    pub fn scaled(&self) -> &ScaledSoc {
        &self.scaled
    }

    /// Reference channel count (1024 for the paper's anchors).
    #[must_use]
    pub fn reference_channels(&self) -> u64 {
        self.scaled.channels()
    }

    /// Power devoted to sensing at the reference point.
    #[must_use]
    pub fn sensing_power(&self) -> Power {
        self.sensing_power
    }

    /// Power devoted to communication and computation at the reference
    /// point.
    #[must_use]
    pub fn non_sensing_power(&self) -> Power {
        self.non_sensing_power
    }

    /// Area devoted to sensing at the reference point.
    #[must_use]
    pub fn sensing_area(&self) -> Area {
        self.sensing_area
    }

    /// Area devoted to communication and computation at the reference
    /// point.
    #[must_use]
    pub fn non_sensing_area(&self) -> Area {
        self.non_sensing_area
    }

    /// Projects the design to `channels ≥ reference` under a regime.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BelowReferenceChannels`] when `channels` is
    /// below the reference point: the Eq. 5 linear laws only extrapolate
    /// upward.
    pub fn project(&self, regime: ScalingRegime, channels: u64) -> Result<Projection> {
        let reference = self.reference_channels();
        if channels < reference {
            return Err(CoreError::BelowReferenceChannels {
                requested: channels,
                reference,
            });
        }
        let ratio = channels as f64 / reference as f64;
        let (non_sensing_power, non_sensing_area) = match regime {
            ScalingRegime::Naive => (
                self.non_sensing_power * ratio,
                self.non_sensing_area * ratio,
            ),
            ScalingRegime::HighMargin => (self.non_sensing_power * ratio, self.non_sensing_area),
        };
        Ok(Projection {
            channels,
            regime,
            sensing_power: self.sensing_power * ratio,
            non_sensing_power,
            sensing_area: self.sensing_area * ratio,
            non_sensing_area,
        })
    }

    /// The channel count at which a high-margin projection first exceeds
    /// the power budget, or `None` if it never does.
    ///
    /// Solves `P_soc(n) = P_budget(n)` in closed form: with utilization
    /// `u` and sensing-area fraction `s` at the reference point, the
    /// crossover sits at `n_ref · (1 − s) / (u − s)` (only when `u > s`).
    #[must_use]
    pub fn high_margin_crossover(&self) -> Option<u64> {
        let u = self.scaled.budget_utilization();
        let total_area = self.scaled.area();
        let s = self.sensing_area / total_area;
        if u <= s {
            return None;
        }
        let x = (1.0 - s) / (u - s);
        if x < 1.0 {
            // Already over budget at the reference point.
            return Some(self.reference_channels());
        }
        Some((self.reference_channels() as f64 * x).ceil() as u64)
    }
}

/// A projected design point at a channel count beyond the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    channels: u64,
    regime: ScalingRegime,
    sensing_power: Power,
    non_sensing_power: Power,
    sensing_area: Area,
    non_sensing_area: Area,
}

impl Projection {
    /// The projected channel count.
    #[must_use]
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Projected sensing power.
    #[must_use]
    pub fn sensing_power(&self) -> Power {
        self.sensing_power
    }

    /// Projected non-sensing power.
    #[must_use]
    pub fn non_sensing_power(&self) -> Power {
        self.non_sensing_power
    }

    /// Projected sensing area.
    #[must_use]
    pub fn sensing_area(&self) -> Area {
        self.sensing_area
    }

    /// Projected non-sensing area.
    #[must_use]
    pub fn non_sensing_area(&self) -> Area {
        self.non_sensing_area
    }

    /// Projected total power `P_soc(n)` (Eq. 2).
    #[must_use]
    pub fn total_power(&self) -> Power {
        self.sensing_power + self.non_sensing_power
    }

    /// Projected total area `A_soc(n)` (Eq. 2).
    #[must_use]
    pub fn total_area(&self) -> Area {
        self.sensing_area + self.non_sensing_area
    }

    /// The power budget implied by the projected area (Eq. 3).
    #[must_use]
    pub fn power_budget(&self) -> Power {
        power_budget(self.total_area())
    }

    /// Ratio `P_soc / P_budget` (the y-axis of Fig. 5).
    #[must_use]
    pub fn budget_utilization(&self) -> f64 {
        self.total_power() / self.power_budget()
    }

    /// Fraction of area devoted to sensing (the y-axis of Fig. 6, the
    /// volumetric-efficiency indicator of Eq. 4).
    #[must_use]
    pub fn sensing_area_fraction(&self) -> f64 {
        self.sensing_area / self.total_area()
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} ch: {:.2} mW / {:.2} mW budget ({:.0}%), sensing area {:.0}%",
            self.regime,
            self.channels,
            self.total_power().milliwatts(),
            self.power_budget().milliwatts(),
            self.budget_utilization() * 100.0,
            self.sensing_area_fraction() * 100.0,
        )
    }
}

/// Splits all eight wireless 1024-channel anchors — the starting points of
/// the Fig. 5 / Fig. 6 sweeps.
#[must_use]
pub fn standard_split_designs() -> Vec<SplitDesign> {
    crate::scaling::standard_design_points()
        .into_iter()
        .map(SplitDesign::from_scaled)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::scale_to_standard;
    use crate::soc::soc_by_id;

    fn split(id: u8) -> SplitDesign {
        SplitDesign::from_scaled(scale_to_standard(&soc_by_id(id).unwrap()).unwrap())
    }

    #[test]
    fn split_conserves_totals() {
        for id in 1..=8 {
            let s = split(id);
            let p = s.sensing_power() + s.non_sensing_power();
            let a = s.sensing_area() + s.non_sensing_area();
            assert!((p - s.scaled().power()).abs().watts() < 1e-12);
            assert!((a - s.scaled().area()).abs().square_meters() < 1e-15);
        }
    }

    #[test]
    fn naive_utilization_is_flat() {
        // Fig. 5 (naive): P_soc tracks P_budget exactly as n grows.
        for id in 1..=8 {
            let s = split(id);
            let u0 = s
                .project(ScalingRegime::Naive, 1024)
                .unwrap()
                .budget_utilization();
            for n in [2048_u64, 4096, 8192] {
                let u = s
                    .project(ScalingRegime::Naive, n)
                    .unwrap()
                    .budget_utilization();
                assert!((u - u0).abs() < 1e-9, "SoC {id}: {u} vs {u0} at {n}");
            }
        }
    }

    #[test]
    fn naive_sensing_fraction_is_flat() {
        // Fig. 6 (naive): volumetric efficiency never improves.
        let s = split(1);
        let f0 = s
            .project(ScalingRegime::Naive, 1024)
            .unwrap()
            .sensing_area_fraction();
        let f1 = s
            .project(ScalingRegime::Naive, 8192)
            .unwrap()
            .sensing_area_fraction();
        assert!((f0 - f1).abs() < 1e-12);
    }

    #[test]
    fn high_margin_utilization_grows_and_exceeds_budget() {
        // Fig. 5 (high-margin): P_soc eventually exceeds P_budget for all.
        for id in 1..=8 {
            let s = split(id);
            let u1 = s
                .project(ScalingRegime::HighMargin, 2048)
                .unwrap()
                .budget_utilization();
            let u2 = s
                .project(ScalingRegime::HighMargin, 8192)
                .unwrap()
                .budget_utilization();
            assert!(u2 > u1, "SoC {id}");
            let crossover = s.high_margin_crossover();
            assert!(
                crossover.is_some(),
                "SoC {id} must eventually exceed the budget"
            );
        }
    }

    #[test]
    fn high_margin_sensing_fraction_approaches_one() {
        // Fig. 6 (high-margin): sensing area dominates at scale.
        for id in 1..=8 {
            let s = split(id);
            let f0 = s
                .project(ScalingRegime::HighMargin, 1024)
                .unwrap()
                .sensing_area_fraction();
            let f1 = s
                .project(ScalingRegime::HighMargin, 8192)
                .unwrap()
                .sensing_area_fraction();
            assert!(f1 > f0, "SoC {id}");
            let f_huge = s
                .project(ScalingRegime::HighMargin, 1 << 24)
                .unwrap()
                .sensing_area_fraction();
            assert!(f_huge > 0.99, "SoC {id}: {f_huge}");
        }
    }

    #[test]
    fn crossover_matches_numeric_search() {
        for id in 1..=8 {
            let s = split(id);
            let Some(cross) = s.high_margin_crossover() else {
                panic!("SoC {id} should cross");
            };
            let at = s
                .project(ScalingRegime::HighMargin, cross)
                .unwrap()
                .budget_utilization();
            assert!(at >= 1.0 - 1e-6, "SoC {id}: {at} at {cross}");
            if cross >= 2048 {
                let before = s
                    .project(ScalingRegime::HighMargin, cross - 1024)
                    .unwrap()
                    .budget_utilization();
                assert!(before < at);
            }
        }
    }

    #[test]
    fn halo_star_starts_at_the_budget() {
        let s = split(8);
        let u = s
            .project(ScalingRegime::HighMargin, 1024)
            .unwrap()
            .budget_utilization();
        assert!((u - 1.0).abs() < 1e-9);
        assert_eq!(s.high_margin_crossover(), Some(1024));
    }

    #[test]
    fn projection_below_reference_is_rejected() {
        let s = split(1);
        let err = s.project(ScalingRegime::Naive, 512).unwrap_err();
        assert!(matches!(
            err,
            CoreError::BelowReferenceChannels {
                requested: 512,
                reference: 1024
            }
        ));
    }

    #[test]
    fn projection_at_reference_matches_anchor() {
        let s = split(3);
        for regime in [ScalingRegime::Naive, ScalingRegime::HighMargin] {
            let p = s.project(regime, 1024).unwrap();
            assert!((p.total_power() - s.scaled().power()).abs().watts() < 1e-12);
            assert!((p.total_area() - s.scaled().area()).abs().square_meters() < 1e-15);
        }
    }

    #[test]
    fn standard_split_designs_has_eight_anchors() {
        let all = standard_split_designs();
        assert_eq!(all.len(), 8);
        assert!(all.iter().all(|s| s.reference_channels() == 1024));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ScalingRegime::Naive.to_string(), "naive");
        assert_eq!(ScalingRegime::HighMargin.to_string(), "high-margin");
        let p = split(1).project(ScalingRegime::HighMargin, 2048).unwrap();
        let text = p.to_string();
        assert!(text.contains("2048 ch"));
        assert!(text.contains("high-margin"));
    }
}
