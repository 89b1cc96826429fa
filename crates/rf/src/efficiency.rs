//! Minimum QAM efficiency analysis (Section 5.2, Fig. 7).
//!
//! To transmit raw neural data from `n > 1024` channels without widening
//! the antenna, the transceiver packs `k = ⌈n / 1024⌉` bits into each
//! symbol (the symbol rate stays at the 1024-channel design point). The
//! required transmit energy per bit then follows the QAM link budget, and
//! the *QAM efficiency* `η` of the implementation determines the real
//! power draw. This module computes, per SoC and channel count, the
//! minimum `η` that keeps the whole SoC inside its power budget —
//! reproducing Fig. 7.

use core::fmt;

use mindful_core::budget::power_budget;
use mindful_core::regimes::SplitDesign;
use mindful_core::units::{Area, DataRate, Energy, Power};

use crate::error::{Result, RfError};
use crate::linkbudget::LinkBudget;
use crate::modulation::Modulation;

/// The QAM efficiency achieved by current biomedical transmitters
/// (Section 5.2: ~15 %).
pub const CURRENT_QAM_EFFICIENCY: f64 = 0.15;

/// A realistic short-term QAM efficiency target (Section 5.2: 20 %).
pub const SHORT_TERM_QAM_EFFICIENCY: f64 = 0.20;

/// One evaluated QAM operating point for a scaled SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QamOperatingPoint {
    channels: u64,
    bits_per_symbol: u8,
    rate: DataRate,
    ideal_energy_per_bit: Energy,
    sensing_power: Power,
    budget: Power,
    min_efficiency: f64,
}

impl QamOperatingPoint {
    /// Bits per symbol `k = ⌈n / n_ref⌉`.
    #[must_use]
    pub fn bits_per_symbol(&self) -> u8 {
        self.bits_per_symbol
    }

    /// Projected sensing power at this channel count.
    #[must_use]
    pub fn sensing_power(&self) -> Power {
        self.sensing_power
    }

    /// The power budget at this channel count.
    #[must_use]
    pub fn power_budget(&self) -> Power {
        self.budget
    }

    /// The minimum QAM efficiency that meets the budget (may exceed 1,
    /// meaning even an ideal implementation cannot).
    #[must_use]
    pub fn min_efficiency(&self) -> f64 {
        self.min_efficiency
    }

    /// Whether the point is achievable at a given implementation
    /// efficiency.
    #[must_use]
    pub(crate) fn feasible_at(&self, eta: f64) -> bool {
        self.min_efficiency <= eta
    }
}

impl fmt::Display for QamOperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ch: {} bits/sym, {:.1} Mbps, min QAM efficiency {:.1}%",
            self.channels,
            self.bits_per_symbol,
            self.rate.megabits_per_second(),
            self.min_efficiency * 100.0,
        )
    }
}

/// Evaluates the QAM operating point of a 1024-channel anchor design
/// scaled to `channels` raw-streamed channels.
///
/// The non-sensing area is reused for QAM (it does not grow), sensing
/// power and area grow linearly, and the headroom left under the budget
/// must absorb the whole QAM transmit power.
///
/// # Errors
///
/// * [`RfError::Core`] if `channels` is below the anchor's reference.
/// * [`RfError::InvalidBitsPerSymbol`] if the implied `k` exceeds the
///   model's limit.
/// * [`RfError::LinkInfeasible`] if sensing alone already exceeds the
///   budget (no headroom for any transmitter).
pub fn qam_operating_point(
    design: &SplitDesign,
    channels: u64,
    link: &LinkBudget,
) -> Result<QamOperatingPoint> {
    let reference = design.reference_channels();
    if channels < reference {
        return Err(mindful_core::CoreError::BelowReferenceChannels {
            requested: channels,
            reference,
        }
        .into());
    }
    let ratio = channels as f64 / reference as f64;
    let bits_per_symbol = u8::try_from(channels.div_ceil(reference))
        .map_err(|_| RfError::InvalidBitsPerSymbol { bits: u8::MAX })?;
    let modulation = Modulation::qam(bits_per_symbol)?;

    let spec = design.scaled().spec();
    let rate =
        mindful_core::throughput::sensing_throughput(channels, spec.sample_bits(), spec.sampling());

    // Area: sensing grows linearly, non-sensing is reused for QAM.
    let area: Area = design.sensing_area() * ratio + design.non_sensing_area();
    let budget = power_budget(area);
    let sensing_power = design.sensing_power() * ratio;
    let headroom = budget - sensing_power;
    if headroom.watts() <= 0.0 {
        return Err(RfError::LinkInfeasible {
            reason: format!(
                "sensing power {:.2} mW alone exceeds the {:.2} mW budget at {channels} channels",
                sensing_power.milliwatts(),
                budget.milliwatts()
            ),
        });
    }

    let ideal_energy_per_bit = link.energy_per_bit(modulation, 1.0)?;
    let min_efficiency = link.minimum_efficiency(modulation, rate, headroom)?;

    Ok(QamOperatingPoint {
        channels,
        bits_per_symbol,
        rate,
        ideal_energy_per_bit,
        sensing_power,
        budget,
        min_efficiency,
    })
}

/// The maximum channel count (multiple of `step`) a design supports at a
/// given implementation efficiency, searched up to `max_channels`.
///
/// Returns `None` when even the reference channel count is infeasible.
///
/// # Errors
///
/// Returns [`RfError::InvalidEfficiency`] for `eta` outside `(0, 1]` and
/// [`RfError::InvalidParameter`] for a zero step.
pub fn max_channels_at_efficiency(
    design: &SplitDesign,
    eta: f64,
    link: &LinkBudget,
    step: u64,
    max_channels: u64,
) -> Result<Option<u64>> {
    if !(eta > 0.0 && eta <= 1.0) {
        return Err(RfError::InvalidEfficiency { eta });
    }
    if step == 0 {
        return Err(RfError::InvalidParameter {
            name: "step",
            value: 0.0,
        });
    }
    let mut best = None;
    let mut n = design.reference_channels();
    while n <= max_channels {
        match qam_operating_point(design, n, link) {
            Ok(point) if point.feasible_at(eta) => best = Some(n),
            Ok(_) => break,
            // No headroom at all: stop searching upward.
            Err(RfError::LinkInfeasible { .. }) => break,
            Err(e) => return Err(e),
        }
        n += step;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindful_core::regimes::standard_split_designs;
    use mindful_core::scaling::scale_to_standard;
    use mindful_core::soc::soc_by_id;

    fn bisc() -> SplitDesign {
        SplitDesign::from_scaled(scale_to_standard(&soc_by_id(1).unwrap()).unwrap())
    }

    #[test]
    fn bits_per_symbol_steps_at_reference_multiples() {
        let design = bisc();
        let link = LinkBudget::paper_nominal();
        assert_eq!(
            qam_operating_point(&design, 1024, &link)
                .unwrap()
                .bits_per_symbol(),
            1
        );
        assert_eq!(
            qam_operating_point(&design, 1025, &link)
                .unwrap()
                .bits_per_symbol(),
            2
        );
        assert_eq!(
            qam_operating_point(&design, 2048, &link)
                .unwrap()
                .bits_per_symbol(),
            2
        );
        assert_eq!(
            qam_operating_point(&design, 2049, &link)
                .unwrap()
                .bits_per_symbol(),
            3
        );
    }

    #[test]
    fn min_efficiency_grows_with_channels() {
        let design = bisc();
        let link = LinkBudget::paper_nominal();
        let mut prev = 0.0;
        for n in (1024..=6144).step_by(1024) {
            let eta = qam_operating_point(&design, n, &link)
                .unwrap()
                .min_efficiency();
            assert!(eta > prev, "efficiency must rise at {n}: {eta} vs {prev}");
            prev = eta;
        }
    }

    #[test]
    fn twenty_percent_efficiency_roughly_doubles_channels() {
        // Fig. 7: at 20 % efficiency, SoCs support ~2x channels on
        // average; at 100 %, ~4x. Check the fleet average lands in a
        // sensible band around those anchors.
        let link = LinkBudget::paper_nominal();
        let designs = standard_split_designs();
        let mut at20 = Vec::new();
        let mut at100 = Vec::new();
        for d in &designs {
            if let Some(n) =
                max_channels_at_efficiency(d, SHORT_TERM_QAM_EFFICIENCY, &link, 64, 1 << 17)
                    .unwrap()
            {
                at20.push(n as f64 / 1024.0);
            }
            if let Some(n) = max_channels_at_efficiency(d, 1.0, &link, 64, 1 << 17).unwrap() {
                at100.push(n as f64 / 1024.0);
            }
        }
        assert!(!at20.is_empty() && !at100.is_empty());
        let avg20 = at20.iter().sum::<f64>() / at20.len() as f64;
        let avg100 = at100.iter().sum::<f64>() / at100.len() as f64;
        assert!(avg20 >= 1.0, "20% average {avg20}");
        assert!(
            avg100 > avg20,
            "ideal efficiency must allow more channels ({avg100} vs {avg20})"
        );
        assert!(
            (1.2..=4.0).contains(&avg20),
            "20% efficiency supports ~2x channels, got {avg20:.2}x"
        );
        assert!(
            (2.0..=8.0).contains(&avg100),
            "100% efficiency supports ~4x channels, got {avg100:.2}x"
        );
    }

    #[test]
    fn below_reference_is_rejected() {
        let design = bisc();
        let link = LinkBudget::paper_nominal();
        assert!(matches!(
            qam_operating_point(&design, 512, &link),
            Err(RfError::Core(_))
        ));
    }

    #[test]
    fn search_parameters_are_validated() {
        let design = bisc();
        let link = LinkBudget::paper_nominal();
        assert!(max_channels_at_efficiency(&design, 0.0, &link, 64, 4096).is_err());
        assert!(max_channels_at_efficiency(&design, 1.5, &link, 64, 4096).is_err());
        assert!(max_channels_at_efficiency(&design, 0.5, &link, 0, 4096).is_err());
    }

    #[test]
    fn display_reports_percent() {
        let design = bisc();
        let link = LinkBudget::paper_nominal();
        let p = qam_operating_point(&design, 2048, &link).unwrap();
        let text = p.to_string();
        assert!(text.contains("2048 ch"));
        assert!(text.contains('%'));
    }

    #[test]
    fn efficiency_outpaces_headroom_growth() {
        // Headroom grows linearly with n (budget slope exceeds the
        // sensing-power slope for BISC), but the required transmit power
        // grows super-linearly, so the minimum efficiency still rises.
        let design = bisc();
        let link = LinkBudget::paper_nominal();
        let a = qam_operating_point(&design, 2048, &link).unwrap();
        let b = qam_operating_point(&design, 4096, &link).unwrap();
        let ha = a.power_budget() - a.sensing_power();
        let hb = b.power_budget() - b.sensing_power();
        assert!(hb > ha, "headroom grows linearly for BISC");
        assert!(b.min_efficiency() > a.min_efficiency());
    }
}
