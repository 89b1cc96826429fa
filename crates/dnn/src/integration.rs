//! On-implant DNN integration analysis (Section 5.3, Fig. 10).
//!
//! A computation-centric implant runs the whole decoder on-chip and
//! transmits only its 40-label output. For a scaled SoC anchor and a
//! channel count `n`, the total power is
//!
//! ```text
//! P_soc(n) = P_sensing(n) + P_comp(n') + P_comm(n_out)
//! ```
//!
//! where `P_comp` is the MAC-count lower bound of Eq. 13 for the α-scaled
//! model (α set by the *active* channels `n' ≤ n`, allowing the channel-
//! dropout optimization of Section 6.2), and `P_comm` is the tiny OOK
//! cost of streaming the output labels. As in the QAM study, sensing
//! power/area grow linearly while the non-sensing area is reused for
//! computation.

use core::fmt;

use mindful_accel::alloc::{best_allocation, Allocation};
use mindful_accel::tech::TechnologyNode;
use mindful_core::budget::power_budget;
use mindful_core::regimes::SplitDesign;
use mindful_core::units::{Area, Energy, Power};

use crate::arch::{workload_of, LayerSpec};
use crate::error::{DnnError, Result};
use crate::models::{ModelFamily, APPLICATION_RATE, BASE_CHANNELS, OUTPUT_LABELS};

/// The largest budget utilization that still counts as feasible (the
/// slack absorbs rounding in `P_soc / P_budget`).
pub(crate) const MAX_UTILIZATION: f64 = 1.0 + 1e-12;

/// Configuration for the integration analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrationConfig {
    /// Technology node of the MAC array (paper: 45 nm; `Tech` step:
    /// 12 nm).
    pub node: TechnologyNode,
    /// OOK energy per bit for the reduced output stream (paper anchor:
    /// 50 pJ/bit).
    pub energy_per_bit: Energy,
    /// Digitized bits per transmitted output value.
    pub sample_bits: u8,
    /// Scale on the sensing area per channel (`Dense` optimization of
    /// Section 6.2 halves it; default 1.0).
    pub sensing_area_scale: f64,
}

impl IntegrationConfig {
    /// The paper's Section 5.3 configuration: 45 nm MACs, 50 pJ/bit OOK,
    /// 10-bit outputs, unmodified sensing density.
    #[must_use]
    pub fn paper_45nm() -> Self {
        Self {
            node: TechnologyNode::NANGATE_45NM,
            energy_per_bit: Energy::from_picojoules(50.0),
            sample_bits: 10,
            sensing_area_scale: 1.0,
        }
    }

    /// The Section 6.2 `Tech` variant: 12 nm MACs.
    #[must_use]
    pub fn paper_12nm() -> Self {
        Self {
            node: TechnologyNode::ADVANCED_12NM,
            ..Self::paper_45nm()
        }
    }

    /// Returns a copy with the `Dense` optimization applied (sensing
    /// area per channel halved).
    #[must_use]
    pub fn with_dense_channels(mut self) -> Self {
        self.sensing_area_scale *= 0.5;
        self
    }
}

/// One evaluated computation-centric operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrationPoint {
    channels: u64,
    active_channels: u64,
    sensing: Power,
    computation: Power,
    communication: Power,
    area: Area,
    allocation: Allocation,
}

impl IntegrationPoint {
    /// DNN computation power lower bound (Eq. 13).
    #[must_use]
    pub fn computation_power(&self) -> Power {
        self.computation
    }

    /// Wireless power for the output stream.
    #[must_use]
    pub fn communication_power(&self) -> Power {
        self.communication
    }

    /// Total SoC power.
    #[must_use]
    pub fn total_power(&self) -> Power {
        self.sensing + self.computation + self.communication
    }

    /// Projected SoC area.
    #[must_use]
    pub fn area(&self) -> Area {
        self.area
    }

    /// The power budget at this area.
    #[must_use]
    pub fn power_budget(&self) -> Power {
        power_budget(self.area)
    }

    /// `P_soc / P_budget` — the y-axis of Fig. 10.
    #[must_use]
    pub fn budget_utilization(&self) -> f64 {
        self.total_power() / self.power_budget()
    }

    /// Whether the point respects the power budget.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.budget_utilization() <= MAX_UTILIZATION
    }

    /// The MAC allocation behind the computation power.
    #[must_use]
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// Silicon area of the allocated MAC array — the compute hardware
    /// that must fit in the reused non-sensing area.
    #[must_use]
    pub fn compute_area(&self) -> Area {
        self.allocation.area()
    }
}

impl fmt::Display for IntegrationPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ch ({} active): {:.2} mW = sens {:.2} + comp {:.2} + comm {:.3} \
             vs budget {:.2} mW ({:.0}%)",
            self.channels,
            self.active_channels,
            self.total_power().milliwatts(),
            self.sensing.milliwatts(),
            self.computation.milliwatts(),
            self.communication.milliwatts(),
            self.power_budget().milliwatts(),
            self.budget_utilization() * 100.0
        )
    }
}

/// Projected sensing power, sensing area, and reused non-sensing area at
/// `channels` for a design anchor.
pub(crate) fn project_platform(
    design: &SplitDesign,
    channels: u64,
    config: &IntegrationConfig,
) -> Result<(Power, Area)> {
    let reference = design.reference_channels();
    if channels < reference {
        return Err(mindful_core::CoreError::BelowReferenceChannels {
            requested: channels,
            reference,
        }
        .into());
    }
    let ratio = channels as f64 / reference as f64;
    let sensing_power = design.sensing_power() * ratio;
    let area =
        design.sensing_area() * (ratio * config.sensing_area_scale) + design.non_sensing_area();
    Ok((sensing_power, area))
}

/// Evaluates integrating a model family onto a scaled SoC anchor at
/// `channels` total channels with `active_channels` feeding the decoder.
///
/// # Errors
///
/// * [`DnnError::ActiveAboveChannels`] if `active_channels` exceeds
///   `channels`.
/// * [`DnnError::Core`] if `channels` is below the anchor's reference.
/// * [`DnnError::BelowBaseChannels`] if `active_channels` is below the
///   model's 128-channel base.
/// * [`DnnError::Accel`] if no MAC allocation meets the real-time
///   deadline.
pub fn evaluate(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    active_channels: u64,
    config: &IntegrationConfig,
) -> Result<IntegrationPoint> {
    if active_channels > channels {
        return Err(DnnError::ActiveAboveChannels {
            active: active_channels,
            channels,
        });
    }
    let platform = project_platform(design, channels, config)?;
    evaluate_on(
        platform,
        family,
        channels,
        active_channels,
        config,
        &mut Vec::new(),
    )
}

/// The step every search shares: evaluates `active_channels` on a
/// projected `(sensing power, area)` platform, building the model's
/// layer table into the reused `layers` buffer.
fn evaluate_on(
    (sensing, area): (Power, Area),
    family: ModelFamily,
    channels: u64,
    active_channels: u64,
    config: &IntegrationConfig,
    layers: &mut Vec<LayerSpec>,
) -> Result<IntegrationPoint> {
    family.layers_into(active_channels, layers)?;
    let allocation = best_allocation(&workload_of(layers)?, config.node, family.deadline())?;
    let computation = allocation.power();
    let out_rate = mindful_core::throughput::computation_centric_rate(
        OUTPUT_LABELS,
        config.sample_bits,
        APPLICATION_RATE,
    );
    let communication = out_rate * config.energy_per_bit;
    Ok(IntegrationPoint {
        channels,
        active_channels,
        sensing,
        computation,
        communication,
        area,
        allocation,
    })
}

/// Evaluates with all channels active (no dropout) — the Fig. 10 sweep.
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_full(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    config: &IntegrationConfig,
) -> Result<IntegrationPoint> {
    evaluate(design, family, channels, channels, config)
}

/// The maximum channel count (stepped by `step`) at which the full model
/// still fits the budget, or `None` if it does not fit even at the
/// anchor's reference count.
///
/// Utilization grows with `n`, so the search stops at the first step
/// that does not fit.
///
/// # Errors
///
/// Returns [`DnnError::EmptyDimension`] for a zero step.
pub fn max_channels(
    design: &SplitDesign,
    family: ModelFamily,
    config: &IntegrationConfig,
    step: u64,
    limit: u64,
) -> Result<Option<u64>> {
    if step == 0 {
        return Err(DnnError::EmptyDimension { name: "step" });
    }
    let mut layers = Vec::new();
    let mut best = None;
    let mut n = design.reference_channels();
    while n <= limit {
        let platform = project_platform(design, n, config)?;
        match evaluate_on(platform, family, n, n, config, &mut layers) {
            Ok(point) if point.is_feasible() => best = Some(n),
            Ok(_) | Err(DnnError::Accel(_)) => break,
            Err(e) => return Err(e),
        }
        n += step;
    }
    Ok(best)
}

/// The largest number of *active* channels `n' ≤ n` for which the model
/// fits the budget at `n` total channels (the `ChDr` channel-dropout
/// optimization of Section 6.2), searched on multiples of `step`.
///
/// The model only grows with `n'`, so the search stops at the first
/// active count that does not fit. Returns `None` when even the
/// 128-channel base model does not fit.
///
/// # Errors
///
/// Returns [`DnnError::EmptyDimension`] for a zero step and propagates
/// platform-projection errors.
pub fn max_active_channels(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    config: &IntegrationConfig,
    step: u64,
) -> Result<Option<u64>> {
    if step == 0 {
        return Err(DnnError::EmptyDimension { name: "step" });
    }
    let platform = project_platform(design, channels, config)?;
    let mut layers = Vec::new();
    let mut best = None;
    let mut active = BASE_CHANNELS;
    while active <= channels {
        match evaluate_on(platform, family, channels, active, config, &mut layers) {
            Ok(point) if point.is_feasible() => best = Some(active),
            Ok(_) | Err(DnnError::Accel(_)) => break,
            Err(e) => return Err(e),
        }
        active += step;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindful_core::regimes::standard_split_designs;
    use mindful_core::scaling::scale_to_standard;
    use mindful_core::soc::soc_by_id;

    fn anchor(id: u8) -> SplitDesign {
        SplitDesign::from_scaled(scale_to_standard(&soc_by_id(id).unwrap()).unwrap())
    }

    #[test]
    fn bisc_integrates_both_models_at_1024() {
        let design = anchor(1);
        let config = IntegrationConfig::paper_45nm();
        for family in ModelFamily::ALL {
            let point = evaluate_full(&design, family, 1024, &config).unwrap();
            assert!(point.is_feasible(), "{family}: {point}");
        }
    }

    #[test]
    fn small_socs_cannot_integrate_the_dn_cnn_at_1024() {
        // Fig. 10: SoCs 4 and 5 exceed the budget by ~5x for the DN-CNN.
        let config = IntegrationConfig::paper_45nm();
        for id in [4_u8, 5] {
            let point = evaluate_full(&anchor(id), ModelFamily::DnCnn, 1024, &config).unwrap();
            assert!(!point.is_feasible(), "SoC {id}: {point}");
            assert!(
                point.budget_utilization() > 3.0,
                "SoC {id} exceeds by ~5x, got {:.1}x",
                point.budget_utilization()
            );
        }
    }

    #[test]
    fn utilization_grows_with_channels() {
        let design = anchor(1);
        let config = IntegrationConfig::paper_45nm();
        let mut prev = 0.0;
        for n in [1024_u64, 2048, 3072, 4096] {
            let u = evaluate_full(&design, ModelFamily::Mlp, n, &config)
                .unwrap()
                .budget_utilization();
            assert!(u > prev, "utilization must rise at {n}");
            prev = u;
        }
    }

    #[test]
    fn average_mlp_crossover_is_near_1800() {
        // Fig. 10: among SoCs that accommodate the DNNs, the average
        // maximum channel count is ~1800 for the MLP and ~1400 for the
        // DN-CNN (and the MLP always beats the DN-CNN).
        let config = IntegrationConfig::paper_45nm();
        let mut mlp_max = Vec::new();
        let mut cnn_max = Vec::new();
        for design in standard_split_designs() {
            if let Some(n) = max_channels(&design, ModelFamily::Mlp, &config, 64, 1 << 15).unwrap()
            {
                mlp_max.push(n as f64);
            }
            if let Some(n) =
                max_channels(&design, ModelFamily::DnCnn, &config, 64, 1 << 15).unwrap()
            {
                cnn_max.push(n as f64);
            }
        }
        assert!(!mlp_max.is_empty() && !cnn_max.is_empty());
        let mlp_avg = mlp_max.iter().sum::<f64>() / mlp_max.len() as f64;
        let cnn_avg = cnn_max.iter().sum::<f64>() / cnn_max.len() as f64;
        assert!(
            (1400.0..=2400.0).contains(&mlp_avg),
            "MLP average max {mlp_avg:.0} (paper: ~1800)"
        );
        assert!(
            (1100.0..=1800.0).contains(&cnn_avg),
            "DN-CNN average max {cnn_avg:.0} (paper: ~1400)"
        );
        assert!(mlp_avg > cnn_avg);
    }

    #[test]
    fn channel_dropout_restores_feasibility() {
        // At 4096 channels the full MLP blows every budget, but dropping
        // to fewer active channels fits.
        let design = anchor(1);
        let config = IntegrationConfig::paper_45nm();
        let full = evaluate_full(&design, ModelFamily::Mlp, 4096, &config).unwrap();
        assert!(!full.is_feasible());
        let active = max_active_channels(&design, ModelFamily::Mlp, 4096, &config, 32)
            .unwrap()
            .expect("some dropout level must fit");
        assert!(active < 4096);
        let dropped = evaluate(&design, ModelFamily::Mlp, 4096, active, &config).unwrap();
        assert!(dropped.is_feasible(), "{dropped}");
    }

    #[test]
    fn technology_scaling_raises_the_dropout_ceiling() {
        // Section 6.2 `Tech`: 12 nm allows more active channels.
        let design = anchor(1);
        let at45 = max_active_channels(
            &design,
            ModelFamily::Mlp,
            4096,
            &IntegrationConfig::paper_45nm(),
            32,
        )
        .unwrap()
        .unwrap();
        let at12 = max_active_channels(
            &design,
            ModelFamily::Mlp,
            4096,
            &IntegrationConfig::paper_12nm(),
            32,
        )
        .unwrap()
        .unwrap();
        assert!(at12 > at45, "12 nm {at12} vs 45 nm {at45}");
    }

    #[test]
    fn dense_channels_shrink_the_budget() {
        // Section 6.2 `Dense`: halving sensing area lowers the budget.
        let design = anchor(1);
        let normal = evaluate_full(
            &design,
            ModelFamily::Mlp,
            2048,
            &IntegrationConfig::paper_45nm(),
        )
        .unwrap();
        let dense = evaluate_full(
            &design,
            ModelFamily::Mlp,
            2048,
            &IntegrationConfig::paper_45nm().with_dense_channels(),
        )
        .unwrap();
        assert!(dense.power_budget() < normal.power_budget());
        assert!(dense.budget_utilization() > normal.budget_utilization());
    }

    #[test]
    fn communication_power_is_negligible() {
        // 40 labels × 10 bits × 2 kHz × 50 pJ = 40 µW.
        let design = anchor(1);
        let point = evaluate_full(
            &design,
            ModelFamily::Mlp,
            1024,
            &IntegrationConfig::paper_45nm(),
        )
        .unwrap();
        assert!((point.communication_power().microwatts() - 40.0).abs() < 1e-6);
        assert!(point.communication_power() < point.computation_power() * 0.05);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let design = anchor(1);
        let config = IntegrationConfig::paper_45nm();
        assert!(evaluate_full(&design, ModelFamily::Mlp, 512, &config).is_err());
        assert_eq!(
            evaluate(&design, ModelFamily::Mlp, 1024, 2048, &config).unwrap_err(),
            DnnError::ActiveAboveChannels {
                active: 2048,
                channels: 1024
            }
        );
        assert!(evaluate(&design, ModelFamily::Mlp, 1024, 64, &config).is_err());
        assert!(max_channels(&design, ModelFamily::Mlp, &config, 0, 4096).is_err());
        assert!(max_active_channels(&design, ModelFamily::Mlp, 2048, &config, 0).is_err());
    }

    #[test]
    fn compute_area_never_binds() {
        // The paper treats power as the binding constraint and reuses
        // the non-sensing area for computation; confirm the MAC array of
        // every *feasible* operating point occupies a small fraction of
        // that area, so the power-first framing is self-consistent.
        let config = IntegrationConfig::paper_45nm();
        for id in 1..=8_u8 {
            let design = anchor(id);
            for family in ModelFamily::ALL {
                let Ok(point) = evaluate_full(&design, family, 1024, &config) else {
                    continue;
                };
                if !point.is_feasible() {
                    continue;
                }
                let available = design.non_sensing_area();
                let used = point.compute_area();
                assert!(
                    used.square_meters() < 0.2 * available.square_meters(),
                    "SoC {id} {family}: MAC array {:.3} mm^2 vs non-sensing {:.3} mm^2",
                    used.square_millimeters(),
                    available.square_millimeters()
                );
            }
        }
    }

    #[test]
    fn display_breaks_down_power() {
        let design = anchor(1);
        let point = evaluate_full(
            &design,
            ModelFamily::Mlp,
            1024,
            &IntegrationConfig::paper_45nm(),
        )
        .unwrap();
        let text = point.to_string();
        assert!(text.contains("sens"));
        assert!(text.contains("comp"));
        assert!(text.contains("budget"));
    }
}
