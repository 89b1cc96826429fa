//! DNN partitioning between implant and wearable (Section 6.1, Fig. 11).
//!
//! The implant runs only the first layers of the decoder and transmits
//! the intermediate activations; the wearable finishes the network. This
//! trades computation power for communication power. The paper's rule:
//! *partition at the earliest layer whose output data rate does not
//! exceed the transmission rate of a 1024-channel communication-centric
//! design* (i.e., the SoC's own raw-streaming rate `d · 1024 · f`).

use core::fmt;
use core::num::NonZeroU64;
use core::ops::RangeInclusive;

use mindful_accel::alloc::{best_allocation, DeadlineSteps};
use mindful_core::budget::power_budget;
use mindful_core::regimes::SplitDesign;
use mindful_core::throughput::sensing_throughput;
use mindful_core::units::{DataRate, Power};

use crate::arch::{workload_of, Architecture, LayerSpec};
use crate::error::{DnnError, Result};
use crate::integration::{max_channels, project_platform, IntegrationConfig, MAX_UTILIZATION};
use crate::models::{ModelFamily, APPLICATION_RATE, BASE_CHANNELS};

/// A chosen partition of a model at one channel count.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedPoint {
    channels: u64,
    keep_layers: usize,
    total_layers: usize,
    link_rate: DataRate,
    sensing: Power,
    computation: Power,
    communication: Power,
    budget: Power,
}

impl PartitionedPoint {
    /// Total NI channels.
    #[must_use]
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Layers kept on the implant.
    #[must_use]
    pub fn keep_layers(&self) -> usize {
        self.keep_layers
    }

    /// Total layers of the model at this scale.
    #[must_use]
    pub fn total_layers(&self) -> usize {
        self.total_layers
    }

    /// Wireless rate of the transmitted (intermediate or final)
    /// activations.
    #[must_use]
    pub fn link_rate(&self) -> DataRate {
        self.link_rate
    }

    /// On-implant computation power for the kept prefix.
    #[must_use]
    pub fn computation_power(&self) -> Power {
        self.computation
    }

    /// Wireless transmit power.
    #[must_use]
    pub fn communication_power(&self) -> Power {
        self.communication
    }

    /// Total SoC power.
    #[must_use]
    pub fn total_power(&self) -> Power {
        self.sensing + self.computation + self.communication
    }

    /// The power budget at this channel count.
    #[must_use]
    pub fn power_budget(&self) -> Power {
        self.budget
    }

    /// `P_soc / P_budget`.
    #[must_use]
    pub fn budget_utilization(&self) -> f64 {
        self.total_power() / self.budget
    }

    /// Whether the point respects the power budget.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.budget_utilization() <= MAX_UTILIZATION
    }
}

impl fmt::Display for PartitionedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ch, {}/{} layers on implant, {:.1} Mbps: {:.2} mW vs {:.2} mW budget",
            self.channels,
            self.keep_layers,
            self.total_layers,
            self.link_rate.megabits_per_second(),
            self.total_power().milliwatts(),
            self.budget.milliwatts()
        )
    }
}

/// The wireless rate needed to stream a layer's output activations at
/// the application rate with `sample_bits`-bit values.
#[must_use]
pub fn activation_rate(output_values: u64, sample_bits: u8) -> DataRate {
    mindful_core::throughput::computation_centric_rate(output_values, sample_bits, APPLICATION_RATE)
}

/// Finds the earliest layer (1-based prefix length) whose output
/// activations fit under `rate_cap`, or `None` if even the final layer's
/// output does not fit.
#[must_use]
pub fn earliest_split(arch: &Architecture, rate_cap: DataRate, sample_bits: u8) -> Option<usize> {
    split_of(arch.layers(), rate_cap, sample_bits)
}

fn split_of(layers: &[LayerSpec], rate_cap: DataRate, sample_bits: u8) -> Option<usize> {
    layers
        .iter()
        .position(|layer| activation_rate(layer.output_values(), sample_bits) <= rate_cap)
        .map(|idx| idx + 1)
}

/// What a partitioned deployment at `channels` total channels fixes for
/// every active channel count: the projected platform and the link cap
/// (the SoC's own 1024-channel raw-streaming rate).
#[derive(Clone, Copy)]
struct SplitPlatform {
    channels: u64,
    sensing: Power,
    budget: Power,
    rate_cap: DataRate,
}

impl SplitPlatform {
    fn project(design: &SplitDesign, channels: u64, config: &IntegrationConfig) -> Result<Self> {
        let (sensing, area) = project_platform(design, channels, config)?;
        let spec = design.scaled().spec();
        Ok(Self {
            channels,
            sensing,
            budget: power_budget(area),
            rate_cap: sensing_throughput(
                design.reference_channels(),
                spec.sample_bits(),
                spec.sampling(),
            ),
        })
    }

    /// The earliest-layer split of the `active`-channel layer table.
    fn split(
        &self,
        family: ModelFamily,
        active: u64,
        layers: &[LayerSpec],
        sample_bits: u8,
    ) -> Result<usize> {
        split_of(layers, self.rate_cap, sample_bits).ok_or_else(|| DnnError::Infeasible {
            reason: format!(
                "even the final output of {family}@{active} exceeds the {:.1} Mbps link cap",
                self.rate_cap.megabits_per_second()
            ),
        })
    }

    /// `(P_sensing + computation) / P_budget`: a lower bound on the
    /// utilization of any point here whose MAC array draws at least
    /// `computation` (the link power is left out).
    fn utilization_floor(&self, computation: Power) -> f64 {
        (self.sensing + computation) / self.budget
    }

    /// The deployment that keeps `layers[..keep]` on the implant with a
    /// MAC array drawing `computation`.
    fn point_drawing(
        &self,
        layers: &[LayerSpec],
        keep: usize,
        computation: Power,
        config: &IntegrationConfig,
    ) -> PartitionedPoint {
        let link_rate = activation_rate(layers[keep - 1].output_values(), config.sample_bits);
        PartitionedPoint {
            channels: self.channels,
            keep_layers: keep,
            total_layers: layers.len(),
            link_rate,
            sensing: self.sensing,
            computation,
            communication: link_rate * config.energy_per_bit,
            budget: self.budget,
        }
    }

    /// The deployment that keeps `layers[..keep]` on the implant.
    fn point(
        &self,
        family: ModelFamily,
        layers: &[LayerSpec],
        keep: usize,
        config: &IntegrationConfig,
    ) -> Result<PartitionedPoint> {
        let workload = workload_of(&layers[..keep])?;
        let allocation = best_allocation(&workload, config.node, family.deadline())?;
        Ok(self.point_drawing(layers, keep, allocation.power(), config))
    }

    /// The deployment that keeps `layers[..keep]` on the implant with
    /// its MAC array at `⌈Σ macs / B⌉` units, the floor every allocation
    /// of the kept prefix reaches (see
    /// [`max_active_channels_partitioned`]). Its utilization is at most
    /// the allocated point's.
    fn floor_point(
        &self,
        layers: &[LayerSpec],
        keep: usize,
        deadline: DeadlineSteps,
        config: &IntegrationConfig,
    ) -> PartitionedPoint {
        let macs: u64 = layers[..keep].iter().map(LayerSpec::macs).sum();
        let floor = macs.div_ceil(deadline.steps());
        self.point_drawing(layers, keep, config.node.mac_power() * floor as f64, config)
    }
}

/// Evaluates a partitioned deployment of `family` on a scaled SoC anchor
/// at `channels`: the model is split by the earliest-layer rule against
/// the SoC's own 1024-channel raw-streaming rate.
///
/// # Errors
///
/// * [`DnnError::Core`] if `channels` is below the anchor's reference.
/// * [`DnnError::Infeasible`] if even the final output exceeds the rate
///   cap (cannot happen for the paper's 40-label models).
/// * [`DnnError::Accel`] if the kept prefix cannot meet the real-time
///   deadline.
pub fn evaluate_partitioned(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    config: &IntegrationConfig,
) -> Result<PartitionedPoint> {
    evaluate_partitioned_active(design, family, channels, channels, config)
}

/// Evaluates a partitioned deployment where only `active ≤ channels`
/// channels feed the decoder (channel dropout + layer reduction, the
/// `La+ChDr` stack of Section 6.2). The platform scales with the full
/// `channels`; the model and the split point scale with `active`.
///
/// # Errors
///
/// Same as [`evaluate_partitioned`], plus
/// [`DnnError::ActiveAboveChannels`] when `active > channels` and
/// [`DnnError::BelowBaseChannels`] when `active` is below the model's
/// 128-channel base.
pub fn evaluate_partitioned_active(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    active: u64,
    config: &IntegrationConfig,
) -> Result<PartitionedPoint> {
    if active > channels {
        return Err(DnnError::ActiveAboveChannels { active, channels });
    }
    let platform = SplitPlatform::project(design, channels, config)?;
    let mut layers = Vec::new();
    family.layers_into(active, &mut layers)?;
    let keep = platform.split(family, active, &layers, config.sample_bits)?;
    platform.point(family, &layers, keep, config)
}

/// The largest number of active channels `n' ≤ n` whose *partitioned*
/// deployment fits the budget at `n` total channels (the `La + ChDr`
/// combination), searched on multiples of `step` from 128.
///
/// The split layer jumps around with `n'`, so utilization is not
/// monotone in `n'` and a miss can be followed by a fit. The search
/// still returns exactly what a scan of every step returns:
///
/// 1. **Bisect for the stop.** Every allocation keeps layer 1, so it
///    uses at least [`DeadlineSteps::min_mac_hw`] of layer 1 (`lb`), and
///
///    ```text
///    P_soc / P_budget ≥ (P_sensing + P_MAC · lb) / P_budget.
///    ```
///
///    `P_sensing` and `P_budget` are fixed at `n`, and layer 1's `ops`
///    and `seq` both grow with `n'`, so `lb` never falls. Float `+`, `*`
///    and `/` are monotone and the link power is not negative, so in f64
///    the bound never falls either, and at every step it is at most that
///    step's computed utilization: once it exceeds the feasibility limit
///    (or layer 1 alone overruns the deadline), no later step fits. The
///    search bisects on this bound alone for the last step before it
///    stops.
/// 2. **Walk down.** From that step it walks down to 128 and returns the
///    first step that fits. The errors a step can raise (the split's
///    [`DnnError::Infeasible`], the platform projection,
///    [`DnnError::BelowBaseChannels`]) do not depend on the step; the
///    first step raises them, as a scan up from it would.
/// 3. **Floor each step.** Before a step runs [`best_allocation`], its
///    floor
///
///    ```text
///    (P_sensing + P_MAC · ⌈Σ_{l<keep} macs_l / B⌉ + P_link) / P_budget
///    ```
///
///    (`B` the deadline in MAC steps) may rule it out. No allocation of
///    the kept prefix uses fewer MACs: a shared pool of `hw` units needs
///    `Σ seq · ⌈ops / hw⌉ ≤ B` steps, so `hw ≥ Σ macs / B`, and the
///    pipelined stages sum to `Σ ⌈ops / ⌊B / seq⌋⌉ ≥ Σ ops · seq / B`.
///    The floor is evaluated in the same order as
///    [`PartitionedPoint::budget_utilization`], so in f64 it is at most
///    the computed utilization too.
///
/// In Fig. 12 this runs 85 allocations where the scan up to the stop ran
/// 6 358.
///
/// # Errors
///
/// Returns [`DnnError::EmptyDimension`] for a zero step.
pub fn max_active_channels_partitioned(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    config: &IntegrationConfig,
    step: u64,
) -> Result<Option<u64>> {
    let step = NonZeroU64::new(step).ok_or(DnnError::EmptyDimension { name: "step" })?;
    let platform = SplitPlatform::project(design, channels, config)?;
    search(
        Walk::Active(platform),
        family,
        config,
        BASE_CHANNELS..=channels,
        step,
    )
}

/// Rounding slack on the growing-`n` stop of
/// [`max_channels_partitioned`]: the bound's real value is monotone in
/// `n`, its f64 value only to within a few ulps.
const GROWTH_MARGIN: f64 = 1e-9;

/// The maximum channel count at which the *partitioned* deployment fits
/// the budget (stepped search like [`max_channels`]).
///
/// The search is [`max_active_channels_partitioned`]'s: bisect for the
/// stop, walk down, floor each step. Only the stop differs, because the
/// platform grows with `n` too: the integer bound `lb(n)` rises in jumps
/// while `P_budget(n)` rises smoothly, so the stop uses its continuous
/// relaxation (`lb ≥ macs₁ / B`, with `macs₁` layer 1's MACs and `B`
/// the deadline in MAC steps):
///
/// ```text
/// g(n) = (P_sensing(n) + P_MAC · macs₁(n) / B) / P_budget(n).
/// ```
///
/// With `r = n / n_ref`, `P_sensing = s·r` and `P_budget = k·(a·r + c)`
/// for constants `s, k, a, c ≥ 0`, so `g = r / (k·(a·r + c)) · (s +
/// P_MAC · macs₁ / (B·r))`. The first factor never falls as `r` grows,
/// and the second never falls while `macs₁(n) / n` does not: layer 1
/// holds `8n²` MACs in the MLP and `24n²` in the DN-CNN. So `g` never
/// falls, and it bounds every step's utilization from below. Its f64
/// value is within a few ulps of the real one, which `GROWTH_MARGIN`
/// (`1e-9`) absorbs: once `g(n) > 1 + 1e-9`, no step from `n` on fits.
/// Any step past the stop then proves the answer below it, so the
/// bisection stays exact even where `g`'s f64 value wobbles.
///
/// In Fig. 11 this runs 8 allocations where the scan up to the stop ran
/// 514.
///
/// # Errors
///
/// Returns [`DnnError::EmptyDimension`] for a zero step.
pub fn max_channels_partitioned(
    design: &SplitDesign,
    family: ModelFamily,
    config: &IntegrationConfig,
    step: u64,
    limit: u64,
) -> Result<Option<u64>> {
    let step = NonZeroU64::new(step).ok_or(DnnError::EmptyDimension { name: "step" })?;
    search(
        Walk::Total(design),
        family,
        config,
        design.reference_channels()..=limit,
        step,
    )
}

/// What grows along a partitioned search.
#[derive(Clone, Copy)]
enum Walk<'a> {
    /// Fig. 12: the active channels, on a platform fixed at the total.
    Active(SplitPlatform),
    /// Fig. 11: the total channels, all active, on a platform projected
    /// at each.
    Total(&'a SplitDesign),
}

/// The search both partitioned searches share (see
/// [`max_active_channels_partitioned`]): the largest step in `range`
/// that fits.
fn search(
    walk: Walk<'_>,
    family: ModelFamily,
    config: &IntegrationConfig,
    range: RangeInclusive<u64>,
    step: NonZeroU64,
) -> Result<Option<u64>> {
    let (first, last) = range.into_inner();
    if first > last {
        return Ok(None);
    }
    let mut steps = Steps {
        walk,
        family,
        config,
        layers: Vec::new(),
    };
    // The errors no step escapes, raised where a scan up would.
    steps.load(first)?;
    let Ok(deadline) = DeadlineSteps::new(config.node, family.deadline()) else {
        return Ok(None);
    };
    if !steps.before_stop(first, deadline)? {
        return Ok(None);
    }
    let at = |k: u64| first + k * step.get();
    // The last step before the stop: the bound never falls, so no step
    // past a failing one passes.
    let (mut lo, mut hi) = (0, (last - first) / step);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if steps.before_stop(at(mid), deadline)? {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    for k in (0..=lo).rev() {
        if steps.fits(at(k), deadline)? {
            return Ok(Some(at(k)));
        }
    }
    Ok(None)
}

/// One step of a partitioned search: the model at the step's channel
/// count, rebuilt into a reused layer table.
struct Steps<'a> {
    walk: Walk<'a>,
    family: ModelFamily,
    config: &'a IntegrationConfig,
    layers: Vec<LayerSpec>,
}

impl Steps<'_> {
    /// Builds step `n`'s layer table; returns its platform and split.
    fn load(&mut self, n: u64) -> Result<(SplitPlatform, usize)> {
        let platform = match self.walk {
            Walk::Active(platform) => platform,
            Walk::Total(design) => SplitPlatform::project(design, n, self.config)?,
        };
        self.family.layers_into(n, &mut self.layers)?;
        let keep = platform.split(self.family, n, &self.layers, self.config.sample_bits)?;
        Ok((platform, keep))
    }

    /// Whether step `n` comes before the stop, where layer 1's MAC bound
    /// proves that no step from there on fits.
    fn before_stop(&mut self, n: u64, deadline: DeadlineSteps) -> Result<bool> {
        let (platform, _) = self.load(n)?;
        let first = self.layers[0].workload()?;
        let Ok(lb) = deadline.min_mac_hw(&first) else {
            return Ok(false);
        };
        let mac_power = self.config.node.mac_power();
        Ok(match self.walk {
            Walk::Active(_) => platform.utilization_floor(mac_power * lb as f64) <= MAX_UTILIZATION,
            Walk::Total(_) => {
                let relaxed = first.total_macs() as f64 / deadline.steps() as f64;
                platform.utilization_floor(mac_power * relaxed) <= 1.0 + GROWTH_MARGIN
            }
        })
    }

    /// Whether step `n` fits the budget. The allocation runs only when
    /// the step's MAC floor leaves room.
    fn fits(&mut self, n: u64, deadline: DeadlineSteps) -> Result<bool> {
        let (platform, keep) = self.load(n)?;
        if !platform
            .floor_point(&self.layers, keep, deadline, self.config)
            .is_feasible()
        {
            return Ok(false);
        }
        match platform.point(self.family, &self.layers, keep, self.config) {
            Ok(point) => Ok(point.is_feasible()),
            Err(DnnError::Accel(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// The Fig. 11 gain of partitioning: the partitioned deployment's
/// maximum channel count over the full on-implant model's, never below
/// 1.0 (the implant can always keep the whole model). A gain of 1.4
/// means 40 % more channels.
///
/// A gain of 1.0 means either that partitioning does not help or that
/// only one deployment fits at any channel count. `None` when neither
/// fits.
#[must_use]
pub fn channel_gain(full: Option<u64>, partitioned: Option<u64>) -> Option<f64> {
    match (full, partitioned) {
        (Some(f), Some(p)) => Some(p.max(f) as f64 / f as f64),
        (None, Some(_)) | (Some(_), None) => Some(1.0),
        (None, None) => None,
    }
}

/// The Fig. 11 metric for one SoC and model: [`channel_gain`] of the
/// stepped [`max_channels`] and [`max_channels_partitioned`] searches.
///
/// # Errors
///
/// Returns [`DnnError::EmptyDimension`] for a zero step.
pub fn partition_gain(
    design: &SplitDesign,
    family: ModelFamily,
    config: &IntegrationConfig,
    step: u64,
    limit: u64,
) -> Result<Option<f64>> {
    let full = max_channels(design, family, config, step, limit)?;
    let split = max_channels_partitioned(design, family, config, step, limit)?;
    Ok(channel_gain(full, split))
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
    fn earliest_split_respects_rate_cap() {
        let arch = ModelFamily::Mlp.architecture(2048).unwrap();
        // A huge cap allows splitting after layer 1.
        let huge = DataRate::from_megabits_per_second(1e6);
        assert_eq!(earliest_split(&arch, huge, 10), Some(1));
        // A tiny cap forbids even the 40-label output (0.8 Mbps).
        let tiny = DataRate::from_kilobits_per_second(1.0);
        assert_eq!(earliest_split(&arch, tiny, 10), None);
        // The final layer always fits any cap at or above 0.8 Mbps.
        let just = DataRate::from_megabits_per_second(0.9);
        assert_eq!(earliest_split(&arch, just, 10), Some(arch.len()));
    }

    #[test]
    fn split_point_moves_later_as_channels_grow() {
        // Larger α means larger intermediate activations, pushing the
        // feasible split deeper into the network.
        let design = anchor(1); // BISC: cap = 81.92 Mbps.
        let config = IntegrationConfig::paper_45nm();
        let small = evaluate_partitioned(&design, ModelFamily::Mlp, 1024, &config).unwrap();
        let large = evaluate_partitioned(&design, ModelFamily::Mlp, 4096, &config).unwrap();
        assert!(small.keep_layers() <= large.keep_layers());
    }

    #[test]
    fn partitioned_point_transmits_within_cap() {
        let design = anchor(6); // Yang: 20 kHz → 204.8 Mbps cap.
        let config = IntegrationConfig::paper_45nm();
        let point = evaluate_partitioned(&design, ModelFamily::Mlp, 2048, &config).unwrap();
        let cap = sensing_throughput(1024, 10, design.scaled().spec().sampling());
        assert!(point.link_rate() <= cap);
        assert!(point.keep_layers() < point.total_layers());
    }

    #[test]
    fn high_rate_socs_gain_channels_from_partitioning() {
        // Fig. 11: partitioning helps the MLP on some SoCs (the paper's
        // best case is +40 % on SoC 6) and never hurts.
        let config = IntegrationConfig::paper_45nm();
        let mut best_gain: f64 = 1.0;
        for id in 1..=8_u8 {
            let design = anchor(id);
            if let Some(gain) =
                partition_gain(&design, ModelFamily::Mlp, &config, 64, 1 << 14).unwrap()
            {
                assert!(gain >= 1.0 - 1e-12, "SoC {id}: gain {gain}");
                best_gain = best_gain.max(gain);
            }
        }
        assert!(
            best_gain > 1.15,
            "some SoC must gain noticeably from MLP partitioning, best {best_gain:.2}"
        );
    }

    #[test]
    fn dn_cnn_gains_little_from_partitioning() {
        // Fig. 11: the DN-CNN shows no benefit — its intermediate
        // activations are too large to transmit.
        let config = IntegrationConfig::paper_45nm();
        let mut gains = Vec::new();
        for id in 1..=8_u8 {
            if let Some(gain) =
                partition_gain(&anchor(id), ModelFamily::DnCnn, &config, 64, 1 << 14).unwrap()
            {
                gains.push(gain);
            }
        }
        assert!(!gains.is_empty());
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        // The paper reports exactly no benefit; our 1-D DN-CNN has
        // somewhat smaller intermediate tensors than the original 3-D
        // CNN, so the highest-rate SoCs squeeze out a small gain.
        assert!(avg < 1.15, "DN-CNN average gain {avg:.2} should be ~1.0");
    }

    #[test]
    fn mlp_beats_dn_cnn_in_partition_gains() {
        let config = IntegrationConfig::paper_45nm();
        let mut mlp_avg = 0.0;
        let mut cnn_avg = 0.0;
        let mut count = 0.0;
        for id in 1..=8_u8 {
            let design = anchor(id);
            let mlp = partition_gain(&design, ModelFamily::Mlp, &config, 128, 1 << 14).unwrap();
            let cnn = partition_gain(&design, ModelFamily::DnCnn, &config, 128, 1 << 14).unwrap();
            if let (Some(m), Some(c)) = (mlp, cnn) {
                mlp_avg += m;
                cnn_avg += c;
                count += 1.0;
            }
        }
        assert!(count > 0.0);
        assert!(mlp_avg / count >= cnn_avg / count);
    }

    #[test]
    fn invalid_step_is_rejected() {
        let design = anchor(1);
        let config = IntegrationConfig::paper_45nm();
        assert!(max_channels_partitioned(&design, ModelFamily::Mlp, &config, 0, 4096).is_err());
        assert!(partition_gain(&design, ModelFamily::Mlp, &config, 0, 4096).is_err());
    }

    #[test]
    fn channel_gain_is_one_when_only_one_deployment_fits() {
        assert_eq!(channel_gain(Some(1408), Some(1856)), Some(1856.0 / 1408.0));
        assert_eq!(channel_gain(Some(2048), Some(1984)), Some(1.0));
        // Fig. 11's DN-CNN on SoC 6: only the partitioned model fits.
        assert_eq!(channel_gain(None, Some(1280)), Some(1.0));
        assert_eq!(channel_gain(Some(1280), None), Some(1.0));
        assert_eq!(channel_gain(None, None), None);
    }

    #[test]
    fn more_active_than_total_channels_is_rejected() {
        let design = anchor(1);
        let config = IntegrationConfig::paper_45nm();
        assert_eq!(
            evaluate_partitioned_active(&design, ModelFamily::Mlp, 2048, 4096, &config)
                .unwrap_err(),
            DnnError::ActiveAboveChannels {
                active: 4096,
                channels: 2048
            }
        );
    }

    /// Checks every kept prefix of the `active`-channel MLP or DN-CNN at
    /// `channels` total: the MAC floor's utilization never exceeds the
    /// allocated point's. Returns how many prefixes had an allocation.
    fn check_floor(
        design: &SplitDesign,
        family: ModelFamily,
        channels: u64,
        active: u64,
        config: &IntegrationConfig,
    ) -> usize {
        let platform = SplitPlatform::project(design, channels, config).unwrap();
        let deadline = DeadlineSteps::new(config.node, family.deadline()).unwrap();
        let mut layers = Vec::new();
        family.layers_into(active, &mut layers).unwrap();
        let mut checked = 0;
        for keep in 1..=layers.len() {
            let Ok(point) = platform.point(family, &layers, keep, config) else {
                continue;
            };
            let floor = platform.floor_point(&layers, keep, deadline, config);
            assert!(
                floor.budget_utilization() <= point.budget_utilization(),
                "{family}@{active} of {channels}, keep {keep}: floor {floor} over {point}"
            );
            checked += 1;
        }
        checked
    }

    #[test]
    fn mac_floor_stays_under_the_utilization_on_the_figure_grids() {
        let configs = [
            IntegrationConfig::paper_45nm(),
            IntegrationConfig::paper_12nm(),
            IntegrationConfig::paper_12nm().with_dense_channels(),
        ];
        let mut checked = 0;
        for design in standard_split_designs() {
            for family in ModelFamily::ALL {
                for config in &configs {
                    // Fig. 11: every channel active, steps of 64.
                    for n in (design.reference_channels()..=1 << 14).step_by(64) {
                        checked += check_floor(&design, family, n, n, config);
                    }
                    // Fig. 12: active channels in steps of 32.
                    for n in [2048, 4096, 8192] {
                        for active in (BASE_CHANNELS..=n).step_by(32) {
                            checked += check_floor(&design, family, n, active, config);
                        }
                    }
                }
            }
        }
        assert!(checked > 100_000, "only {checked} prefixes checked");
    }

    #[test]
    fn display_shows_split() {
        let design = anchor(1);
        let config = IntegrationConfig::paper_45nm();
        let point = evaluate_partitioned(&design, ModelFamily::Mlp, 1024, &config).unwrap();
        let text = point.to_string();
        assert!(text.contains("layers on implant"));
        assert!(text.contains("Mbps"));
    }
}
