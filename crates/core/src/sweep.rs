//! Parallel batched design-space sweep engine.
//!
//! The experiments in Figs. 5–7 and 10 are all slices of one product
//! space: *SoC anchor × scaling regime × channel count × communication
//! efficiency*. [`SweepGrid`] names that product space once, enumerates
//! it in a fixed row-major order, and fans evaluation out over scoped
//! worker threads. Results always come back in grid order regardless of
//! the worker count, so sweep output (and anything derived from it,
//! such as CSV artifacts) is byte-for-byte reproducible.
//!
//! Two layers are exposed, both clients of a caller-supplied
//! [`Scheduler`] (the chunked, order-preserving
//! [`Scheduler::map_init`] discipline):
//!
//! * [`SweepGrid::map`] — enumerate the grid and apply an arbitrary
//!   per-cell function (used by the RF- and DNN-aware experiment
//!   sweeps, which bring their own models).
//! * [`SweepGrid::evaluate_on`] — the built-in power/area evaluation:
//!   project every cell under its regime, derate non-sensing power by
//!   the cell's communication efficiency, and report budget
//!   utilization. Each cell projects directly: a projection is a bounds
//!   check and six multiplications, cheaper than a memo lookup.
//!
//! The worker count is the scheduler's; see [`crate::pool`] for how
//! [`Scheduler::with_default_threads`] resolves it from the machine
//! and the `MINDFUL_SWEEP_THREADS` environment variable.

use crate::error::{CoreError, Result};
use crate::explore::{pareto_frontier, CandidatePoint};
use crate::pool::Scheduler;
use crate::regimes::{Projection, ScalingRegime, SplitDesign};
use crate::scaling::scale_to_standard;
use crate::soc::SocSpec;
use crate::units::{Area, Power};

/// One cell of a [`SweepGrid`], handed to per-cell functions.
#[derive(Debug, Clone, Copy)]
pub struct SweepCoord<'g> {
    /// Position in the grid's row-major enumeration.
    pub index: usize,
    /// Position of `Self::soc` on the grid's SoC axis.
    pub soc_index: usize,
    /// The SoC anchor for this cell.
    pub(crate) soc: &'g SocSpec,
    /// The scaling regime for this cell.
    pub(crate) regime: ScalingRegime,
    /// The projected channel count for this cell.
    pub channels: u64,
    /// Communication efficiency in `(0, 1]` (1 = the regime's nominal
    /// transceiver; lower values derate non-sensing power by `1/eff`).
    pub(crate) efficiency: f64,
}

/// A rectangular design-space sweep: the product of an SoC axis, a
/// regime axis, a channel axis, and a communication-efficiency axis.
///
/// Cells are enumerated row-major with the SoC axis outermost and the
/// efficiency axis innermost, in the exact order each axis was given to
/// the builder. The enumeration (and therefore every result vector) is
/// deterministic and independent of the worker count.
///
/// # Examples
///
/// ```
/// use mindful_core::prelude::*;
/// use mindful_core::sweep::SweepGrid;
///
/// let grid = SweepGrid::builder()
///     .socs(wireless_socs())
///     .channels([1024, 2048, 4096, 8192])
///     .build()?;
/// // 8 SoCs x 2 regimes (default) x 4 channel counts x 1 efficiency.
/// assert_eq!(grid.len(), 64);
/// let result = grid.evaluate_on(&Scheduler::with_default_threads())?;
/// assert_eq!(result.len(), 64);
/// # Ok::<(), mindful_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    socs: Vec<SocSpec>,
    regimes: Vec<ScalingRegime>,
    channels: Vec<u64>,
    efficiencies: Vec<f64>,
}

/// Builder for [`SweepGrid`]; construct via [`SweepGrid::builder`].
#[derive(Debug, Clone, Default)]
pub struct SweepGridBuilder {
    socs: Vec<SocSpec>,
    regimes: Vec<ScalingRegime>,
    channels: Vec<u64>,
    efficiencies: Vec<f64>,
}

impl SweepGridBuilder {
    /// Sets the SoC axis (required, at least one).
    #[must_use]
    pub fn socs(mut self, socs: impl IntoIterator<Item = SocSpec>) -> Self {
        self.socs = socs.into_iter().collect();
        self
    }

    /// Sets the regime axis; defaults to `[Naive, HighMargin]`.
    #[must_use]
    pub fn regimes(mut self, regimes: impl IntoIterator<Item = ScalingRegime>) -> Self {
        self.regimes = regimes.into_iter().collect();
        self
    }

    /// Sets the channel axis (required, at least one).
    #[must_use]
    pub fn channels(mut self, channels: impl IntoIterator<Item = u64>) -> Self {
        self.channels = channels.into_iter().collect();
        self
    }

    /// Sets the communication-efficiency axis; defaults to `[1.0]`.
    #[must_use]
    pub fn efficiencies(mut self, efficiencies: impl IntoIterator<Item = f64>) -> Self {
        self.efficiencies = efficiencies.into_iter().collect();
        self
    }

    /// Validates the axes and builds the grid.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Infeasible`] when the SoC or channel axis is
    ///   empty.
    /// * [`CoreError::ZeroChannels`] when the channel axis contains 0.
    /// * [`CoreError::FractionOutOfRange`] when an efficiency falls
    ///   outside `(0, 1]`.
    pub fn build(self) -> Result<SweepGrid> {
        if self.socs.is_empty() {
            return Err(CoreError::Infeasible {
                reason: "sweep grid needs at least one SoC".to_owned(),
            });
        }
        if self.channels.is_empty() {
            return Err(CoreError::Infeasible {
                reason: "sweep grid needs at least one channel count".to_owned(),
            });
        }
        if self.channels.contains(&0) {
            return Err(CoreError::ZeroChannels);
        }
        let regimes = if self.regimes.is_empty() {
            vec![ScalingRegime::Naive, ScalingRegime::HighMargin]
        } else {
            self.regimes
        };
        let efficiencies = if self.efficiencies.is_empty() {
            vec![1.0]
        } else {
            self.efficiencies
        };
        for &eff in &efficiencies {
            if !(eff > 0.0 && eff <= 1.0) {
                return Err(CoreError::FractionOutOfRange {
                    name: "efficiency",
                    value: eff,
                });
            }
        }
        Ok(SweepGrid {
            socs: self.socs,
            regimes,
            channels: self.channels,
            efficiencies,
        })
    }
}

impl SweepGrid {
    /// Starts a grid builder.
    #[must_use]
    pub fn builder() -> SweepGridBuilder {
        SweepGridBuilder::default()
    }

    /// The SoC axis.
    #[must_use]
    pub fn socs(&self) -> &[SocSpec] {
        &self.socs
    }

    /// The regime axis.
    #[must_use]
    pub fn regimes(&self) -> &[ScalingRegime] {
        &self.regimes
    }

    /// The channel axis.
    #[must_use]
    pub fn channels(&self) -> &[u64] {
        &self.channels
    }

    /// The communication-efficiency axis.
    #[must_use]
    pub fn efficiencies(&self) -> &[f64] {
        &self.efficiencies
    }

    /// Number of cells in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.socs.len() * self.regimes.len() * self.channels.len() * self.efficiencies.len()
    }

    /// Whether the grid has no cells (impossible for built grids).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell at row-major position `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    #[must_use]
    pub(crate) fn coord(&self, index: usize) -> SweepCoord<'_> {
        assert!(index < self.len(), "sweep index {index} out of bounds");
        let n_eff = self.efficiencies.len();
        let n_ch = self.channels.len();
        let n_reg = self.regimes.len();
        let eff_i = index % n_eff;
        let ch_i = (index / n_eff) % n_ch;
        let reg_i = (index / (n_eff * n_ch)) % n_reg;
        let soc_i = index / (n_eff * n_ch * n_reg);
        SweepCoord {
            index,
            soc_index: soc_i,
            soc: &self.socs[soc_i],
            regime: self.regimes[reg_i],
            channels: self.channels[ch_i],
            efficiency: self.efficiencies[eff_i],
        }
    }

    /// Maps `f` over every cell as a client of `scheduler`, returning
    /// results in grid order regardless of its worker count.
    pub fn map<T, F>(&self, scheduler: &Scheduler, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(SweepCoord<'_>) -> T + Sync,
    {
        let indices: Vec<usize> = (0..self.len()).collect();
        scheduler.map_init(&indices, || (), |(), _, &i| f(self.coord(i)))
    }

    /// Evaluates every cell on `scheduler`.
    ///
    /// Each SoC is first scaled to the 1024-channel standard and split;
    /// each cell then projects that split under its regime and derates
    /// non-sensing power by `1/efficiency`.
    ///
    /// # Errors
    ///
    /// * Scaling errors from [`scale_to_standard`] for any SoC on the
    ///   axis.
    /// * [`CoreError::BelowReferenceChannels`] when a channel count
    ///   falls below a scaled design's reference point.
    ///
    /// When several cells fail, the error of the first failing cell in
    /// grid order is returned, so failures are deterministic too.
    pub fn evaluate_on(&self, scheduler: &Scheduler) -> Result<SweepResult> {
        let splits = self.splits()?;
        let rows = self.map(scheduler, |coord| {
            let projection = splits[coord.soc_index].project(coord.regime, coord.channels)?;
            Ok(SweepPoint::from_projection(&coord, &projection))
        });
        let points = rows.into_iter().collect::<Result<Vec<SweepPoint>>>()?;
        Ok(SweepResult { points })
    }

    /// [`Self::evaluate_on`] that additionally records engine
    /// metrics into `registry` under `prefix`:
    ///
    /// * `{prefix}.points` (counter) — points evaluated, cumulative.
    /// * `{prefix}.evaluations` (counter) — sweep calls, cumulative.
    /// * `{prefix}.eval_ns` (histogram) — wall time per sweep call.
    /// * `{prefix}.points_per_sec` (gauge) — this sweep's throughput;
    ///   the high-water mark keeps the best rate seen.
    ///
    /// The result is identical to [`Self::evaluate_on`]; failed
    /// sweeps record nothing but the elapsed time.
    ///
    /// # Errors
    ///
    /// Same as [`Self::evaluate_on`].
    pub fn evaluate_observed(
        &self,
        scheduler: &Scheduler,
        registry: &crate::obs::Registry,
        prefix: &str,
    ) -> Result<SweepResult> {
        let _span = crate::obs::span("sweep.evaluate");
        let start = crate::obs::clock::now_ns();
        let result = self.evaluate_on(scheduler);
        let elapsed_ns = crate::obs::clock::since_ns(start);
        registry
            .histogram(&format!("{prefix}.eval_ns"))
            .record(elapsed_ns);
        if let Ok(result) = &result {
            registry
                .counter(&format!("{prefix}.points"))
                .add(result.len() as u64);
            registry
                .counter(&format!("{prefix}.evaluations"))
                .increment();
            let rate = if elapsed_ns > 0 {
                (result.len() as f64 * 1e9 / elapsed_ns as f64) as u64
            } else {
                u64::MAX
            };
            registry
                .gauge(&format!("{prefix}.points_per_sec"))
                .set(rate);
        }
        result
    }

    /// Projects every cell under its regime on `scheduler`, returning
    /// raw [`Projection`]s in grid order.
    ///
    /// Projections do not depend on the efficiency axis, so grids with
    /// a non-trivial efficiency axis repeat the projection of each
    /// `(SoC, regime, channels)` across efficiencies; use
    /// [`Self::evaluate_on`] when efficiency should derate power.
    ///
    /// # Errors
    ///
    /// Same as [`Self::evaluate_on`].
    pub fn project(&self, scheduler: &Scheduler) -> Result<Vec<Projection>> {
        let splits = self.splits()?;
        self.map(scheduler, |coord| {
            splits[coord.soc_index].project(coord.regime, coord.channels)
        })
        .into_iter()
        .collect()
    }

    fn splits(&self) -> Result<Vec<SplitDesign>> {
        self.socs
            .iter()
            .map(|spec| Ok(SplitDesign::from_scaled(scale_to_standard(spec)?)))
            .collect()
    }
}

/// One evaluated cell of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Name of the SoC anchor.
    pub soc: String,
    /// Table 1 id of the SoC anchor.
    pub(crate) soc_id: u8,
    /// Scaling regime of the cell.
    pub regime: ScalingRegime,
    /// Projected channel count.
    pub channels: u64,
    /// Communication efficiency in `(0, 1]`.
    pub efficiency: f64,
    /// Efficiency-derated total power.
    pub power: Power,
    /// Projected brain-contact area (independent of efficiency).
    pub area: Area,
    /// `power / power_budget(area)` (Eq. 3); `> 1` is unsafe.
    pub budget_utilization: f64,
    /// Fraction of area devoted to sensing (Eq. 4 indicator).
    pub sensing_area_fraction: f64,
}

impl SweepPoint {
    fn from_projection(coord: &SweepCoord<'_>, projection: &Projection) -> Self {
        let power =
            projection.sensing_power() + projection.non_sensing_power() * coord.efficiency.recip();
        let area = projection.total_area();
        Self {
            soc: coord.soc.name().to_owned(),
            soc_id: coord.soc.id(),
            regime: coord.regime,
            channels: coord.channels,
            efficiency: coord.efficiency,
            power,
            area,
            budget_utilization: power / projection.power_budget(),
            sensing_area_fraction: projection.sensing_area_fraction(),
        }
    }

    /// Whether the point respects the safety power budget.
    #[must_use]
    pub(crate) fn is_safe(&self) -> bool {
        self.budget_utilization <= 1.0 + 1e-12
    }

    /// A human-readable label, e.g. `"BISC @2048 naive eff=0.5"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} @{} {} eff={}",
            self.soc, self.channels, self.regime, self.efficiency
        )
    }

    /// Converts the point into a Pareto [`CandidatePoint`].
    ///
    /// # Errors
    ///
    /// Propagates [`CandidatePoint::new`] validation errors (possible
    /// only for degenerate hand-built specs).
    pub(crate) fn to_candidate(&self) -> Result<CandidatePoint> {
        CandidatePoint::new(self.label(), self.channels, self.power, self.area)
    }
}

/// The outcome of [`SweepGrid::evaluate_on`]: one [`SweepPoint`] per cell,
/// in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The evaluated points, in grid order.
    #[must_use]
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Number of evaluated points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep produced no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points that respect the safety budget, in grid order.
    #[must_use]
    pub fn feasible(&self) -> Vec<&SweepPoint> {
        self.points.iter().filter(|p| p.is_safe()).collect()
    }

    /// The Pareto frontier of the budget-respecting points.
    ///
    /// # Errors
    ///
    /// Propagates [`CandidatePoint::new`] validation errors.
    pub fn feasible_frontier(&self) -> Result<Vec<CandidatePoint>> {
        let safe: Vec<CandidatePoint> = self
            .points
            .iter()
            .filter(|p| p.is_safe())
            .map(SweepPoint::to_candidate)
            .collect::<Result<_>>()?;
        Ok(pareto_frontier(&safe))
    }

    /// Renders the result as CSV, one row per cell in grid order.
    ///
    /// Because the row order is the grid order, the output is identical
    /// for any worker count.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut csv = String::from(
            "soc,regime,channels,efficiency,power_mw,area_mm2,budget_utilization,sensing_area_fraction,safe\n",
        );
        for p in &self.points {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                p.soc,
                p.regime,
                p.channels,
                p.efficiency,
                p.power.milliwatts(),
                p.area.square_millimeters(),
                p.budget_utilization,
                p.sensing_area_fraction,
                p.is_safe(),
            ));
        }
        csv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    use crate::pool::{MAX_SWEEP_THREADS, SWEEP_THREADS_ENV};
    use crate::soc::{soc_by_id, wireless_socs};

    fn sched(workers: usize) -> Scheduler {
        Scheduler::new(NonZeroUsize::new(workers).unwrap())
    }

    fn toy_grid() -> SweepGrid {
        SweepGrid::builder()
            .socs(wireless_socs())
            .channels([1024, 2048, 4096])
            .efficiencies([1.0, 0.5, 0.2])
            .build()
            .unwrap()
    }

    #[test]
    fn evaluate_observed_matches_plain_and_records_engine_metrics() {
        let grid = toy_grid();
        let registry = crate::obs::Registry::new();
        let observed = grid
            .evaluate_observed(&sched(1), &registry, "sweep")
            .unwrap();
        let plain = grid.evaluate_on(&sched(1)).unwrap();
        assert_eq!(observed.points(), plain.points());
        let s = registry.snapshot();
        assert_eq!(s.counter("sweep.points"), Some(grid.len() as u64));
        assert_eq!(s.counter("sweep.evaluations"), Some(1));
        assert_eq!(s.histogram("sweep.eval_ns").unwrap().count, 1);
        assert!(s.gauge("sweep.points_per_sec").unwrap().0 > 0);
        // A second sweep accumulates the counters and the histogram.
        let again = grid
            .evaluate_observed(&sched(1), &registry, "sweep")
            .unwrap();
        assert_eq!(again.points(), plain.points());
        let s = registry.snapshot();
        assert_eq!(s.counter("sweep.points"), Some(2 * grid.len() as u64));
        assert_eq!(s.counter("sweep.evaluations"), Some(2));
        assert_eq!(s.histogram("sweep.eval_ns").unwrap().count, 2);
        assert!(s.gauge("sweep.points_per_sec").unwrap().0 > 0);
    }

    #[test]
    fn grid_enumeration_is_row_major_and_matches_len() {
        let grid = toy_grid();
        assert_eq!(grid.len(), 8 * 2 * 3 * 3);
        assert!(!grid.is_empty());
        let mut expected = 0_usize;
        for (soc_i, soc) in grid.socs().iter().enumerate() {
            for &regime in grid.regimes() {
                for &channels in grid.channels() {
                    for &eff in grid.efficiencies() {
                        let c = grid.coord(expected);
                        assert_eq!(c.index, expected);
                        assert_eq!(c.soc_index, soc_i);
                        assert_eq!(c.soc.name(), soc.name());
                        assert_eq!(c.regime, regime);
                        assert_eq!(c.channels, channels);
                        assert_eq!(c.efficiency, eff);
                        expected += 1;
                    }
                }
            }
        }
        assert_eq!(expected, grid.len());
    }

    #[test]
    fn default_axes_are_both_regimes_and_unit_efficiency() {
        let grid = SweepGrid::builder()
            .socs([soc_by_id(1).unwrap()])
            .channels([2048])
            .build()
            .unwrap();
        assert_eq!(
            grid.regimes(),
            [ScalingRegime::Naive, ScalingRegime::HighMargin]
        );
        assert_eq!(grid.efficiencies(), [1.0]);
    }

    #[test]
    fn builder_rejects_bad_axes() {
        let err = SweepGrid::builder()
            .channels([1024_u64])
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
        let err = SweepGrid::builder()
            .socs([soc_by_id(1).unwrap()])
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::Infeasible { .. }));
        let err = SweepGrid::builder()
            .socs([soc_by_id(1).unwrap()])
            .channels([1024, 0])
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::ZeroChannels));
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = SweepGrid::builder()
                .socs([soc_by_id(1).unwrap()])
                .channels([1024_u64])
                .efficiencies([bad])
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                CoreError::FractionOutOfRange {
                    name: "efficiency",
                    ..
                }
            ));
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial_exactly() {
        let grid = toy_grid();
        let serial = grid.evaluate_on(&sched(1)).unwrap();
        for workers in [2, 5, 8] {
            let parallel = grid.evaluate_on(&sched(workers)).unwrap();
            assert_eq!(serial.points(), parallel.points(), "{workers} workers");
            assert_eq!(serial.to_csv(), parallel.to_csv(), "{workers} workers");
        }
    }

    /// Regression: `evaluate_on` once forwarded only the worker count
    /// to a hidden process-wide scheduler, so the scheduler it was
    /// given ran nothing.
    #[test]
    fn evaluate_on_dispatches_on_the_given_scheduler() {
        let grid = toy_grid();
        for workers in [1, 3] {
            let scheduler = sched(workers);
            grid.evaluate_on(&scheduler).unwrap();
            let stats = scheduler.stats();
            assert_eq!((stats.epochs, stats.tasks), (1, grid.len() as u64));
            grid.project(&scheduler).unwrap();
            assert_eq!(scheduler.stats().tasks, 2 * grid.len() as u64);
        }
    }

    #[test]
    fn unit_efficiency_matches_direct_projection() {
        let grid = SweepGrid::builder()
            .socs([soc_by_id(3).unwrap()])
            .regimes([ScalingRegime::HighMargin])
            .channels([4096])
            .build()
            .unwrap();
        let result = grid.evaluate_on(&sched(1)).unwrap();
        assert_eq!(result.len(), 1);
        let point = &result.points()[0];

        let split = SplitDesign::from_scaled(scale_to_standard(&soc_by_id(3).unwrap()).unwrap());
        let projection = split.project(ScalingRegime::HighMargin, 4096).unwrap();
        assert!((point.power - projection.total_power()).abs().watts() < 1e-15);
        assert!((point.area - projection.total_area()).abs().square_meters() < 1e-18);
        assert!((point.budget_utilization - projection.budget_utilization()).abs() < 1e-12);
        assert!((point.sensing_area_fraction - projection.sensing_area_fraction()).abs() < 1e-12);
    }

    #[test]
    fn lower_efficiency_derates_power_but_not_area() {
        let grid = SweepGrid::builder()
            .socs([soc_by_id(1).unwrap()])
            .regimes([ScalingRegime::Naive])
            .channels([2048])
            .efficiencies([1.0, 0.5])
            .build()
            .unwrap();
        let result = grid.evaluate_on(&sched(1)).unwrap();
        let [nominal, derated] = result.points() else {
            panic!("expected two points");
        };
        assert!(derated.power > nominal.power);
        assert_eq!(derated.area, nominal.area);
        assert!(derated.budget_utilization > nominal.budget_utilization);
        // Only non-sensing power is derated: the extra power equals the
        // non-sensing share at eff=1 (1/0.5 - 1 = 1 extra multiple).
        let split = SplitDesign::from_scaled(scale_to_standard(&soc_by_id(1).unwrap()).unwrap());
        let projection = split.project(ScalingRegime::Naive, 2048).unwrap();
        let expected_extra = projection.non_sensing_power();
        assert!(
            ((derated.power - nominal.power) - expected_extra)
                .abs()
                .watts()
                < 1e-15
        );
    }

    /// Oracle: every cell is its split's projection, computed here by
    /// hand, with non-sensing power derated by `1/efficiency`.
    #[test]
    fn cells_match_hand_computed_projections_bit_for_bit() {
        let grid = toy_grid();
        assert_eq!((grid.regimes().len(), grid.efficiencies().len()), (2, 3));
        let splits: Vec<SplitDesign> = grid
            .socs()
            .iter()
            .map(|spec| SplitDesign::from_scaled(scale_to_standard(spec).unwrap()))
            .collect();
        let expected: Vec<Projection> = (0..grid.len())
            .map(|i| {
                let c = grid.coord(i);
                splits[c.soc_index].project(c.regime, c.channels).unwrap()
            })
            .collect();
        for workers in [1, 3] {
            let result = grid.evaluate_on(&sched(workers)).unwrap();
            let points = result.points();
            assert_eq!(points.len(), grid.len());
            for (i, (point, projection)) in points.iter().zip(&expected).enumerate() {
                let eff = grid.coord(i).efficiency;
                let power =
                    projection.sensing_power() + projection.non_sensing_power() * eff.recip();
                let utilization = power / projection.power_budget();
                assert_eq!(point.power.watts().to_bits(), power.watts().to_bits());
                assert_eq!(
                    point.area.square_meters().to_bits(),
                    projection.total_area().square_meters().to_bits()
                );
                assert_eq!(point.budget_utilization.to_bits(), utilization.to_bits());
                assert_eq!(
                    point.sensing_area_fraction.to_bits(),
                    projection.sensing_area_fraction().to_bits()
                );
            }
            assert_eq!(grid.project(&sched(workers)).unwrap(), expected);
        }
    }

    #[test]
    fn errors_are_deterministic_and_first_in_grid_order() {
        let grid = SweepGrid::builder()
            .socs([soc_by_id(1).unwrap()])
            .regimes([ScalingRegime::Naive])
            .channels([512, 256])
            .build()
            .unwrap();
        for workers in [1, 4] {
            let err = grid.evaluate_on(&sched(workers)).unwrap_err();
            assert_eq!(
                err,
                CoreError::BelowReferenceChannels {
                    requested: 512,
                    reference: 1024
                },
                "{workers} workers"
            );
        }
    }

    #[test]
    fn feasible_frontier_is_safe_and_nonempty_for_standard_sweep() {
        let grid = SweepGrid::builder()
            .socs(wireless_socs())
            .channels([1024, 2048, 4096, 8192])
            .build()
            .unwrap();
        let result = grid.evaluate_on(&sched(4)).unwrap();
        let feasible = result.feasible();
        assert!(!feasible.is_empty());
        let frontier = result.feasible_frontier().unwrap();
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= feasible.len());
        for point in &frontier {
            assert!(point.is_safe());
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_cell() {
        let grid = SweepGrid::builder()
            .socs([soc_by_id(1).unwrap()])
            .channels([1024, 2048])
            .build()
            .unwrap();
        let csv = grid.evaluate_on(&sched(1)).unwrap().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + grid.len());
        assert!(lines[0].starts_with("soc,regime,channels,efficiency"));
        assert!(lines[1].contains("naive"));
    }

    #[test]
    fn sweep_threads_env_override_and_clamping() {
        let workers = || Scheduler::with_default_threads().workers().get();
        std::env::set_var(SWEEP_THREADS_ENV, "3");
        assert_eq!(workers(), 3);
        std::env::set_var(SWEEP_THREADS_ENV, "100000");
        assert_eq!(workers(), MAX_SWEEP_THREADS);
        std::env::set_var(SWEEP_THREADS_ENV, "not-a-number");
        assert!(workers() >= 1);
        std::env::set_var(SWEEP_THREADS_ENV, "0");
        assert!(workers() >= 1);
        std::env::remove_var(SWEEP_THREADS_ENV);
        assert!(workers() >= 1);
    }
}
