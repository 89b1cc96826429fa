//! Design-space sweeping utilities.
//!
//! The paper's contribution is a framework for *exploring* the implant
//! design space; this module provides the generic machinery: sweeping a
//! design over channel counts, collecting candidate points, and
//! extracting the Pareto frontier over (channels ↑, power ↓, area ↓) —
//! the trade surface Figs. 5–7 and 10 are slices of.

use std::collections::BTreeMap;

use crate::error::{CoreError, Result};
use crate::units::{Area, Power};

/// One candidate operating point in the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePoint {
    /// A caller-chosen label (e.g., "BISC @2048, QAM 20%").
    pub label: String,
    /// Channels sensed (maximize).
    pub channels: u64,
    /// Total implant power (minimize).
    pub power: Power,
    /// Brain-contact area (minimize).
    pub area: Area,
}

impl CandidatePoint {
    /// Creates a candidate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroChannels`] for zero channels and
    /// [`CoreError::NonPositiveParameter`] for non-positive power or
    /// area.
    pub fn new(label: impl Into<String>, channels: u64, power: Power, area: Area) -> Result<Self> {
        if channels == 0 {
            return Err(CoreError::ZeroChannels);
        }
        if power.watts() <= 0.0 || !power.is_finite() {
            return Err(CoreError::NonPositiveParameter {
                name: "power",
                value: power.watts(),
            });
        }
        if area.square_meters() <= 0.0 || !area.is_finite() {
            return Err(CoreError::NonPositiveParameter {
                name: "area",
                value: area.square_meters(),
            });
        }
        Ok(Self {
            label: label.into(),
            channels,
            power,
            area,
        })
    }

    /// Whether this point dominates `other`: at least as good on every
    /// objective (more channels, less-or-equal power and area) and
    /// strictly better on at least one.
    #[must_use]
    pub fn dominates(&self, other: &CandidatePoint) -> bool {
        let ge_channels = self.channels >= other.channels;
        let le_power = self.power <= other.power;
        let le_area = self.area <= other.area;
        let strictly_better =
            self.channels > other.channels || self.power < other.power || self.area < other.area;
        ge_channels && le_power && le_area && strictly_better
    }

    /// Whether the point respects the safety power budget (Eq. 3).
    #[must_use]
    pub fn is_safe(&self) -> bool {
        crate::budget::check_safety(self.power, self.area).is_ok()
    }
}

/// Extracts the Pareto frontier (non-dominated points), preserving input
/// order among survivors.
///
/// Runs the `O(n log n)` sort-and-prune skyline below; its output is
/// exactly [`pareto_frontier_naive`]'s (same survivor set, same order),
/// which the property suite checks on random inputs.
#[must_use]
pub fn pareto_frontier(points: &[CandidatePoint]) -> Vec<CandidatePoint> {
    let mut survivors = skyline_indices(points);
    survivors.sort_unstable();
    survivors.into_iter().map(|i| points[i].clone()).collect()
}

/// The original `O(n²)` all-pairs frontier, kept as the oracle for
/// equivalence tests and benchmarks of the skyline implementation.
#[doc(hidden)]
#[must_use]
pub fn pareto_frontier_naive(points: &[CandidatePoint]) -> Vec<CandidatePoint> {
    points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .cloned()
        .collect()
}

/// `f64` ordered by `total_cmp` so it can key the skyline staircase.
/// Candidate objectives are validated finite, so the exotic orderings
/// (NaN, signed zero) never actually occur.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn same_objectives(a: &CandidatePoint, b: &CandidatePoint) -> bool {
    a.channels == b.channels
        && a.power.watts().total_cmp(&b.power.watts()).is_eq()
        && a.area
            .square_meters()
            .total_cmp(&b.area.square_meters())
            .is_eq()
}

/// Indices of the non-dominated points, via an `O(n log n)` skyline.
///
/// Points are visited in (channels desc, power asc, area asc) order, so
/// every potential dominator of a point is visited before it. A
/// staircase maps power to the minimum area seen at or below that
/// power; a point is dominated iff the staircase already holds an entry
/// with power ≤ its power and area ≤ its area — except for points with
/// *identical* objectives, which never dominate each other and are
/// therefore processed as one group (queried together before the group
/// is inserted).
fn skyline_indices(points: &[CandidatePoint]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (&points[a], &points[b]);
        pb.channels
            .cmp(&pa.channels)
            .then_with(|| pa.power.watts().total_cmp(&pb.power.watts()))
            .then_with(|| pa.area.square_meters().total_cmp(&pb.area.square_meters()))
            .then_with(|| a.cmp(&b))
    });
    let mut staircase: BTreeMap<TotalF64, f64> = BTreeMap::new();
    let mut survivors = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let p = &points[order[i]];
        let mut j = i + 1;
        while j < order.len() && same_objectives(p, &points[order[j]]) {
            j += 1;
        }
        let power = p.power.watts();
        let area = p.area.square_meters();
        let dominated = staircase
            .range(..=TotalF64(power))
            .next_back()
            .is_some_and(|(_, &best)| best <= area);
        if !dominated {
            survivors.extend_from_slice(&order[i..j]);
            // Entries at higher power whose area is no better are now
            // redundant; the staircase invariant (areas strictly
            // decrease as power increases) makes them a prefix.
            let stale: Vec<TotalF64> = staircase
                .range(TotalF64(power)..)
                .take_while(|&(_, &a)| a >= area)
                .map(|(&k, _)| k)
                .collect();
            for k in stale {
                staircase.remove(&k);
            }
            staircase.insert(TotalF64(power), area);
        }
        i = j;
    }
    survivors
}

/// Filters candidates to those inside the safety power budget, then
/// extracts the frontier — the feasible trade surface.
#[must_use]
pub fn safe_frontier(points: &[CandidatePoint]) -> Vec<CandidatePoint> {
    let safe: Vec<CandidatePoint> = points.iter().filter(|p| p.is_safe()).cloned().collect();
    pareto_frontier(&safe)
}

/// The candidate with the most channels among a set (ties broken by
/// lower power), or `None` for an empty set.
#[must_use]
pub fn best_by_channels(points: &[CandidatePoint]) -> Option<&CandidatePoint> {
    points.iter().max_by(|a, b| {
        a.channels.cmp(&b.channels).then_with(|| {
            b.power
                .partial_cmp(&a.power)
                .unwrap_or(core::cmp::Ordering::Equal)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(label: &str, channels: u64, mw: f64, mm2: f64) -> CandidatePoint {
        CandidatePoint::new(
            label,
            channels,
            Power::from_milliwatts(mw),
            Area::from_square_millimeters(mm2),
        )
        .unwrap()
    }

    #[test]
    fn dominance_semantics() {
        let a = point("a", 2048, 10.0, 50.0);
        let b = point("b", 1024, 20.0, 60.0);
        let c = point("c", 2048, 10.0, 50.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Equal points do not dominate each other.
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
        // Trade-offs in different directions: no dominance.
        let d = point("d", 4096, 30.0, 50.0);
        assert!(!a.dominates(&d));
        assert!(!d.dominates(&a));
    }

    #[test]
    fn frontier_removes_only_dominated_points() {
        let points = vec![
            point("best-channels", 4096, 40.0, 100.0),
            point("best-power", 1024, 5.0, 100.0),
            point("dominated", 1024, 50.0, 120.0),
            point("balanced", 2048, 20.0, 80.0),
        ];
        let frontier = pareto_frontier(&points);
        let labels: Vec<&str> = frontier.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["best-channels", "best-power", "balanced"]);
    }

    #[test]
    fn frontier_of_empty_or_single_sets() {
        assert!(pareto_frontier(&[]).is_empty());
        let single = vec![point("only", 128, 1.0, 2.0)];
        assert_eq!(pareto_frontier(&single), single);
    }

    #[test]
    fn safe_frontier_applies_the_budget() {
        let points = vec![
            // 100 mW on 100 mm² = 100 mW/cm²: unsafe.
            point("hot", 8192, 100.0, 100.0),
            // 30 mW on 100 mm² = 30 mW/cm²: safe.
            point("cool", 2048, 30.0, 100.0),
        ];
        let frontier = safe_frontier(&points);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].label, "cool");
    }

    #[test]
    fn best_by_channels_breaks_ties_by_power() {
        let points = vec![
            point("a", 2048, 30.0, 50.0),
            point("b", 2048, 10.0, 50.0),
            point("c", 1024, 1.0, 50.0),
        ];
        assert_eq!(best_by_channels(&points).unwrap().label, "b");
        assert!(best_by_channels(&[]).is_none());
    }

    #[test]
    fn validation() {
        assert!(CandidatePoint::new(
            "x",
            0,
            Power::from_milliwatts(1.0),
            Area::from_square_millimeters(1.0)
        )
        .is_err());
        assert!(
            CandidatePoint::new("x", 1, Power::ZERO, Area::from_square_millimeters(1.0)).is_err()
        );
        assert!(CandidatePoint::new("x", 1, Power::from_milliwatts(1.0), Area::ZERO).is_err());
    }

    #[test]
    fn skyline_matches_naive_on_tie_heavy_sets() {
        // Duplicates, equal-power ties, equal-area ties, and dominance
        // across equal channel counts — the cases where a skyline can
        // diverge from the all-pairs oracle if tie handling is wrong.
        let sets: Vec<Vec<CandidatePoint>> = vec![
            vec![],
            vec![
                point("dup-a", 1024, 10.0, 10.0),
                point("dup-b", 1024, 10.0, 10.0),
            ],
            vec![
                point("dup-a", 1024, 10.0, 10.0),
                point("beats-dups", 2048, 10.0, 10.0),
                point("dup-b", 1024, 10.0, 10.0),
            ],
            vec![
                point("same-power-small", 1024, 10.0, 10.0),
                point("same-power-large", 1024, 10.0, 11.0),
            ],
            vec![
                point("same-area-cheap", 1024, 9.0, 10.0),
                point("same-area-costly", 1024, 10.0, 10.0),
            ],
            vec![
                point("a", 4096, 40.0, 100.0),
                point("b", 2048, 20.0, 120.0),
                point("c", 2048, 25.0, 110.0),
                point("d", 1024, 20.0, 120.0),
                point("e", 1024, 5.0, 130.0),
                point("f", 4096, 40.0, 100.0),
            ],
        ];
        for set in sets {
            assert_eq!(
                pareto_frontier(&set),
                pareto_frontier_naive(&set),
                "set: {set:?}"
            );
        }
    }

    #[test]
    fn skyline_handles_large_dominated_chains() {
        // A staircase stress case: many points along a power/area curve
        // plus strictly dominated copies shifted up and to the right.
        let mut set = Vec::new();
        for k in 0..200_u64 {
            let kf = k as f64;
            set.push(point("front", 1024, 10.0 + kf, 300.0 - kf));
            set.push(point("dominated", 1024, 11.0 + kf, 301.0 - kf));
        }
        let fast = pareto_frontier(&set);
        let slow = pareto_frontier_naive(&set);
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 200);
    }

    #[test]
    fn frontier_is_idempotent() {
        let set = vec![
            point("a", 4096, 40.0, 100.0),
            point("b", 1024, 5.0, 100.0),
            point("c", 1024, 50.0, 120.0),
            point("d", 2048, 20.0, 80.0),
        ];
        let once = pareto_frontier(&set);
        let twice = pareto_frontier(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn real_design_points_form_a_frontier() {
        // The scaled Table 1 designs themselves trade channels constant
        // (all 1024) against power and area: the frontier keeps every
        // design not beaten on both power and area simultaneously.
        let candidates: Vec<CandidatePoint> = crate::scaling::standard_design_points()
            .into_iter()
            .map(|p| {
                CandidatePoint::new(p.name().to_owned(), p.channels(), p.power(), p.area()).unwrap()
            })
            .collect();
        let frontier = safe_frontier(&candidates);
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= candidates.len());
        // Jang-style small designs are unbeatable on area; they survive.
        for survivor in &frontier {
            assert!(survivor.is_safe());
        }
    }
}
