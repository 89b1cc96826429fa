//! Explore — the full feasible design space, swept by the parallel
//! engine and reduced to its Pareto frontier.
//!
//! Where Figs. 5–7 and 10 each slice the design space along one axis,
//! this experiment sweeps the whole product space — every wireless SoC
//! anchor × both scaling regimes × channel counts to 8192 × three
//! communication-efficiency levels — and reports the frontier of
//! budget-respecting points over (channels ↑, power ↓, area ↓).

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use mindful_core::explore::{best_by_channels, CandidatePoint};
use mindful_core::obs::{Registry, Snapshot};
use mindful_core::pool::Scheduler;
use mindful_core::soc::wireless_socs;
use mindful_core::sweep::{SweepGrid, SweepResult};
use mindful_plot::{Csv, LineChart, Series};

use crate::error::Result;
use crate::output::Artifacts;

/// Channel sweep granularity.
pub(crate) const CHANNEL_STEP: u64 = 256;

/// Channel sweep limit (the paper's figures stop at 8192).
pub(crate) const CHANNEL_LIMIT: u64 = 8192;

/// Communication-efficiency levels: ideal, mid-term, and the paper's
/// 20 % short-term QAM efficiency.
pub(crate) const EFFICIENCIES: [f64; 3] = [1.0, 0.5, 0.2];

/// The generated exploration: the full sweep and its feasible frontier.
#[derive(Debug, Clone)]
pub struct Explore {
    /// Every evaluated cell, in grid order.
    pub(crate) result: SweepResult,
    /// The Pareto frontier of the budget-respecting cells.
    pub(crate) frontier: Vec<CandidatePoint>,
    /// Scrape of the sweep engine's metrics for this run (`sweep.*`).
    pub(crate) snapshot: Snapshot,
}

/// The grid declaration behind the experiment.
///
/// # Errors
///
/// Cannot fail for the built-in axes; propagates builder validation.
pub fn grid() -> Result<SweepGrid> {
    Ok(SweepGrid::builder()
        .socs(wireless_socs())
        .channels((1024..=CHANNEL_LIMIT).step_by(CHANNEL_STEP as usize))
        .efficiencies(EFFICIENCIES)
        .build()?)
}

/// Evaluates the full grid and extracts the feasible frontier.
///
/// # Errors
///
/// Propagates sweep evaluation errors (cannot occur for the built-in
/// grid).
pub fn generate() -> Result<Explore> {
    let registry = Registry::new();
    let result =
        grid()?.evaluate_observed(&Scheduler::with_default_threads(), &registry, "sweep")?;
    let frontier = result.feasible_frontier()?;
    Ok(Explore {
        result,
        frontier,
        snapshot: registry.snapshot(),
    })
}

/// Writes the full sweep CSV, the frontier CSV, and the frontier SVG.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Explore, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    artifacts.write_file(dir, "explore.csv", &fig.result.to_csv())?;

    let members: HashSet<String> = fig.frontier.iter().map(|c| c.label.clone()).collect();
    let mut csv = Csv::new(&[
        "soc",
        "regime",
        "channels",
        "efficiency",
        "power_mw",
        "area_mm2",
        "budget_utilization",
        "sensing_area_fraction",
    ]);
    let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for p in fig.result.points() {
        if !members.contains(&p.label()) {
            continue;
        }
        csv.push(&[
            p.soc.clone(),
            p.regime.to_string(),
            p.channels.to_string(),
            p.efficiency.to_string(),
            p.power.milliwatts().to_string(),
            p.area.square_millimeters().to_string(),
            p.budget_utilization.to_string(),
            p.sensing_area_fraction.to_string(),
        ]);
        series
            .entry(p.regime.to_string())
            .or_default()
            .push((p.channels as f64, p.power.milliwatts()));
    }
    artifacts.write_file(dir, "explore_frontier.csv", csv.as_str())?;

    let mut chart = LineChart::new(
        "Explore: Pareto frontier of the feasible design space",
        "Number of NI Channels",
        "Total Power [mW]",
    );
    for (regime, mut points) in series {
        points.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
        chart.push_series(Series::new(format!("frontier ({regime})"), points));
    }
    artifacts.write_file(dir, "explore.svg", &chart.to_svg())?;

    let feasible = fig.result.feasible().len();
    artifacts.report(format!(
        "Explore: {} cells swept, {} within the safety budget, {} on the frontier",
        fig.result.len(),
        feasible,
        fig.frontier.len(),
    ));
    artifacts.write_file(dir, "explore_obs.jsonl", &fig.snapshot.to_jsonl())?;
    if let Some(eval) = fig.snapshot.histogram("sweep.eval_ns") {
        artifacts.report(format!(
            "Explore: engine observed {} points in {:.0} µs ({} points/s)",
            fig.snapshot.counter("sweep.points").unwrap_or(0),
            eval.sum as f64 / 1e3,
            fig.snapshot
                .gauge("sweep.points_per_sec")
                .map_or(0, |(v, _)| v),
        ));
    }
    if let Some(best) = best_by_channels(&fig.frontier) {
        artifacts.report(format!(
            "Explore: most channels on the feasible frontier: {} ({} ch, {:.2} mW, {:.0} mm2)",
            best.label,
            best.channels,
            best.power.milliwatts(),
            best.area.square_millimeters(),
        ));
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mindful_core::pool::SWEEP_THREADS_ENV;

    #[test]
    fn sweep_covers_the_full_product_space() {
        let fig = generate().unwrap();
        let channels = (1024..=CHANNEL_LIMIT)
            .step_by(CHANNEL_STEP as usize)
            .count();
        assert_eq!(fig.result.len(), 8 * 2 * channels * EFFICIENCIES.len());
        assert!(!fig.frontier.is_empty());
        assert!(fig.frontier.len() <= fig.result.feasible().len());
        for point in &fig.frontier {
            assert!(point.is_safe());
        }
    }

    #[test]
    fn sweep_csv_is_byte_identical_across_thread_counts() {
        // The acceptance property behind the engine: pinning the worker
        // count through the environment must not change a single byte.
        std::env::set_var(SWEEP_THREADS_ENV, "1");
        let serial = generate().unwrap();
        std::env::set_var(SWEEP_THREADS_ENV, "8");
        let parallel = generate().unwrap();
        std::env::remove_var(SWEEP_THREADS_ENV);
        assert_eq!(serial.result.to_csv(), parallel.result.to_csv());
        assert_eq!(serial.frontier, parallel.frontier);
    }

    #[test]
    fn render_writes_four_files() {
        let dir = std::env::temp_dir().join("mindful-explore-test");
        let fig = generate().unwrap();
        let artifacts = render(&fig, &dir).unwrap();
        assert_eq!(artifacts.files().len(), 4);
        assert!(artifacts.report_text().contains("on the frontier"));
        let report = artifacts.report_text();
        let observed = report
            .split("engine observed ")
            .nth(1)
            .and_then(|rest| rest.split(" points in ").nth(1))
            .and_then(|rest| rest.split(" µs").next())
            .and_then(|us| us.parse::<f64>().ok())
            .expect("the report carries the sweep time in µs");
        assert!(observed > 0.0, "sweep time reads {observed} µs");
        let csv = std::fs::read_to_string(dir.join("explore.csv")).unwrap();
        assert!(csv.lines().count() > 1);
        // The exported engine scrape parses back to the carried snapshot.
        let jsonl = std::fs::read_to_string(dir.join("explore_obs.jsonl")).unwrap();
        let parsed = mindful_core::obs::Snapshot::from_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, fig.snapshot);
        assert_eq!(
            parsed.counter("sweep.points"),
            Some(fig.result.len() as u64)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
