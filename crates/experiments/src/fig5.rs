//! Fig. 5 — SoC power relative to the power budget versus channel count
//! under the naive and high-margin designs, split into sensing and
//! non-sensing parts.

use std::path::Path;

use mindful_core::pool::Scheduler;
use mindful_core::regimes::{Projection, ScalingRegime};
use mindful_core::scaling::standard_design_points;
use mindful_core::soc::wireless_socs;
use mindful_core::sweep::SweepGrid;
use mindful_plot::{BarChart, Csv};

use crate::error::Result;
use crate::output::Artifacts;

/// Channel counts swept by the figure.
pub(crate) const SWEEP: [u64; 4] = [1024, 2048, 4096, 8192];

/// One SoC's projections across the sweep.
#[derive(Debug, Clone)]
pub(crate) struct SocSweep {
    /// SoC display name.
    pub(crate) name: String,
    /// Table 1 id.
    pub(crate) id: u8,
    /// One projection per sweep point.
    pub(crate) projections: Vec<Projection>,
}

/// The generated Fig. 5 data: per regime, per SoC, per channel count.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Sweeps under the naive hypothesis.
    pub(crate) naive: Vec<SocSweep>,
    /// Sweeps under the high-margin hypothesis.
    pub(crate) high_margin: Vec<SocSweep>,
}

/// Projects one regime's sweep through the parallel engine and groups
/// the grid-ordered projections back into per-SoC sweeps.
fn soc_sweeps(regime: ScalingRegime) -> Result<Vec<SocSweep>> {
    let grid = SweepGrid::builder()
        .socs(wireless_socs())
        .regimes([regime])
        .channels(SWEEP)
        .build()?;
    let projections = grid.project(&Scheduler::with_default_threads())?;
    Ok(standard_design_points()
        .iter()
        .zip(projections.chunks(SWEEP.len()))
        .map(|(anchor, chunk)| SocSweep {
            name: anchor.name().to_owned(),
            id: anchor.spec().id(),
            projections: chunk.to_vec(),
        })
        .collect())
}

/// Projects SoCs 1–8 across the channel sweep under both regimes.
///
/// # Errors
///
/// Propagates projection errors (cannot occur for the built-in sweep).
pub fn generate() -> Result<Fig5> {
    Ok(Fig5 {
        naive: soc_sweeps(ScalingRegime::Naive)?,
        high_margin: soc_sweeps(ScalingRegime::HighMargin)?,
    })
}

/// Writes stacked-bar figures (one per regime) plus the CSV series.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Fig5, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut csv = Csv::new(&[
        "regime",
        "soc",
        "channels",
        "sensing_frac_of_budget",
        "non_sensing_frac_of_budget",
        "utilization",
    ]);
    for (regime, sweeps) in [("naive", &fig.naive), ("high_margin", &fig.high_margin)] {
        let mut chart = BarChart::new(
            format!("Fig. 5 ({regime}): SoC power relative to the power budget"),
            "P_soc / P_budget",
            &["Sensing", "Non-Sensing"],
        );
        for (idx, &n) in SWEEP.iter().enumerate() {
            let bars = sweeps
                .iter()
                .map(|sweep| {
                    let p = &sweep.projections[idx];
                    let budget = p.power_budget();
                    (
                        sweep.id.to_string(),
                        vec![p.sensing_power() / budget, p.non_sensing_power() / budget],
                    )
                })
                .collect();
            chart.push_group(n.to_string(), bars);
        }
        chart.reference_line(1.0, "Power Budget");
        artifacts.write_file(dir, &format!("fig5_{regime}.svg"), &chart.to_svg())?;

        for sweep in sweeps.iter() {
            for (idx, &n) in SWEEP.iter().enumerate() {
                let p = &sweep.projections[idx];
                let budget = p.power_budget();
                csv.push(&[
                    regime.to_owned(),
                    sweep.name.clone(),
                    n.to_string(),
                    (p.sensing_power() / budget).to_string(),
                    (p.non_sensing_power() / budget).to_string(),
                    p.budget_utilization().to_string(),
                ]);
            }
        }
    }
    artifacts.write_file(dir, "fig5.csv", csv.as_str())?;

    // Terminal summary: the paper's headline observations.
    let naive_flat = fig.naive.iter().all(|s| {
        let u0 = s.projections[0].budget_utilization();
        s.projections
            .iter()
            .all(|p| (p.budget_utilization() - u0).abs() < 1e-9)
    });
    let high_margin_exceeds = fig
        .high_margin
        .iter()
        .filter(|s| {
            s.projections
                .last()
                .is_some_and(|p| p.budget_utilization() > 1.0)
        })
        .count();
    artifacts.report(format!(
        "Fig. 5: naive utilization flat across the sweep: {naive_flat}\n\
         Fig. 5: high-margin designs over budget by 8192 channels: {high_margin_exceeds}/8"
    ));
    for sweep in &fig.high_margin {
        let series: Vec<String> = sweep
            .projections
            .iter()
            .map(|p| format!("{}ch {:.0}%", p.channels(), p.budget_utilization() * 100.0))
            .collect();
        artifacts.report(format!(
            "  SoC {} ({}): {}",
            sweep.id,
            sweep.name,
            series.join(", ")
        ));
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_eight_socs_per_regime() {
        let fig = generate().unwrap();
        assert_eq!(fig.naive.len(), 8);
        assert_eq!(fig.high_margin.len(), 8);
        assert!(fig.naive.iter().all(|s| s.projections.len() == SWEEP.len()));
    }

    #[test]
    fn naive_is_flat_and_high_margin_exceeds() {
        let fig = generate().unwrap();
        for sweep in &fig.naive {
            let u0 = sweep.projections[0].budget_utilization();
            for p in &sweep.projections {
                assert!((p.budget_utilization() - u0).abs() < 1e-9);
            }
        }
        let over = fig
            .high_margin
            .iter()
            .filter(|s| s.projections.last().unwrap().budget_utilization() > 1.0)
            .count();
        assert!(over >= 7, "most SoCs exceed the budget by 8192 ch: {over}");
    }

    #[test]
    fn render_writes_three_files() {
        let dir = std::env::temp_dir().join("mindful-fig5-test");
        let artifacts = render(&generate().unwrap(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 3);
        assert!(artifacts.report_text().contains("naive utilization flat"));
        let csv = std::fs::read_to_string(dir.join("fig5.csv")).unwrap();
        assert_eq!(csv.lines().count(), 1 + 2 * 8 * SWEEP.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
