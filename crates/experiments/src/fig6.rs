//! Fig. 6 — sensing area relative to total area versus channel count,
//! the volumetric-efficiency indicator, for both design regimes.

use std::path::Path;

use mindful_core::pool::Scheduler;
use mindful_core::regimes::ScalingRegime;
use mindful_core::scaling::standard_design_points;
use mindful_core::soc::wireless_socs;
use mindful_core::sweep::SweepGrid;
use mindful_plot::{Csv, LineChart, Series};

use crate::error::Result;
use crate::output::Artifacts;

/// Channel counts swept by the figure (1024-step granularity as in the
/// paper's x-axis).
pub(crate) const SWEEP: [u64; 8] = [1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192];

/// One SoC's sensing-area-fraction curve.
#[derive(Debug, Clone)]
pub(crate) struct FractionCurve {
    /// Table 1 id.
    pub(crate) id: u8,
    /// SoC display name.
    pub(crate) name: String,
    /// `(channels, sensing area fraction)` along the sweep.
    pub(crate) points: Vec<(u64, f64)>,
}

/// The generated Fig. 6 data per regime.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Curves under the naive hypothesis.
    pub(crate) naive: Vec<FractionCurve>,
    /// Curves under the high-margin hypothesis.
    pub(crate) high_margin: Vec<FractionCurve>,
}

/// Sweeps one regime through the parallel engine and groups the
/// grid-ordered projections back into per-SoC curves.
fn fraction_curves(regime: ScalingRegime) -> Result<Vec<FractionCurve>> {
    let grid = SweepGrid::builder()
        .socs(wireless_socs())
        .regimes([regime])
        .channels(SWEEP)
        .build()?;
    let projections = grid.project(&Scheduler::with_default_threads())?;
    Ok(standard_design_points()
        .iter()
        .zip(projections.chunks(SWEEP.len()))
        .map(|(anchor, chunk)| FractionCurve {
            id: anchor.spec().id(),
            name: anchor.name().to_owned(),
            points: chunk
                .iter()
                .map(|p| (p.channels(), p.sensing_area_fraction()))
                .collect(),
        })
        .collect())
}

/// Sweeps the sensing-area fraction for SoCs 1–8 under both regimes.
///
/// # Errors
///
/// Propagates projection errors (cannot occur for the built-in sweep).
pub fn generate() -> Result<Fig6> {
    Ok(Fig6 {
        naive: fraction_curves(ScalingRegime::Naive)?,
        high_margin: fraction_curves(ScalingRegime::HighMargin)?,
    })
}

/// Writes the two line charts and the CSV series.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Fig6, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut csv = Csv::new(&["regime", "soc", "channels", "sensing_area_fraction"]);
    for (regime, curves) in [("naive", &fig.naive), ("high_margin", &fig.high_margin)] {
        let mut chart = LineChart::new(
            format!("Fig. 6 ({regime}): sensing area fraction vs channels"),
            "Number of NI Channels",
            "Relative Sensing Area",
        );
        for curve in curves.iter() {
            chart.push_series(Series::new(
                format!("{} ({})", curve.id, curve.name.clone()),
                curve.points.iter().map(|&(n, f)| (n as f64, f)).collect(),
            ));
            for &(n, f) in &curve.points {
                csv.push(&[
                    regime.to_owned(),
                    curve.name.clone(),
                    n.to_string(),
                    f.to_string(),
                ]);
            }
        }
        artifacts.write_file(dir, &format!("fig6_{regime}.svg"), &chart.to_svg())?;
    }
    artifacts.write_file(dir, "fig6.csv", csv.as_str())?;

    let naive_flat = fig.naive.iter().all(|c| {
        let f0 = c.points[0].1;
        c.points.iter().all(|&(_, f)| (f - f0).abs() < 1e-9)
    });
    let high_margin_grows = fig
        .high_margin
        .iter()
        .all(|c| c.points.last().unwrap().1 > c.points[0].1);
    artifacts.report(format!(
        "Fig. 6: naive sensing fraction constant: {naive_flat}\n\
         Fig. 6: high-margin sensing fraction grows for all SoCs: {high_margin_grows}"
    ));
    for curve in &fig.high_margin {
        artifacts.report(format!(
            "  SoC {}: {:.2} -> {:.2}",
            curve.id,
            curve.points[0].1,
            curve.points.last().unwrap().1
        ));
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_cover_the_sweep() {
        let fig = generate().unwrap();
        assert_eq!(fig.naive.len(), 8);
        assert!(fig.naive.iter().all(|c| c.points.len() == SWEEP.len()));
    }

    #[test]
    fn high_margin_dominates_naive_by_the_end() {
        // Volumetric efficiency improves only in the high-margin regime.
        let fig = generate().unwrap();
        for (n, h) in fig.naive.iter().zip(&fig.high_margin) {
            assert_eq!(n.id, h.id);
            let naive_end = n.points.last().unwrap().1;
            let margin_end = h.points.last().unwrap().1;
            assert!(margin_end > naive_end, "SoC {}", n.id);
        }
    }

    #[test]
    fn starting_fractions_span_a_wide_band() {
        // Fig. 6's 1024-channel anchors span roughly 0.2–0.8.
        let fig = generate().unwrap();
        let starts: Vec<f64> = fig.high_margin.iter().map(|c| c.points[0].1).collect();
        let lo = starts.iter().copied().fold(f64::MAX, f64::min);
        let hi = starts.iter().copied().fold(f64::MIN, f64::max);
        assert!(lo < 0.35, "lowest start {lo}");
        assert!(hi > 0.6, "highest start {hi}");
    }

    #[test]
    fn render_writes_three_files() {
        let dir = std::env::temp_dir().join("mindful-fig6-test");
        let artifacts = render(&generate().unwrap(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 3);
        assert!(artifacts
            .report_text()
            .contains("high-margin sensing fraction grows for all SoCs: true"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
