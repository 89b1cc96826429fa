//! Fig. 7 — minimum QAM efficiency required to stream raw neural data
//! as the channel count grows, under the paper's nominal link budget
//! (BER 1e-6, 60 dB path loss, 20 dB margin).

use std::path::Path;

use mindful_core::pool::Scheduler;
use mindful_core::regimes::{standard_split_designs, ScalingRegime};
use mindful_core::soc::wireless_socs;
use mindful_core::sweep::SweepGrid;
use mindful_plot::{Csv, LineChart, Series};
use mindful_rf::efficiency::{
    max_channels_at_efficiency, qam_operating_point, SHORT_TERM_QAM_EFFICIENCY,
};
use mindful_rf::linkbudget::LinkBudget;
use mindful_rf::RfError;

use crate::error::Result;
use crate::output::Artifacts;

/// Channel sweep granularity.
const STEP: u64 = 128;

/// Sweep limit.
const LIMIT: u64 = 6144;

/// One SoC's minimum-efficiency curve.
#[derive(Debug, Clone)]
pub(crate) struct EfficiencyCurve {
    /// Table 1 id.
    pub(crate) id: u8,
    /// SoC display name.
    pub(crate) name: String,
    /// `(channels, minimum QAM efficiency)`.
    pub(crate) points: Vec<(u64, f64)>,
    /// Maximum channels at the 20 % short-term efficiency target.
    pub(crate) max_at_20: Option<u64>,
    /// Maximum channels at the ideal 100 % efficiency.
    pub(crate) max_at_100: Option<u64>,
}

/// The generated Fig. 7 data.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Per-SoC curves.
    pub(crate) curves: Vec<EfficiencyCurve>,
    /// The fleet-average minimum efficiency per channel count.
    pub(crate) average: Vec<(u64, f64)>,
}

impl Fig7 {
    /// Average channel multiple (vs. 1024) achievable at 20 % efficiency.
    #[must_use]
    pub(crate) fn average_multiple_at_20(&self) -> f64 {
        average_multiple(self.curves.iter().filter_map(|c| c.max_at_20))
    }

    /// Average channel multiple achievable at 100 % efficiency.
    #[must_use]
    pub(crate) fn average_multiple_at_100(&self) -> f64 {
        average_multiple(self.curves.iter().filter_map(|c| c.max_at_100))
    }
}

fn average_multiple(values: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<u64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().map(|&n| n as f64 / 1024.0).sum::<f64>() / v.len() as f64
}

/// Sweeps the minimum QAM efficiency for SoCs 1–8.
///
/// The sweep is a grid declaration over SoC × channel count, fanned out
/// by the core sweep engine; a curve still ends at its first infeasible
/// point exactly as the paper's figure does (later grid cells for that
/// SoC are computed in parallel but discarded).
///
/// # Errors
///
/// Propagates link-budget errors.
pub fn generate() -> Result<Fig7> {
    let link = LinkBudget::paper_nominal();
    let designs = standard_split_designs();
    let channels: Vec<u64> = (1024..=LIMIT).step_by(STEP as usize).collect();
    let grid = SweepGrid::builder()
        .socs(wireless_socs())
        // The regime axis is inert here: Fig. 7 is governed by the
        // link budget, not the area hypothesis.
        .regimes([ScalingRegime::Naive])
        .channels(channels.clone())
        .build()?;
    let scheduler = Scheduler::with_default_threads();
    let cells = grid.map(&scheduler, |c| {
        match qam_operating_point(&designs[c.soc_index], c.channels, &link) {
            Ok(point) => Ok(Some(point.min_efficiency())),
            Err(RfError::LinkInfeasible { .. }) => Ok(None),
            Err(e) => Err(crate::ExperimentError::from(e)),
        }
    });
    let maxima = scheduler.map_init(
        &designs,
        || (),
        |(), _, design| {
            Ok::<_, crate::ExperimentError>((
                max_channels_at_efficiency(design, SHORT_TERM_QAM_EFFICIENCY, &link, 64, 1 << 16)?,
                max_channels_at_efficiency(design, 1.0, &link, 64, 1 << 16)?,
            ))
        },
    );

    let mut curves = Vec::new();
    let mut cells = cells.into_iter();
    for (design, maxima) in designs.iter().zip(maxima) {
        let (max_at_20, max_at_100) = maxima?;
        let mut points = Vec::new();
        let mut feasible = true;
        for (&n, cell) in channels.iter().zip(cells.by_ref().take(channels.len())) {
            if !feasible {
                continue;
            }
            match cell? {
                Some(efficiency) => points.push((n, efficiency)),
                None => feasible = false,
            }
        }
        curves.push(EfficiencyCurve {
            id: design.scaled().spec().id(),
            name: design.scaled().name().to_owned(),
            points,
            max_at_20,
            max_at_100,
        });
    }

    // Fleet average at each sweep point covered by every curve.
    let mut average = Vec::new();
    let mut n = 1024;
    while n <= LIMIT {
        let values: Vec<f64> = curves
            .iter()
            .filter_map(|c| {
                c.points
                    .iter()
                    .find(|&&(cn, _)| cn == n)
                    .map(|&(_, eff)| eff)
            })
            .collect();
        if !values.is_empty() {
            average.push((n, values.iter().sum::<f64>() / values.len() as f64));
        }
        n += STEP;
    }
    Ok(Fig7 { curves, average })
}

/// Writes the per-SoC curves, fleet average, and summary.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Fig7, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut chart = LineChart::new(
        "Fig. 7: minimum QAM efficiency to meet the power budget",
        "Number of NI Channels",
        "QAM Efficiency [%]",
    );
    let mut csv = Csv::new(&["soc", "channels", "min_efficiency_percent"]);
    for curve in &fig.curves {
        chart.push_series(Series::new(
            format!("SoC {}", curve.id),
            curve
                .points
                .iter()
                .map(|&(n, e)| (n as f64, (e * 100.0).min(120.0)))
                .collect(),
        ));
        for &(n, e) in &curve.points {
            csv.push(&[curve.name.clone(), n.to_string(), (e * 100.0).to_string()]);
        }
    }
    chart.push_series(Series::new(
        "average",
        fig.average
            .iter()
            .map(|&(n, e)| (n as f64, (e * 100.0).min(120.0)))
            .collect(),
    ));
    chart.reference_line(100.0, "ideal (100%)");
    artifacts.write_file(dir, "fig7.svg", &chart.to_svg())?;
    artifacts.write_file(dir, "fig7.csv", csv.as_str())?;

    artifacts.report(format!(
        "Fig. 7: average channel multiple at 20% QAM efficiency: {:.2}x (paper: ~2x)\n\
         Fig. 7: average channel multiple at 100% QAM efficiency: {:.2}x (paper: ~4x)",
        fig.average_multiple_at_20(),
        fig.average_multiple_at_100(),
    ));
    for curve in &fig.curves {
        artifacts.report(format!(
            "  SoC {} ({}): max {} ch @20%, max {} ch @100%",
            curve.id,
            curve.name,
            curve.max_at_20.map_or("-".into(), |n| n.to_string()),
            curve.max_at_100.map_or("-".into(), |n| n.to_string()),
        ));
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_monotone_and_start_low() {
        let fig = generate().unwrap();
        assert_eq!(fig.curves.len(), 8);
        for curve in &fig.curves {
            for pair in curve.points.windows(2) {
                assert!(
                    pair[1].1 >= pair[0].1 - 1e-12,
                    "SoC {} efficiency must not fall",
                    curve.id
                );
            }
        }
    }

    #[test]
    fn headline_multiples_are_near_the_paper() {
        let fig = generate().unwrap();
        let at20 = fig.average_multiple_at_20();
        let at100 = fig.average_multiple_at_100();
        assert!((1.2..=4.0).contains(&at20), "20%: {at20:.2}x (paper ~2x)");
        assert!(
            (2.0..=8.0).contains(&at100),
            "100%: {at100:.2}x (paper ~4x)"
        );
        assert!(at100 > at20);
    }

    #[test]
    fn render_writes_files() {
        let dir = std::env::temp_dir().join("mindful-fig7-test");
        let artifacts = render(&generate().unwrap(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 2);
        assert!(artifacts.report_text().contains("average channel multiple"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
