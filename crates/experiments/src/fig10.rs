//! Fig. 10 — power consumption (normalized to the power budget) of
//! implanted SoCs running the full MLP and DN-CNN decoders on-chip.

use std::path::Path;

use mindful_core::pool::Scheduler;
use mindful_core::regimes::{standard_split_designs, ScalingRegime};
use mindful_core::soc::wireless_socs;
use mindful_core::sweep::SweepGrid;
use mindful_dnn::integration::{evaluate_full, max_channels, IntegrationConfig};
use mindful_dnn::models::ModelFamily;
use mindful_dnn::DnnError;
use mindful_plot::{Csv, LineChart, Series};

use crate::error::Result;
use crate::output::Artifacts;

/// Channel sweep granularity.
const STEP: u64 = 128;

/// Sweep limit (the paper plots to 7168).
const LIMIT: u64 = 7168;

/// One SoC's normalized-power curve for one model.
#[derive(Debug, Clone)]
pub(crate) struct PowerCurve {
    /// Table 1 id.
    pub(crate) id: u8,
    /// SoC display name.
    pub(crate) name: String,
    /// `(channels, P_soc / P_budget)`.
    pub(crate) points: Vec<(u64, f64)>,
    /// The largest feasible channel count, if any.
    pub(crate) max_channels: Option<u64>,
}

/// The generated Fig. 10 data.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Curves for the MLP (left panel).
    pub(crate) mlp: Vec<PowerCurve>,
    /// Curves for the DN-CNN (right panel).
    pub(crate) dn_cnn: Vec<PowerCurve>,
}

impl Fig10 {
    /// Average maximum channel count among SoCs that fit a model at all.
    #[must_use]
    pub(crate) fn average_max(&self, family: ModelFamily) -> f64 {
        let curves = match family {
            ModelFamily::Mlp => &self.mlp,
            ModelFamily::DnCnn => &self.dn_cnn,
        };
        let feasible: Vec<u64> = curves.iter().filter_map(|c| c.max_channels).collect();
        if feasible.is_empty() {
            0.0
        } else {
            feasible.iter().map(|&n| n as f64).sum::<f64>() / feasible.len() as f64
        }
    }
}

/// Sweeps normalized power for SoCs 1–8 and both model families at the
/// 45 nm evaluation node.
///
/// # Errors
///
/// Propagates evaluation errors other than real-time infeasibility
/// (which simply ends a curve).
pub fn generate() -> Result<Fig10> {
    let config = IntegrationConfig::paper_45nm();
    let designs = standard_split_designs();
    let channels: Vec<u64> = (1024..=LIMIT).step_by(STEP as usize).collect();
    let grid = SweepGrid::builder()
        .socs(wireless_socs())
        // The regime axis is inert here: Fig. 10 scales through the
        // DNN integration model, not the area hypothesis.
        .regimes([ScalingRegime::Naive])
        .channels(channels.clone())
        .build()?;
    let scheduler = Scheduler::with_default_threads();
    let mut fig = Fig10 {
        mlp: Vec::new(),
        dn_cnn: Vec::new(),
    };
    for family in ModelFamily::ALL {
        let cells = grid.map(&scheduler, |c| {
            match evaluate_full(&designs[c.soc_index], family, c.channels, &config) {
                Ok(point) => Ok(Some(point.budget_utilization())),
                Err(DnnError::Accel(_)) => Ok(None),
                Err(e) => Err(crate::ExperimentError::from(e)),
            }
        });
        let maxima = scheduler.map_init(
            &designs,
            || (),
            |(), _, design| {
                max_channels(design, family, &config, 64, 1 << 15)
                    .map_err(crate::ExperimentError::from)
            },
        );
        let mut cells = cells.into_iter();
        for (design, max) in designs.iter().zip(maxima) {
            let mut points = Vec::new();
            let mut feasible = true;
            for (&n, cell) in channels.iter().zip(cells.by_ref().take(channels.len())) {
                if !feasible {
                    continue;
                }
                match cell? {
                    Some(utilization) => points.push((n, utilization)),
                    None => feasible = false,
                }
            }
            let curve = PowerCurve {
                id: design.scaled().spec().id(),
                name: design.scaled().name().to_owned(),
                points,
                max_channels: max?,
            };
            match family {
                ModelFamily::Mlp => fig.mlp.push(curve),
                ModelFamily::DnCnn => fig.dn_cnn.push(curve),
            }
        }
    }
    Ok(fig)
}

/// Writes both panels and the summary.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Fig10, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut csv = Csv::new(&["model", "soc", "channels", "normalized_power"]);
    for (family, curves) in [("MLP", &fig.mlp), ("DN-CNN", &fig.dn_cnn)] {
        let mut chart = LineChart::new(
            format!("Fig. 10 ({family}): normalized power with on-implant DNN"),
            "Number of NI Channels",
            "Normalized Power",
        );
        for curve in curves.iter() {
            // Clamp to the paper's plot bounds (5x) for readability.
            chart.push_series(Series::new(
                format!("SoC {}", curve.id),
                curve
                    .points
                    .iter()
                    .map(|&(n, u)| (n as f64, u.min(5.0)))
                    .collect(),
            ));
            for &(n, u) in &curve.points {
                csv.push(&[
                    family.to_owned(),
                    curve.name.clone(),
                    n.to_string(),
                    u.to_string(),
                ]);
            }
        }
        chart.reference_line(1.0, "Power Budget");
        artifacts.write_file(
            dir,
            &format!("fig10_{}.svg", family.to_lowercase().replace('-', "_")),
            &chart.to_svg(),
        )?;
    }
    artifacts.write_file(dir, "fig10.csv", csv.as_str())?;

    let mlp_avg = fig.average_max(ModelFamily::Mlp);
    let cnn_avg = fig.average_max(ModelFamily::DnCnn);
    artifacts.report(format!(
        "Fig. 10: average max channels (feasible SoCs): MLP {mlp_avg:.0} (paper ~1800), \
         DN-CNN {cnn_avg:.0} (paper ~1400)"
    ));
    for (family, curves) in [("MLP", &fig.mlp), ("DN-CNN", &fig.dn_cnn)] {
        for curve in curves.iter() {
            let at_1024 = curve.points.first().map_or(f64::NAN, |&(_, u)| u);
            artifacts.report(format!(
                "  {family} on SoC {} ({}): {:.2}x budget at 1024, max {}",
                curve.id,
                curve.name,
                at_1024,
                curve
                    .max_channels
                    .map_or("infeasible".into(), |n| format!("{n} ch")),
            ));
        }
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_crossovers_match_paper_bands() {
        let fig = generate().unwrap();
        let mlp = fig.average_max(ModelFamily::Mlp);
        let cnn = fig.average_max(ModelFamily::DnCnn);
        assert!((1400.0..2400.0).contains(&mlp), "MLP avg {mlp}");
        assert!((1100.0..1800.0).contains(&cnn), "DN-CNN avg {cnn}");
        assert!(mlp > cnn, "the MLP must out-scale the DN-CNN");
    }

    #[test]
    fn small_socs_exceed_budget_severely_for_dn_cnn() {
        // Paper: SoCs 4 and 5 exceed the budget by ~5x at 1024.
        let fig = generate().unwrap();
        for curve in fig.dn_cnn.iter().filter(|c| c.id == 4 || c.id == 5) {
            let u = curve.points[0].1;
            assert!(u > 3.0, "SoC {}: {u:.1}x", curve.id);
        }
    }

    #[test]
    fn utilization_rises_along_every_curve() {
        let fig = generate().unwrap();
        for curve in fig.mlp.iter().chain(&fig.dn_cnn) {
            for pair in curve.points.windows(2) {
                assert!(pair[1].1 > pair[0].1, "SoC {}", curve.id);
            }
        }
    }

    #[test]
    fn render_writes_three_files() {
        let dir = std::env::temp_dir().join("mindful-fig10-test");
        let artifacts = render(&generate().unwrap(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 3);
        assert!(artifacts.report_text().contains("average max channels"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
