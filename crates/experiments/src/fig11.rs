//! Fig. 11 — the increase in allowable channel count after partitioning
//! the DNN between the implant and the wearable.

use std::path::Path;

use mindful_core::regimes::standard_split_designs;
use mindful_dnn::integration::{max_channels, IntegrationConfig};
use mindful_dnn::models::ModelFamily;
use mindful_dnn::partition::{channel_gain, max_channels_partitioned};
use mindful_plot::{AsciiTable, BarChart, Csv};

use crate::error::Result;
use crate::output::Artifacts;

/// Search parameters shared with Fig. 10.
const STEP: u64 = 64;
const LIMIT: u64 = 1 << 14;

/// One SoC × model partitioning outcome.
#[derive(Debug, Clone)]
pub(crate) struct PartitionOutcome {
    /// Table 1 id.
    pub(crate) id: u8,
    /// SoC display name.
    pub(crate) name: String,
    /// Model family.
    pub(crate) family: ModelFamily,
    /// Max channels with the full model on the implant.
    pub(crate) full: Option<u64>,
    /// Max channels with the partitioned model.
    pub(crate) partitioned: Option<u64>,
}

impl PartitionOutcome {
    /// The Fig. 11 gain: partitioned / full, by [`channel_gain`] (1.0 =
    /// no benefit, or only one deployment fits).
    #[must_use]
    pub(crate) fn gain(&self) -> Option<f64> {
        channel_gain(self.full, self.partitioned)
    }
}

/// The generated Fig. 11 data.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Outcomes per SoC × model.
    pub(crate) outcomes: Vec<PartitionOutcome>,
}

impl Fig11 {
    /// Average gain for one family across SoCs with a defined gain.
    #[must_use]
    pub(crate) fn average_gain(&self, family: ModelFamily) -> f64 {
        let gains: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.family == family)
            .filter_map(PartitionOutcome::gain)
            .collect();
        if gains.is_empty() {
            0.0
        } else {
            gains.iter().sum::<f64>() / gains.len() as f64
        }
    }

    /// Best gain for one family.
    #[must_use]
    pub(crate) fn best_gain(&self, family: ModelFamily) -> f64 {
        self.outcomes
            .iter()
            .filter(|o| o.family == family)
            .filter_map(PartitionOutcome::gain)
            .fold(1.0, f64::max)
    }
}

/// Computes full vs. partitioned maximum channel counts for SoCs 1–8.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn generate() -> Result<Fig11> {
    let config = IntegrationConfig::paper_45nm();
    let mut outcomes = Vec::new();
    for design in standard_split_designs() {
        for family in ModelFamily::ALL {
            let full = max_channels(&design, family, &config, STEP, LIMIT)?;
            let partitioned = max_channels_partitioned(&design, family, &config, STEP, LIMIT)?;
            outcomes.push(PartitionOutcome {
                id: design.scaled().spec().id(),
                name: design.scaled().name().to_owned(),
                family,
                full,
                partitioned,
            });
        }
    }
    Ok(Fig11 { outcomes })
}

/// Writes the gain chart and summary.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Fig11, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&["Model", "SoC", "Full max", "Partitioned max", "Gain"]);
    let mut csv = Csv::new(&["model", "soc", "full_max", "partitioned_max", "gain"]);
    let mut chart = BarChart::new(
        "Fig. 11: channel-count increase from DNN partitioning",
        "Increased #Channels (relative)",
        &["gain"],
    );
    for family in ModelFamily::ALL {
        let bars: Vec<(String, Vec<f64>)> = fig
            .outcomes
            .iter()
            .filter(|o| o.family == family)
            .map(|o| (o.id.to_string(), vec![o.gain().unwrap_or(0.0)]))
            .collect();
        chart.push_group(family.to_string(), bars);
        for o in fig.outcomes.iter().filter(|o| o.family == family) {
            let row = [
                family.to_string(),
                format!("{} ({})", o.id, o.name),
                o.full.map_or("-".into(), |n| n.to_string()),
                o.partitioned.map_or("-".into(), |n| n.to_string()),
                o.gain().map_or("-".into(), |g| format!("{g:.2}")),
            ];
            ascii.push(&row);
            csv.push(&row);
        }
    }
    chart.reference_line(1.0, "no benefit");
    artifacts.report("Fig. 11: DNN partitioning gains\n");
    artifacts.report(ascii.to_string());
    artifacts.report(format!(
        "MLP: average gain {:.2} (paper ~1.2), best {:.2} (paper 1.4); \
         DN-CNN: average gain {:.2} (paper ~1.0)",
        fig.average_gain(ModelFamily::Mlp),
        fig.best_gain(ModelFamily::Mlp),
        fig.average_gain(ModelFamily::DnCnn),
    ));
    artifacts.write_file(dir, "fig11.csv", csv.as_str())?;
    artifacts.write_file(dir, "fig11.svg", &chart.to_svg())?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_outcomes() {
        let fig = generate().unwrap();
        assert_eq!(fig.outcomes.len(), 16);
    }

    #[test]
    fn mlp_benefits_more_than_dn_cnn() {
        let fig = generate().unwrap();
        let mlp = fig.average_gain(ModelFamily::Mlp);
        let cnn = fig.average_gain(ModelFamily::DnCnn);
        assert!(mlp >= cnn, "MLP {mlp:.2} vs DN-CNN {cnn:.2}");
        assert!(
            fig.best_gain(ModelFamily::Mlp) > 1.15,
            "some SoC gains noticeably from MLP partitioning"
        );
        assert!(cnn < 1.15, "DN-CNN gains stay near 1.0: {cnn:.2}");
    }

    #[test]
    fn gains_never_fall_below_one() {
        let fig = generate().unwrap();
        for o in &fig.outcomes {
            if let Some(g) = o.gain() {
                assert!(g >= 1.0 - 1e-12, "SoC {} {}: {g}", o.id, o.family);
            }
        }
    }

    #[test]
    fn render_writes_files() {
        let dir = std::env::temp_dir().join("mindful-fig11-test");
        let artifacts = render(&generate().unwrap(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 2);
        assert!(artifacts.report_text().contains("average gain"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
