//! Fig. 12 — feasible MLP model sizes on SoCs 1–8 after stacking the
//! Section 6.2 optimizations: channel dropout (`ChDr`), layer reduction
//! (`La`), technology scaling (`Tech`, 45 nm → 12 nm), and channel
//! density (`Dense`, 2× sensing-area reduction).

use std::path::Path;

use mindful_core::regimes::{standard_split_designs, SplitDesign};
use mindful_dnn::integration::{max_active_channels, IntegrationConfig};
use mindful_dnn::models::ModelFamily;
use mindful_dnn::partition::max_active_channels_partitioned;
use mindful_plot::{AsciiTable, BarChart, Csv};

use crate::error::Result;
use crate::output::Artifacts;

/// The channel counts the paper evaluates.
pub(crate) const SWEEP: [u64; 3] = [2048, 4096, 8192];

/// Dropout search granularity.
const STEP: u64 = 32;

/// The four cumulative optimization steps, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OptimizationStack {
    /// Channel dropout only.
    ChDr,
    /// Dropout + layer reduction.
    LaChDr,
    /// Dropout + layer reduction + 12 nm MACs.
    LaChDrTech,
    /// All of the above + denser (halved) sensing area.
    LaChDrTechDense,
}

impl OptimizationStack {
    /// All steps in presentation order.
    pub(crate) const ALL: [Self; 4] = [
        Self::ChDr,
        Self::LaChDr,
        Self::LaChDrTech,
        Self::LaChDrTechDense,
    ];

    /// The paper's label for the step.
    #[must_use]
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Self::ChDr => "ChDr",
            Self::LaChDr => "La+ChDr",
            Self::LaChDrTech => "La+ChDr+Tech",
            Self::LaChDrTechDense => "La+ChDr+Tech+Dense",
        }
    }

    fn config(&self) -> IntegrationConfig {
        match self {
            Self::ChDr | Self::LaChDr => IntegrationConfig::paper_45nm(),
            Self::LaChDrTech => IntegrationConfig::paper_12nm(),
            Self::LaChDrTechDense => IntegrationConfig::paper_12nm().with_dense_channels(),
        }
    }

    fn uses_partitioning(&self) -> bool {
        !matches!(self, Self::ChDr)
    }

    /// The maximum active channels at `channels` total under this stack.
    fn max_active(&self, design: &SplitDesign, channels: u64) -> Result<Option<u64>> {
        let config = self.config();
        let result = if self.uses_partitioning() {
            max_active_channels_partitioned(design, ModelFamily::Mlp, channels, &config, STEP)?
        } else {
            max_active_channels(design, ModelFamily::Mlp, channels, &config, STEP)?
        };
        Ok(result)
    }
}

/// One SoC × channel-count cell of the figure.
#[derive(Debug, Clone)]
pub(crate) struct ModelSizeCell {
    /// Table 1 id.
    pub(crate) id: u8,
    /// SoC display name.
    pub(crate) name: String,
    /// Total NI channels.
    pub(crate) channels: u64,
    /// Normalized model size (0–1 of the unoptimized model) per step, in
    /// [`OptimizationStack::ALL`] order. Zero means even the base model
    /// does not fit.
    pub(crate) sizes: [f64; 4],
}

/// The generated Fig. 12 data.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// One cell per SoC × channel count.
    pub(crate) cells: Vec<ModelSizeCell>,
}

impl Fig12 {
    /// Average normalized size for one step at one channel count.
    #[must_use]
    pub(crate) fn average_size(&self, step: OptimizationStack, channels: u64) -> f64 {
        let idx = OptimizationStack::ALL
            .iter()
            .position(|s| *s == step)
            .expect("step is in ALL");
        let values: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.channels == channels)
            .map(|c| c.sizes[idx])
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }
}

/// Normalized model size of the `active`-channel MLP relative to the
/// full `channels`-channel MLP, by stored weights.
fn normalized_size(active: u64, channels: u64) -> Result<f64> {
    let small = ModelFamily::Mlp.architecture(active)?.weights() as f64;
    let full = ModelFamily::Mlp.architecture(channels)?.weights() as f64;
    Ok(small / full)
}

/// Evaluates the optimization stack for SoCs 1–8 at 2048/4096/8192
/// channels.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn generate() -> Result<Fig12> {
    let mut cells = Vec::new();
    for design in standard_split_designs() {
        for &channels in &SWEEP {
            let mut sizes = [0.0; 4];
            for (idx, step) in OptimizationStack::ALL.iter().enumerate() {
                if let Some(active) = step.max_active(&design, channels)? {
                    sizes[idx] = normalized_size(active, channels)?;
                }
            }
            cells.push(ModelSizeCell {
                id: design.scaled().spec().id(),
                name: design.scaled().name().to_owned(),
                channels,
                sizes,
            });
        }
    }
    Ok(Fig12 { cells })
}

/// Writes the per-SoC charts and summary.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Fig12, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&[
        "SoC",
        "Channels",
        "ChDr %",
        "La+ChDr %",
        "+Tech %",
        "+Dense %",
    ]);
    let mut csv = Csv::new(&[
        "soc",
        "channels",
        "chdr",
        "la_chdr",
        "la_chdr_tech",
        "la_chdr_tech_dense",
    ]);
    let labels: Vec<&str> = OptimizationStack::ALL.iter().map(|s| s.label()).collect();
    for id in 1..=8_u8 {
        let mut chart = BarChart::new(
            format!("Fig. 12 (SoC {id}): feasible MLP model size"),
            "Norm. Model Size [%]",
            &["model size"],
        );
        for &channels in &SWEEP {
            let Some(cell) = fig
                .cells
                .iter()
                .find(|c| c.id == id && c.channels == channels)
            else {
                continue;
            };
            let bars: Vec<(String, Vec<f64>)> = labels
                .iter()
                .zip(cell.sizes)
                .map(|(label, s)| ((*label).to_owned(), vec![s * 100.0]))
                .collect();
            chart.push_group(channels.to_string(), bars);
            ascii.push(&[
                format!("{} ({})", cell.id, cell.name),
                channels.to_string(),
                format!("{:.1}", cell.sizes[0] * 100.0),
                format!("{:.1}", cell.sizes[1] * 100.0),
                format!("{:.1}", cell.sizes[2] * 100.0),
                format!("{:.1}", cell.sizes[3] * 100.0),
            ]);
            csv.push(&[
                cell.name.clone(),
                channels.to_string(),
                cell.sizes[0].to_string(),
                cell.sizes[1].to_string(),
                cell.sizes[2].to_string(),
                cell.sizes[3].to_string(),
            ]);
        }
        artifacts.write_file(dir, &format!("fig12_soc{id}.svg"), &chart.to_svg())?;
    }
    artifacts.report("Fig. 12: feasible MLP model sizes after combined optimizations\n");
    artifacts.report(ascii.to_string());
    for &channels in &SWEEP {
        artifacts.report(format!(
            "  {channels} ch averages: ChDr {:.0}%, La+ChDr {:.0}%, +Tech {:.0}%, +Dense {:.0}%",
            fig.average_size(OptimizationStack::ChDr, channels) * 100.0,
            fig.average_size(OptimizationStack::LaChDr, channels) * 100.0,
            fig.average_size(OptimizationStack::LaChDrTech, channels) * 100.0,
            fig.average_size(OptimizationStack::LaChDrTechDense, channels) * 100.0,
        ));
    }
    artifacts.write_file(dir, "fig12.csv", csv.as_str())?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_all_socs_and_counts() {
        let fig = generate().unwrap();
        assert_eq!(fig.cells.len(), 8 * SWEEP.len());
        assert!(fig
            .cells
            .iter()
            .all(|c| c.sizes.iter().all(|&s| (0.0..=1.0).contains(&s))));
    }

    #[test]
    fn dropout_requirement_grows_with_channels() {
        // Paper: ChDr shrinks the model to ~32% at 2048, ~6% at 4096,
        // ~2% at 8192 — steeply decreasing in n.
        let fig = generate().unwrap();
        let s2048 = fig.average_size(OptimizationStack::ChDr, 2048);
        let s4096 = fig.average_size(OptimizationStack::ChDr, 4096);
        let s8192 = fig.average_size(OptimizationStack::ChDr, 8192);
        assert!(s2048 > s4096 && s4096 > s8192, "{s2048} {s4096} {s8192}");
        assert!(s2048 > 0.10, "2048 avg {s2048}");
        assert!(s8192 < 0.15, "8192 avg {s8192}");
    }

    #[test]
    fn each_optimization_helps_or_is_neutral_except_dense() {
        let fig = generate().unwrap();
        for &channels in &SWEEP {
            let chdr = fig.average_size(OptimizationStack::ChDr, channels);
            let la = fig.average_size(OptimizationStack::LaChDr, channels);
            let tech = fig.average_size(OptimizationStack::LaChDrTech, channels);
            let dense = fig.average_size(OptimizationStack::LaChDrTechDense, channels);
            assert!(la >= chdr * 0.99, "La helps at {channels}: {la} vs {chdr}");
            assert!(tech >= la, "Tech helps at {channels}: {tech} vs {la}");
            assert!(
                dense <= tech,
                "Dense lowers the budget at {channels}: {dense} vs {tech}"
            );
        }
    }

    #[test]
    fn technology_scaling_is_the_big_lever() {
        // Paper: Tech multiplies the feasible model size severalfold.
        let fig = generate().unwrap();
        let la = fig.average_size(OptimizationStack::LaChDr, 4096);
        let tech = fig.average_size(OptimizationStack::LaChDrTech, 4096);
        assert!(tech / la.max(1e-9) > 1.5, "tech {tech} vs la {la}");
    }

    #[test]
    fn render_writes_per_soc_figures() {
        let dir = std::env::temp_dir().join("mindful-fig12-test");
        let artifacts = render(&generate().unwrap(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 9); // 8 SVGs + 1 CSV
        assert!(artifacts.report_text().contains("ChDr"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
