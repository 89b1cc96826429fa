//! Fig. 9 — the twelve-point accelerator synthesis study: layer power,
//! PE power, and the PE share of total power at 130 nm.

use std::path::Path;

use mindful_accel::design::{fig9_design_points, AcceleratorDesign};
use mindful_plot::{AsciiTable, Csv, LineChart, Series};

use crate::error::Result;
use crate::output::Artifacts;

/// The generated Fig. 9 data.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// The twelve design points, in table order.
    pub(crate) designs: Vec<AcceleratorDesign>,
}

/// Builds the twelve design points.
#[must_use]
pub fn generate() -> Fig9 {
    Fig9 {
        designs: fig9_design_points(),
    }
}

/// Writes the configuration table, power series, and share plot.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Fig9, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&[
        "Design",
        "MACseq",
        "MAChw",
        "#MACop",
        "Layer Power (mW)",
        "PE Power (mW)",
        "PE / Layer (%)",
    ]);
    let mut csv = Csv::new(&[
        "design",
        "mac_seq",
        "mac_hw",
        "mac_ops",
        "layer_power_mw",
        "pe_power_mw",
        "pe_share",
    ]);
    let mut power_chart = LineChart::new(
        "Fig. 9: accelerator power across design points (130 nm)",
        "Design Point",
        "Power [mW]",
    );
    let mut share_chart = LineChart::new(
        "Fig. 9: PE power / layer power",
        "Design Point",
        "PE Share [%]",
    );

    let mut layer_series = Vec::new();
    let mut pe_series = Vec::new();
    let mut share_series = Vec::new();
    for (idx, d) in fig.designs.iter().enumerate() {
        let design_no = idx + 1;
        let layer = d.layer_power().milliwatts();
        let pe = d.pe_array_power().milliwatts();
        let share = d.pe_share() * 100.0;
        ascii.push(&[
            design_no.to_string(),
            d.mac_seq().to_string(),
            d.mac_hw().to_string(),
            d.mac_ops().to_string(),
            format!("{layer:.3}"),
            format!("{pe:.3}"),
            format!("{share:.0}"),
        ]);
        csv.push_numbers(&[
            design_no as f64,
            d.mac_seq() as f64,
            d.mac_hw() as f64,
            d.mac_ops() as f64,
            layer,
            pe,
            d.pe_share(),
        ]);
        layer_series.push((design_no as f64, layer));
        pe_series.push((design_no as f64, pe));
        share_series.push((design_no as f64, share));
    }
    power_chart.push_series(Series::new("Layer Power", layer_series));
    power_chart.push_series(Series::new("PE Power", pe_series));
    share_chart.push_series(Series::new("PE Power / Layer Power", share_series));

    artifacts.report("Fig. 9: accelerator design-point power analysis\n");
    artifacts.report(ascii.to_string());
    artifacts.report(format!(
        "PE share: designs 1-5 ~{:.0}%, design 9 ~{:.0}%, design 12 ~{:.0}% \
         (paper: ~25%, ~80%, ~96%)",
        fig.designs[..5]
            .iter()
            .map(|d| d.pe_share() * 100.0)
            .sum::<f64>()
            / 5.0,
        fig.designs[8].pe_share() * 100.0,
        fig.designs[11].pe_share() * 100.0,
    ));
    artifacts.write_file(dir, "fig9.csv", csv.as_str())?;
    artifacts.write_file(dir, "fig9_power.svg", &power_chart.to_svg())?;
    artifacts.write_file(dir, "fig9_share.svg", &share_chart.to_svg())?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_designs_with_rising_share() {
        let fig = generate();
        assert_eq!(fig.designs.len(), 12);
        let first = fig.designs[0].pe_share();
        let last = fig.designs[11].pe_share();
        assert!(first < 0.35);
        assert!(last > 0.90);
    }

    #[test]
    fn total_power_tracks_mac_hw_growth() {
        // Paper: total power consumption tracks increases in MAChw.
        let fig = generate();
        // Designs 6-9 quadruple MAChw stepwise at fixed seq/ops.
        for pair in fig.designs[5..9].windows(2) {
            assert!(pair[1].layer_power() > pair[0].layer_power());
        }
    }

    #[test]
    fn render_reports_all_points() {
        let dir = std::env::temp_dir().join("mindful-fig9-test");
        let artifacts = render(&generate(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 3);
        let csv = std::fs::read_to_string(dir.join("fig9.csv")).unwrap();
        assert_eq!(csv.lines().count(), 13);
        assert!(artifacts.report_text().contains("PE share"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
