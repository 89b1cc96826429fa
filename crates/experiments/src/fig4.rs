//! Fig. 4 — power vs. area for every design scaled to 1024 channels,
//! against the 40 mW/cm² power-budget line.

use std::path::Path;

use mindful_core::budget::power_budget;
use mindful_core::scaling::{fig4_design_points, ScaledSoc};
use mindful_core::units::Area;
use mindful_plot::{AsciiTable, Csv, LineChart, Series};

use crate::error::Result;
use crate::output::Artifacts;

/// The generated Fig. 4 population.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// All 11 designs scaled to 1024 channels.
    pub(crate) points: Vec<ScaledSoc>,
}

/// Scales every published design to 1024 channels.
#[must_use]
pub fn generate() -> Fig4 {
    Fig4 {
        points: fig4_design_points(),
    }
}

/// Writes the scatter data, the budget line, and a terminal report.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(fig: &Fig4, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&[
        "SoC",
        "Area (mm^2)",
        "Power (mW)",
        "Pd (mW/cm^2)",
        "Budget (mW)",
        "Safe",
    ]);
    let mut csv = Csv::new(&[
        "name",
        "area_mm2",
        "power_mw",
        "density_mw_cm2",
        "budget_mw",
    ]);
    let mut chart = LineChart::new(
        "Fig. 4: designs scaled to 1024 channels",
        "Area [mm^2]",
        "Power [mW]",
    );

    for p in &fig.points {
        ascii.push(&[
            p.name().to_owned(),
            format!("{:.2}", p.area().square_millimeters()),
            format!("{:.2}", p.power().milliwatts()),
            format!(
                "{:.1}",
                p.power_density().milliwatts_per_square_centimeter()
            ),
            format!("{:.2}", p.power_budget().milliwatts()),
            if p.is_safe() { "yes" } else { "NO" }.to_owned(),
        ]);
        csv.push(&[
            p.name().to_owned(),
            p.area().square_millimeters().to_string(),
            p.power().milliwatts().to_string(),
            p.power_density()
                .milliwatts_per_square_centimeter()
                .to_string(),
            p.power_budget().milliwatts().to_string(),
        ]);
        // Single-point "series" render as labelled markers via a short
        // degenerate segment.
        let x = p.area().square_millimeters();
        let y = p.power().milliwatts();
        chart.push_series(Series::new(
            p.name(),
            vec![(x * 0.99, y), (x, y), (x * 1.01, y)],
        ));
    }
    // The power-budget line over the plotted area range.
    let max_area = fig
        .points
        .iter()
        .map(|p| p.area().square_millimeters())
        .fold(0.0_f64, f64::max)
        * 1.1;
    let budget_line: Vec<(f64, f64)> = (0..=40)
        .map(|i| {
            let a = max_area * f64::from(i) / 40.0;
            (
                a,
                power_budget(Area::from_square_millimeters(a)).milliwatts(),
            )
        })
        .collect();
    chart.push_series(Series::new("Power Budget", budget_line));

    artifacts.report("Fig. 4: power and area at 1024 channels\n");
    artifacts.report(ascii.to_string());
    artifacts.report(format!(
        "all designs below the power budget: {}",
        fig.points.iter().all(ScaledSoc::is_safe)
    ));
    artifacts.write_file(dir, "fig4.csv", csv.as_str())?;
    artifacts.write_file(dir, "fig4.svg", &chart.to_svg())?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_eleven_safe_points() {
        let fig = generate();
        assert_eq!(fig.points.len(), 11);
        assert!(fig.points.iter().all(ScaledSoc::is_safe));
        assert!(fig.points.iter().all(|p| p.channels() == 1024));
    }

    #[test]
    fn halo_star_replaces_halo() {
        let fig = generate();
        assert!(fig.points.iter().any(|p| p.name() == "HALO*"));
        assert!(!fig.points.iter().any(|p| p.name() == "HALO"));
    }

    #[test]
    fn render_writes_csv_and_svg() {
        let dir = std::env::temp_dir().join("mindful-fig4-test");
        let artifacts = render(&generate(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 2);
        assert!(artifacts
            .report_text()
            .contains("below the power budget: true"));
        let csv = std::fs::read_to_string(&artifacts.files()[0]).unwrap();
        assert!(csv.starts_with("name,area_mm2,power_mw,density_mw_cm2,budget_mw"));
        assert_eq!(csv.lines().count(), 12);
        let svg = std::fs::read_to_string(&artifacts.files()[1]).unwrap();
        assert!(svg.contains("Power Budget"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
