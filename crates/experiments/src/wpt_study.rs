//! Extension: wireless power transfer (Section 8).
//!
//! WPT "raises questions about power efficiency and heat generation":
//! the implant-side coil and rectifier losses dissipate inside the head
//! and eat into the same 40 mW/cm² budget the SoC lives on. This study
//! recomputes each SoC's usable power under a WPT feed and the external
//! transmit power the wearable must radiate.

use std::path::Path;

use mindful_core::scaling::standard_design_points;
use mindful_plot::{AsciiTable, Csv};
use mindful_rf::wpt::WptLink;

use crate::error::Result;
use crate::output::Artifacts;

/// One SoC's WPT accounting.
#[derive(Debug, Clone)]
pub(crate) struct WptRow {
    /// Table 1 id.
    pub(crate) id: u8,
    /// SoC display name.
    pub(crate) name: String,
    /// The SoC's own power draw at 1024 channels (mW).
    pub(crate) soc_power_mw: f64,
    /// The dissipation budget of its area (mW).
    pub(crate) budget_mw: f64,
    /// Maximum SoC power once WPT losses share the budget (mW).
    pub(crate) usable_mw: f64,
    /// External transmit power to feed the SoC (mW).
    pub(crate) transmit_mw: f64,
    /// Whether the scaled design still fits under a WPT feed.
    pub(crate) fits_with_wpt: bool,
}

/// The generated study.
#[derive(Debug, Clone)]
pub struct WptStudy {
    /// The link model used.
    pub(crate) link: WptLink,
    /// One row per wireless SoC at 1024 channels.
    pub(crate) rows: Vec<WptRow>,
}

/// Evaluates the typical subdural link against every 1024-channel
/// anchor.
///
/// # Errors
///
/// Propagates link-model errors.
pub fn generate() -> Result<WptStudy> {
    let link = WptLink::typical_subdural();
    let mut rows = Vec::new();
    for point in standard_design_points() {
        let usable = link.max_soc_power(point.area());
        let transmit = link.transmit_power_for(point.power())?;
        rows.push(WptRow {
            id: point.spec().id(),
            name: point.name().to_owned(),
            soc_power_mw: point.power().milliwatts(),
            budget_mw: point.power_budget().milliwatts(),
            usable_mw: usable.milliwatts(),
            transmit_mw: transmit.milliwatts(),
            fits_with_wpt: point.power() <= usable,
        });
    }
    Ok(WptStudy { link, rows })
}

/// Writes the accounting table and summary.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(study: &WptStudy, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&[
        "SoC",
        "P_soc (mW)",
        "Budget (mW)",
        "Usable w/ WPT (mW)",
        "TX (mW)",
        "Fits",
    ]);
    let mut csv = Csv::new(&[
        "soc",
        "soc_power_mw",
        "budget_mw",
        "usable_with_wpt_mw",
        "transmit_mw",
        "fits",
    ]);
    for row in &study.rows {
        let cells = [
            format!("{} ({})", row.id, row.name),
            format!("{:.2}", row.soc_power_mw),
            format!("{:.2}", row.budget_mw),
            format!("{:.2}", row.usable_mw),
            format!("{:.1}", row.transmit_mw),
            row.fits_with_wpt.to_string(),
        ];
        ascii.push(&cells);
        csv.push(&cells);
    }
    artifacts.report(format!(
        "Extension: wireless power transfer accounting\n{}\n",
        study.link
    ));
    artifacts.report(ascii.to_string());
    let squeezed = study.rows.iter().filter(|r| !r.fits_with_wpt).count();
    artifacts.report(format!(
        "designs squeezed out of their budget by WPT losses: {squeezed}/8\n\
         (WPT losses shrink every budget; designs already at the line cannot be fed)"
    ));
    artifacts.write_file(dir, "wpt.csv", csv.as_str())?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wpt_always_shrinks_the_usable_budget() {
        let study = generate().unwrap();
        assert_eq!(study.rows.len(), 8);
        for row in &study.rows {
            assert!(row.usable_mw < row.budget_mw, "{}", row.name);
            assert!(row.transmit_mw > row.soc_power_mw, "{}", row.name);
        }
    }

    #[test]
    fn budget_line_designs_no_longer_fit() {
        // HALO* sits exactly on the budget, so any WPT loss evicts it.
        let study = generate().unwrap();
        let halo = study.rows.iter().find(|r| r.name == "HALO*").unwrap();
        assert!(!halo.fits_with_wpt);
        // But comfortably-under-budget designs still fit.
        let bisc = study.rows.iter().find(|r| r.name == "BISC").unwrap();
        assert!(bisc.fits_with_wpt);
    }

    #[test]
    fn render_writes_the_table() {
        let dir = std::env::temp_dir().join("mindful-wpt-test");
        let artifacts = render(&generate().unwrap(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 1);
        assert!(artifacts.report_text().contains("WPT"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
