//! Table 1 — the implanted-SoC design database.

use std::path::Path;

use mindful_core::soc::{published_socs, SocSpec};
use mindful_plot::{AsciiTable, Csv};

use crate::error::Result;
use crate::output::Artifacts;

/// The generated table rows.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The published designs, in paper order.
    pub(crate) socs: Vec<SocSpec>,
}

/// Generates Table 1 from the database.
#[must_use]
pub fn generate() -> Table1 {
    Table1 {
        socs: published_socs(),
    }
}

/// Writes the table as CSV and prints the paper's columns.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(table: &Table1, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&[
        "#",
        "SoC",
        "NI Type",
        "#Channels",
        "Area (mm^2)",
        "Pd (mW/cm^2)",
        "f (kHz)",
        "Wireless",
        "In-vivo",
    ]);
    let mut csv = Csv::new(&[
        "id",
        "name",
        "ni_type",
        "channels",
        "area_mm2",
        "power_density_mw_cm2",
        "sampling_khz",
        "wireless",
        "in_vivo",
    ]);
    for soc in &table.socs {
        let row = [
            soc.id().to_string(),
            soc.name().to_owned(),
            soc.technology().to_string(),
            soc.channels().to_string(),
            format!("{:.2}", soc.area().square_millimeters()),
            format!(
                "{:.1}",
                soc.power_density().milliwatts_per_square_centimeter()
            ),
            format!("{:.0}", soc.sampling().kilohertz()),
            yes_no(soc.is_wireless()),
            yes_no(soc.is_validated_in_vivo()),
        ];
        ascii.push(&row);
        csv.push(&row);
    }
    artifacts.report("Table 1: summary of implanted SoC designs\n");
    artifacts.report(ascii.to_string());
    artifacts.write_file(dir, "table1.csv", csv.as_str())?;
    Ok(artifacts)
}

fn yes_no(b: bool) -> String {
    if b { "Yes" } else { "No" }.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_eleven_rows() {
        let table = generate();
        assert_eq!(table.socs.len(), 11);
        assert_eq!(table.socs[0].name(), "BISC");
        assert_eq!(table.socs[10].name(), "Pollman et al.");
    }

    #[test]
    fn render_produces_csv_and_report() {
        let dir = std::env::temp_dir().join("mindful-table1-test");
        let artifacts = render(&generate(), &dir).unwrap();
        assert!(artifacts.report_text().contains("BISC"));
        assert!(artifacts.report_text().contains("HALO"));
        assert_eq!(artifacts.files().len(), 1);
        let csv = std::fs::read_to_string(&artifacts.files()[0]).unwrap();
        assert_eq!(csv.lines().count(), 12); // header + 11 rows
        std::fs::remove_dir_all(&dir).ok();
    }
}
