//! # MINDFUL experiments — the paper's evaluation, regenerated
//!
//! One module per table/figure of the MICRO 2025 paper, each exposing a
//! pure `generate()` that computes the result and a `render()` that
//! writes CSV + SVG artifacts and a terminal report. The binaries in
//! `src/bin/` wrap these for the Artifact-Appendix-style workflow:
//!
//! ```text
//! cargo run -p mindful-experiments --bin table1
//! cargo run -p mindful-experiments --bin fig4     # ... fig5..fig12
//! cargo run -p mindful-experiments --bin all
//! ```
//!
//! Artifacts land in `results/<experiment>/` (override with the
//! `MINDFUL_RESULTS` environment variable).

pub(crate) mod ablations;
mod error;
pub mod explore;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod output;
pub mod realtime;
pub mod scoreboard;
pub(crate) mod secure_study;
pub(crate) mod snn_study;
pub mod table1;
pub mod wpt_study;

pub use error::{ExperimentError, Result};

use output::{results_dir, Artifacts};

/// Runs one experiment by name, writing artifacts to the default results
/// directory.
///
/// # Errors
///
/// Returns the underlying experiment error, or an IO error for unknown
/// names.
pub fn run_by_name(name: &str) -> Result<Artifacts> {
    let dir = results_dir(name);
    match name {
        "table1" => table1::render(&table1::generate(), &dir),
        "fig4" => fig4::render(&fig4::generate(), &dir),
        "fig5" => fig5::render(&fig5::generate()?, &dir),
        "fig6" => fig6::render(&fig6::generate()?, &dir),
        "fig7" => fig7::render(&fig7::generate()?, &dir),
        "fig9" => fig9::render(&fig9::generate(), &dir),
        "fig10" => fig10::render(&fig10::generate()?, &dir),
        "fig11" => fig11::render(&fig11::generate()?, &dir),
        "fig12" => fig12::render(&fig12::generate()?, &dir),
        "explore" => explore::render(&explore::generate()?, &dir),
        "ext_realtime" => realtime::render(&realtime::generate()?, &dir),
        "ext_secure" => secure_study::render(&secure_study::generate()?, &dir),
        "ext_snn" => snn_study::render(&snn_study::generate()?, &dir),
        "ext_wpt" => wpt_study::render(&wpt_study::generate()?, &dir),
        "ext_ablations" => ablations::render(&ablations::generate()?, &dir),
        "scoreboard" => scoreboard::render(&scoreboard::generate()?, &dir),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("unknown experiment `{other}`"),
        )
        .into()),
    }
}

/// Every paper experiment name, in paper order.
pub const ALL_EXPERIMENTS: [&str; 9] = [
    "table1", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12",
];

/// The beyond-the-paper extension studies (Sections 7–8 directions),
/// plus the full design-space exploration built on the sweep engine.
pub const ALL_EXTENSIONS: [&str; 6] = [
    "explore",
    "ext_realtime",
    "ext_secure",
    "ext_snn",
    "ext_wpt",
    "ext_ablations",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_reported() {
        let err = run_by_name("fig99").unwrap_err();
        assert!(err.to_string().contains("fig99"));
    }

    #[test]
    fn cheap_experiments_run_by_name() {
        std::env::set_var(
            "MINDFUL_RESULTS",
            std::env::temp_dir().join("mindful-run-test"),
        );
        let artifacts = run_by_name("table1").unwrap();
        assert!(!artifacts.files().is_empty());
        std::env::remove_var("MINDFUL_RESULTS");
    }
}
