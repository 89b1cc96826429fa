//! Output plumbing shared by every experiment: a results directory with
//! CSV data, SVG figures, and a terminal report.

use std::fs;
use std::path::{Path, PathBuf};

use crate::error::Result;

/// Collects the artifacts one experiment produces.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    files: Vec<PathBuf>,
    report: String,
}

impl Artifacts {
    /// Creates an empty artifact set.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a block of terminal report text.
    pub(crate) fn report(&mut self, text: impl AsRef<str>) {
        self.report.push_str(text.as_ref());
        if !text.as_ref().ends_with('\n') {
            self.report.push('\n');
        }
    }

    /// Writes a file under `dir`, creating the directory as needed, and
    /// records its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub(crate) fn write_file(&mut self, dir: &Path, name: &str, contents: &str) -> Result<()> {
        fs::create_dir_all(dir)?;
        let path = dir.join(name);
        fs::write(&path, contents)?;
        self.files.push(path);
        Ok(())
    }

    /// The files written so far.
    #[must_use]
    pub fn files(&self) -> &[PathBuf] {
        &self.files
    }

    /// The accumulated terminal report.
    #[must_use]
    pub fn report_text(&self) -> &str {
        &self.report
    }

    /// Prints the report and the file list to stdout.
    pub fn print(&self) {
        println!("{}", self.report);
        for file in &self.files {
            println!("wrote {}", file.display());
        }
    }
}

/// The default results directory (`results/<experiment>` under the
/// workspace root or the current directory).
#[must_use]
pub fn results_dir(experiment: &str) -> PathBuf {
    let base =
        std::env::var_os("MINDFUL_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from);
    base.join(experiment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_collect_reports_and_files() {
        let mut artifacts = Artifacts::new();
        artifacts.report("line one");
        artifacts.report("line two\n");
        assert_eq!(artifacts.report_text(), "line one\nline two\n");

        let dir = std::env::temp_dir().join("mindful-artifacts-test");
        artifacts.write_file(&dir, "x.csv", "a,b\n1,2\n").unwrap();
        assert_eq!(artifacts.files().len(), 1);
        assert!(artifacts.files()[0].ends_with("x.csv"));
        let read = std::fs::read_to_string(&artifacts.files()[0]).unwrap();
        assert_eq!(read, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_dir_uses_experiment_name() {
        let dir = results_dir("fig4");
        assert!(dir.ends_with("fig4"));
    }
}
